//! PBPI — parallel Bayesian phylogenetic inference (Table I:
//! bioinformatics).
//!
//! MCMC generations: each generation evaluates per-site-block
//! likelihoods against the current tree (wide fan-out), reduces them to
//! a total log-likelihood (fan-in tree), and accepts/rejects a tree
//! mutation (a serial inout on the tree state that gates the next
//! generation). Runtimes are remarkably uniform (28/29/29 µs in Table
//! I) because every site block does the same arithmetic.

use crate::common::Layout;
use tss_sim::{Rng, RuntimeDist};
use tss_trace::{OperandDesc, Operands, TaskTrace, TraceGenerator};

/// Fan-in of the likelihood reduction.
const FAN_IN: usize = 16;

/// Trace generator for PBPI.
#[derive(Debug, Clone)]
pub struct PbpiGen {
    /// Site blocks evaluated per generation.
    pub site_blocks: usize,
    /// MCMC generations.
    pub generations: usize,
}

impl PbpiGen {
    /// A generator for `generations` rounds over `site_blocks` blocks.
    pub fn new(site_blocks: usize, generations: usize) -> Self {
        PbpiGen { site_blocks, generations }
    }

    fn reduce_tasks(mut width: usize) -> usize {
        let mut t = 0;
        while width > 1 {
            width = width.div_ceil(FAN_IN);
            t += width;
        }
        t
    }

    /// Tasks per run.
    pub fn task_count(&self) -> usize {
        self.generations * (self.site_blocks + Self::reduce_tasks(self.site_blocks) + 1)
    }
}

impl TraceGenerator for PbpiGen {
    fn name(&self) -> &str {
        "PBPI"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("PBPI");
        let likelihood = trace.add_kernel("site_likelihood");
        let reduce = trace.add_kernel("reduce_loglik");
        let mutate = trace.add_kernel("propose_tree");
        let mut rng = Rng::seeded(seed ^ 0x9B91);
        let mut layout = Layout::new();
        // Table I: min 28 / med 29 / avg 29 us; 32 KB data.
        let dist = RuntimeDist::from_us(28.0, 29.0, 29.0);
        let site_bytes: u64 = 28 << 10;
        let lik_bytes: u64 = 1 << 10;
        let tree_bytes: u64 = 2 << 10;

        let sites = layout.objects(self.site_blocks, site_bytes);
        let tree = layout.object(tree_bytes);

        for _gen in 0..self.generations {
            let mut layer: Vec<u64> = Vec::with_capacity(self.site_blocks);
            for &s in &sites {
                let lik = layout.object(lik_bytes);
                trace.push_task(
                    likelihood,
                    dist.sample(&mut rng),
                    [
                        OperandDesc::input(s, site_bytes as u32),
                        OperandDesc::input(tree, tree_bytes as u32),
                        OperandDesc::output(lik, lik_bytes as u32),
                    ],
                );
                layer.push(lik);
            }
            while layer.len() > 1 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(FAN_IN));
                for chunk in layer.chunks(FAN_IN) {
                    let merged = layout.object(lik_bytes);
                    let ops: Operands = chunk
                        .iter()
                        .map(|&a| OperandDesc::input(a, lik_bytes as u32))
                        .chain([OperandDesc::output(merged, lik_bytes as u32)])
                        .collect();
                    trace.push_task(reduce, dist.sample(&mut rng), ops);
                    next.push(merged);
                }
                layer = next;
            }
            trace.push_task(
                mutate,
                dist.sample(&mut rng),
                [
                    OperandDesc::input(layer[0], lik_bytes as u32),
                    OperandDesc::inout(tree, tree_bytes as u32),
                ],
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::DepGraph;

    #[test]
    fn task_count_formula() {
        let gen = PbpiGen::new(64, 2);
        assert_eq!(gen.task_count(), 2 * (64 + 5 + 1));
        assert_eq!(gen.generate(0).len(), gen.task_count());
    }

    #[test]
    fn generations_serialize_through_the_tree() {
        let gen = PbpiGen::new(8, 2);
        let trace = gen.generate(0);
        let g = DepGraph::from_trace(&trace);
        // Generation 0: 0..8 likelihoods, 8 reduce, 9 mutate; generation
        // 1 starts at 10 and must observe the mutated tree.
        assert!(g.reachable(9, 10));
        // The mutate task also anti-depends on this generation's readers
        // of the tree (inout is not renamed).
        assert!(g.preds(9).contains(&8), "mutate reads the reduced likelihood");
    }

    #[test]
    fn runtime_spread_is_tight() {
        let trace = PbpiGen::new(64, 6).generate(2);
        let min_us = trace.min_runtime().unwrap() as f64 / 3200.0;
        let med_us = trace.median_runtime().unwrap() as f64 / 3200.0;
        let avg_us = trace.avg_runtime() / 3200.0;
        assert!((27.5..29.0).contains(&min_us), "min {min_us}");
        assert!((28.0..30.0).contains(&med_us), "med {med_us}");
        assert!((28.0..30.0).contains(&avg_us), "avg {avg_us}");
        let data_kb = trace.avg_data_bytes() / 1024.0;
        assert!((25.0..36.0).contains(&data_kb), "data {data_kb} KB");
    }
}
