//! K-Means clustering (Table I: machine learning).
//!
//! Iterative structure: every iteration fans out independent *assign*
//! tasks (one per point block, all reading the current centroids),
//! reduces their partial sums through a fan-in tree, and finishes with
//! an *update* task that writes the next centroids — the read-mostly /
//! write-once pattern renaming thrives on (each iteration's centroid
//! write gets a fresh version while laggard readers drain).

use crate::common::Layout;
use tss_sim::{Rng, RuntimeDist};
use tss_trace::{OperandDesc, Operands, TaskTrace, TraceGenerator};

/// Fan-in of the reduction tree (16 inputs + 1 output fits the
/// 19-operand TRS limit).
const FAN_IN: usize = 16;

/// Trace generator for K-Means.
#[derive(Debug, Clone)]
pub struct KMeansGen {
    /// Point blocks per iteration.
    pub blocks: usize,
    /// Lloyd iterations.
    pub iterations: usize,
}

impl KMeansGen {
    /// A generator over `blocks` point blocks for `iterations` rounds.
    pub fn new(blocks: usize, iterations: usize) -> Self {
        KMeansGen { blocks, iterations }
    }

    fn reduce_layers(mut width: usize) -> usize {
        let mut tasks = 0;
        while width > 1 {
            width = width.div_ceil(FAN_IN);
            tasks += width;
        }
        tasks
    }

    /// Tasks per run: per iteration, `blocks` assigns + reduction tree +
    /// 1 centroid update.
    pub fn task_count(&self) -> usize {
        self.iterations * (self.blocks + Self::reduce_layers(self.blocks) + 1)
    }
}

impl TraceGenerator for KMeansGen {
    fn name(&self) -> &str {
        "KMeans"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("KMeans");
        let assign = trace.add_kernel("assign");
        let reduce = trace.add_kernel("reduce");
        let update = trace.add_kernel("update_centroids");
        let mut rng = Rng::seeded(seed ^ 0x63A5);
        let mut layout = Layout::new();
        // Table I: min 24 / med 59 / avg 55 us; 38 KB data.
        let dist = RuntimeDist::from_us(24.0, 59.0, 55.0);
        let point_bytes: u64 = 32 << 10;
        let partial_bytes: u64 = 2 << 10;
        let centroid_bytes: u64 = 4 << 10;

        let points = layout.objects(self.blocks, point_bytes);
        let centroids = layout.object(centroid_bytes);

        for _iter in 0..self.iterations {
            // Assign: independent across blocks; all read the centroids.
            let mut layer: Vec<u64> = Vec::with_capacity(self.blocks);
            for &p in &points {
                let partial = layout.object(partial_bytes);
                trace.push_task(
                    assign,
                    dist.sample(&mut rng),
                    [
                        OperandDesc::input(p, point_bytes as u32),
                        OperandDesc::input(centroids, centroid_bytes as u32),
                        OperandDesc::output(partial, partial_bytes as u32),
                    ],
                );
                layer.push(partial);
            }
            // Fan-in reduction tree.
            while layer.len() > 1 {
                let mut next: Vec<u64> = Vec::with_capacity(layer.len().div_ceil(FAN_IN));
                for chunk in layer.chunks(FAN_IN) {
                    let merged = layout.object(partial_bytes);
                    let ops: Operands = chunk
                        .iter()
                        .map(|&a| OperandDesc::input(a, partial_bytes as u32))
                        .chain([OperandDesc::output(merged, partial_bytes as u32)])
                        .collect();
                    trace.push_task(reduce, dist.sample(&mut rng), ops);
                    next.push(merged);
                }
                layer = next;
            }
            // Update: produces the next centroid version (renamed while
            // stragglers of this iteration still read the old one).
            trace.push_task(
                update,
                dist.sample(&mut rng),
                [
                    OperandDesc::input(layer[0], partial_bytes as u32),
                    OperandDesc::output(centroids, centroid_bytes as u32),
                ],
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::{parallelism_profile, DepGraph};

    #[test]
    fn task_count_formula() {
        let gen = KMeansGen::new(64, 3);
        // 64 assigns + (4 + 1) reduces + 1 update per iteration.
        assert_eq!(gen.task_count(), 3 * (64 + 5 + 1));
        assert_eq!(gen.generate(0).len(), gen.task_count());
    }

    #[test]
    fn iterations_serialize_through_centroids() {
        let gen = KMeansGen::new(8, 2);
        let trace = gen.generate(0);
        let g = DepGraph::from_trace(&trace);
        // Iteration 0: tasks 0..8 assign, 8 reduce, 9 update.
        // Iteration 1's first assign (task 10) reads the new centroids.
        assert!(g.reachable(9, 10), "update must gate the next iteration");
        // Assigns within an iteration are mutually independent.
        assert!(!g.reachable(0, 1) && !g.reachable(1, 0));
    }

    #[test]
    fn reduction_tree_gathers_all_partials() {
        let gen = KMeansGen::new(8, 1);
        let trace = gen.generate(0);
        let g = DepGraph::from_trace(&trace);
        // Task 8 is the single reduce; it reads all 8 partials.
        assert_eq!(g.preds(8).len(), 8);
    }

    #[test]
    fn wide_parallelism_within_iteration() {
        let trace = KMeansGen::new(64, 2).generate(3);
        let g = DepGraph::from_trace(&trace);
        let p = parallelism_profile(&trace, &g);
        assert!(p.max_width >= 64, "width {}", p.max_width);
    }

    #[test]
    fn stats_near_table_one() {
        let trace = KMeansGen::new(128, 8).generate(5);
        let min_us = trace.min_runtime().unwrap() as f64 / 3200.0;
        let med_us = trace.median_runtime().unwrap() as f64 / 3200.0;
        let avg_us = trace.avg_runtime() / 3200.0;
        assert!((23.5..27.0).contains(&min_us), "min {min_us}");
        assert!((53.0..65.0).contains(&med_us), "med {med_us}");
        assert!((50.0..60.0).contains(&avg_us), "avg {avg_us}");
        let data_kb = trace.avg_data_bytes() / 1024.0;
        assert!((30.0..42.0).contains(&data_kb), "data {data_kb} KB");
    }
}
