//! K-Nearest Neighbors (Table I: pattern recognition).
//!
//! Embarrassingly parallel distance computations — every (query batch,
//! training block) pair is independent — followed by a short per-query
//! merge chain. Tasks are long (~95% above 100 µs, Section VI.C), which
//! is why Knn is one of the two benchmarks whose software-runtime curve
//! keeps scaling to 128 processors in Figure 16: at 107 µs median, even
//! a 700 ns serial decoder keeps up.

use crate::common::{Layout, PiecewiseUs};
use tss_sim::Rng;
use tss_trace::{OperandDesc, Operands, TaskTrace, TraceGenerator};

/// Distance blocks merged per merge task.
const MERGE_FAN: usize = 8;

/// Trace generator for Knn.
#[derive(Debug, Clone)]
pub struct KnnGen {
    /// Training-set blocks.
    pub train_blocks: usize,
    /// Query batches.
    pub queries: usize,
}

impl KnnGen {
    /// A generator for `queries` batches against `train_blocks` blocks.
    pub fn new(train_blocks: usize, queries: usize) -> Self {
        KnnGen { train_blocks, queries }
    }

    /// Tasks per run: per query, `train_blocks` distance tasks plus a
    /// merge chain of `ceil(train_blocks / MERGE_FAN)` links.
    pub fn task_count(&self) -> usize {
        self.queries * (self.train_blocks + self.train_blocks.div_ceil(MERGE_FAN))
    }
}

impl TraceGenerator for KnnGen {
    fn name(&self) -> &str {
        "Knn"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("Knn");
        let distances = trace.add_kernel("distances");
        let merge = trace.add_kernel("merge_topk");
        let mut rng = Rng::seeded(seed ^ 0x4171);
        let mut layout = Layout::new();
        let dist = PiecewiseUs::knn();
        let train_bytes: u64 = 8 << 10;
        let query_bytes: u64 = 1 << 10;
        let out_bytes: u64 = 512;

        let train = layout.objects(self.train_blocks, train_bytes);

        for _q in 0..self.queries {
            let query = layout.object(query_bytes);
            let mut outs: Vec<u64> = Vec::with_capacity(self.train_blocks);
            for &t in &train {
                let o = layout.object(out_bytes);
                trace.push_task(
                    distances,
                    dist.sample(&mut rng),
                    [
                        OperandDesc::input(t, train_bytes as u32),
                        OperandDesc::input(query, query_bytes as u32),
                        OperandDesc::output(o, out_bytes as u32),
                    ],
                );
                outs.push(o);
            }
            // Merge chain: a running top-k accumulator per query.
            let topk = layout.object(out_bytes);
            for chunk in outs.chunks(MERGE_FAN) {
                let ops: Operands = chunk
                    .iter()
                    .map(|&o| OperandDesc::input(o, out_bytes as u32))
                    .chain([OperandDesc::inout(topk, out_bytes as u32)])
                    .collect();
                trace.push_task(merge, dist.sample(&mut rng), ops);
            }
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
        let gen = KnnGen::new(16, 4);
        assert_eq!(gen.task_count(), 4 * (16 + 2));
        assert_eq!(gen.generate(0).len(), gen.task_count());
    }

    #[test]
    fn distance_tasks_are_independent_across_queries_and_blocks() {
        let gen = KnnGen::new(4, 2);
        let trace = gen.generate(0);
        let g = DepGraph::from_trace(&trace);
        // Tasks 0..4 are query-0 distances; 5 is its merge; 6..10 are
        // query-1 distances.
        assert!(!g.reachable(0, 1));
        assert!(!g.reachable(0, 6));
        assert!(g.reachable(0, 4), "merge waits for its distances");
    }

    #[test]
    fn merge_chain_serializes_per_query() {
        let gen = KnnGen::new(16, 1);
        let trace = gen.generate(0);
        let g = DepGraph::from_trace(&trace);
        // Two merge links (16/8) chained through the top-k accumulator.
        assert!(g.reachable(16, 17));
    }

    #[test]
    fn tasks_are_long_like_table_one() {
        let trace = KnnGen::new(32, 8).generate(3);
        let med_us = trace.median_runtime().unwrap() as f64 / 3200.0;
        let avg_us = trace.avg_runtime() / 3200.0;
        assert!((103.0..112.0).contains(&med_us), "med {med_us}");
        assert!((105.0..113.0).contains(&avg_us), "avg {avg_us}");
        let long = trace.iter().filter(|t| t.runtime > tss_sim::us_to_cycles(100.0)).count() as f64
            / trace.len() as f64;
        assert!((long - 0.95).abs() < 0.03, "~95% long tasks, got {long}");
        let data_kb = trace.avg_data_bytes() / 1024.0;
        assert!((6.0..13.0).contains(&data_kb), "data {data_kb} KB");
    }

    #[test]
    fn massive_parallelism_available() {
        let trace = KnnGen::new(32, 16).generate(1);
        let g = DepGraph::from_trace(&trace);
        let p = parallelism_profile(&trace, &g);
        assert!(p.max_width >= 256, "width {}", p.max_width);
    }
}
