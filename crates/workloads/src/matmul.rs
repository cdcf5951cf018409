//! Blocked matrix multiplication (Table I: math kernel).
//!
//! `C[i][j] += A[i][k] · B[k][j]` over an `N×N` block grid: `N³` sgemm
//! tasks; each `C` block forms an inout chain of length `N`, and the
//! `N²` chains are mutually independent — a canonically
//! renaming-friendly, wide dependency graph. Table I: 48 KB of data and
//! a flat 23 µs runtime per task.

use crate::common::Layout;
use tss_sim::{us_to_cycles, Rng};
use tss_trace::{OperandDesc, TaskTrace, TraceGenerator};

/// Trace generator for blocked MatMul.
#[derive(Debug, Clone)]
pub struct MatMulGen {
    /// Block-grid dimension `N` (tasks = `N³`).
    pub n: usize,
    /// Block payload in bytes (16 KB × 3 operands = Table I's 48 KB).
    pub block_bytes: u64,
}

impl MatMulGen {
    /// A generator for an `n × n` block grid.
    pub fn new(n: usize) -> Self {
        MatMulGen { n, block_bytes: 16 << 10 }
    }

    /// Number of tasks (`N³`).
    pub fn task_count(&self) -> usize {
        self.n * self.n * self.n
    }
}

impl TraceGenerator for MatMulGen {
    fn name(&self) -> &str {
        "MatMul"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("MatMul");
        let sgemm = trace.add_kernel("sgemm");
        let mut rng = Rng::seeded(seed ^ 0x3A73);
        let mut layout = Layout::new();
        let n = self.n;
        let b = self.block_bytes as u32;
        let a: Vec<Vec<u64>> = (0..n).map(|_| layout.objects(n, self.block_bytes)).collect();
        let bm: Vec<Vec<u64>> = (0..n).map(|_| layout.objects(n, self.block_bytes)).collect();
        let c: Vec<Vec<u64>> = (0..n).map(|_| layout.objects(n, self.block_bytes)).collect();

        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    // Table I: a constant 23 µs (cache-resident sgemm),
                    // with sub-cycle-level jitter only.
                    let rt = us_to_cycles(23.0) + rng.below(64);
                    trace.push_task(
                        sgemm,
                        rt,
                        [
                            OperandDesc::input(a[i][k], b),
                            OperandDesc::input(bm[k][j], b),
                            OperandDesc::inout(c[i][j], b),
                        ],
                    );
                }
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
    fn n_cubed_tasks() {
        let gen = MatMulGen::new(6);
        assert_eq!(gen.generate(0).len(), 216);
        assert_eq!(gen.task_count(), 216);
    }

    #[test]
    fn chains_per_c_block_and_wide_parallelism() {
        let n = 6;
        let trace = MatMulGen::new(n).generate(0);
        let g = DepGraph::from_trace(&trace);
        let p = parallelism_profile(&trace, &g);
        // N^2 independent chains of length N.
        assert_eq!(p.max_width, n * n);
        assert!((p.avg_parallelism - (n * n) as f64).abs() / ((n * n) as f64) < 0.05);
        // Critical path = one chain = N tasks.
        assert_eq!(p.critical_tasks.len(), n);
    }

    #[test]
    fn stats_match_table_one() {
        let trace = MatMulGen::new(8).generate(5);
        let avg_us = trace.avg_runtime() / 3200.0;
        assert!((avg_us - 23.0).abs() < 0.5, "avg {avg_us}");
        let data_kb = trace.avg_data_bytes() / 1024.0;
        assert!((data_kb - 48.0).abs() < 0.5, "data {data_kb}");
        // 90 ns/task decode limit for 256 processors.
        let limit_ns = tss_sim::cycles_to_ns(trace.decode_rate_limit(256).unwrap() as u64);
        assert!((limit_ns - 90.0).abs() < 2.0, "limit {limit_ns}");
    }

    #[test]
    fn three_operands_per_task() {
        let trace = MatMulGen::new(4).generate(0);
        assert!(trace.iter().all(|t| t.operands.len() == 3));
    }
}
