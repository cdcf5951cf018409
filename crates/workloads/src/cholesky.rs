//! Blocked Cholesky decomposition (Table I: math kernel; Figures 1 and 4).
//!
//! Reproduces exactly the task stream of the paper's Figure 4 StarSs
//! code: a right-looking blocked factorization over an `N×N` grid of
//! `M×M` blocks with four kernels (`sgemm`, `ssyrk`, `spotrf`, `strsm`).
//! For `N = 5` this yields the 35-task graph of Figure 1, with tasks 6
//! and 23 (creation order) mutually unreachable.

use crate::common::Layout;
use tss_sim::{us_to_cycles, Rng};
use tss_trace::{OperandDesc, TaskTrace, TraceGenerator};

/// Trace generator for blocked Cholesky.
#[derive(Debug, Clone)]
pub struct CholeskyGen {
    /// Matrix dimension in blocks (`N`).
    pub n: usize,
    /// Block payload in bytes (Table I: ~16 KB per operand makes the
    /// 47 KB average task footprint).
    pub block_bytes: u64,
}

impl CholeskyGen {
    /// A generator for an `n × n` block matrix.
    pub fn new(n: usize) -> Self {
        CholeskyGen { n, block_bytes: 16 << 10 }
    }

    /// Number of tasks the generator emits:
    /// `N spotrf + N(N−1)/2 strsm + N(N−1)/2 ssyrk + Σ_j j(N−1−j) sgemm`.
    pub fn task_count(&self) -> usize {
        let n = self.n;
        let sgemm: usize = (0..n).map(|j| j * (n - 1 - j)).sum();
        n + n * (n - 1) / 2 + n * (n - 1) / 2 + sgemm
    }
}

impl TraceGenerator for CholeskyGen {
    fn name(&self) -> &str {
        "Cholesky"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("Cholesky");
        let sgemm = trace.add_kernel("sgemm");
        let ssyrk = trace.add_kernel("ssyrk");
        let spotrf = trace.add_kernel("spotrf");
        let strsm = trace.add_kernel("strsm");
        let mut rng = Rng::seeded(seed ^ 0xC401E5);
        let mut layout = Layout::new();
        let n = self.n;
        let b = self.block_bytes as u32;
        // A[i][j] block base addresses (lower triangle used).
        let blocks: Vec<Vec<u64>> =
            (0..n).map(|_| (0..n).map(|_| layout.object(self.block_bytes)).collect()).collect();

        // Per-kernel runtimes with small jitter; the blend reproduces
        // Table I's min 16 / median 33 / average 31 µs (sgemm dominates
        // the count for large N).
        let rt = |center_us: f64, rng: &mut Rng| {
            let jitter = 0.97 + 0.06 * rng.unit();
            us_to_cycles(center_us * jitter)
        };

        for j in 0..n {
            for k in 0..j {
                for i in (j + 1)..n {
                    let r = rt(33.0, &mut rng);
                    trace.push_task(
                        sgemm,
                        r,
                        [
                            OperandDesc::input(blocks[i][k], b),
                            OperandDesc::input(blocks[j][k], b),
                            OperandDesc::inout(blocks[i][j], b),
                        ],
                    );
                }
            }
            for i in 0..j {
                let r = rt(29.5, &mut rng);
                trace.push_task(
                    ssyrk,
                    r,
                    [OperandDesc::input(blocks[j][i], b), OperandDesc::inout(blocks[j][j], b)],
                );
            }
            let r = rt(16.5, &mut rng);
            trace.push_task(spotrf, r, [OperandDesc::inout(blocks[j][j], b)]);
            for i in (j + 1)..n {
                let r = rt(28.0, &mut rng);
                trace.push_task(
                    strsm,
                    r,
                    [OperandDesc::input(blocks[j][j], b), OperandDesc::inout(blocks[i][j], b)],
                );
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::DepGraph;

    #[test]
    fn five_by_five_matches_figure_one() {
        let gen = CholeskyGen::new(5);
        let trace = gen.generate(1);
        assert_eq!(trace.len(), 35, "Figure 1 has 35 tasks");
        assert_eq!(gen.task_count(), 35);
        let g = DepGraph::from_trace(&trace);
        // Paper: "the 6th and 23rd tasks (of 35) can, in fact, run in
        // parallel" (1-based creation order -> indices 5 and 22).
        assert!(!g.reachable(5, 22), "task 6 must not precede task 23");
        assert!(!g.reachable(22, 5), "task 23 must not precede task 6");
        // But the very first task gates the whole first panel.
        assert!(g.reachable(0, 1));
    }

    #[test]
    fn first_task_is_spotrf_and_roots_are_unique() {
        let trace = CholeskyGen::new(5).generate(1);
        assert_eq!(trace.kernel_name(trace.task(0).kernel), "spotrf");
        let g = DepGraph::from_trace(&trace);
        assert_eq!(g.roots().count(), 1, "only spotrf(A[0][0]) is initially ready");
    }

    #[test]
    fn task_count_formula_holds() {
        for n in [2, 3, 8, 16] {
            let gen = CholeskyGen::new(n);
            assert_eq!(gen.generate(0).len(), gen.task_count(), "n={n}");
        }
    }

    #[test]
    fn stats_near_table_one() {
        let trace = CholeskyGen::new(24).generate(7);
        let min_us = trace.min_runtime().unwrap() as f64 / 3200.0;
        let med_us = trace.median_runtime().unwrap() as f64 / 3200.0;
        let avg_us = trace.avg_runtime() / 3200.0;
        assert!((15.5..18.0).contains(&min_us), "min {min_us}");
        assert!((30.0..35.0).contains(&med_us), "med {med_us}");
        assert!((28.0..34.0).contains(&avg_us), "avg {avg_us}");
        let data_kb = trace.avg_data_bytes() / 1024.0;
        assert!((35.0..50.0).contains(&data_kb), "data {data_kb} KB");
    }

    #[test]
    fn at_most_three_operands_per_task() {
        // Section VI.A: "Cholesky tasks have at most 3 operands".
        let trace = CholeskyGen::new(10).generate(3);
        assert!(trace.iter().all(|t| t.operands.len() <= 3));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CholeskyGen::new(6).generate(9);
        let b = CholeskyGen::new(6).generate(9);
        assert_eq!(a.tasks(), b.tasks());
    }
}
