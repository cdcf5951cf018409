//! STAP — space-time adaptive processing (Table I: radar physics).
//!
//! A staged per-CPI (coherent processing interval) pipeline: Doppler
//! filtering fans out over range bins, covariance estimation gathers
//! groups of Doppler outputs, and weight computation consumes the
//! covariance estimates into per-beam weights that chain across CPIs.
//! Tasks are *tiny* (1/9/28 µs, 8 KB): STAP is the decode-rate torture
//! test — its Table-I rate limit for 256 processors is 4 ns/task, faster
//! than even the hardware pipeline, so its speedup is frontend-bound.

use crate::common::Layout;
use tss_sim::{Rng, RuntimeDist};
use tss_trace::{OperandDesc, Operands, TaskTrace, TraceGenerator};

/// Doppler outputs gathered per covariance task.
const COV_FAN: usize = 4;

/// Trace generator for STAP.
#[derive(Debug, Clone)]
pub struct StapGen {
    /// Coherent processing intervals (outer sequential loop).
    pub cpis: usize,
    /// Doppler tasks per CPI.
    pub doppler: usize,
    /// Beams (weight chains).
    pub beams: usize,
}

impl StapGen {
    /// A generator for `cpis` intervals of `doppler` filter tasks and
    /// `beams` weight chains.
    pub fn new(cpis: usize, doppler: usize, beams: usize) -> Self {
        StapGen { cpis, doppler, beams }
    }

    /// Covariance tasks per CPI.
    fn cov_tasks(&self) -> usize {
        self.doppler.div_ceil(COV_FAN)
    }

    /// Tasks per run.
    pub fn task_count(&self) -> usize {
        self.cpis * (self.doppler + self.cov_tasks() + self.beams)
    }
}

impl TraceGenerator for StapGen {
    fn name(&self) -> &str {
        "STAP"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("STAP");
        let doppler_k = trace.add_kernel("doppler_filter");
        let cov_k = trace.add_kernel("covariance");
        let weight_k = trace.add_kernel("compute_weights");
        let mut rng = Rng::seeded(seed ^ 0x57A9);
        let mut layout = Layout::new();
        // Table I: min 1 / med 9 / avg 28 us; 8 KB data.
        let dist = RuntimeDist::from_us(1.0, 9.0, 28.0);
        let echo_bytes: u64 = 6 << 10;
        let dop_bytes: u64 = 1536;
        let cov_bytes: u64 = 2 << 10;
        let w_bytes: u64 = 1 << 10;

        let weights = layout.objects(self.beams, w_bytes);

        for _cpi in 0..self.cpis {
            let echoes = layout.objects(self.doppler, echo_bytes);
            let mut dops: Vec<u64> = Vec::with_capacity(self.doppler);
            for &e in &echoes {
                let d = layout.object(dop_bytes);
                trace.push_task(
                    doppler_k,
                    dist.sample(&mut rng),
                    [
                        OperandDesc::input(e, echo_bytes as u32),
                        OperandDesc::output(d, dop_bytes as u32),
                    ],
                );
                dops.push(d);
            }
            let mut covs: Vec<u64> = Vec::with_capacity(self.cov_tasks());
            for chunk in dops.chunks(COV_FAN) {
                let c = layout.object(cov_bytes);
                let ops: Operands = chunk
                    .iter()
                    .map(|&d| OperandDesc::input(d, dop_bytes as u32))
                    .chain([OperandDesc::output(c, cov_bytes as u32)])
                    .collect();
                trace.push_task(cov_k, dist.sample(&mut rng), ops);
                covs.push(c);
            }
            for (b, &w) in weights.iter().enumerate() {
                // Each beam consumes a couple of covariance estimates and
                // updates its weights (chaining CPIs).
                let c0 = covs[b % covs.len()];
                let c1 = covs[(b + 1) % covs.len()];
                let ops = [
                    OperandDesc::input(c0, cov_bytes as u32),
                    OperandDesc::input(c1, cov_bytes as u32),
                    OperandDesc::inout(w, w_bytes as u32),
                ];
                // One covariance estimate is read once.
                let ops = if c1 != c0 { &ops[..] } else { &ops[1..] };
                trace.push_task(weight_k, dist.sample(&mut rng), ops);
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
    fn task_count_formula() {
        let gen = StapGen::new(2, 16, 4);
        assert_eq!(gen.task_count(), 2 * (16 + 4 + 4));
        assert_eq!(gen.generate(0).len(), gen.task_count());
    }

    #[test]
    fn stages_chain_within_a_cpi() {
        let gen = StapGen::new(1, 8, 2);
        let trace = gen.generate(0);
        let g = DepGraph::from_trace(&trace);
        // Tasks 0..8 Doppler, 8..10 covariance, 10..12 weights.
        assert!(g.preds(8).len() == 4, "covariance gathers 4 Doppler outputs");
        assert!(g.reachable(0, 10), "Doppler feeds weights transitively");
    }

    #[test]
    fn cpis_serialize_through_beam_weights() {
        let gen = StapGen::new(2, 8, 2);
        let trace = gen.generate(0);
        let g = DepGraph::from_trace(&trace);
        let per = 8 + 2 + 2;
        // Beam 0 weight task of CPI 0 gates beam 0 of CPI 1 (inout).
        assert!(g.reachable(10, per + 10));
        // But Doppler stages of different CPIs are independent.
        assert!(!g.reachable(0, per));
    }

    #[test]
    fn stats_near_table_one_with_tiny_tasks() {
        let trace = StapGen::new(16, 64, 12).generate(7);
        let min_us = trace.min_runtime().unwrap() as f64 / 3200.0;
        let med_us = trace.median_runtime().unwrap() as f64 / 3200.0;
        let avg_us = trace.avg_runtime() / 3200.0;
        assert!(min_us < 2.0, "min {min_us}");
        assert!((7.0..12.0).contains(&med_us), "med {med_us}");
        assert!((25.0..31.0).contains(&avg_us), "avg {avg_us}");
        let data_kb = trace.avg_data_bytes() / 1024.0;
        assert!((4.0..12.0).contains(&data_kb), "data {data_kb} KB");
        // The 256-way decode-rate limit is a brutal handful of ns.
        let limit_ns = tss_sim::cycles_to_ns(trace.decode_rate_limit(256).unwrap() as u64);
        assert!(limit_ns < 10.0, "limit {limit_ns} ns");
    }
}
