//! Sweep drivers for the paper's evaluation (Section VI): one function
//! per experiment family, shared by the `tss-bench` harness binaries and
//! the integration tests.
//!
//! Every sweep fans its independent points across `jobs` worker threads
//! through [`crate::fabric::sweep`]; results come back in point order,
//! so the produced tables are byte-identical at any `jobs` value (each
//! point is a complete single-threaded deterministic simulation —
//! DESIGN.md §9.3). `jobs = 1` runs serially on the calling thread.

use std::sync::Arc;

use crate::fabric;
use crate::SystemBuilder;
use tss_trace::TaskTrace;

/// One point of the Figure 12/13 decode-rate surface.
#[derive(Debug, Clone)]
pub struct DecodeRatePoint {
    /// TRS count.
    pub num_trs: usize,
    /// ORT (and OVT) count.
    pub num_ort: usize,
    /// Measured decode rate in cycles/task.
    pub rate_cycles: f64,
}

/// Measures the decode rate (cycles between successive task-graph
/// additions) for every `(num_trs, num_ort)` combination — Figures 12
/// and 13 — fanning the grid across `jobs` threads.
///
/// The figure studies *pipeline parallelism*, so storage capacities are
/// made abundant (64 MB TRS, 16 MB ORT/OVT): otherwise window
/// back-pressure (the subject of Figures 14–15) throttles decode to the
/// 256-core drain rate and masks the module-count effect.
pub fn decode_rate_sweep(
    trace: &TaskTrace,
    trs_counts: &[usize],
    ort_counts: &[usize],
    jobs: usize,
) -> Vec<DecodeRatePoint> {
    let arc = Arc::new(trace.clone());
    let mut points = Vec::with_capacity(trs_counts.len() * ort_counts.len());
    for &num_ort in ort_counts {
        for &num_trs in trs_counts {
            points.push((num_trs, num_ort));
        }
    }
    fabric::sweep(jobs, points, |(num_trs, num_ort)| {
        let report = SystemBuilder::new()
            .processors(256)
            .with_frontend(|f| {
                f.num_trs = num_trs;
                f.num_ort = num_ort;
                f.trs_total_bytes = 64 << 20;
                f.ort_total_bytes = 16 << 20;
                f.ovt_total_bytes = 16 << 20;
            })
            .skip_validation() // sweeps revalidate nothing: points are timing-only
            .run_hardware_arc(&arc);
        DecodeRatePoint { num_trs, num_ort, rate_cycles: report.decode_rate_cycles }
    })
}

/// One point of a capacity sweep (Figures 14 and 15).
#[derive(Debug, Clone)]
pub struct CapacityPoint {
    /// The swept total capacity in bytes.
    pub capacity_bytes: u64,
    /// Speedup over sequential execution.
    pub speedup: f64,
    /// Achieved window peak (in-flight tasks).
    pub window_peak: u32,
}

/// Figure 14: speedup as a function of the total ORT capacity (OVT
/// capacity is swept alongside, as the paper pairs them).
pub fn ort_capacity_sweep(
    trace: &TaskTrace,
    capacities: &[u64],
    processors: usize,
    jobs: usize,
) -> Vec<CapacityPoint> {
    let arc = Arc::new(trace.clone());
    fabric::sweep(jobs, capacities.to_vec(), |cap| {
        let report = SystemBuilder::new()
            .processors(processors)
            .with_frontend(|f| {
                f.ort_total_bytes = cap;
                f.ovt_total_bytes = cap;
            })
            .skip_validation()
            .run_hardware_arc(&arc);
        CapacityPoint {
            capacity_bytes: cap,
            speedup: report.speedup(),
            window_peak: report.window_peak,
        }
    })
}

/// Figure 15: speedup as a function of the total TRS capacity.
pub fn trs_capacity_sweep(
    trace: &TaskTrace,
    capacities: &[u64],
    processors: usize,
    jobs: usize,
) -> Vec<CapacityPoint> {
    let arc = Arc::new(trace.clone());
    fabric::sweep(jobs, capacities.to_vec(), |cap| {
        let report = SystemBuilder::new()
            .processors(processors)
            .with_frontend(|f| f.trs_total_bytes = cap)
            .skip_validation()
            .run_hardware_arc(&arc);
        CapacityPoint {
            capacity_bytes: cap,
            speedup: report.speedup(),
            window_peak: report.window_peak,
        }
    })
}

/// One point of the Figure 16 scalability comparison.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Processor count.
    pub processors: usize,
    /// Hardware-pipeline speedup.
    pub hardware: f64,
    /// Software-runtime speedup.
    pub software: f64,
}

/// Figure 16: hardware vs software speedups over 32–256 processors.
/// Each processor count is one fabric point running both engines.
pub fn scalability_sweep(
    trace: &TaskTrace,
    processor_counts: &[usize],
    jobs: usize,
) -> Vec<ScalabilityPoint> {
    let arc = Arc::new(trace.clone());
    fabric::sweep(jobs, processor_counts.to_vec(), |p| {
        let hw = SystemBuilder::new().processors(p).skip_validation().run_hardware_arc(&arc);
        let sw = SystemBuilder::new().processors(p).skip_validation().run_software_arc(&arc);
        ScalabilityPoint { processors: p, hardware: hw.speedup(), software: sw.speedup() }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_workloads::{Benchmark, Scale};

    #[test]
    fn decode_rate_improves_with_more_trs() {
        let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
        let pts = decode_rate_sweep(&trace, &[1, 8], &[2], 1);
        assert!(
            pts[1].rate_cycles < pts[0].rate_cycles,
            "8 TRS ({:.0}) must decode faster than 1 TRS ({:.0})",
            pts[1].rate_cycles,
            pts[0].rate_cycles
        );
    }

    #[test]
    fn trs_capacity_grows_window_and_speedup() {
        let trace = Benchmark::KMeans.trace(Scale::Small, 1);
        let pts = trs_capacity_sweep(&trace, &[32 << 10, 2 << 20], 64, 1);
        assert!(pts[1].window_peak >= pts[0].window_peak);
        assert!(pts[1].speedup >= pts[0].speedup * 0.95);
    }

    #[test]
    fn scalability_produces_monotonicish_hw_curve() {
        let trace = Benchmark::MatMul.trace(Scale::Small, 1);
        let pts = scalability_sweep(&trace, &[32, 128], 1);
        assert!(pts[1].hardware > pts[0].hardware);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        // The ISSUE 5 determinism contract: --jobs K output == --jobs 1
        // output for every routed sweep. Points are compared exactly
        // (the per-point simulations are bit-deterministic).
        let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
        let serial = decode_rate_sweep(&trace, &[1, 2], &[1, 2], 1);
        let parallel = decode_rate_sweep(&trace, &[1, 2], &[1, 2], 3);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!((s.num_trs, s.num_ort), (p.num_trs, p.num_ort));
            assert_eq!(s.rate_cycles.to_bits(), p.rate_cycles.to_bits(), "point diverged");
        }
        let serial = scalability_sweep(&trace, &[32, 64], 1);
        let parallel = scalability_sweep(&trace, &[32, 64], 2);
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.hardware.to_bits(), p.hardware.to_bits());
            assert_eq!(s.software.to_bits(), p.software.to_bits());
        }
    }
}
