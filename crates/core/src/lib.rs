//! System assembly and the experiment API: build a complete task
//! superscalar machine (or its software-runtime / sequential baselines),
//! run a workload through it, and collect a [`RunReport`] with the
//! paper's metrics.
//!
//! ```
//! use tss_core::SystemBuilder;
//! use tss_workloads::{Benchmark, Scale};
//!
//! let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
//! let hw = SystemBuilder::new().processors(32).run_hardware(&trace);
//! let sw = SystemBuilder::new().processors(32).run_software(&trace);
//! assert!(hw.speedup() > 1.0);
//! assert!(hw.makespan > 0 && sw.makespan > 0);
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fabric;
pub mod report;
pub mod store;

use std::sync::Arc;

use tss_backend::{cmp_backend, BackendConfig, CorePool};
use tss_pipeline::assembly::{build_frontend, frontend_stats, FrontendStats};
use tss_pipeline::FrontendConfig;
use tss_runtime::{build_software_runtime, SoftDecoder, SoftRuntimeConfig};
use tss_sim::{cycles_to_ns, Cycle};
use tss_trace::{validate_schedule, ScheduleRecord, TaskTrace};

pub use report::Table;
pub use store::{system_sim, SystemSim, SystemStore};

/// Which engine executed a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The hardware task superscalar pipeline.
    Hardware,
    /// The software StarSs-like runtime.
    Software,
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which engine ran.
    pub engine: Engine,
    /// Benchmark name.
    pub benchmark: String,
    /// Worker processors.
    pub processors: usize,
    /// Number of tasks executed.
    pub tasks: usize,
    /// End-to-end cycles (all tasks completed and state drained).
    pub makespan: Cycle,
    /// Sum of task runtimes = sequential execution time.
    pub total_work: Cycle,
    /// Mean cycles between successive additions to the task graph.
    pub decode_rate_cycles: f64,
    /// Peak in-flight decoded tasks (the achieved window; 0 for the
    /// software runtime whose window is unbounded-by-design).
    pub window_peak: u32,
    /// Mean ready-queue wait in cycles.
    pub avg_queue_wait: f64,
    /// Core-busy fraction over the makespan.
    pub core_utilization: f64,
    /// Messages delivered by the event engine over the whole run.
    pub events: u64,
    /// Peak simultaneously pending events in the engine's queue.
    pub event_queue_peak: usize,
    /// Frontend-internal statistics (hardware runs only).
    pub frontend: Option<FrontendStats>,
    /// The full execution schedule.
    pub schedule: Vec<ScheduleRecord>,
}

impl RunReport {
    /// Speedup over sequential execution (Figure 16's metric).
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.total_work as f64 / self.makespan as f64
        }
    }

    /// Decode rate in nanoseconds per task.
    pub fn decode_rate_ns(&self) -> f64 {
        cycles_to_ns(self.decode_rate_cycles.round() as Cycle)
    }
}

/// Builds and runs complete systems.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    frontend: FrontendConfig,
    processors: usize,
    soft: SoftRuntimeConfig,
    validate: bool,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBuilder {
    /// The paper's default machine: 256 cores, 8 TRSs, 2 ORT/OVT pairs,
    /// 7 MB of frontend eDRAM, schedule validation on.
    pub fn new() -> Self {
        SystemBuilder {
            frontend: FrontendConfig::default(),
            processors: 256,
            soft: SoftRuntimeConfig::default(),
            validate: true,
        }
    }

    /// Sets the number of worker processors (32–256 in the paper).
    pub fn processors(mut self, p: usize) -> Self {
        self.processors = p;
        self
    }

    /// Replaces the frontend configuration.
    pub fn frontend(mut self, cfg: FrontendConfig) -> Self {
        self.frontend = cfg;
        self
    }

    /// Mutates the frontend configuration in place.
    pub fn with_frontend(mut self, f: impl FnOnce(&mut FrontendConfig)) -> Self {
        f(&mut self.frontend);
        self
    }

    /// Disables post-run oracle validation (it is O(edges); on by
    /// default because a schedule bug must never produce a figure).
    pub fn skip_validation(mut self) -> Self {
        self.validate = false;
        self
    }

    /// Runs `trace` through the hardware task superscalar pipeline.
    ///
    /// Clones the trace once; sweeps running the same trace repeatedly
    /// should build one `Arc` and call [`Self::run_hardware_arc`].
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (tasks left unfinished) or — with
    /// validation on — produces a schedule violating the dependency
    /// oracle. Both would be simulator bugs, never workload properties.
    pub fn run_hardware(&self, trace: &TaskTrace) -> RunReport {
        self.run_hardware_arc(&Arc::new(trace.clone()))
    }

    /// [`Self::run_hardware`] without the per-run trace clone.
    pub fn run_hardware_arc(&self, trace: &Arc<TaskTrace>) -> RunReport {
        let arc = Arc::clone(trace);
        // Monomorphized store: every delivery is a direct match arm, and
        // stats extraction below needs no `Any` downcasts (§9.1).
        let mut sim = system_sim();
        let backend_cfg = BackendConfig::for_cores(self.processors);
        let topo = build_frontend(&mut sim, arc.clone(), &self.frontend, cmp_backend(backend_cfg));
        sim.run();

        let pool = sim.component::<CorePool>(topo.backend);
        assert_eq!(
            pool.completed() as usize,
            trace.len(),
            "pipeline deadlock: {}/{} tasks completed",
            pool.completed(),
            trace.len()
        );
        let schedule = pool.schedule().to_vec();
        if self.validate {
            let graph = trace.dep_graph();
            validate_schedule(&graph, &schedule).expect("hardware schedule violates the oracle");
        }
        let stats = frontend_stats(&sim, &topo, &self.frontend);
        assert_eq!(stats.leaked_tasks, 0, "frontend state leaked after drain");
        let makespan = schedule.iter().map(|r| r.end).max().unwrap_or(0);
        RunReport {
            engine: Engine::Hardware,
            benchmark: trace.name().to_string(),
            processors: self.processors,
            tasks: trace.len(),
            makespan,
            total_work: trace.total_runtime(),
            decode_rate_cycles: stats.decode_rate_cycles,
            window_peak: stats.window_peak,
            avg_queue_wait: pool.avg_queue_wait(),
            core_utilization: pool.utilization(makespan),
            events: sim.events_processed(),
            event_queue_peak: sim.peak_queue_depth(),
            frontend: Some(stats),
            schedule,
        }
    }

    /// Runs `trace` through the software StarSs-like runtime.
    ///
    /// Clones the trace once; see [`Self::run_software_arc`].
    ///
    /// # Panics
    ///
    /// Panics on an incomplete run or (with validation on) an
    /// oracle-violating schedule.
    pub fn run_software(&self, trace: &TaskTrace) -> RunReport {
        self.run_software_arc(&Arc::new(trace.clone()))
    }

    /// [`Self::run_software`] without the per-run trace clone.
    pub fn run_software_arc(&self, trace: &Arc<TaskTrace>) -> RunReport {
        let arc = Arc::clone(trace);
        let mut sim = system_sim();
        let backend_cfg = BackendConfig::for_cores(self.processors);
        let (dec, pool_id) = build_software_runtime(&mut sim, arc, &self.soft, backend_cfg);
        sim.run();

        let decoder = sim.component::<SoftDecoder>(dec);
        assert_eq!(decoder.tasks_completed(), trace.len(), "software runtime did not finish");
        let pool = sim.component::<CorePool>(pool_id);
        let schedule = pool.schedule().to_vec();
        if self.validate {
            let graph = trace.dep_graph();
            validate_schedule(&graph, &schedule).expect("software schedule violates the oracle");
        }
        let times = decoder.decode_times();
        let decode_rate = if times.len() >= 2 {
            (times[times.len() - 1] - times[0]) as f64 / (times.len() - 1) as f64
        } else {
            0.0
        };
        let makespan = schedule.iter().map(|r| r.end).max().unwrap_or(0);
        RunReport {
            engine: Engine::Software,
            benchmark: trace.name().to_string(),
            processors: self.processors,
            tasks: trace.len(),
            makespan,
            total_work: trace.total_runtime(),
            decode_rate_cycles: decode_rate,
            window_peak: 0,
            avg_queue_wait: pool.avg_queue_wait(),
            core_utilization: pool.utilization(makespan),
            events: sim.events_processed(),
            event_queue_peak: sim.peak_queue_depth(),
            frontend: None,
            schedule,
        }
    }
}

/// Re-exported configuration types for downstream convenience.
pub use tss_pipeline::TimingParams;
/// Alias kept for the facade's prelude.
pub type ExperimentConfig = FrontendConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use tss_workloads::{Benchmark, Scale};

    #[test]
    fn hardware_beats_software_on_matmul_small() {
        // MatMul at 128p: 100 independent chains of 23 us tasks. The
        // software decoder plateaus near 23 us / 700 ns = ~33x; the
        // hardware pipeline is not decode-limited.
        let trace = Benchmark::MatMul.trace(Scale::Small, 2);
        let hw = SystemBuilder::new().processors(128).run_hardware(&trace);
        let sw = SystemBuilder::new().processors(128).run_software(&trace);
        assert!(hw.speedup() > 1.0);
        assert!(hw.speedup() > sw.speedup(), "hw {:.1}x vs sw {:.1}x", hw.speedup(), sw.speedup());
    }

    #[test]
    fn hardware_decode_is_an_order_of_magnitude_faster() {
        // Section II: software decodes at ~700 ns/task; the pipeline must
        // be many times faster.
        let trace = Benchmark::MatMul.trace(Scale::Small, 2);
        let hw = SystemBuilder::new().processors(128).run_hardware(&trace);
        let sw = SystemBuilder::new().processors(128).run_software(&trace);
        assert!(
            hw.decode_rate_ns() * 4.0 < sw.decode_rate_ns(),
            "hw {} ns vs sw {} ns",
            hw.decode_rate_ns(),
            sw.decode_rate_ns()
        );
    }

    #[test]
    fn speedup_grows_with_processors() {
        // Knn is embarrassingly parallel (hundreds-wide).
        let trace = Benchmark::Knn.trace(Scale::Small, 3);
        let s32 = SystemBuilder::new().processors(32).run_hardware(&trace).speedup();
        let s128 = SystemBuilder::new().processors(128).run_hardware(&trace).speedup();
        assert!(s128 > s32 * 1.5, "32p: {s32:.1}, 128p: {s128:.1}");
    }

    #[test]
    fn reports_carry_frontend_stats_only_for_hardware() {
        let trace = Benchmark::Stap.trace(Scale::Small, 1);
        let hw = SystemBuilder::new().processors(32).run_hardware(&trace);
        let sw = SystemBuilder::new().processors(32).run_software(&trace);
        assert!(hw.frontend.is_some());
        assert!(sw.frontend.is_none());
        assert_eq!(hw.tasks, trace.len());
        assert!(hw.window_peak > 0);
    }
}
