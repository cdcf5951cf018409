//! `tss-exec` — a native out-of-order task executor.
//!
//! Everything else in this workspace *simulates* the paper's pipeline
//! cycle by cycle; this crate *is* the pipeline, in software, at host
//! speed: the role StarSs plays for the paper's hardware — except built
//! the way the paper argues a task window should be (DESIGN.md §7).
//! Four layers:
//!
//! 1. **[`renamer`]** — a software ORT/OVT: decodes `in`/`out`/`inout`
//!    operands of a [`TaskTrace`] (or of tasks spawned through
//!    [`TaskGraphBuilder`]) into producer→consumer chains, either in
//!    one in-order pass ([`Renamer`]) or streamed in windows with
//!    address interning sharded ([`StreamingRenamer`] — the
//!    distributed-ORT analogy).
//! 2. **[`executor`]** — real `std::thread` workers over lock-free
//!    Chase-Lev work-stealing deques ([`deque`]), O(1) atomic
//!    readiness counters, and pluggable [`payload`]s (no-op /
//!    spin-for-runtime / memcpy-over-footprint). [`Executor::run`]
//!    *pipelines* decode into execution: workers replay early windows
//!    while an idle worker renames later ones.
//! 3. **Validation & metrics** — every run emits a completion log that
//!    it checks against the dependency oracle through
//!    `TaskTrace::check_order`, which streams a trace's first check and
//!    memoizes the `DepGraph` for the rest (a violating order fails the
//!    run), plus tasks/sec, per-worker utilization, and steal counts in
//!    the [`ExecReport`].
//! 4. **A failure domain** ([`fault`], DESIGN.md §11) — every payload
//!    runs inside a `catch_unwind` containment boundary; a panicking
//!    task becomes a structured [`TaskFailure`] handled by the
//!    configured [`FailurePolicy`] (fail fast / quarantine-and-continue),
//!    and [`Executor::run`] returns `Result<ExecReport, ExecError>`
//!    instead of panicking.
//!
//! ```
//! use tss_exec::{ExecConfig, Executor, TaskGraphBuilder};
//!
//! // Spawn a 2-stage pipeline through the public API...
//! let mut b = TaskGraphBuilder::new("demo");
//! let produce = b.kernel("produce");
//! let consume = b.kernel("consume");
//! for i in 0..4u64 {
//!     let buf = 0x1000 + i * 0x100;
//!     b.task(produce).runtime_us(1.0).output(buf, 256).spawn();
//!     b.task(consume).runtime_us(1.0).input(buf, 256).spawn();
//! }
//! // ...and replay it on two real threads, oracle-checked.
//! let report = Executor::new(ExecConfig { threads: 2, ..Default::default() })
//!     .run(&b.build())
//!     .expect("replay failed");
//! assert_eq!(report.tasks, 8);
//! assert!(report.validated);
//! ```

// The unsafe surface of this crate (raw deque buffers) is audited by
// `tss-lint`; inside unsafe fns every unsafe op still needs its own
// block + SAFETY comment.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod deque;
pub mod executor;
pub mod fault;
pub mod payload;
pub mod renamer;
mod runtime;
pub mod sync;

pub use deque::ChaseLev;
pub use executor::{
    run_trace, CancelToken, ConfigError, ExecConfig, ExecReport, Executor, WorkerStats,
};
pub use fault::{ExecError, FailedTask, FailurePolicy, FaultReport, TaskFailure};
pub use payload::PayloadMode;
pub use renamer::{RenameStats, Renamer, StreamingRenamer, TaskGraph};

/// The observability layer (DESIGN.md §12), re-exported so harnesses
/// can consume [`ExecReport::obs`] (`tss_obs::ObsReport`, Chrome trace
/// export, histograms) without naming the crate themselves.
pub use tss_obs as obs;

/// Whether this build records observability data (`obs` feature →
/// `tss-obs/ring`). `false` means [`ExecReport::obs`] is always `None`
/// and the sinks compile to nothing — harnesses use this to reject
/// `--trace-out`/`--histogram` up front instead of writing empty files.
pub const fn obs_enabled() -> bool {
    tss_obs::ENABLED
}

use tss_sim::us_to_cycles;
use tss_trace::{KernelId, OperandBuf, OperandDesc, TaskDesc, TaskId, TaskTrace};

/// Builds a task graph through spawn calls instead of a pre-recorded
/// trace — the programming-model face of the executor (what a StarSs
/// `#pragma css task` expands to at runtime).
///
/// Tasks are recorded in spawn (program) order; the renamer decodes
/// them exactly as it would a trace from disk.
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    trace: TaskTrace,
}

impl TaskGraphBuilder {
    /// An empty graph with a name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraphBuilder { trace: TaskTrace::new(name) }
    }

    /// Registers a kernel function.
    pub fn kernel(&mut self, name: impl Into<String>) -> KernelId {
        self.trace.add_kernel(name)
    }

    /// Starts spawning one task of `kernel`; finish with
    /// [`TaskSpawner::spawn`].
    pub fn task(&mut self, kernel: KernelId) -> TaskSpawner<'_> {
        TaskSpawner { builder: self, kernel, runtime: 1, operands: OperandBuf::new() }
    }

    /// Tasks spawned so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether nothing has been spawned.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Finishes the graph as a trace (feed it to [`Executor::run`], the
    /// simulator, or `tss_trace::to_text`).
    pub fn build(self) -> TaskTrace {
        self.trace
    }
}

/// In-progress task spawn (see [`TaskGraphBuilder::task`]).
#[derive(Debug)]
pub struct TaskSpawner<'a> {
    builder: &'a mut TaskGraphBuilder,
    kernel: KernelId,
    runtime: tss_sim::Cycle,
    operands: OperandBuf,
}

impl TaskSpawner<'_> {
    /// Sets the task runtime in simulated cycles.
    pub fn runtime_cycles(mut self, cycles: tss_sim::Cycle) -> Self {
        self.runtime = cycles;
        self
    }

    /// Sets the task runtime in microseconds (of the 3.2 GHz clock).
    pub fn runtime_us(self, us: f64) -> Self {
        self.runtime_cycles(us_to_cycles(us))
    }

    /// Adds a read-only memory operand.
    pub fn input(mut self, addr: u64, size: u32) -> Self {
        self.operands.push(OperandDesc::input(addr, size));
        self
    }

    /// Adds a write-only (renamable) memory operand.
    pub fn output(mut self, addr: u64, size: u32) -> Self {
        self.operands.push(OperandDesc::output(addr, size));
        self
    }

    /// Adds a read-write (never renamed) memory operand.
    pub fn inout(mut self, addr: u64, size: u32) -> Self {
        self.operands.push(OperandDesc::inout(addr, size));
        self
    }

    /// Adds an immediate scalar operand.
    pub fn scalar(mut self, size: u32) -> Self {
        self.operands.push(OperandDesc::scalar(size));
        self
    }

    /// Records the task in program order and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the operand count exceeds `tss_trace::MAX_OPERANDS`
    /// (the TRS inode limit the hardware shares).
    pub fn spawn(self) -> TaskId {
        let operands = self.operands.finish().unwrap_or_else(|e| panic!("{e}"));
        self.builder.trace.push(TaskDesc::new(self.kernel, self.runtime, operands))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_spawns_in_program_order() {
        let mut b = TaskGraphBuilder::new("b");
        let k = b.kernel("k");
        let t0 = b.task(k).runtime_us(2.0).output(0xA0, 64).spawn();
        let t1 = b.task(k).input(0xA0, 64).scalar(8).spawn();
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(b.len(), 2);
        let tr = b.build();
        assert_eq!(tr.task(0).runtime, us_to_cycles(2.0));
        assert_eq!(tr.task(1).operands.len(), 2);
    }

    #[test]
    fn built_graphs_execute_and_validate() {
        let mut b = TaskGraphBuilder::new("fan");
        let k = b.kernel("k");
        b.task(k).output(0x1, 64).spawn();
        for _ in 0..16 {
            b.task(k).input(0x1, 64).spawn();
        }
        let report = run_trace(&b.build(), 3).expect("replay failed");
        assert_eq!(report.tasks, 17);
        assert_eq!(report.order[0], 0, "the producer must complete first");
    }

    #[test]
    fn builder_interoperates_with_the_text_format() {
        let mut b = TaskGraphBuilder::new("txt");
        let k = b.kernel("k");
        b.task(k).inout(0xFF, 128).spawn();
        let text = tss_trace::to_text(&b.build());
        let back = tss_trace::from_text(&text).expect("round trip");
        assert_eq!(back.len(), 1);
        assert_eq!(back.task(0).operands[0], OperandDesc::inout(0xFF, 128));
    }
}
