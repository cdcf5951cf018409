//! # task-superscalar
//!
//! A from-scratch Rust reproduction of *"Task Superscalar: An
//! Out-of-Order Task Pipeline"* (Etsion et al., MICRO 2010): a task-level
//! abstraction of an out-of-order processor pipeline that decodes
//! inter-task data dependencies in hardware and drives a many-core CMP
//! with its processors acting as functional units.
//!
//! This crate is a facade re-exporting the workspace's crates:
//!
//! - [`sim`] — deterministic discrete-event simulation engine,
//! - [`trace`] — task/operand model, traces, and the dependency oracle,
//! - [`noc`] — segmented two-level ring interconnect (Table II),
//! - [`mem`] — Table II's memory parameters and the Section II L1-knee formula,
//! - [`pipeline`] — the task superscalar frontend: Gateway, ORT, OVT, TRS,
//! - [`backend`] — ready queue, scheduler, worker cores, DMA,
//! - [`runtime`] — the StarSs-like software decoder baseline,
//! - [`workloads`] — the nine Table-I benchmark generators,
//! - [`core`] — system assembly and the experiment API,
//! - [`exec`] — the *native* out-of-order executor: real threads
//!   replaying traces at host speed, oracle-validated.
//!
//! # Quickstart
//!
//! ```
//! use task_superscalar::prelude::*;
//!
//! // Blocked Cholesky on a 5x5 matrix: the paper's Figure 1 (35 tasks).
//! let trace = workloads::cholesky::CholeskyGen::new(5).generate(1);
//! assert_eq!(trace.len(), 35);
//!
//! // Run it through the hardware task pipeline on a 32-core backend.
//! let report = SystemBuilder::new()
//!     .processors(32)
//!     .run_hardware(&trace);
//! assert!(report.speedup() > 1.0);
//! ```

#![forbid(unsafe_code)]

pub use tss_backend as backend;
pub use tss_core as core;
pub use tss_exec as exec;
pub use tss_mem as mem;
pub use tss_noc as noc;
pub use tss_pipeline as pipeline;
pub use tss_runtime as runtime;
pub use tss_sim as sim;
pub use tss_trace as trace;
pub use tss_workloads as workloads;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use tss_core::{ExperimentConfig, RunReport, SystemBuilder};
    pub use tss_exec::{
        ExecConfig, ExecError, ExecReport, Executor, FailurePolicy, PayloadMode, StreamingRenamer,
        TaskGraphBuilder,
    };
    pub use tss_sim::{cycles_to_ns, cycles_to_us, ns_to_cycles, us_to_cycles, Cycle};
    pub use tss_trace::{
        DepGraph, Direction, OperandDesc, OperandKind, TaskDesc, TaskTrace, TraceGenerator,
    };
    pub use tss_workloads::{self as workloads, Benchmark};
}
