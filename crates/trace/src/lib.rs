//! Task, operand, and trace model for the task-superscalar reproduction,
//! plus an exact dependency oracle.
//!
//! The paper (Section III.A) represents task operands as tuples of
//! *(type, base pointer, object size, directionality)*; dependencies are
//! detected by matching base addresses of memory objects. This crate
//! defines those types ([`OperandDesc`], [`TaskDesc`], [`TaskTrace`]) and
//! implements the *reference* dependency analysis ([`DepGraph`]) used:
//!
//! - by the software-runtime baseline (`tss-runtime`), which — like the
//!   StarSs decoder — computes exact dependencies, and
//! - as a correctness oracle: every simulated schedule is validated
//!   against it ([`schedule::validate_schedule`]).
//!
//! [`analytics`] provides graph analytics (critical path, parallelism
//! profile, the Section-II decode-rate rule `R = T/P`).

#![forbid(unsafe_code)]

pub mod analytics;
pub mod graph;
pub mod io;
pub mod operands;
pub mod schedule;
pub mod task;

pub use analytics::{dataflow_bound, parallelism_profile, ParallelismProfile};
pub use graph::{DepGraph, DepKind, OrderViolation};
pub use io::{from_text, to_text, ParseTraceError};
pub use operands::{OperandBuf, Operands, OperandsError, INLINE_OPERANDS};
pub use schedule::{validate_schedule, ScheduleError, ScheduleRecord};
pub use task::{
    Direction, KernelId, OperandDesc, OperandKind, TaskDesc, TaskId, TaskTrace, MAX_OPERANDS,
};

/// A source of task traces (implemented by every benchmark generator in
/// `tss-workloads`).
pub trait TraceGenerator {
    /// Short benchmark name (as in Table I, e.g. `"Cholesky"`).
    fn name(&self) -> &str;

    /// Generates the task trace; `seed` makes runtime sampling
    /// deterministic and reproducible.
    fn generate(&self, seed: u64) -> TaskTrace;
}
