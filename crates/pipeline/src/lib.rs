//! The task superscalar frontend (paper, Section IV): an out-of-order
//! pipeline operating at the task level.
//!
//! A sequential task-generating thread feeds tasks to a [`Gateway`];
//! operands are decoded by [`OrtOvt`] pairs (object renaming tables +
//! object versioning tables) that detect dependencies by object base
//! address, rename outputs to break WaR/WaW, and serialize inout chains;
//! in-flight task meta-data lives in [`Trs`] modules whose consumer
//! chains embed the dependency graph. Ready tasks are pushed to an
//! execution backend that treats processors as functional units.
//!
//! The protocol (Figures 6–9), storage layouts (Figure 11), consumer
//! chaining (Figure 10), and timing (Table II: 22-cycle eDRAM, 16-cycle
//! packet processing) follow the paper; see `DESIGN.md` for the few
//! modeling simplifications and why they are behavior-preserving.
//!
//! # Assembling a frontend
//!
//! Use [`assembly::build_frontend`] with any backend component (the real
//! CMP backend lives in `tss-backend`; tests may use a mock):
//!
//! ```
//! use std::sync::Arc;
//! use tss_pipeline::{assembly, FrontendConfig, Msg};
//! use tss_sim::Simulation;
//! use tss_trace::{OperandDesc, TaskTrace};
//!
//! let mut trace = TaskTrace::new("demo");
//! let k = trace.add_kernel("kern");
//! trace.push_task(k, 1_000, vec![OperandDesc::output(0x1000, 512)]);
//! trace.push_task(k, 1_000, vec![OperandDesc::input(0x1000, 512)]);
//!
//! let mut sim = Simulation::<Msg>::new();
//! let cfg = FrontendConfig::default();
//! let topo = assembly::build_frontend(
//!     &mut sim,
//!     Arc::new(trace),
//!     &cfg,
//!     assembly::instant_backend,
//! );
//! sim.run();
//! let stats = assembly::frontend_stats(&sim, &topo, &cfg);
//! assert_eq!(stats.tasks_decoded, 2);
//! ```

#![forbid(unsafe_code)]

pub mod assembly;
pub mod blocks;
pub mod config;
pub mod gateway;
pub mod ids;
pub mod msg;
pub mod ortovt;
pub mod trs;

pub use config::{ConfigError, FrontendConfig, TimingParams};
pub use gateway::{Gateway, Generator, Topology};
pub use ids::{OperandRef, TaskRef, VersionRef};
pub use msg::{Msg, ReadyKind};
pub use ortovt::OrtOvt;
pub use trs::Trs;
