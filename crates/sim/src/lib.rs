//! Deterministic discrete-event simulation substrate for the
//! [Task Superscalar](https://doi.org/10.1109/MICRO.2010.13) reproduction.
//!
//! The paper evaluates its pipeline on TaskSim, a trace-driven
//! cycle-accurate CMP simulator. This crate provides the equivalent
//! substrate: a cycle-resolution event engine in which *components*
//! (pipeline modules, cores, network links) exchange typed messages with
//! explicit delays. All behaviour is deterministic: the event queue is
//! FIFO-stable, and randomness comes only from seeded in-crate generators.
//!
//! # Quick example
//!
//! ```
//! use tss_sim::{Component, Context, Simulation};
//!
//! struct Echo { heard: u64 }
//! impl Component<u64> for Echo {
//!     fn on_message(&mut self, msg: u64, ctx: &mut Context<'_, u64>) {
//!         self.heard += msg;
//!         if msg > 1 {
//!             let me = ctx.self_id();
//!             ctx.send(me, 10, msg - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! let id = sim.add(Echo { heard: 0 });
//! sim.schedule(0, id, 3u64);
//! sim.run();
//! assert_eq!(sim.now(), 20);
//! assert_eq!(sim.component::<Echo>(id).heard, 3 + 2 + 1);
//! ```
//!
//! `Simulation::new()` uses the boxed [`engine::DynStore`]; hot paths
//! supply a monomorphized [`engine::ComponentStore`] (an enum over the
//! concrete component types) via [`Simulation::with_store`] so every
//! delivery is a direct match arm instead of a virtual call.

#![forbid(unsafe_code)]

pub mod engine;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use engine::{
    Component, ComponentId, ComponentStore, Context, DynStore, Extract, Insert, Simulation,
};
pub use rng::{Rng, RuntimeDist, SplitMix64};
pub use server::{LaneServer, ServerTimeline};
pub use stats::CachePadded;
pub use time::{cycles_to_ns, cycles_to_us, ns_to_cycles, us_to_cycles, Cycle, CLOCK_GHZ};
