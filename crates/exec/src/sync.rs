//! The sync facade (DESIGN.md §10.1): the single import point for every
//! atomic, mutex, and condvar in the concurrency core (`deque`,
//! `executor`, and `tss-core::fabric`).
//!
//! Under a normal build these are re-exports of the real `std::sync`
//! types — zero cost, zero behavior change. Under
//! `RUSTFLAGS="--cfg tss_model_check"` they swap to the vendored
//! `shuttle` doubles, whose every operation is a controlled yield point
//! of a deterministic model-checking scheduler (see `vendor/shuttle`).
//! The repo lint (`cargo run --bin tss-lint`) rejects direct
//! `std::sync::atomic` imports in the facaded files, so the model
//! checker always sees every synchronization op.
//!
//! `shuttle` is an unconditional (tiny) dependency because cargo cannot
//! toggle dependencies on a RUSTFLAGS cfg; outside a model run its
//! types degrade to raw `std` operations.
//!
//! The failure domain (DESIGN.md §11) routes its handshake state
//! through this facade too: per-task status bytes (`AtomicU8` — added
//! to the shuttle doubles for exactly this) and payload cancel flags
//! all come from `crate::sync::atomic`, so the POISONED-sentinel
//! publish/observe protocol is model-checked with the same fidelity as
//! the deque and parker.
//!
//! The resident runtime (DESIGN.md §15) adds two things: its timed
//! watchdog tick needs `Condvar::wait_timeout` (in the model a timeout
//! is a scheduler choice, see `vendor/shuttle`), and its crew threads
//! are spawned through [`thread`], so a model run owns — and can
//! interleave — the resident threads as well.

#[cfg(not(tss_model_check))]
pub use std::sync::atomic;
#[cfg(not(tss_model_check))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(tss_model_check)]
pub use shuttle::sync::atomic;
#[cfg(tss_model_check)]
pub use shuttle::sync::{Condvar, Mutex, MutexGuard};

/// Thread spawning for the resident runtime: named `std` threads
/// normally, scheduler-registered model threads under
/// `tss_model_check` (the double has no names to give).
pub mod thread {
    #[cfg(tss_model_check)]
    pub use shuttle::thread::JoinHandle;
    #[cfg(not(tss_model_check))]
    pub use std::thread::JoinHandle;

    /// Spawns `f` on a new thread called `name`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses the thread, as `std::thread::spawn`
    /// (and the scoped spawn this replaces) does.
    pub fn spawn_named<F>(name: String, f: F) -> JoinHandle<()>
    where
        F: FnOnce() + Send + 'static,
    {
        #[cfg(not(tss_model_check))]
        {
            std::thread::Builder::new().name(name).spawn(f).expect("spawn a resident thread")
        }
        #[cfg(tss_model_check)]
        {
            let _ = name;
            shuttle::thread::spawn(f)
        }
    }
}
