//! `tss-obs` — zero-cost-when-off observability for the execution core.
//!
//! Three layers (DESIGN.md §12):
//!
//! 1. **A compile-time-selected tracing sink.** With the `ring` feature
//!    off (the default, *NoopSink*), [`SharedObs`] and [`WorkerObs`]
//!    are zero-sized, [`ENABLED`] is `false`, and [`sampled`] is a
//!    `const false` — every recording call in the executor folds to
//!    nothing at compile time, the same static-dispatch discipline as
//!    the `tss_exec::sync` facade (DESIGN.md §10.1). With `ring` on
//!    (*RingSink*), each worker owns a fixed-capacity event `Ring`
//!    recording spawn/steal/park/wake/poison/commit edges plus
//!    burst and task slices; rings never allocate after construction
//!    and are drained only at join.
//! 2. **Fixed-bucket log-scale latency [`Histogram`]s** (HDR-style,
//!    mergeable, no deps) for per-task queue-wait and execution
//!    latency, surfaced as p50/p99/p999.
//! 3. **A Chrome `trace_event` exporter** ([`chrome_trace`]) that turns
//!    drained rings into a timeline `chrome://tracing`/Perfetto opens
//!    directly: one track per worker, decode steps included, with
//!    quarantine events on their own phase color.
//!
//! The [`clock::Stamp`] monotonic-timestamp facade is compiled in both
//! configurations: the executor routes *all* of its wall-clock reads
//! through it (tss-lint bans raw `Instant::now()` in
//! `crates/exec/src`), so timing semantics cannot drift between the
//! noop and ring builds. Beside it, [`clock::CpuStamp`] reads the
//! calling thread's CPU clock for the per-role budget of a run
//! ([`RoleCpu`], DESIGN.md §12.6) — in the RingSink build only, and
//! through the crate's one `unsafe` block (a `clock_gettime` call).

// `deny`, not `forbid`: `clock::thread_cpu_ns` (RingSink build only)
// allows itself the crate's one `unsafe` block. The first attribute is
// the marker tss-lint's crate-hygiene check accepts for such a crate.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unsafe_code)]

pub mod chrome;
pub mod clock;
pub mod hist;
pub mod ring;
mod sink;

pub use chrome::chrome_trace;
pub use hist::Histogram;
pub use ring::{Event, EventKind};
pub use sink::{SharedObs, SpanStamp, TaskStamp, WorkerObs};

/// Whether this build records observability data (the `ring` feature).
///
/// `false` is the NoopSink build: sinks are zero-sized, recording calls
/// compile to nothing, and [`SharedObs::finish`] returns `None`.
pub const ENABLED: bool = cfg!(feature = "ring");

/// Per-task sampling period for the latency histograms and spawn
/// events: 1 in `SAMPLE_EVERY` tasks (by a hash of the task id, not a
/// stride) gets its clock reads. Power of two.
///
/// Sampling exists because a timestamp pair per task (~50 ns on this
/// class of host) would dwarf the ~80 ns/task scheduling cost of a noop
/// run and blow the ≤3 % RingSink overhead budget (EXPERIMENTS.md —
/// the A/B table there is what set this period). High-frequency ring
/// *edge* events (burst/park/wake) are decimated separately by
/// per-worker counters ([`EDGE_EVERY`]); rare edges
/// (steal/poison/commit) record unconditionally.
pub const SAMPLE_EVERY: u32 = 64;

/// Decimation period for the high-frequency ring edge events: each
/// worker records every `EDGE_EVERY`-th of its parks, wakes, and
/// bursts (plain per-worker counters — chain-limited graphs park and
/// wake on nearly every task, and an unconditional clock read per edge
/// measurably slows the wake path; EXPERIMENTS.md). Unlike task
/// sampling these counters depend on the interleaving, which is fine:
/// edge events are diagnostic texture, nothing pairs them across runs.
pub const EDGE_EVERY: u32 = 16;

/// Deterministic sampling predicate: is `task` one of the 1-in-
/// [`SAMPLE_EVERY`] tasks whose latency is measured?
///
/// A single-multiply Fibonacci hash over the id — the decision bits
/// are the *top* bits of `task * 2^32/φ`, which equidistribute the
/// regular id strides the workload generators emit (a plain
/// `id & 63 == k` mask would alias power-of-two strides to 0 or 100 %).
/// One multiply, one shift, one compare: this predicate runs up to
/// three times per task on the hot path, and a stronger mixer
/// (SplitMix64 finalizer) showed up in the EXPERIMENTS.md A/B. Pure in
/// the task id — the same tasks are sampled on every run, every thread
/// count, and on both replay and streaming paths, which keeps the
/// obs-on failure sets and completion orders bit-identical to obs-off
/// (DESIGN.md §12.3).
#[cfg(feature = "ring")]
#[inline]
pub fn sampled(task: u32) -> bool {
    task.wrapping_mul(0x9E37_79B9) >> (32 - SAMPLE_EVERY.trailing_zeros()) == 0
}

/// NoopSink build: nothing is sampled, and because this is `const` the
/// `if tss_obs::sampled(t)` guards in the executor fold away entirely.
#[cfg(not(feature = "ring"))]
#[inline]
pub const fn sampled(_task: u32) -> bool {
    false
}

/// High-water marks sampled on existing publish edges (Relaxed
/// `fetch_max`; advisory, never a correctness input — each site carries
/// a `// relaxed:` rationale per DESIGN.md §10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Deepest local deque observed when pushing a sampled ready task.
    pub deque_depth_max: u64,
    /// Longest pending-release list drained at a sampled completion.
    pub pending_drain_max: u64,
    /// Largest gap (tasks) between a committed window's high id and the
    /// completion ticket counter at commit time.
    pub commit_lag_max: u64,
}

/// The roles of one `Executor::run` whose CPU a RingSink build clocks
/// (DESIGN.md §12.6): what the submitter does before the crew starts
/// and after it returns, the two halves of a decode step, and the
/// worker loops net of the steps they took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `pipeline` entry to the crew hand-off: tables, queues, policy.
    Setup,
    /// `ShardState::scan`, per window and shard.
    Scan,
    /// A window's commit: merge, register, publish, push roots.
    Commit,
    /// The `worker_loop`s, less their decode steps (parked time is not
    /// CPU time).
    Workers,
    /// Crew return to `pipeline`'s return: oracle check, report, drops.
    Finish,
}

impl Role {
    /// Every role, in the order a run goes through them.
    pub const ALL: [Role; 5] = [Role::Setup, Role::Scan, Role::Commit, Role::Workers, Role::Finish];

    /// The role's name in reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Role::Setup => "setup",
            Role::Scan => "scan",
            Role::Commit => "commit",
            Role::Workers => "workers",
            Role::Finish => "finish",
        }
    }
}

/// Thread-CPU nanoseconds per [`Role`], summed over the threads that
/// played it. Zero-sized — and every method a no-op, [`RoleCpu::ns`] a
/// constant zero — in the NoopSink build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleCpu(#[cfg(feature = "ring")] [u64; Role::ALL.len()]);

impl RoleCpu {
    /// Charges `role` the CPU the calling thread has used since `since`.
    #[inline]
    pub fn charge(&mut self, role: Role, since: clock::CpuStamp) {
        #[cfg(feature = "ring")]
        {
            self.0[role as usize] += since.elapsed_ns();
        }
        #[cfg(not(feature = "ring"))]
        let _ = (role, since);
    }

    /// Charges `role` the CPU the calling thread has used since `since`
    /// less everything these figures hold: the share of an enclosing
    /// span once the spans nested in it — all charged here after
    /// `since` — have taken theirs.
    #[inline]
    pub fn charge_net(&mut self, role: Role, since: clock::CpuStamp) {
        #[cfg(feature = "ring")]
        {
            let nested: u64 = self.0.iter().sum();
            self.0[role as usize] += since.elapsed_ns().saturating_sub(nested);
        }
        #[cfg(not(feature = "ring"))]
        let _ = (role, since);
    }

    /// Adds another thread's figures to these.
    #[inline]
    pub fn merge(&mut self, other: &RoleCpu) {
        #[cfg(feature = "ring")]
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
        #[cfg(not(feature = "ring"))]
        let _ = other;
    }

    /// CPU nanoseconds charged to `role`.
    #[inline]
    pub fn ns(&self, role: Role) -> u64 {
        #[cfg(feature = "ring")]
        {
            self.0[role as usize]
        }
        #[cfg(not(feature = "ring"))]
        {
            let _ = role;
            0
        }
    }
}

/// One timeline track: the drained event ring of a worker, in
/// chronological order.
#[derive(Debug, Clone)]
pub struct Track {
    /// Display name (`worker-3`).
    pub name: String,
    /// Events in chronological order (ring drain re-rotates the buffer).
    pub events: Vec<Event>,
    /// Events overwritten because the fixed-capacity ring wrapped.
    pub dropped: u64,
}

/// Everything the RingSink recorded for one run; `ExecReport::obs`
/// carries `Some(ObsReport)` exactly when [`ENABLED`].
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Execution latency (task start → completion published) of sampled
    /// tasks, merged across workers.
    pub exec_latency: Histogram,
    /// Queue wait (task ready → task start) of sampled tasks, merged
    /// across workers.
    pub queue_wait: Histogram,
    /// One track per worker; a streamed run's decode steps are on the
    /// tracks of the workers that took them.
    pub tracks: Vec<Track>,
    /// Sampled high-water marks.
    pub gauges: Gauges,
    /// Thread-CPU time per role of the run.
    pub role_cpu: RoleCpu,
    /// The sampling period the histograms were recorded under.
    pub sample_every: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_mirrors_the_feature() {
        assert_eq!(ENABLED, cfg!(feature = "ring"));
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_the_period() {
        if !ENABLED {
            assert!(!sampled(0) && !sampled(1) && !sampled(12345));
            return;
        }
        let hits = (0..160_000u32).filter(|&t| sampled(t)).count();
        let expect = 160_000 / SAMPLE_EVERY as usize;
        // A hash this size should land within ±10 % of the period.
        assert!(
            (expect * 9 / 10..=expect * 11 / 10).contains(&hits),
            "sampled {hits} of 160000 (expected ~{expect})"
        );
        // Strided ids (the workload generators emit regular strides)
        // must not alias the mask to 0 or 100 %.
        for stride in [2u32, 16, 32, 64] {
            let s = (0..4096u32).filter(|&i| sampled(i * stride)).count();
            assert!(s > 0 && s < 4096, "stride {stride} aliases the sampler ({s}/4096)");
        }
    }
}
