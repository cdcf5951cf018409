//! Pluggable task payloads: what a worker actually does per task.
//!
//! The trace gives each task a measured runtime and an operand
//! footprint; three payloads interpret them (DESIGN.md §7):
//!
//! - [`PayloadMode::Noop`] — nothing per task: measures pure decode +
//!   scheduling throughput (the native analog of the paper's
//!   decode-rate ceiling study, Section II).
//! - [`PayloadMode::Spin`] — busy-wait for the task's traced runtime
//!   (cycles of the simulated 3.2 GHz clock → host nanoseconds),
//!   scaled by `time_scale`: honors the trace's load balance so
//!   speedup-vs-threads curves are meaningful.
//! - [`PayloadMode::Memcpy`] — move the task's (capped) operand
//!   footprint through worker-local buffers: exercises real memory
//!   traffic proportional to Table I's data sizes.
//!
//! Memcpy safety note: renaming means two in-flight tasks may "write
//! the same object" concurrently — that is the *point* of the OVT. A
//! shared mutable arena would therefore be a data race by design.
//! Instead each worker owns a scratch pair (shared read-only source
//! arena, private destination buffer): the traffic is real, the
//! aliasing is private, and the executor stays safe Rust.

use std::sync::OnceLock;
use std::time::Duration;

use tss_obs::clock::Stamp;
use tss_sim::cycles_to_ns;
use tss_trace::TaskDesc;
use tss_workloads::payload::{operand_chunks, task_footprint, CHUNK_CAP};

/// Default injection rate for the bare `faulty` payload name: 5% in
/// parts-per-million, matching the chaos smoke configuration.
pub const DEFAULT_FAULT_RATE_PPM: u32 = 50_000;

// ---------------------------------------------------------------------
// Task classes (the `mixed` payload's split, DESIGN.md §13.2)
// ---------------------------------------------------------------------

/// Compute-heavy task class: the payload is dominated by the traced
/// runtime (spin), not by data movement.
pub const CLASS_COMPUTE: u8 = 0;

/// Memory-heavy task class: the payload is dominated by the operand
/// footprint (memcpy).
pub const CLASS_MEMORY: u8 = 1;

/// Footprint threshold for the memory class: a task moving at least
/// this many operand bytes is memory-bound under [`PayloadMode::Mixed`]
/// (half the [`CHUNK_CAP`] payload cap — past it the memcpy cost
/// rivals a median traced runtime on the calibration host).
pub const MEMORY_CLASS_BYTES: u64 = (CHUNK_CAP as u64) / 2;

/// Classifies one task at spawn from the payload mode + its operand
/// footprint (DESIGN.md §13.2). Uniform payloads pin the class (every
/// spin task is compute-bound, every memcpy task memory-bound); the
/// footprint threshold only decides for modes whose per-task work is
/// footprint-dependent ([`PayloadMode::Mixed`]) or free (`Noop`,
/// `Faulty` — there the class is unused).
pub fn task_class(mode: PayloadMode, task: &TaskDesc) -> u8 {
    match mode {
        PayloadMode::Spin { .. } => CLASS_COMPUTE,
        PayloadMode::Memcpy => CLASS_MEMORY,
        PayloadMode::Noop | PayloadMode::Faulty { .. } | PayloadMode::Mixed { .. } => {
            let fp = task_footprint(task);
            if fp.read_bytes + fp.write_bytes >= MEMORY_CLASS_BYTES {
                CLASS_MEMORY
            } else {
                CLASS_COMPUTE
            }
        }
    }
}

/// What each task execution does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadMode {
    /// No per-task work: pure decode/scheduling throughput.
    Noop,
    /// Busy-wait the traced runtime times `time_scale` (1.0 = replay at
    /// the trace's own granularity; small-scale CI runs use less).
    Spin {
        /// Multiplier on the traced runtime (0.01 = 100× faster).
        time_scale: f64,
    },
    /// Copy the capped operand footprint through worker-local memory.
    Memcpy,
    /// Noop work plus seeded fault injection: each task rolls a
    /// deterministic hash (`tss_workloads::payload::fault_decision`)
    /// and may panic instead of completing. The roll and the panic are
    /// the executor's own payload arm, inside its containment boundary
    /// (DESIGN.md §11.4); [`PayloadScratch`] does nothing for it, so
    /// chaos runs measure the failure machinery, not payload cost.
    Faulty {
        /// Injection probability in parts-per-million.
        rate_ppm: u32,
        /// Seed for the per-task fault rolls.
        seed: u64,
    },
    /// Per-task heterogeneous work (DESIGN.md §13.2): memory-class
    /// tasks ([`task_class`] = [`CLASS_MEMORY`]) run the memcpy
    /// payload, compute-class tasks spin for their traced runtime
    /// (`exec --payload mixed`).
    Mixed {
        /// Multiplier on the traced runtime of the spinning class.
        time_scale: f64,
    },
}

impl PayloadMode {
    /// CLI name → mode (`noop`, `spin`, `memcpy`, `faulty`, `mixed`).
    /// The bare `faulty` name uses [`DEFAULT_FAULT_RATE_PPM`] and seed
    /// 0; the harness overrides both via `--fault-rate` /
    /// `--fault-seed`.
    pub fn parse(name: &str, time_scale: f64) -> Option<PayloadMode> {
        match name {
            "noop" => Some(PayloadMode::Noop),
            "spin" => Some(PayloadMode::Spin { time_scale }),
            "memcpy" => Some(PayloadMode::Memcpy),
            "faulty" => Some(PayloadMode::Faulty { rate_ppm: DEFAULT_FAULT_RATE_PPM, seed: 0 }),
            "mixed" => Some(PayloadMode::Mixed { time_scale }),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            PayloadMode::Noop => "noop",
            PayloadMode::Spin { .. } => "spin",
            PayloadMode::Memcpy => "memcpy",
            PayloadMode::Faulty { .. } => "faulty",
            PayloadMode::Mixed { .. } => "mixed",
        }
    }

    /// Whether any task of a run in this mode moves bytes (memcpy, and
    /// mixed's memory class). Only such a run reads the source arena or
    /// a worker's destination buffer, so only such a run gets them
    /// (DESIGN.md §7).
    pub(crate) fn copies(&self) -> bool {
        matches!(self, PayloadMode::Memcpy | PayloadMode::Mixed { .. })
    }
}

/// Per-worker payload state. The source arena is shared read-only; the
/// destination buffer is private (see the module docs for why).
pub struct PayloadScratch<'a> {
    src: &'a [u8],
    dst: Vec<u8>,
    sink: u64,
}

/// Size of the shared read-only source arena: 4 MB, several times any
/// capped task footprint, so chunk offsets vary across objects.
pub const ARENA_LEN: usize = 4 << 20;

/// Builds the shared source arena (deterministic byte pattern).
pub fn build_arena() -> Vec<u8> {
    (0..ARENA_LEN).map(|i| (i as u32).wrapping_mul(0x9E37_79B9) as u8).collect()
}

/// The process's one source arena, built by the first run that copies
/// and lent to every run after it: the bytes are a pure function of the
/// index, so one read-only copy serves them all, and building it
/// (byte by byte, ~17 per-run fixed costs) is not a per-graph expense.
pub(crate) fn shared_arena() -> &'static [u8] {
    static ARENA: OnceLock<Vec<u8>> = OnceLock::new();
    ARENA.get_or_init(build_arena)
}

impl<'a> PayloadScratch<'a> {
    /// Scratch for one worker over the shared `arena`.
    pub fn new(arena: &'a [u8]) -> Self {
        assert!(arena.len() >= 2 * CHUNK_CAP, "arena too small for a capped chunk");
        PayloadScratch { src: arena, dst: vec![0u8; CHUNK_CAP], sink: 0 }
    }

    /// Scratch for a worker of a run whose payload never copies
    /// ([`PayloadMode::copies`] is false): no arena and no destination
    /// buffer, so nothing is allocated or zero-filled for memory no
    /// task will read. A copy through it would index an empty slice and
    /// panic, not read garbage.
    pub(crate) fn without_buffers() -> PayloadScratch<'static> {
        PayloadScratch { src: &[], dst: Vec::new(), sink: 0 }
    }

    /// Runs one task's payload to the end; returns the busy wall time.
    /// The unstoppable run is the stoppable one entered with a check
    /// that never fires.
    pub fn run(&mut self, mode: PayloadMode, task: &TaskDesc) -> Duration {
        self.run_watched(mode, task, &|| false).0
    }

    /// Runs one task's payload under a stop check — the one payload
    /// body there is: polls `cancel` (true = stop; the executor passes
    /// the run's stop check) and returns `(busy, cancelled)`. Spin
    /// payloads poll every iteration; memcpy polls between operand
    /// chunks (a single chunk is ≤ 64 KB, so cancellation latency stays
    /// in the microseconds).
    ///
    /// One instance per program: the check is a `&dyn Fn`, so the
    /// executor's stop check and [`PayloadScratch::run`]'s share this
    /// body. Never inlined: inlined into the executor's `run_task`, the
    /// payload loops' registers and stack frame would become its own,
    /// and a no-op task, which never enters this body, would pay for
    /// them in spills (DESIGN.md §11.4).
    #[inline(never)]
    pub fn run_watched(
        &mut self,
        mode: PayloadMode,
        task: &TaskDesc,
        cancel: &dyn Fn() -> bool,
    ) -> (Duration, bool) {
        match mode {
            PayloadMode::Noop | PayloadMode::Faulty { .. } => (Duration::ZERO, false),
            PayloadMode::Spin { time_scale } => self.spin(task, time_scale, cancel),
            PayloadMode::Memcpy => self.memcpy(task, cancel),
            PayloadMode::Mixed { time_scale } => {
                if task_class(mode, task) == CLASS_MEMORY {
                    self.memcpy(task, cancel)
                } else {
                    self.spin(task, time_scale, cancel)
                }
            }
        }
    }

    /// Busy-waits the task's traced runtime (simulated cycles → host
    /// nanoseconds) scaled by `time_scale`, or until cancelled.
    fn spin(
        &mut self,
        task: &TaskDesc,
        time_scale: f64,
        cancel: &dyn Fn() -> bool,
    ) -> (Duration, bool) {
        let t0 = Stamp::now();
        let target = cycles_to_ns(task.runtime) * time_scale;
        let budget = Duration::from_nanos(target as u64);
        let mut cancelled = false;
        while t0.elapsed() < budget {
            if cancel() {
                cancelled = true;
                break;
            }
            std::hint::spin_loop();
        }
        (t0.elapsed(), cancelled)
    }

    /// Moves the task's (capped) operand footprint through the worker's
    /// scratch pair, or stops between two chunks once cancelled.
    fn memcpy(&mut self, task: &TaskDesc, cancel: &dyn Fn() -> bool) -> (Duration, bool) {
        let t0 = Stamp::now();
        for c in operand_chunks(task) {
            if cancel() {
                return (t0.elapsed(), true);
            }
            self.copy_chunk(c);
        }
        std::hint::black_box(self.sink);
        (t0.elapsed(), false)
    }

    /// Moves one operand chunk through the scratch pair.
    fn copy_chunk(&mut self, c: tss_workloads::payload::OperandChunk) {
        // Map the object's base address into the arena; the
        // multiplicative hash spreads distinct objects.
        let off = (c.addr.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            % (self.src.len() - c.len).max(1) as u64) as usize;
        if c.reads {
            self.dst[..c.len].copy_from_slice(&self.src[off..off + c.len]);
            self.sink = self.sink.wrapping_add(self.dst[c.len / 2] as u64);
        }
        if c.writes {
            let fill = (c.addr as u8).wrapping_add(self.sink as u8);
            self.dst[..c.len].fill(fill);
            self.sink = self.sink.wrapping_add(self.dst[0] as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::{KernelId, OperandDesc, TaskDesc};

    fn task() -> TaskDesc {
        TaskDesc::new(
            KernelId(0),
            3200, // 1 µs at 3.2 GHz
            vec![OperandDesc::input(0xAB, 4096), OperandDesc::output(0xCD, 4096)],
        )
    }

    #[test]
    fn parse_round_trips() {
        for name in ["noop", "spin", "memcpy", "faulty", "mixed"] {
            assert_eq!(PayloadMode::parse(name, 1.0).unwrap().name(), name);
        }
        assert_eq!(PayloadMode::parse("fft", 1.0), None);
    }

    #[test]
    fn watched_spin_stops_on_cancel() {
        let arena = build_arena();
        let mut s = PayloadScratch::new(&arena);
        let long = TaskDesc::new(KernelId(0), 32_000_000_000, vec![]); // 10 s at 3.2 GHz
                                                                       // Pre-cancelled.
        let (busy, cancelled) =
            s.run_watched(PayloadMode::Spin { time_scale: 1.0 }, &long, &|| true);
        assert!(cancelled);
        assert!(busy < Duration::from_secs(1), "cancelled spin still ran {busy:?}");
    }

    #[test]
    fn watched_memcpy_matches_unwatched_when_uncancelled() {
        // `a` copies out of a freshly built arena, as the benchmark's
        // serial probe does; `b` out of the one every run borrows. Same
        // bytes, so the same sink.
        let arena = build_arena();
        let mut a = PayloadScratch::new(&arena);
        let mut b = PayloadScratch::new(shared_arena());
        a.run(PayloadMode::Memcpy, &task());
        let (_, cancelled) = b.run_watched(PayloadMode::Memcpy, &task(), &|| false);
        assert!(!cancelled);
        assert_eq!(a.sink, b.sink, "watched memcpy must do identical work");
    }

    #[test]
    fn the_lent_arena_is_the_built_one_and_is_built_once() {
        assert!(shared_arena() == &build_arena()[..], "lent arena differs from build_arena()");
        assert!(std::ptr::eq(shared_arena(), shared_arena()), "arena rebuilt per call");
    }

    #[test]
    fn a_bufferless_scratch_runs_every_payload_that_never_copies() {
        let mut s = PayloadScratch::without_buffers();
        assert!(s.src.is_empty() && s.dst.capacity() == 0);
        for mode in [
            PayloadMode::Noop,
            PayloadMode::Faulty { rate_ppm: 1_000_000, seed: 0 },
            PayloadMode::Spin { time_scale: 0.001 },
        ] {
            assert!(!mode.copies(), "{mode:?}");
            s.run(mode, &task());
        }
        assert!(PayloadMode::Memcpy.copies() && PayloadMode::Mixed { time_scale: 1.0 }.copies());
    }

    #[test]
    fn spin_honors_the_scaled_runtime() {
        let arena = build_arena();
        let mut s = PayloadScratch::new(&arena);
        let busy = s.run(PayloadMode::Spin { time_scale: 1.0 }, &task());
        assert!(busy >= Duration::from_nanos(900), "spun {busy:?} for a 1 µs task");
    }

    #[test]
    fn memcpy_moves_the_footprint() {
        let arena = build_arena();
        let mut s = PayloadScratch::new(&arena);
        s.run(PayloadMode::Memcpy, &task());
        // The last operand is a 4096-byte write: its uniform fill must
        // be what the destination buffer ends on.
        assert!(s.dst[..4096].windows(2).all(|w| w[0] == w[1]), "write chunk not filled");
    }

    #[test]
    fn mixed_routes_by_footprint_class() {
        // task() moves 8 KB < MEMORY_CLASS_BYTES → compute class.
        assert_eq!(task_class(PayloadMode::Mixed { time_scale: 1.0 }, &task()), CLASS_COMPUTE);
        let big = TaskDesc::new(
            KernelId(0),
            3200,
            vec![OperandDesc::output(0xEF, MEMORY_CLASS_BYTES as u32 + 1)],
        );
        assert_eq!(task_class(PayloadMode::Mixed { time_scale: 1.0 }, &big), CLASS_MEMORY);
        // Uniform payloads pin the class regardless of footprint.
        assert_eq!(task_class(PayloadMode::Spin { time_scale: 1.0 }, &big), CLASS_COMPUTE);
        assert_eq!(task_class(PayloadMode::Memcpy, &task()), CLASS_MEMORY);
        // The memory-class mixed body is the memcpy body: same sink.
        let arena = build_arena();
        let mut a = PayloadScratch::new(&arena);
        let mut b = PayloadScratch::new(&arena);
        a.run(PayloadMode::Memcpy, &big);
        b.run(PayloadMode::Mixed { time_scale: 1.0 }, &big);
        assert_eq!(a.sink, b.sink, "mixed memory-class task must do the memcpy work");
    }

    #[test]
    fn noop_is_fast() {
        let arena = build_arena();
        let mut s = PayloadScratch::new(&arena);
        let busy = s.run(PayloadMode::Noop, &task());
        assert!(busy < Duration::from_millis(10));
    }
}
