//! Pluggable scheduling policies (DESIGN.md §13).
//!
//! PR 3–8 hardcoded one scheduling policy into the worker loop:
//! owner-LIFO deques, random-start rotation over every other worker on
//! the steal path. That policy is excellent for homogeneous payloads
//! (depth-first bounds the live set; random victims spread contention)
//! and measurably blind for heterogeneous ones — a memcpy-bound task
//! and a spin-bound task cost the same to a scheduler that only sees
//! task ids. This module turns the policy into a statically-dispatched
//! trait (the PR 5/6 discipline: a generic parameter on the worker
//! loop, no `dyn` on the hot path) with four implementations:
//!
//! - [`LifoPolicy`] — **the baseline**: every hook is the identity of
//!   the pre-§13 inline code, so the default build monomorphizes to
//!   exactly the old worker loop (and is pinned to it by the fig16 /
//!   chaos CI gates). Keep it boring.
//! - [`FifoPolicy`] — the classic ablation foil: the owner drains its
//!   own deque oldest-first (via the thief end — the Chase-Lev `steal`
//!   protocol is safe from *any* thread, the owner included), which
//!   trades cache-hot depth-first execution for breadth-first fairness.
//! - [`CostAwarePolicy`] — per-task cost estimates from the traced
//!   runtime + operand footprint (§13.2); ready batches are released
//!   so the owner pops the longest-estimated task first, and the steal
//!   scan visits the most-loaded victim first using per-worker
//!   advisory load gauges.
//! - [`LocalityPolicy`] — heterogeneous worker classes (compute pool
//!   vs memory pool, §13.3) with spawn-time class routing, plus
//!   affinity domains with steal-within-your-domain-first and a
//!   cross-domain fallback (§13.4).
//!
//! # What a policy may and may not touch
//!
//! Policies sit *around* the lock-free core, never inside it: the
//! Chase-Lev protocol, the completion-ticket counter, and the parker
//! epoch are not policy surface. A policy decides *where* a ready task
//! goes ([`SchedPolicy::dispatch`]), *what* the owner runs next
//! ([`SchedPolicy::take_local`] / [`SchedPolicy::take_routed`]), and
//! *whom* to rob in what order ([`SchedPolicy::victims`]). Correctness
//! (exactly-once execution, dependency order, poison cones) is owned
//! by the executor and holds under every policy — the proptest matrix
//! in `tests/sched.rs` runs the full oracle over all four.
//!
//! Any synchronization a policy needs must come from the
//! `crate::sync` facade so the model checker sees it; `tss-lint`
//! enforces this for every file containing an `impl SchedPolicy`.

use std::collections::VecDeque;

use tss_sim::{cycles_to_ns, CachePadded};
use tss_trace::TaskTrace;
use tss_workloads::payload::task_footprint;

use crate::deque::{rotate_victims, ChaseLev};
use crate::payload::{task_class, PayloadMode, CLASS_COMPUTE, CLASS_MEMORY, NUM_CLASSES};
use crate::sync::atomic::{AtomicIsize, Ordering};
use crate::sync::Mutex;

/// The CLI menu for `--policy`, kept next to the parser it documents.
pub const SCHED_MENU: &str = "lifo|fifo|cost|locality";

/// Which scheduling policy a run uses. The executor monomorphizes the
/// worker loop per kind ([`crate::Executor::run`] matches once, at the
/// top); this enum is only the configuration-time name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Owner-LIFO + random-rotation stealing: the pre-§13 baseline.
    Lifo,
    /// Owner-FIFO (oldest-first) drain; same steal scan as LIFO.
    Fifo,
    /// Cost estimates: longest-estimated-first + load-ordered victims.
    CostAware,
    /// Worker classes + affinity domains + domain-first stealing.
    Locality,
}

impl SchedKind {
    /// CLI name → kind (see [`SCHED_MENU`]).
    pub fn parse(name: &str) -> Option<SchedKind> {
        match name {
            "lifo" => Some(SchedKind::Lifo),
            "fifo" => Some(SchedKind::Fifo),
            "cost" => Some(SchedKind::CostAware),
            "locality" => Some(SchedKind::Locality),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Lifo => "lifo",
            SchedKind::Fifo => "fifo",
            SchedKind::CostAware => "cost",
            SchedKind::Locality => "locality",
        }
    }

    /// Every kind, in ablation-harness sweep order (baseline first).
    pub fn all() -> [SchedKind; 4] {
        [SchedKind::Lifo, SchedKind::Fifo, SchedKind::CostAware, SchedKind::Locality]
    }
}

/// Tiny SplitMix64 for the steal-victim rotation (moved here from the
/// executor with the victim-selection seam; same constants, same
/// stream).
#[inline]
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A scheduling policy: the pluggable seam of the worker loop.
///
/// Statically dispatched — the executor is generic over `P:
/// SchedPolicy` and `match`es the configured [`SchedKind`] exactly
/// once, outside the loop. Every default body below is the LIFO
/// baseline, so [`LifoPolicy`] overrides nothing but the victim scan
/// and the compiler folds the remaining hooks away.
///
/// Hook contract (who calls what, from which thread):
///
/// | hook           | caller                   | thread            |
/// |----------------|--------------------------|-------------------|
/// | `prepare`      | `complete` (release)     | completing worker |
/// | `dispatch`     | `complete` (per task)    | completing worker |
/// | `runs_last_ready_next` | `complete` (per batch) | completing worker |
/// | `take_local`   | own-deque drain burst    | owner only        |
/// | `take_routed`  | idle path, before steals | any worker        |
/// | `victims`      | idle path, before park   | the scanning worker |
/// | `cross_domain` | steal accounting         | the thief         |
/// | `note_executed`| after a payload succeeds | the executing worker |
pub trait SchedPolicy: Sync + Sized {
    /// The policy's CLI / JSON name.
    const NAME: &'static str;

    /// Builds the policy's per-run state (cost columns, class routing
    /// tables). `threads`, `classes`, `domains` arrive pre-clamped by
    /// `ExecConfig` validation.
    fn new(
        trace: &TaskTrace,
        payload: PayloadMode,
        threads: usize,
        classes: usize,
        domains: usize,
    ) -> Self;

    /// Reorders a freshly released ready batch before dispatch. The
    /// batch is dispatched in order and popped LIFO, so sorting
    /// *ascending* by cost makes the owner run the costliest first.
    #[inline]
    fn prepare(&self, _ready: &mut Vec<u32>) {}

    /// Routes one ready task. Returning `true` means the task went to
    /// the completing worker's own deque `me` (the baseline); `false`
    /// means the policy routed it elsewhere (a class queue) and the
    /// caller must publish a wake so the right worker can find it.
    #[inline]
    fn dispatch(&self, _w: usize, s: u32, me: &ChaseLev) -> bool {
        me.push(s);
        true
    }

    /// Whether the worker that dispatches a ready batch to its own
    /// deque would take the *last* task of the batch straight back with
    /// [`SchedPolicy::take_local`] — the scheduler bypass (§13.1): if
    /// so, `complete` keeps that task in the worker's own slot and runs
    /// it next, with no push and no pop, and only the others are
    /// dispatched. True of the baseline (the last pushed is the next
    /// popped). A policy must answer `false` if its `take_local` is not
    /// a `pop`, or if its `dispatch` does anything but push to `me` —
    /// the held task never goes through either.
    #[inline]
    fn runs_last_ready_next(&self) -> bool {
        true
    }

    /// Takes the owner's next task from its own deque. The baseline is
    /// LIFO `pop`; FIFO takes the thief end instead.
    #[inline]
    fn take_local(&self, _w: usize, me: &ChaseLev) -> Option<u32> {
        me.pop()
    }

    /// Takes a task the policy routed outside the deques (class
    /// queues). Called on the idle path only — a policy may lock here.
    #[inline]
    fn take_routed(&self, _w: usize) -> Option<u32> {
        None
    }

    /// Fills `buf` with the victim scan order for an idle worker `w`.
    /// `rng` is the worker's private SplitMix64 state; the baseline
    /// consumes exactly one draw per scan (when any victim exists) —
    /// [`LifoPolicy`] must preserve that to stay replay-identical.
    fn victims(&self, w: usize, rng: &mut u64, buf: &mut Vec<usize>);

    /// Whether a `w`-steals-from-`v` event crossed an affinity domain
    /// (for the `cross_steals` counter; constant `false` folds the
    /// accounting away for domain-blind policies).
    #[inline]
    fn cross_domain(&self, _w: usize, _v: usize) -> bool {
        false
    }

    /// Bookkeeping after worker `w` ran task `t` to success (load
    /// gauge decay). Advisory only — never correctness.
    #[inline]
    fn note_executed(&self, _w: usize, _t: u32) {}
}

// ---------------------------------------------------------------------
// LIFO (baseline) and FIFO
// ---------------------------------------------------------------------

/// The pre-§13 policy, verbatim: owner-LIFO deques, one random-start
/// rotation over all other workers per idle scan. Every hook is the
/// trait default except [`SchedPolicy::victims`], which reproduces the
/// old inline scan *including its rng consumption* (one draw per scan,
/// only when a victim exists) so a seeded run is schedule-identical to
/// PR 8.
pub struct LifoPolicy {
    threads: usize,
}

impl SchedPolicy for LifoPolicy {
    const NAME: &'static str = "lifo";

    fn new(
        _trace: &TaskTrace,
        _payload: PayloadMode,
        threads: usize,
        _classes: usize,
        _domains: usize,
    ) -> Self {
        LifoPolicy { threads }
    }

    #[inline]
    fn victims(&self, w: usize, rng: &mut u64, buf: &mut Vec<usize>) {
        if self.threads <= 1 {
            buf.clear();
            return;
        }
        let r = splitmix(rng);
        rotate_victims(w, self.threads, r, buf);
    }
}

/// Owner-FIFO: the owner drains its own deque oldest-first by taking
/// the *thief* end — `ChaseLev::steal` is safe from any thread, the
/// owner included (every claim is CAS-arbitrated on `top`), so this
/// needs no new deque code. Steal scan identical to LIFO.
pub struct FifoPolicy {
    threads: usize,
}

impl SchedPolicy for FifoPolicy {
    const NAME: &'static str = "fifo";

    fn new(
        _trace: &TaskTrace,
        _payload: PayloadMode,
        threads: usize,
        _classes: usize,
        _domains: usize,
    ) -> Self {
        FifoPolicy { threads }
    }

    /// The owner takes the oldest task, not the one it pushed last.
    #[inline]
    fn runs_last_ready_next(&self) -> bool {
        false
    }

    #[inline]
    fn take_local(&self, _w: usize, me: &ChaseLev) -> Option<u32> {
        me.steal()
    }

    #[inline]
    fn victims(&self, w: usize, rng: &mut u64, buf: &mut Vec<usize>) {
        if self.threads <= 1 {
            buf.clear();
            return;
        }
        let r = splitmix(rng);
        rotate_victims(w, self.threads, r, buf);
    }
}

// ---------------------------------------------------------------------
// Cost-aware (DESIGN.md §13.2)
// ---------------------------------------------------------------------

/// Calibration constant for the memory-class cost term: estimated
/// sustained copy bandwidth in bytes per nanosecond (≈4 GB/s — the
/// conservative end of one-core memcpy on the hosts this repo has run
/// on; §13.2 derives why a 2–4× miscalibration barely moves the
/// *ordering* the policy needs).
pub const COST_BYTES_PER_NS: u64 = 4;

/// Per-task cost estimates + per-worker advisory load gauges.
///
/// The cost column is a pure function of the trace and payload mode
/// (computed once, up front): a spin-class task costs its traced
/// runtime in host-nanoseconds (scaled), a memory-class task costs its
/// operand footprint over [`COST_BYTES_PER_NS`], and free payloads
/// (noop/faulty) cost a uniform floor — under which the stable
/// `prepare` sort degenerates to the baseline dispatch order.
///
/// The load gauges are *advisory*: `dispatch` credits the worker whose
/// deque received the task, `note_executed` debits the worker that ran
/// it, and batch steals move tasks without transferring credit — so a
/// gauge can drift and even go negative (clamped at read). That is
/// fine: the gauges only bias the victim *scan order*, and every steal
/// still goes through the full validated Chase-Lev protocol. They are
/// never correctness.
pub struct CostAwarePolicy {
    threads: usize,
    /// Per-task cost estimate, host-ns (SoA column beside `runtimes`).
    cost: Vec<u64>,
    /// Per-worker outstanding-cost gauge (advisory, may drift).
    load: Vec<CachePadded<AtomicIsize>>,
}

/// The uniform cost floor: keeps every estimate nonzero so gauge
/// debits always mirror a credit.
const COST_FLOOR: u64 = 1;

/// Cost estimate for one task under `payload` (§13.2).
pub fn task_cost(payload: PayloadMode, task: &tss_trace::TaskDesc) -> u64 {
    let spin_ns = |scale: f64| (cycles_to_ns(task.runtime) * scale) as u64;
    let mem_ns = || {
        let fp = task_footprint(task);
        (fp.read_bytes + fp.write_bytes) / COST_BYTES_PER_NS
    };
    let est = match payload {
        PayloadMode::Noop | PayloadMode::Faulty { .. } => 0,
        PayloadMode::Spin { time_scale } => spin_ns(time_scale),
        PayloadMode::Memcpy => mem_ns(),
        PayloadMode::Mixed { time_scale } => {
            if task_class(payload, task) == CLASS_MEMORY {
                mem_ns()
            } else {
                spin_ns(time_scale)
            }
        }
    };
    est + COST_FLOOR
}

impl SchedPolicy for CostAwarePolicy {
    const NAME: &'static str = "cost";

    fn new(
        trace: &TaskTrace,
        payload: PayloadMode,
        threads: usize,
        _classes: usize,
        _domains: usize,
    ) -> Self {
        CostAwarePolicy {
            threads,
            cost: trace.iter().map(|t| task_cost(payload, t)).collect(),
            load: (0..threads).map(|_| CachePadded::new(AtomicIsize::new(0))).collect(),
        }
    }

    #[inline]
    fn prepare(&self, ready: &mut Vec<u32>) {
        // Ascending + stable: the owner's LIFO pop runs the costliest
        // first, and equal-cost tasks keep their release order (which
        // is what 1-worker bit-determinism pins).
        ready.sort_by_key(|&t| self.cost[t as usize]);
    }

    /// `dispatch` credits the load gauge `note_executed` debits: a task
    /// that skipped it would drive the gauge negative.
    #[inline]
    fn runs_last_ready_next(&self) -> bool {
        false
    }

    #[inline]
    fn dispatch(&self, w: usize, s: u32, me: &ChaseLev) -> bool {
        // Advisory gauge (see the type docs): Relaxed is sufficient
        // because no decision reading the gauge needs to observe any
        // other memory this write publishes.
        // relaxed: cost-aware load gauge fetch_add; advisory
        // victim-ordering bias only, clamped at read, never a correctness
        // input (DESIGN.md §13.2)
        self.load[w].fetch_add(self.cost[s as usize] as isize, Ordering::Relaxed);
        me.push(s);
        true
    }

    fn victims(&self, w: usize, rng: &mut u64, buf: &mut Vec<usize>) {
        if self.threads <= 1 {
            buf.clear();
            return;
        }
        // Random rotation first (same draw cadence as the baseline,
        // so equal-gauge states still spread contention), then a
        // stable sort by descending clamped load: the most-loaded
        // victim is scanned first, ties keep the rotation.
        let r = splitmix(rng);
        rotate_victims(w, self.threads, r, buf);
        // relaxed: cost-aware load gauge read for the victim sort; a stale
        // or torn-ordered value only reorders the scan, every steal is
        // still CAS-arbitrated (DESIGN.md §13.2)
        buf.sort_by_key(|&v| -self.load[v].load(Ordering::Relaxed).max(0));
    }

    #[inline]
    fn note_executed(&self, w: usize, t: u32) {
        // relaxed: cost-aware load gauge fetch_sub decay; advisory only,
        // negative transients clamped at read (DESIGN.md §13.2)
        self.load[w].fetch_sub(self.cost[t as usize] as isize, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Locality-aware (DESIGN.md §13.3–§13.4)
// ---------------------------------------------------------------------

/// Worker classes + affinity domains.
///
/// **Classes** (§13.3): workers split into a compute pool (first
/// ⌈threads/2⌉) and a memory pool (the rest); every task carries a
/// class decided at spawn from `PayloadMode` + operand footprint
/// ([`task_class`] — a dense SoA column built once, like `runtimes`).
/// `dispatch` keeps same-class tasks on the completing worker's deque
/// and routes cross-class tasks through a per-class overflow queue
/// that the right pool drains on its idle path.
///
/// **Cross-class fallback**: `take_routed` tries the worker's own
/// class queue first, then *every other* class queue. This is a
/// liveness requirement, not a tuning choice — a chaos `kill_worker`
/// run can strand an entire class (threads=2 kills the whole memory
/// pool), and a routed task must never wait for a worker that no
/// longer exists. The cost is bounded: fallback only happens on the
/// idle path of a worker with nothing better to do.
///
/// **Domains** (§13.4): workers partition into `domains` contiguous
/// blocks; an idle worker scans same-domain victims (rotated) before
/// cross-domain victims (rotated), so steal traffic stays inside a
/// domain while any domain has surplus. The cross-domain tail keeps
/// the scan *complete* — every live deque is still visited every
/// scan, which is what the termination argument (park epoch vs full
/// rescan) requires; domains reorder the scan, never truncate it.
///
/// Routing disables itself (pure domain-stealing remains) when there
/// is only one worker or one class — the queues would only add a lock
/// hop nothing can win from the other side.
pub struct LocalityPolicy {
    threads: usize,
    routing: bool,
    /// Per-task class (SoA column, [`CLASS_COMPUTE`]/[`CLASS_MEMORY`]).
    class: Vec<u8>,
    /// Per-worker class (pool membership).
    worker_class: Vec<u8>,
    /// Per-worker affinity domain (contiguous blocks).
    domain: Vec<usize>,
    /// Per-class overflow queues for cross-class routed tasks. Locked
    /// only at dispatch of a cross-class task and on the idle path.
    queues: Vec<Mutex<VecDeque<u32>>>,
}

impl SchedPolicy for LocalityPolicy {
    const NAME: &'static str = "locality";

    fn new(
        trace: &TaskTrace,
        payload: PayloadMode,
        threads: usize,
        classes: usize,
        domains: usize,
    ) -> Self {
        let classes = classes.clamp(1, NUM_CLASSES);
        let domains = domains.clamp(1, threads);
        let compute_pool = threads.div_ceil(2);
        LocalityPolicy {
            threads,
            routing: classes >= 2 && threads >= 2,
            class: trace.iter().map(|t| task_class(payload, t)).collect(),
            worker_class: (0..threads)
                .map(|w| if w < compute_pool { CLASS_COMPUTE } else { CLASS_MEMORY })
                .collect(),
            domain: (0..threads).map(|w| w * domains / threads).collect(),
            queues: (0..NUM_CLASSES).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// `dispatch` may route the task to another class's queue.
    #[inline]
    fn runs_last_ready_next(&self) -> bool {
        false
    }

    #[inline]
    fn dispatch(&self, w: usize, s: u32, me: &ChaseLev) -> bool {
        let c = self.class[s as usize];
        if !self.routing || c == self.worker_class[w] {
            me.push(s);
            return true;
        }
        self.queues[c as usize].lock().expect("class queue poisoned").push_back(s);
        false
    }

    fn take_routed(&self, w: usize) -> Option<u32> {
        if !self.routing {
            return None;
        }
        let own = self.worker_class[w] as usize;
        if let Some(t) = self.queues[own].lock().expect("class queue poisoned").pop_front() {
            return Some(t);
        }
        // Cross-class fallback (see the type docs: liveness, not
        // preference — a whole pool may be dead or saturated).
        (0..NUM_CLASSES)
            .filter(|&c| c != own)
            .find_map(|c| self.queues[c].lock().expect("class queue poisoned").pop_front())
    }

    fn victims(&self, w: usize, rng: &mut u64, buf: &mut Vec<usize>) {
        if self.threads <= 1 {
            buf.clear();
            return;
        }
        // One draw, two rotations: same-domain victims first (rotated
        // by the low bits), then the cross-domain fallback tail
        // (rotated by the high bits). Stable partition keeps each
        // group's rotation intact.
        let r = splitmix(rng);
        rotate_victims(w, self.threads, r, buf);
        buf.sort_by_key(|&v| self.domain[v] != self.domain[w]);
        let near = buf.iter().filter(|&&v| self.domain[v] == self.domain[w]).count();
        if near > 1 {
            buf[..near].rotate_left(((r >> 16) as usize) % near);
        }
    }

    #[inline]
    fn cross_domain(&self, w: usize, v: usize) -> bool {
        self.domain[w] != self.domain[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::{KernelId, OperandDesc, TaskDesc};

    fn trace_of(tasks: Vec<TaskDesc>) -> TaskTrace {
        let mut tr = TaskTrace::new("sched-test");
        tr.add_kernel("k");
        for t in tasks {
            tr.push(t);
        }
        tr
    }

    /// runtime in cycles, footprint bytes (one output operand).
    fn task(runtime: u64, bytes: u32) -> TaskDesc {
        let ops = if bytes == 0 { vec![] } else { vec![OperandDesc::output(0x1000, bytes)] };
        TaskDesc::new(KernelId(0), runtime, ops)
    }

    #[test]
    fn kind_parses_and_round_trips() {
        for k in SchedKind::all() {
            assert_eq!(SchedKind::parse(k.name()), Some(k));
        }
        assert_eq!(SchedKind::parse("cilk"), None);
        for name in SCHED_MENU.split('|') {
            assert!(SchedKind::parse(name).is_some(), "menu lists unknown {name}");
        }
    }

    #[test]
    fn lifo_victims_match_the_baseline_scan() {
        // Same rng stream, same order as the pre-§13 inline code.
        let tr = trace_of(vec![]);
        let p = LifoPolicy::new(&tr, PayloadMode::Noop, 4, 2, 1);
        let mut rng_policy = 7u64;
        let mut rng_base = 7u64;
        let mut buf = Vec::new();
        for w in 0..4usize {
            for _ in 0..16 {
                p.victims(w, &mut rng_policy, &mut buf);
                let others: Vec<usize> = (0..4).filter(|&v| v != w).collect();
                let start = (splitmix(&mut rng_base) as usize) % others.len();
                let want: Vec<usize> =
                    (0..others.len()).map(|i| others[(start + i) % others.len()]).collect();
                assert_eq!(buf, want);
            }
        }
        assert_eq!(rng_policy, rng_base, "rng consumption diverged from the baseline");
        // Single worker: no victims and, critically, no rng draw.
        let p1 = LifoPolicy::new(&tr, PayloadMode::Noop, 1, 2, 1);
        let before = rng_policy;
        p1.victims(0, &mut rng_policy, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(rng_policy, before);
    }

    #[test]
    fn fifo_owner_takes_oldest_first() {
        let tr = trace_of(vec![]);
        let p = FifoPolicy::new(&tr, PayloadMode::Noop, 1, 2, 1);
        let d = ChaseLev::new();
        for t in 0..5u32 {
            assert!(p.dispatch(0, t, &d));
        }
        let drained: Vec<u32> = std::iter::from_fn(|| p.take_local(0, &d)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4], "FIFO must drain in push order");
        // And the baseline drains newest-first.
        let l = LifoPolicy::new(&tr, PayloadMode::Noop, 1, 2, 1);
        for t in 0..5u32 {
            l.dispatch(0, t, &d);
        }
        let drained: Vec<u32> = std::iter::from_fn(|| l.take_local(0, &d)).collect();
        assert_eq!(drained, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn cost_estimates_follow_class_and_mode() {
        let small = task(3200, 64); // 1 µs spin, negligible bytes
        let big = task(3200, 128 << 10); // 128 KB ⇒ memory class under mixed
        let mixed = PayloadMode::Mixed { time_scale: 1.0 };
        assert!(task_cost(mixed, &big) > task_cost(mixed, &small) / 2);
        // Spin cost scales with runtime; memcpy cost with footprint.
        assert!(
            task_cost(PayloadMode::Spin { time_scale: 1.0 }, &task(6400, 0))
                > task_cost(PayloadMode::Spin { time_scale: 1.0 }, &task(3200, 0))
        );
        assert!(
            task_cost(PayloadMode::Memcpy, &task(0, 8192))
                > task_cost(PayloadMode::Memcpy, &task(0, 1024))
        );
        // Free payloads cost the uniform floor.
        assert_eq!(task_cost(PayloadMode::Noop, &big), COST_FLOOR);
    }

    #[test]
    fn cost_prepare_puts_the_longest_on_top() {
        let tasks = vec![task(3200, 0), task(9600, 0), task(6400, 0)];
        let tr = trace_of(tasks);
        let p = CostAwarePolicy::new(&tr, PayloadMode::Spin { time_scale: 1.0 }, 1, 2, 1);
        let mut ready = vec![0u32, 1, 2];
        p.prepare(&mut ready);
        assert_eq!(ready, vec![0, 2, 1], "ascending cost so LIFO pops the costliest");
        let d = ChaseLev::new();
        for &t in &ready {
            p.dispatch(0, t, &d);
        }
        assert_eq!(p.take_local(0, &d), Some(1), "longest-estimated task runs first");
    }

    #[test]
    fn cost_gauges_bias_the_victim_scan() {
        let tasks = vec![task(3200, 0), task(320_000, 0)];
        let tr = trace_of(tasks);
        let p = CostAwarePolicy::new(&tr, PayloadMode::Spin { time_scale: 1.0 }, 3, 2, 1);
        let d = ChaseLev::new();
        p.dispatch(2, 1, &d); // worker 2 holds the expensive task
        p.dispatch(1, 0, &d); // worker 1 the cheap one
        let mut rng = 1u64;
        let mut buf = Vec::new();
        p.victims(0, &mut rng, &mut buf);
        assert_eq!(buf, vec![2, 1], "most-loaded victim scanned first");
        // Debit on execution; a drifted-negative gauge clamps to zero
        // rather than poisoning the sort key.
        p.note_executed(2, 1);
        p.note_executed(2, 1);
        let mut buf2 = Vec::new();
        p.victims(0, &mut rng, &mut buf2);
        assert_eq!(buf2, vec![1, 2]);
    }

    #[test]
    fn locality_routes_cross_class_spawns_through_the_queue() {
        let tasks = vec![task(3200, 64), task(3200, 128 << 10)];
        let tr = trace_of(tasks);
        let mixed = PayloadMode::Mixed { time_scale: 1.0 };
        let p = LocalityPolicy::new(&tr, mixed, 4, 2, 1);
        // Workers 0,1 compute; 2,3 memory.
        assert_eq!(p.worker_class, vec![CLASS_COMPUTE, CLASS_COMPUTE, CLASS_MEMORY, CLASS_MEMORY]);
        let d = ChaseLev::new();
        // Compute worker spawns a compute task: stays local.
        assert!(p.dispatch(0, 0, &d));
        assert_eq!(d.len(), 1);
        // Compute worker spawns a memory task: routed.
        assert!(!p.dispatch(0, 1, &d));
        assert_eq!(d.len(), 1);
        // The memory pool drains it from the class queue...
        assert_eq!(p.take_routed(2), Some(1));
        // ...and a compute worker would have found it too (fallback).
        assert!(!p.dispatch(0, 1, &d));
        assert_eq!(p.take_routed(0), Some(1), "cross-class fallback must reach it");
        assert_eq!(p.take_routed(0), None);
    }

    #[test]
    fn locality_routing_disables_below_two_workers_or_classes() {
        let tasks = vec![task(3200, 128 << 10)];
        let tr = trace_of(tasks);
        let mixed = PayloadMode::Mixed { time_scale: 1.0 };
        for (threads, classes) in [(1usize, 2usize), (4, 1)] {
            let p = LocalityPolicy::new(&tr, mixed, threads, classes, 1);
            let d = ChaseLev::new();
            assert!(p.dispatch(0, 0, &d), "routing must be off (threads={threads})");
            assert_eq!(d.len(), 1);
            assert_eq!(p.take_routed(0), None);
        }
    }

    #[test]
    fn locality_victims_scan_own_domain_first() {
        let tr = trace_of(vec![]);
        // 4 workers, 2 domains: {0,1} and {2,3}.
        let p = LocalityPolicy::new(&tr, PayloadMode::Noop, 4, 2, 2);
        assert_eq!(p.domain, vec![0, 0, 1, 1]);
        let mut rng = 3u64;
        let mut buf = Vec::new();
        for _ in 0..32 {
            p.victims(0, &mut rng, &mut buf);
            assert_eq!(buf.len(), 3, "domains reorder the scan, never truncate it");
            assert_eq!(buf[0], 1, "the only same-domain victim must lead");
            let tail: Vec<usize> = buf[1..].to_vec();
            assert!(tail == vec![2, 3] || tail == vec![3, 2]);
            assert!(p.cross_domain(0, buf[1]));
            assert!(!p.cross_domain(0, buf[0]));
        }
    }

    #[test]
    fn locality_single_domain_covers_everyone() {
        let tr = trace_of(vec![]);
        let p = LocalityPolicy::new(&tr, PayloadMode::Noop, 4, 2, 1);
        let mut rng = 9u64;
        let mut buf = Vec::new();
        p.victims(1, &mut rng, &mut buf);
        let mut sorted = buf.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2, 3]);
        assert!(buf.iter().all(|&v| !p.cross_domain(1, v)));
    }
}

/// Model-checked interleaving tests for the policy seams (DESIGN.md
/// §13.5). Compiled only under `RUSTFLAGS="--cfg tss_model_check"`.
#[cfg(all(test, tss_model_check))]
mod model_tests;
