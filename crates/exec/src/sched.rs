//! The scheduling seam (DESIGN.md §13): two statically dispatched
//! policies for the worker loop (a generic parameter on the worker
//! loop, no `dyn` on the hot path).
//!
//! - [`LifoPolicy`] — **the baseline**: owner-LIFO deques, so the
//!   default build monomorphizes to exactly the pre-§13 worker loop
//!   (and is pinned to it by the fig16 / chaos CI gates). Every gated
//!   workload runs it. Keep it boring.
//! - [`FifoPolicy`] — the classic ablation foil: the owner drains its
//!   own deque oldest-first (via the thief end — the Chase-Lev `steal`
//!   protocol is safe from *any* thread, the owner included), which
//!   trades cache-hot depth-first execution for breadth-first fairness.
//!
//! Both steal with the one `victims` scan: a random-start rotation
//! over every other worker.
//!
//! # What a policy may and may not touch
//!
//! Policies sit *around* the lock-free core, never inside it: the
//! Chase-Lev protocol, the completion-ticket counter, and the parker
//! epoch are not policy surface. A policy decides *what* the owner runs
//! next ([`SchedPolicy::take_local`]) and whether the last task of a
//! released batch skips the deque ([`SchedPolicy::runs_last_ready_next`]).
//! Correctness (exactly-once execution, dependency order, poison cones)
//! is owned by the executor and holds under both — the proptest matrix
//! in `tests/sched.rs` runs the full oracle over each.
//!
//! Any synchronization a policy needs must come from the
//! `crate::sync` facade so the model checker sees it; `tss-lint`
//! enforces this for every file containing an `impl SchedPolicy`.

use crate::deque::{rotate_victims, ChaseLev};

/// The CLI menu for `--policy`, kept next to the parser it documents.
pub const SCHED_MENU: &str = "lifo|fifo";

/// Which scheduling policy a run uses. The executor monomorphizes the
/// worker loop per kind ([`crate::Executor::run`] matches once, at the
/// top); this enum is only the configuration-time name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Owner-LIFO + random-rotation stealing: the pre-§13 baseline.
    Lifo,
    /// Owner-FIFO (oldest-first) drain; same steal scan as LIFO.
    Fifo,
}

impl SchedKind {
    /// CLI name → kind (see [`SCHED_MENU`]).
    pub fn parse(name: &str) -> Option<SchedKind> {
        SchedKind::all().into_iter().find(|k| k.name() == name)
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Lifo => "lifo",
            SchedKind::Fifo => "fifo",
        }
    }

    /// Every kind, in ablation-harness sweep order (baseline first).
    pub fn all() -> [SchedKind; 2] {
        [SchedKind::Lifo, SchedKind::Fifo]
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

/// Fills `buf` with the steal scan order of idle worker `w` out of
/// `threads`: the pre-§13 inline scan, *including its rng consumption*
/// — one draw of the worker's private SplitMix64 state per scan, and
/// none when there is no victim — so a seeded run is schedule-identical
/// to the inline scan. The scan is complete (every other deque, once),
/// which the park/termination argument requires.
#[inline]
pub(crate) fn victims(w: usize, threads: usize, rng: &mut u64, buf: &mut Vec<usize>) {
    if threads <= 1 {
        buf.clear();
        return;
    }
    let r = splitmix(rng);
    rotate_victims(w, threads, r, buf);
}

/// A scheduling policy: the pluggable seam of the worker loop.
///
/// Statically dispatched — the executor is generic over `P:
/// SchedPolicy` and `match`es the configured [`SchedKind`] exactly
/// once, outside the loop. Every default body below is the LIFO
/// baseline, so [`LifoPolicy`] overrides nothing and the compiler folds
/// the hooks away. Both hooks are called by the worker that owns the
/// deque: `runs_last_ready_next` once per released batch in
/// `complete`, `take_local` on the own-deque drain.
pub trait SchedPolicy: Sync + Sized {
    /// The policy's CLI / JSON name.
    const NAME: &'static str;

    /// The policy for one run.
    fn new() -> Self;

    /// Whether the worker that pushes a ready batch to its own deque
    /// would take the *last* task of the batch straight back with
    /// [`SchedPolicy::take_local`] — the scheduler bypass (§13.1): if
    /// so, `complete` keeps that task in the worker's own slot and runs
    /// it next, with no push and no pop, and only the others are
    /// pushed. True of the baseline (the last pushed is the next
    /// popped). A policy must answer `false` if its `take_local` is not
    /// a `pop`.
    #[inline]
    fn runs_last_ready_next(&self) -> bool {
        true
    }

    /// Takes the owner's next task from its own deque. The baseline is
    /// LIFO `pop`; FIFO takes the thief end instead.
    #[inline]
    fn take_local(&self, me: &ChaseLev) -> Option<u32> {
        me.pop()
    }
}

/// The pre-§13 policy, verbatim: owner-LIFO deques. Every hook is the
/// trait default.
pub struct LifoPolicy;

impl SchedPolicy for LifoPolicy {
    const NAME: &'static str = "lifo";

    fn new() -> Self {
        LifoPolicy
    }
}

/// Owner-FIFO: the owner drains its own deque oldest-first by taking
/// the *thief* end — `ChaseLev::steal` is safe from any thread, the
/// owner included (every claim is CAS-arbitrated on `top`), so this
/// needs no new deque code.
pub struct FifoPolicy;

impl SchedPolicy for FifoPolicy {
    const NAME: &'static str = "fifo";

    fn new() -> Self {
        FifoPolicy
    }

    /// The owner takes the oldest task, not the one it pushed last.
    #[inline]
    fn runs_last_ready_next(&self) -> bool {
        false
    }

    #[inline]
    fn take_local(&self, me: &ChaseLev) -> Option<u32> {
        me.steal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_round_trips() {
        for k in SchedKind::all() {
            assert_eq!(SchedKind::parse(k.name()), Some(k));
        }
        assert_eq!(SchedKind::parse("cilk"), None);
        let menu: Vec<&str> = SCHED_MENU.split('|').collect();
        let names: Vec<&str> = SchedKind::all().map(SchedKind::name).to_vec();
        assert_eq!(menu, names, "the menu lists every kind, in sweep order");
    }

    #[test]
    fn lifo_victims_match_the_baseline_scan() {
        // Same rng stream, same order as the pre-§13 inline code.
        let mut rng_scan = 7u64;
        let mut rng_base = 7u64;
        let mut buf = Vec::new();
        for w in 0..4usize {
            for _ in 0..16 {
                victims(w, 4, &mut rng_scan, &mut buf);
                let others: Vec<usize> = (0..4).filter(|&v| v != w).collect();
                let start = (splitmix(&mut rng_base) as usize) % others.len();
                let want: Vec<usize> =
                    (0..others.len()).map(|i| others[(start + i) % others.len()]).collect();
                assert_eq!(buf, want);
            }
        }
        assert_eq!(rng_scan, rng_base, "rng consumption diverged from the baseline");
        // Single worker: no victims and, critically, no rng draw.
        let before = rng_scan;
        victims(0, 1, &mut rng_scan, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(rng_scan, before);
    }

    #[test]
    fn fifo_owner_takes_oldest_first() {
        let p = FifoPolicy::new();
        let d = ChaseLev::new();
        for t in 0..5u32 {
            d.push(t);
        }
        let drained: Vec<u32> = std::iter::from_fn(|| p.take_local(&d)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4], "FIFO must drain in push order");
        // And the baseline drains newest-first.
        let l = LifoPolicy::new();
        for t in 0..5u32 {
            d.push(t);
        }
        let drained: Vec<u32> = std::iter::from_fn(|| l.take_local(&d)).collect();
        assert_eq!(drained, vec![4, 3, 2, 1, 0]);
    }
}
