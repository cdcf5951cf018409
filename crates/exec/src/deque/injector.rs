//! The run's push-only root queue (DESIGN.md §8.1), in a file of its
//! own so `deque.rs` stays under the 800-line rule. A child module: it
//! works on [`ChaseLev`]'s private indices.

use super::{ChaseLev, BATCH_MAX};
use crate::sync::atomic::Ordering;

/// Ordering of a claim's `bottom` load: the `Acquire` that pairs with
/// `push`'s `Release` store and makes the cells below that `bottom`
/// readable. `--cfg tss_bug_claim_relaxed` weakens it, so a claimer
/// may copy a cell whose write it has not observed and win the CAS with
/// it — `model_injector_claims_every_push_exactly_once` fails when
/// active (DESIGN.md §10.3).
#[cfg(not(tss_bug_claim_relaxed))]
const CLAIM_BOTTOM: Ordering = Ordering::Acquire;
#[cfg(tss_bug_claim_relaxed)]
// relaxed: deliberately-weak seeded-bug arm, compiled only under --cfg
// tss_bug_claim_relaxed; model_injector_claims_every_push_exactly_once
// fails when active
const CLAIM_BOTTOM: Ordering = Ordering::Relaxed;

/// The run's global ready queue: **push-only by type**. The window
/// committer (one thread at a time — the commit lock hands the role on,
/// which is the happens-before edge [`ChaseLev`]'s owner contract asks
/// for) pushes roots; workers claim them in batches; *nobody pops*.
/// That is the whole difference from a worker's deque, and it is what
/// makes a wide claim sound here and unsound there (DESIGN.md §8.1):
/// the per-item protocol of [`ChaseLev::steal_batch_into`] — a `SeqCst`
/// fence and a CAS per task — defends against an owner whose CAS-free
/// `pop` takes indices inside a thief's range without touching `top`.
/// With no `pop`, `bottom` only grows and an index at or above `top`
/// leaves the queue by a `top` CAS and no other way, so one CAS from
/// `t` to `t + k` claims `[t, t + k)` whole — and no fence, there being
/// no owner's store-load to pair with.
///
/// A thin wrapper: storage, growth and `push` are [`ChaseLev`]'s.
#[derive(Debug)]
pub struct Injector(ChaseLev);

impl Injector {
    /// An empty queue whose buffer starts at `cap` (see
    /// [`ChaseLev::with_capacity`]).
    pub fn with_capacity(cap: usize) -> Self {
        Injector(ChaseLev::with_capacity(cap))
    }

    /// Appends `task`. One pusher at a time, as [`ChaseLev::push`].
    #[inline]
    pub fn push(&self, task: u32) {
        self.0.push(task);
    }

    /// Claims the oldest `ceil(avail/2)` tasks (capped at
    /// [`BATCH_MAX`] and `max`) by **one** CAS on `top`: the oldest is
    /// returned to run now, the rest land in `dest` — the claimer's own
    /// deque — so that `dest.pop()` yields them oldest-first; the same
    /// target and the same banking as [`ChaseLev::steal_batch_into`],
    /// so a lone worker sees the same order.
    ///
    /// The cells are copied *before* the CAS and used only if it wins.
    /// `top` read first, `bottom` second: both only grow, so a stale
    /// `bottom` shortens the batch (or reads as empty, which the
    /// parker's epoch covers like any scan that raced a push) and
    /// cannot reach past a published cell — the `Acquire` load pairs
    /// with `push`'s `Release` store, and the buffer pointer read after
    /// it is at least as new as that `bottom`'s. A cell the pusher has
    /// recycled belongs to an index below a `top` that has moved on, and
    /// `top` never returns to a value it left, so the CAS fails. Its
    /// `Release` half orders the copies before the pusher's reuse of
    /// the cells (`push` reads `top` with `Acquire`).
    pub fn claim_batch_into(&self, dest: &ChaseLev, max: usize) -> Option<u32> {
        let q = &self.0;
        let max = max.clamp(1, BATCH_MAX);
        let mut tmp = [0u32; BATCH_MAX];
        loop {
            let t = q.top.load(Ordering::Acquire);
            let b = q.bottom.load(CLAIM_BOTTOM);
            let avail = b - t;
            if avail <= 0 {
                return None;
            }
            let k = (((avail + 1) / 2) as usize).min(max);
            let buf = q.buffer(Ordering::Acquire);
            for (i, slot) in tmp[..k].iter_mut().enumerate() {
                *slot = buf.read(t + i as isize);
            }
            // relaxed: claim CAS failure ordering; the claimer retries
            // from fresh loads, no data depends on failure
            let won =
                q.top.compare_exchange(t, t + k as isize, Ordering::AcqRel, Ordering::Relaxed);
            if won.is_ok() {
                // Newest-first, so the claimer pops (LIFO) oldest-first.
                for &task in tmp[1..k].iter().rev() {
                    dest.push(task);
                }
                return Some(tmp[0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicU32, AtomicUsize};
    use proptest::prelude::*;

    #[test]
    fn a_claim_takes_half_oldest_first() {
        let q = Injector::with_capacity(8);
        let mine = ChaseLev::new();
        assert_eq!(q.claim_batch_into(&mine, BATCH_MAX), None);
        for i in 0..8 {
            q.push(i);
        }
        assert_eq!(q.claim_batch_into(&mine, BATCH_MAX), Some(0));
        assert_eq!(
            (mine.pop(), mine.pop(), mine.pop(), mine.pop()),
            (Some(1), Some(2), Some(3), None)
        );
        assert_eq!(q.claim_batch_into(&mine, 1), Some(4), "`max` caps the batch");
        assert!(mine.is_empty());
        assert_eq!(q.0.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// From one thread, a claim is [`ChaseLev::steal_batch_into`]:
        /// same batch sizes, same task returned, same banked order —
        /// which is why a lone worker's order did not change when the
        /// injector stopped being a deque.
        #[test]
        fn a_lone_claimer_sees_what_a_lone_thief_saw(
            ops in prop::collection::vec((0u8..3, 0u8..40), 1..120),
        ) {
            let (inj, inj_dest) = (Injector::with_capacity(8), ChaseLev::with_capacity(8));
            let (cl, cl_dest) = (ChaseLev::with_capacity(8), ChaseLev::with_capacity(8));
            let mut next = 0u32;
            for (op, arg) in ops {
                if op == 0 {
                    let max = arg as usize + 1;
                    prop_assert_eq!(
                        inj.claim_batch_into(&inj_dest, max),
                        cl.steal_batch_into(&cl_dest, max)
                    );
                    loop {
                        let (a, b) = (inj_dest.pop(), cl_dest.pop());
                        prop_assert_eq!(a, b);
                        if a.is_none() {
                            break;
                        }
                    }
                } else {
                    for _ in 0..=arg {
                        inj.push(next);
                        cl.push(next);
                        next += 1;
                    }
                }
            }
        }
    }

    /// One pusher (growing the buffer from 8 cells up) against
    /// `claimers` batch claimers with seeded yields: every pushed id is
    /// claimed exactly once.
    fn stress(seed: u64, claimers: usize, items: u32) {
        let q = Injector::with_capacity(8);
        let consumed = AtomicUsize::new(0);
        let seen: Vec<AtomicU32> = (0..items).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|scope| {
            for c in 0..claimers {
                let (q, consumed, seen) = (&q, &consumed, &seen);
                scope.spawn(move || {
                    let mine = ChaseLev::with_capacity(8);
                    let mut rng = seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    while consumed.load(Ordering::SeqCst) < items as usize {
                        rng =
                            rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        if rng & 3 == 0 {
                            std::thread::yield_now();
                        }
                        let max = (rng >> 8) as usize % BATCH_MAX + 1;
                        let mut got = q.claim_batch_into(&mine, max);
                        while let Some(v) = got {
                            seen[v as usize].fetch_add(1, Ordering::SeqCst);
                            consumed.fetch_add(1, Ordering::SeqCst);
                            got = mine.pop();
                        }
                    }
                });
            }
            let mut rng = seed;
            for v in 0..items {
                q.push(v);
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if rng & 7 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        for (i, c) in seen.iter().enumerate() {
            let n = c.load(Ordering::SeqCst);
            assert_eq!(n, 1, "item {i} claimed {n} times (seed {seed})");
        }
    }

    #[test]
    fn concurrent_claims_lose_and_double_nothing() {
        for (seed, claimers) in [(1u64, 1), (7, 2), (42, 3)] {
            stress(seed, claimers, 6_000);
        }
    }
}
