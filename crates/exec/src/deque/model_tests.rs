//! The deque's model tests (DESIGN.md §10.3), in a file of their own so
//! `deque.rs` stays under the 800-line rule; `tss-lint` scopes this file
//! as it does its parent.

use super::*;
use shuttle::thread;
use std::sync::Arc;

/// Owner pop racing one thief on the single last element: every
/// interleaving (exhaustively enumerated — ~80k schedules including
/// all stale-read choices) hands the element to exactly one side —
/// the `top` CAS arbitration at `t == b`.
#[test]
fn model_pop_vs_steal_last_element() {
    let report = shuttle::check_exhaustive(150_000, || {
        let q = Arc::new(ChaseLev::with_capacity(8));
        q.push(7);
        let q2 = q.clone();
        let thief = thread::spawn(move || q2.steal());
        let mine = q.pop();
        let stolen = thief.join().unwrap();
        match (mine, stolen) {
            (Some(7), None) | (None, Some(7)) => {}
            other => panic!("last element claimed {other:?}"),
        }
    });
    assert!(report.complete, "budget too small: {} schedules", report.schedules);
}

/// Two elements, owner pops both while a thief steals: the three
/// claims always partition the set exactly (nothing lost, nothing
/// doubled) — exercises both the guarded (t == b) and unguarded
/// (t < b) owner paths against a concurrent CAS. The full tree is
/// millions of schedules, so this one is searched by seeded PCT and
/// uniform-random policies instead of enumerated.
#[test]
fn model_pop_vs_steal_two_elements() {
    let scenario = || {
        let q = Arc::new(ChaseLev::with_capacity(8));
        q.push(1);
        q.push(2);
        let q2 = q.clone();
        let thief = thread::spawn(move || q2.steal());
        let a = q.pop();
        let b = q.pop();
        let s = thief.join().unwrap();
        let mut got: Vec<u32> = [a, b, s].iter().flatten().copied().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "claims {a:?}/{b:?} vs steal {s:?}");
    };
    shuttle::check_pct(0x7EA1_5AFE, 600, 3, scenario);
    shuttle::check_random(0x7EA1_5AFE, 600, scenario);
}

/// `steal_batch_into` racing the owner's grow: every task claimed
/// exactly once, and no thief ever observes an unpublished cell.
/// This is the seeded-bug catcher: under
/// `--cfg tss_bug_publish_relaxed` (grow's buffer publish weakened
/// Release→Relaxed) a schedule exists where the thief reads the new
/// buffer pointer without the copies being visible, steals a stale
/// `0`, and this assertion fails with a replayable trace.
#[test]
fn model_steal_batch_vs_grow() {
    shuttle::check_pct(0x5EED_CAFE, 400, 3, || {
        let q = Arc::new(ChaseLev::with_capacity(8));
        for v in 1..=8 {
            q.push(v);
        }
        let q2 = q.clone();
        let thief = thread::spawn(move || {
            let dest = ChaseLev::with_capacity(8);
            let mut got = Vec::new();
            got.extend(q2.steal_batch_into(&dest, 4));
            while let Some(v) = dest.pop() {
                got.push(v);
            }
            got
        });
        q.push(9); // b - t == cap here unless the thief got in first: grow
        q.push(10);
        let mut all = thief.join().unwrap();
        while let Some(v) = q.pop() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (1..=10).collect::<Vec<u32>>(), "lost, duplicated, or stale value");
    });
}

/// Buffer retire/reclaim: the owner grows (at least once — twice
/// when the thief is slow) while a thief works the old buffers.
/// Retired buffers park in the graveyard (never freed mid-run), so
/// late steals through a stale buffer pointer still read valid
/// cells; teardown then reclaims everything (the drop at the end of
/// each schedule runs the `Box::from_raw` loop).
#[test]
fn model_grow_retires_buffers_safely() {
    shuttle::check_random(0xBADC_0FFE, 300, || {
        let q = Arc::new(ChaseLev::with_capacity(8));
        for v in 1..=8 {
            q.push(v);
        }
        let q2 = q.clone();
        let thief = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..3 {
                got.extend(q2.steal());
            }
            got
        });
        for v in 9..=17 {
            q.push(v); // 17 live at most: crosses cap 8, often 16
        }
        let mut all = thief.join().unwrap();
        // The thief can take at most 3, so ≥ 14 were live at push
        // time and the 8→16 grow is unavoidable in every schedule.
        // relaxed: test reads a quiesced deque after all threads joined
        assert!(q.buffer(Ordering::Relaxed).cap() >= 16, "expected at least one grow");
        while let Some(v) = q.pop() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (1..=17).collect::<Vec<u32>>(), "retired buffer corrupted a claim");
    });
}

/// PR 6 regression pin (ISSUE 6 satellite): the contested
/// last-element schedule — the thief wins the `top` CAS while the
/// owner has already reserved `bottom` — found by a fixed seed and
/// then replayed by trace. A probe panic marks the interleaving;
/// the replay must reproduce it identically across runs, guarding
/// both the deque protocol and the replay machinery against drift.
#[test]
fn model_regression_contested_last_element_replays() {
    let scenario = || {
        let q = Arc::new(ChaseLev::with_capacity(8));
        q.push(7);
        let q2 = q.clone();
        let thief = thread::spawn(move || q2.steal());
        let mine = q.pop();
        let stolen = thief.join().unwrap();
        match (mine, stolen) {
            (None, Some(7)) => panic!("contested: thief won the last element"),
            (Some(7), None) => {}
            other => panic!("last element claimed {other:?}"),
        }
    };
    let found = shuttle::explore_random(0xD00D_FEED, 500, scenario)
        .expect_err("seed no longer reaches the contested schedule");
    assert!(
        found.message.contains("contested: thief won"),
        "found a different schedule: {}",
        found.message
    );
    let r1 = shuttle::replay(&found.trace, scenario).expect("replay lost the schedule");
    let r2 = shuttle::replay(&found.trace, scenario).expect("replay lost the schedule");
    assert_eq!(r1.message, r2.message, "replay is not deterministic");
    assert!(r1.message.contains("contested: thief won"));
}

/// The §11 worker-loss adoption path: an owner dies mid-run (its
/// thread simply stops popping, exactly like the executor's
/// injected kill between tasks) with work still in its deque. The
/// Chase-Lev top end needs no owner cooperation, so in every
/// interleaving the survivor's batch steals drain the abandoned
/// deque completely — nothing is lost with the owner gone, whether
/// it died before, during, or after the survivor's first steal.
#[test]
fn model_worker_loss_deque_adoption() {
    shuttle::check_pct(0xDEAD_BEEF, 400, 3, || {
        let q = Arc::new(ChaseLev::with_capacity(8));
        q.push(1);
        q.push(2);
        let q2 = q.clone();
        // The dying owner: completes one task (one pop), then the
        // injected kill returns it without draining the rest.
        let owner = thread::spawn(move || q2.pop());
        // The survivor adopts whatever the owner abandoned: rescan
        // until the deque is observably drained (the worker loop's
        // steal-retry shape).
        let dest = ChaseLev::with_capacity(8);
        let mut got: Vec<u32> = Vec::new();
        loop {
            got.extend(q.steal_batch_into(&dest, 4));
            while let Some(v) = dest.pop() {
                got.push(v);
            }
            if q.is_empty() {
                break;
            }
        }
        let owned = owner.join().unwrap();
        got.extend(owned);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "abandoned deque lost work (owner took {owned:?})");
    });
}

/// The push-only root queue (DESIGN.md §8.1): two claimers take
/// batches by one wide `top` CAS each — no fence, no per-item
/// protocol — while the pusher keeps appending and grows the buffer
/// under them. Every pushed id is claimed exactly once: a claim that
/// lost the CAS took nothing, a claim that won it took cells it had
/// really observed (ids start at 1, so a cell copied before its write
/// was visible shows as a 0). `--cfg tss_bug_claim_relaxed` weakens
/// the `bottom` load those cells hang on and this test fails.
#[test]
fn model_injector_claims_every_push_exactly_once() {
    let scenario = || {
        let q = Arc::new(Injector::with_capacity(8));
        for v in 1..=6 {
            q.push(v);
        }
        let claimers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let dest = ChaseLev::with_capacity(8);
                    let mut got = Vec::new();
                    for _ in 0..2 {
                        got.extend(q.claim_batch_into(&dest, 4));
                        while let Some(v) = dest.pop() {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        for v in 7..=12 {
            q.push(v); // 8 cells: grows unless the claimers got well ahead
        }
        let mut all = Vec::new();
        for c in claimers {
            all.extend(c.join().unwrap());
        }
        let dest = ChaseLev::with_capacity(8);
        while let Some(v) = q.claim_batch_into(&dest, 4) {
            all.push(v);
            while let Some(v) = dest.pop() {
                all.push(v);
            }
        }
        all.sort_unstable();
        assert_eq!(all, (1..=12).collect::<Vec<u32>>(), "lost, duplicated, or stale value");
    };
    shuttle::check_pct(0x1A7E_C7ED, 600, 3, scenario);
    shuttle::check_random(0x1A7E_C7ED, 600, scenario);
}
