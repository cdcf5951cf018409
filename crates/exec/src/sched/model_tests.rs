//! The policies' model tests (DESIGN.md §13.5), in a file of their own
//! so `sched.rs` stays under the 800-line rule; `tss-lint` scopes this
//! file as it does its parent.

use super::*;
use shuttle::thread;
use std::sync::Arc;
use tss_trace::{KernelId, TaskDesc};

fn two_task_trace() -> TaskTrace {
    let mut tr = TaskTrace::new("model");
    tr.add_kernel("k");
    tr.push(TaskDesc::new(KernelId(0), 1, vec![]));
    tr.push(TaskDesc::new(KernelId(0), 1, vec![]));
    tr
}

/// Domain-ordered stealing cannot lose the last task: one task on
/// worker 0's deque, the owner popping while a same-domain thief
/// (worker 1) and a cross-domain fallback thief (worker 2, other
/// domain) both run the policy's full victim scan. Exactly one of
/// the three claims it under every interleaving — the domain
/// *reordering* of the scan must never turn into a truncation that
/// strands the task, and the Chase-Lev CAS arbitration must hold
/// for the policy-ordered scan exactly as for the baseline scan.
#[test]
fn model_domain_fallback_cannot_lose_the_last_task() {
    let scenario = || {
        let tr = two_task_trace();
        // 4 workers, 2 domains: {0,1} vs {2,3}.
        let p = Arc::new(LocalityPolicy::new(&tr, PayloadMode::Noop, 4, 2, 2));
        let deques: Arc<Vec<ChaseLev>> = Arc::new((0..4).map(|_| ChaseLev::new()).collect());
        deques[0].push(7);
        let claims = Arc::new(crate::sync::atomic::AtomicU32::new(0));

        let mut handles = Vec::new();
        // The owner pops its own deque (the burst fast path).
        let (d0, c0) = (deques.clone(), claims.clone());
        handles.push(thread::spawn(move || {
            if d0[0].pop().is_some() {
                // relaxed: model test claim counter; fetch_add RMW
                // atomicity suffices, total asserted after all shuttle
                // threads joined
                c0.fetch_add(1, Ordering::Relaxed);
            }
        }));
        // Two thieves run the full policy scan from different
        // domains; worker 2 only reaches deque 0 via the
        // cross-domain fallback tail.
        for w in [1usize, 2] {
            let (p2, d2, c2) = (p.clone(), deques.clone(), claims.clone());
            handles.push(thread::spawn(move || {
                let mut rng = w as u64;
                let mut buf = Vec::new();
                p2.victims(w, &mut rng, &mut buf);
                for v in buf {
                    if d2[v].steal_batch_into(&d2[w], 4).is_some() {
                        // relaxed: model test claim counter; fetch_add
                        // RMW atomicity suffices, total asserted after
                        // all shuttle threads joined
                        c2.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // relaxed: model test total read after all shuttle threads
        // joined
        let total = claims.load(Ordering::Relaxed);
        assert_eq!(total, 1, "the last task was claimed {total} times");
    };
    // Three threads over the full Chase-Lev protocol: too deep for
    // an exhaustive budget (the deque's own 3-party races use the
    // same seeded-PCT + random pairing, deque.rs §10.3).
    shuttle::check_pct(0x5C4E_D00D, 400, 3, scenario);
    shuttle::check_random(0x5C4E_D00D, 400, scenario);
}

/// Class-queue handoff preserves exactly-once: a producer routes a
/// task through `dispatch` (cross-class ⇒ the overflow queue)
/// while an own-class drainer and a cross-class fallback drainer
/// race `take_routed`. The task must be taken exactly once, by
/// someone — the mutex-protected queue must not duplicate it
/// (PR 7's drain/commit discipline: a task leaves a staging
/// structure exactly once, whoever wins) and the fallback must not
/// let it vanish.
#[test]
fn model_class_queue_handoff_is_exactly_once() {
    let scenario = || {
        let mut tr = TaskTrace::new("model");
        tr.add_kernel("k");
        // One big-footprint task: memory class under Mixed.
        tr.push(TaskDesc::new(
            KernelId(0),
            1,
            vec![tss_trace::OperandDesc::output(0x40, (64 << 10) as u32)],
        ));
        let mixed = PayloadMode::Mixed { time_scale: 1.0 };
        let p = Arc::new(LocalityPolicy::new(&tr, mixed, 2, 2, 1));
        let takes = Arc::new(crate::sync::atomic::AtomicU32::new(0));

        // Producer: compute worker 0 completes a task and spawns
        // the memory-class successor — must route, not keep.
        let p1 = p.clone();
        let producer = thread::spawn(move || {
            let d = ChaseLev::new();
            assert!(!p1.dispatch(0, 0, &d), "cross-class spawn must route");
        });
        // Own-class drainer (memory worker 1) and cross-class
        // fallback drainer (compute worker 0) race the queue.
        let drainers: Vec<_> = [1usize, 0]
            .into_iter()
            .map(|w| {
                let (p2, t2) = (p.clone(), takes.clone());
                thread::spawn(move || {
                    if p2.take_routed(w).is_some() {
                        // relaxed: model test take counter; fetch_add
                        // RMW atomicity suffices, total asserted after
                        // all shuttle threads joined
                        t2.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        producer.join().unwrap();
        for d in drainers {
            d.join().unwrap();
        }
        // The producer ran before this point (joined), so if both
        // drainers missed it the task is still in the queue —
        // drain it now to distinguish "lost" from "not yet".
        let leftover = u32::from(p.take_routed(1).is_some());
        // relaxed: model test total read after all shuttle threads
        // joined
        let total = takes.load(Ordering::Relaxed) + leftover;
        assert_eq!(total, 1, "routed task must be taken exactly once, got {total}");
    };
    shuttle::check_pct(0xC1A5_50FF, 400, 3, scenario);
    shuttle::check_random(0xC1A5_50FF, 400, scenario);
}
