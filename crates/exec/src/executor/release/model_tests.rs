//! The release table's model tests (DESIGN.md §10.3), in a file of
//! their own so `release.rs` stays under the 800-line rule; `tss-lint`
//! scopes this file as it does its parent.

use super::*;
use shuttle::thread;
use std::sync::Arc;

/// The §11 poison-publish handshake: a failing producer stores its
/// FAILED status byte and closes its pending list
/// (`poison_release`) while a window committer races to register an
/// edge from it (`register_edge`). In every interleaving the
/// successor ends up POISONED — either the producer's drain marks
/// it (edge registered in time) or the committer observes the
/// CLOSED head *and* the FAILED byte behind it
/// (`EdgeFate::SatisfiedPoisoned`). The release half of the
/// `POISON_PUBLISH` swap is what carries the byte across the second
/// path: `--cfg tss_bug_poison_relaxed` weakens exactly that swap
/// and this test fails — without the release edge the committer's
/// `Acquire` head loads are never forced past the stale head (the
/// model flags the retry loop as a livelock), and a schedule that
/// does observe CLOSED may still read a stale HEALTHY byte behind
/// it. The CI negative gate proves the model keeps catching it.
#[test]
fn model_poison_publish_reaches_the_committer() {
    let report = shuttle::check_exhaustive(300_000, || {
        let sr = Arc::new(StreamRelease::new(2, 4));
        let status: Arc<Vec<AtomicU8>> = Arc::new((0..2).map(|_| AtomicU8::new(HEALTHY)).collect());
        let (sr2, st2) = (sr.clone(), status.clone());
        let producer = thread::spawn(move || {
            // The resolve_failure shape: FAILED first, close second.
            // relaxed: model test: producer-side plain store; the
            // poison_release close under test provides the publish edge
            st2[0].store(FAILED, Ordering::Relaxed);
            let mut ready = Vec::new();
            sr2.poison_release(0, &st2, &mut ready);
        });
        let fate = sr.register_edge(0, 0, 1, &status);
        producer.join().unwrap();
        match fate {
            EdgeFate::Registered => {
                // The drain owned the edge: it must have poisoned
                // the successor on its way through.
                // relaxed: model test: assertion read after the
                // producer joined
                assert_eq!(
                    status[1].load(Ordering::Relaxed),
                    POISONED,
                    "drain missed a registered edge"
                );
            }
            EdgeFate::SatisfiedPoisoned => {} // committer poisons s
            EdgeFate::SatisfiedHealthy => {
                panic!("committer read a stale HEALTHY byte for a failed producer")
            }
        }
    });
    assert!(report.complete, "budget too small: {} schedules", report.schedules);
}

/// The two-phase window commit (DESIGN.md §8.2): the committer puts
/// window `{p, s}` with its one edge `p → s` into the table — the
/// edge registered with plain stores, `p` being of the window — and
/// a worker runs `p` and drains its list the moment `p` is pushed.
/// The injector is reduced to what the protocol needs of it: a
/// `Release` store that the worker's `Acquire` load pairs with
/// (§8.1's `bottom`). In every interleaving `s` is counted down
/// exactly once and becomes ready exactly once — by the commit's
/// publish when `p` drained first, by `p`'s drain otherwise — which
/// holds only because `p` is published after the edge is on its
/// list. `--cfg tss_bug_private_after_publish` publishes each task
/// as soon as its own edges are in, `p` before `s` registers: the
/// worker can then close `p`'s list first, the private store
/// overwrites `CLOSED` and nobody ever counts `s` down — or the
/// worker's swap finds the new head with nothing ordering the node
/// behind it, reads the slot's initial zeros and walks node 0 for
/// ever, which is how the model reports it first (a livelock). The
/// CI negative gate proves the model keeps catching it.
#[test]
fn model_private_commit_never_loses_an_edge() {
    let report = shuttle::check_exhaustive(300_000, || {
        let sr = Arc::new(StreamRelease::new(2, 1));
        let status = [AtomicU8::new(HEALTHY), AtomicU8::new(HEALTHY)];
        let pushed = Arc::new(AtomicU32::new(0)); // bit t: task t is on the injector
        let (sr2, pushed2) = (sr.clone(), pushed.clone());
        let worker = thread::spawn(move || {
            let mut released = Vec::new();
            let ran = pushed2.load(Ordering::Acquire) & 1 != 0;
            if ran {
                sr2.release(0, &mut released, &SharedObs::new());
            }
            (ran, released)
        });
        let mut roots = Vec::new();
        let mut cursors = CommitCursors::default();
        sr.commit_window((0, 2), &[(1, 0)], &status, &mut cursors, |root| {
            roots.push(root);
            pushed.fetch_add(1 << root, Ordering::Release);
        });
        let (ran, mut released) = worker.join().unwrap();
        if !ran {
            // Nobody took `p` while the commit ran: it runs now.
            sr.release(0, &mut released, &SharedObs::new());
        }
        assert_eq!(cursors.edges, 1);
        assert_eq!(roots.first(), Some(&0), "p has no producer: the commit pushes it");
        let became_ready = roots.iter().chain(&released).filter(|&&t| t == 1).count();
        assert_eq!(became_ready, 1, "roots {roots:?}, p's drain released {released:?}");
        assert_eq!(sr.unready[1].load(Ordering::Acquire), 0, "s not counted down once");
    });
    assert!(report.complete, "budget too small: {} schedules", report.schedules);
}

/// One window of [`commit_against_a_worker`]: its bounds and its
/// `(consumer, producer)` pairs.
type Window = ((usize, usize), Vec<(u32, u32)>);

/// The harness of the two tests below: window `first` is committed,
/// then a worker starts on what it pushed while the committer goes on
/// to commit `second`. `pushed` stands in for the injector, reduced to
/// what the protocol needs of it — a `Release` store the worker's
/// `Acquire` load pairs with (§8.1's `bottom`). The worker runs the
/// roots it sees there and whatever their drains make ready in turn;
/// what it did not get to, the committer's thread runs after the join.
/// Returns how often each task became ready, by a commit's publish or
/// by a producer's drain.
fn commit_against_a_worker(
    tasks: usize,
    first: Window,
    second: Window,
) -> (Arc<StreamRelease>, Vec<usize>) {
    fn run(sr: &StreamRelease, mut todo: Vec<u32>, ran: &mut Vec<u32>, readied: &mut Vec<u32>) {
        while let Some(t) = todo.pop() {
            if ran.contains(&t) {
                continue;
            }
            ran.push(t);
            let mut released = Vec::new();
            sr.release(t, &mut released, &SharedObs::new());
            readied.extend(&released);
            todo.extend(released);
        }
    }
    let sr = Arc::new(StreamRelease::new(tasks, tasks));
    let status: Vec<AtomicU8> = (0..tasks).map(|_| AtomicU8::new(HEALTHY)).collect();
    let pushed = Arc::new(AtomicU32::new(0)); // bit t: task t is on the injector
    let mut roots = Vec::new();
    let mut cursors = CommitCursors::default();
    let mut commit = |(bounds, pairs): Window| {
        sr.commit_window(bounds, &pairs, &status, &mut cursors, |root| {
            roots.push(root);
            pushed.fetch_add(1 << root, Ordering::Release);
        });
    };
    commit(first);
    let (sr2, pushed2) = (sr.clone(), pushed.clone());
    let worker = thread::spawn(move || {
        let seen = pushed2.load(Ordering::Acquire);
        let (mut ran, mut readied) = (Vec::new(), Vec::new());
        run(&sr2, (0..32).filter(|t| seen >> t & 1 != 0).collect(), &mut ran, &mut readied);
        (ran, readied)
    });
    commit(second);
    let (mut ran, mut readied) = worker.join().unwrap();
    run(&sr, roots.clone(), &mut ran, &mut readied);
    let times = (0..tasks as u32)
        .map(|t| roots.iter().chain(&readied).filter(|&&r| r == t).count())
        .collect();
    (sr, times)
}

/// Publish by plain store (DESIGN.md §8.2). Window one is `{q}`,
/// window two `{p, s}` with edges `q → p` and `p → s`: `p`'s counter is
/// raced — `q` may drain at any moment — and keeps its RMW; `s` waits
/// only for `p`, of its own window, and gets a plain store. In every
/// interleaving each task becomes ready exactly once and `s`'s counter
/// ends on zero, which holds only because `s` is stored *before* `p` is
/// published: `--cfg tss_bug_plain_publish_ascending` publishes `p`
/// first, so `q`'s drain can ready `p`, the worker can run it and count
/// `s` down through the sentinel, and the store then lands on top of
/// that countdown — `s` never becomes ready. The CI negative gate
/// proves the model keeps catching it. (The table has a fourth task no
/// window commits, so it never seals: the seal is the next test's, and
/// its loads would only multiply this one's schedules.)
#[test]
fn model_plain_publish_never_loses_a_countdown() {
    let report = shuttle::check_exhaustive(300_000, || {
        let (sr, times) =
            commit_against_a_worker(4, ((0, 1), vec![]), ((1, 3), vec![(1, 0), (2, 1)]));
        assert_eq!(times, [1, 1, 1, 0], "times each task became ready");
        for t in 0..3 {
            assert_eq!(sr.unready[t].load(Ordering::Acquire), 0, "task {t} not counted down");
        }
    });
    assert!(report.complete, "budget too small: {} schedules", report.schedules);
}

/// The seal (DESIGN.md §8.2). Window one is `{p}`, the last window
/// `{s}` with the edge `p → s`, registered through the handshake while
/// the worker may already be draining `p`. Whether the drain swaps the
/// list closed (it ran before the seal) or sees the seal and only reads
/// it, `s` becomes ready exactly once — by the drain if the edge was on
/// the list, by the commit's publish if the committer found the list
/// closed. The read is sound only because the seal is a `Release` store
/// after the last registration and the drain's load of it an `Acquire`:
/// `--cfg tss_bug_seal_relaxed` weakens the store, and a drain can then
/// see the seal and, behind it, the list as it was before the edge —
/// `s` is never counted down. The CI negative gate proves the model
/// keeps catching it.
#[test]
fn model_sealed_drain_sees_every_edge() {
    let report = shuttle::check_exhaustive(300_000, || {
        let (sr, times) = commit_against_a_worker(2, ((0, 1), vec![]), ((1, 2), vec![(1, 0)]));
        assert_eq!(times, [1, 1], "times each task became ready");
        assert_eq!(sr.unready[1].load(Ordering::Acquire), 0, "s not counted down once");
        assert_ne!(sr.sealed.load(Ordering::Acquire), 0, "the last commit seals the table");
    });
    assert!(report.complete, "budget too small: {} schedules", report.schedules);
}
