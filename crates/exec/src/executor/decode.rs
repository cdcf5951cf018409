//! The streaming front end (DESIGN.md §8.2): decode is a step the run's
//! own workers take. A worker with nothing to run claims the next
//! window, renames it, and commits it into the run's release table
//! while the other workers execute the windows before it.

use std::sync::PoisonError;
use std::time::Duration;

use tss_obs::clock::{CpuStamp, Stamp};
use tss_obs::{Role as CpuRole, SpanStamp, WorkerObs};
use tss_trace::TaskTrace;

use super::release::CommitCursors;
use super::shared::Shared;
use super::ExecConfig;
use crate::renamer::{RenameState, RenameStats};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::Mutex;

/// The claim bit of [`DecodeShared::cursor`].
const HELD: usize = 1;

/// Whether a step releases the claim *before* it advances the window
/// cursor, in two stores, instead of doing both in one.
/// `--cfg tss_bug_front_release_early` seeds exactly that: between the
/// stores the cursor reads as unclaimed at the window just committed,
/// and another worker claims, scans and commits it a second time.
/// `model_front_claims_each_step_once_and_commits_in_order` fails when
/// active (DESIGN.md §8.2).
const RELEASE_EARLY: bool = cfg!(tss_bug_front_release_early);

/// Decode-side shared state for a streaming run.
pub(super) struct DecodeShared<'a> {
    trace: &'a TaskTrace,
    window: usize,
    windows: usize,
    /// `window << 1 | HELD`: the next window to decode, and whether a
    /// worker holds the claim to decode it. A worker claims window `w`
    /// by one CAS from `w << 1` to `w << 1 | HELD`, scans and commits
    /// it, and stores `(w + 1) << 1`, releasing the claim and opening
    /// the next window in one store. Windows therefore commit strictly
    /// in order (that keeps injector pushes — and thus one-worker runs
    /// — deterministic), and the claim hands the injector's one-pusher
    /// role from committer to committer.
    cursor: AtomicUsize,
    /// Locked by the claim holder for its step — the commit lock the
    /// release table speaks of — and by `finish` once the crew is done:
    /// never contended.
    work: Mutex<DecodeWork>,
}

struct DecodeWork {
    state: RenameState,
    /// The window in hand's `(consumer, producer)` pairs, in scan
    /// order. Reused window after window: its capacity persists, so a
    /// streamed run allocates nothing per window once it has grown.
    pairs: Vec<(u32, u32)>,
    /// Where the release table's commits stand.
    cursors: CommitCursors,
    /// When the last window committed.
    ended: Option<Stamp>,
}

impl<'a> DecodeShared<'a> {
    /// The front end of a streamed run of `trace` under `cfg`.
    pub(super) fn new(trace: &'a TaskTrace, cfg: &ExecConfig) -> Self {
        DecodeShared {
            trace,
            window: cfg.window,
            windows: trace.len().div_ceil(cfg.window),
            cursor: AtomicUsize::new(0),
            work: Mutex::new(DecodeWork {
                state: RenameState::new(cfg.renaming),
                pairs: Vec::new(),
                cursors: CommitCursors::default(),
                ended: None,
            }),
        }
    }

    /// One decode step for a worker with nothing to run, before it
    /// parks: returns whether it took one. A step claims the open
    /// window, scans it, commits it, then opens the next one and wakes
    /// the parked workers: the window's roots are in the injector and
    /// the next window is free. Then the worker goes back to its deques
    /// (execute-first, DESIGN.md §8.2).
    pub(super) fn step(&self, shared: &Shared<'_>, wobs: &mut WorkerObs) -> bool {
        let Some(w) = self.claim() else {
            return false;
        };
        let lo = w * self.window;
        let hi = (lo + self.window).min(self.trace.len());
        let mut work = self.work.lock().expect("decode state poisoned");
        let DecodeWork { state, pairs, cursors, ended } = &mut *work;
        let span = SpanStamp::begin();
        let cpu = CpuStamp::now();
        #[cfg(test)]
        if self.trace.name() == tests::PANICS_IN_SCAN {
            panic!("{}", tests::PANICS_IN_SCAN);
        }
        pairs.clear();
        state.scan(self.trace, lo, hi, pairs);
        wobs.role_cpu(CpuRole::Scan, cpu);
        wobs.scan(w as u32, span, &shared.obs);
        let cpu = CpuStamp::now();
        shared.release.commit_window((lo, hi), pairs, &shared.status, cursors, |root| {
            shared.injector.push(root);
            // Injector-path Spawn event for sampled roots (the
            // deque-path event lives in `complete`); the drain-time
            // pairing in `SharedObs::finish` turns it into the task's
            // queue-wait anchor.
            if tss_obs::sampled(root) {
                wobs.spawn(root, &shared.obs);
            }
        });
        // Per-window commit event + commit-lag gauge (how far the
        // committed frontier runs ahead of completions). The whole
        // block folds away in NoopSink builds.
        if tss_obs::ENABLED {
            wobs.commit(w as u32, &shared.obs);
            // relaxed: commit-lag gauge sample of the ticket counter;
            // advisory observability snapshot, never a correctness
            // input (DESIGN.md §12.3)
            let lag = hi.saturating_sub(shared.next_ticket.load(Ordering::Relaxed));
            shared.obs.note_commit_lag(lag as u64);
        }
        if hi == self.trace.len() {
            *ended = Some(Stamp::now());
        }
        drop(work);
        wobs.role_cpu(CpuRole::Commit, cpu);
        if RELEASE_EARLY {
            self.cursor.store(w << 1, Ordering::Release);
        }
        self.cursor.store((w + 1) << 1, Ordering::Release);
        // One wake per commit, not per task: parked workers rescan the
        // injector (and re-balance via batch steals) and the front.
        shared.parker.wake_all();
        true
    }

    /// Claims the open window by one CAS: `None` when decode is over,
    /// or another worker holds the claim. A worker that then parks is
    /// woken by that holder's commit (§8.2).
    fn claim(&self) -> Option<usize> {
        // relaxed: a first look only; the CAS below acquires
        let free = self.cursor.load(Ordering::Relaxed) & !HELD;
        if free >> 1 == self.windows {
            return None;
        }
        // relaxed: a failed claim reads nothing; the claimer moves on
        let claimed =
            self.cursor.compare_exchange(free, free | HELD, Ordering::Acquire, Ordering::Relaxed);
        claimed.ok().map(|_| free >> 1)
    }

    /// What the front end reports once the crew is done: the decode
    /// span from `started` to the last commit, and the rename
    /// statistics. A step that panicked left the lock poisoned; the run
    /// reports that panic as `WorkerPanic`, and what is read here goes
    /// unused, so a poisoned lock is read as is.
    pub(super) fn finish(&self, started: Stamp) -> (Duration, RenameStats) {
        let work = self.work.lock().unwrap_or_else(PoisonError::into_inner);
        let rename = RenameStats { enforced_edges: work.cursors.edges, ..*work.state.stats() };
        (work.ended.map_or(Duration::ZERO, |end| end.since(started)), rename)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::diamond;
    use super::super::{ExecConfig, Executor};
    use crate::fault::ExecError;
    use crate::renamer::Renamer;
    use tss_trace::{OperandDesc, TaskTrace};

    /// A trace of this name panics inside its first scan, with the
    /// decode lock held: an executor bug, as the run sees one.
    pub(super) const PANICS_IN_SCAN: &str = "panics-in-scan";

    #[test]
    fn a_panic_inside_a_decode_step_is_a_worker_panic() {
        let mut tr = TaskTrace::new(PANICS_IN_SCAN);
        let k = tr.add_kernel("k");
        for t in 0..4 {
            tr.push_task(k, 10, vec![OperandDesc::inout(0x40 * (t % 2 + 1), 64)]);
        }
        for threads in [1, 2] {
            let cfg = ExecConfig { threads, window: 2, ..ExecConfig::default() };
            match Executor::new(cfg).run(&tr) {
                Err(ExecError::WorkerPanic { message }) => assert_eq!(message, PANICS_IN_SCAN),
                other => panic!("{threads} workers: expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn tiny_windows_replay_validated() {
        // Window 1 maximizes cross-window edges and pending-release
        // traffic.
        let cfg = ExecConfig { threads: 3, window: 1, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&diamond()).expect("tiny-window replay failed");
        assert!(report.validated);
        assert_eq!(report.order[0], 0);
        assert_eq!(report.order[3], 3);
        assert_eq!(&report.rename, Renamer::new().decode(&diamond()).stats());
    }

    #[test]
    fn streaming_rename_stats_match_oneshot() {
        let tr = diamond();
        let oneshot = Renamer::new().decode(&tr);
        let cfg = ExecConfig { threads: 2, window: 2, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&tr).expect("streaming replay failed");
        assert_eq!(&report.rename, oneshot.stats());
    }
}

/// Model-checked interleavings of the front's claim protocol (DESIGN.md
/// §10.3). Compiled only under `RUSTFLAGS="--cfg tss_model_check"`.
#[cfg(all(test, tss_model_check))]
mod model_tests {
    use super::super::release::StreamRelease;
    use super::*;
    use crate::renamer::Renamer;
    use shuttle::thread;
    use std::sync::Arc;
    use tss_trace::OperandDesc;

    /// Six tasks, three windows of two. Task `t` writes an object of
    /// its own; an odd task also reads what the task before it wrote
    /// and, past the first window, what the first task of the window
    /// before wrote: each window's one root is its first task, and
    /// edges cross window boundaries.
    fn trace() -> &'static TaskTrace {
        let out = |t: usize| 0x40 * (t as u64 + 1);
        let mut tr = TaskTrace::new("front");
        let k = tr.add_kernel("k");
        for t in 0..6 {
            let mut ops = vec![OperandDesc::output(out(t), 64)];
            if t % 2 == 1 {
                ops.push(OperandDesc::input(out(t - 1), 64));
                ops.extend(t.checked_sub(3).map(|p| OperandDesc::input(out(p), 64)));
            }
            tr.push_task(k, 10, ops);
        }
        Box::leak(Box::new(tr))
    }

    /// Two workers step a 3-window front in the worker loop's shape:
    /// epoch, step, park until the next commit. In every schedule
    /// explored:
    ///
    /// - every window is scanned exactly once — three steps are taken
    ///   in all, and the rename statistics and edges are the one-shot
    ///   decoder's;
    /// - windows commit in order — the roots reach the injector in
    ///   program order, and they are exactly the graph's;
    /// - no schedule ends with a window uncommitted;
    /// - no worker parks while a step is free: in a second pass the other
    ///   worker leaves after its first step, as if its deques kept it
    ///   busy for the rest of the run, so a worker that slept through a
    ///   free step without a wake on its way would never be woken — a
    ///   model deadlock. The parker's epoch pairing (§8) is what makes
    ///   this hold against a commit racing the park.
    ///
    /// `--cfg tss_bug_front_release_early` releases the claim before
    /// the window cursor advances, and a window can then be decoded
    /// twice: this test fails.
    #[test]
    fn model_front_claims_each_step_once_and_commits_in_order() {
        let trace = trace();
        let graph = Renamer::new().decode(trace);
        assert_eq!(graph.roots().collect::<Vec<_>>(), [0, 2, 4]);
        let cfg = ExecConfig { threads: 2, window: 2, ..ExecConfig::default() };
        for one_leaves in [false, true] {
            let scenario = || {
                let operands = trace.iter().map(|t| t.operands.len()).sum();
                let release = StreamRelease::new(trace.len(), operands);
                let front = DecodeShared::new(trace, &cfg);
                let shared = Arc::new(Shared::new(trace, release, Some(front), &cfg));
                let workers: Vec<_> = [false, one_leaves]
                    .into_iter()
                    .map(|leaves| {
                        let shared = Arc::clone(&shared);
                        thread::spawn(move || {
                            let front = shared.front.as_ref().expect("a streamed run");
                            let done =
                                || front.cursor.load(Ordering::Acquire) >> 1 == front.windows;
                            let mut wobs = WorkerObs::new();
                            let mut steps = 0;
                            loop {
                                let seen = shared.parker.current_epoch();
                                if front.step(&shared, &mut wobs) {
                                    steps += 1;
                                    if leaves {
                                        return steps;
                                    }
                                    continue;
                                }
                                if done() {
                                    return steps;
                                }
                                shared.parker.park(seen, done);
                            }
                        })
                    })
                    .collect();
                let steps: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
                assert_eq!(steps, 3, "a window decoded twice or never");
                let front = shared.front.as_ref().expect("a streamed run");
                let (_, rename) = front.finish(Stamp::now());
                assert_eq!(&rename, graph.stats(), "a window scanned twice or never");
                let mut roots = Vec::new();
                while let Some(root) = shared.injector.claim_batch_into(&shared.deques[0], 1) {
                    roots.push(root as usize);
                }
                assert_eq!(roots, graph.roots().collect::<Vec<_>>(), "roots out of window order");
            };
            shuttle::check_pct(0xF407_0001, 400, 3, scenario);
            shuttle::check_random(0xF407_0001, 400, scenario);
        }
    }
}
