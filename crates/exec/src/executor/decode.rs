//! The streaming front end (DESIGN.md §8.2): decode is a step the run's
//! own workers take. A worker with nothing to run claims the next
//! `(window, shard)`, renames that shard's slice of the window, and, if
//! its scan completes the window, commits it into the run's release
//! table while the other workers execute the windows before it.

use std::sync::PoisonError;
use std::time::Duration;

use tss_obs::clock::{CpuStamp, Stamp};
use tss_obs::{Role as CpuRole, SpanStamp, WorkerObs};
use tss_trace::TaskTrace;

use super::release::CommitCursors;
use super::shared::Shared;
use super::ExecConfig;
use crate::renamer::{RenameStats, ShardState};
use crate::sched::SchedPolicy;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::Mutex;

/// One shard's `(consumer, producer)` pairs of the window in hand, in
/// scan order.
type PairBuf = Vec<(u32, u32)>;

/// The claim bit of a [`Shard::cursor`].
const HELD: usize = 1;

/// Whether a scan releases its shard's claim *before* it advances the
/// shard's window cursor, in two stores, instead of doing both in one.
/// `--cfg tss_bug_front_release_early` seeds exactly that: between the
/// stores the shard reads as unclaimed at the window just scanned, and
/// another worker claims and scans it a second time.
/// `model_front_claims_each_step_once_and_commits_in_order` fails when
/// active (DESIGN.md §8.2).
const RELEASE_EARLY: bool = cfg!(tss_bug_front_release_early);

/// Decode-side shared state for a streaming run.
pub(super) struct DecodeShared<'a> {
    trace: &'a TaskTrace,
    window: usize,
    windows: usize,
    shards: Vec<Shard>,
    /// Shard scans done, all windows together: the scan that brings it
    /// to `(w + 1) × shards` completes window `w` and commits it.
    scanned: AtomicUsize,
    /// Windows committed. Every shard's cursor is at this window or the
    /// next, and only a shard at this one has a step to take: a shard
    /// scans window `w + 1` into its one pair buffer only after window
    /// `w`'s commit has read it.
    committed: AtomicUsize,
    /// Whoever commits a window owns this for the commit; windows commit
    /// strictly in order (that keeps injector pushes — and thus
    /// one-worker runs — deterministic), so it is never contended.
    commit: Mutex<CommitState>,
}

/// One address shard of the renamer (§8.3) and its claim.
struct Shard {
    /// `window << 1 | HELD`: the next window this shard scans, and
    /// whether a worker holds the shard to scan it. A worker claims
    /// `(window, shard)` by one CAS from `window << 1` (free, and the
    /// window open) to `window << 1 | HELD`; its scan stores
    /// `(window + 1) << 1`, releasing the claim and advancing the
    /// cursor in one store.
    cursor: AtomicUsize,
    /// Locked by the claimer for its scan and by the committer to take
    /// the pairs: never at the same time, so never contended.
    work: Mutex<ShardWork>,
}

struct ShardWork {
    state: ShardState,
    /// Reused window after window: its capacity persists, so a
    /// streamed run allocates nothing per window once it has grown.
    pairs: PairBuf,
}

struct CommitState {
    /// Where the release table's commits stand.
    cursors: CommitCursors,
    /// The committed window's pairs, taken from each shard for the
    /// commit and handed back after it. No shard scans while a window
    /// commits — window `w + 1` opens only once `committed` says `w` is
    /// in — so one buffer per shard serves both.
    views: Vec<PairBuf>,
    /// When the last window committed.
    ended: Option<Stamp>,
}

impl<'a> DecodeShared<'a> {
    /// The front end of a streamed run of `trace` under `cfg`.
    pub(super) fn new(trace: &'a TaskTrace, cfg: &ExecConfig) -> Self {
        let shards = cfg.decode_shards;
        let shard = |sh: usize| Shard {
            cursor: AtomicUsize::new(0),
            work: Mutex::new(ShardWork {
                state: ShardState::new(cfg.renaming, sh as u32, shards as u32),
                pairs: Vec::new(),
            }),
        };
        DecodeShared {
            trace,
            window: cfg.window,
            windows: trace.len().div_ceil(cfg.window),
            shards: (0..shards).map(shard).collect(),
            scanned: AtomicUsize::new(0),
            committed: AtomicUsize::new(0),
            commit: Mutex::new(CommitState {
                cursors: CommitCursors::default(),
                views: vec![Vec::new(); shards],
                ended: None,
            }),
        }
    }

    /// One decode step for a worker with nothing to run, before it
    /// parks: returns whether it took one. A step claims a shard at the
    /// open window, scans it, and commits the window if that scan
    /// completed it. Then the worker goes back to its deques
    /// (execute-first, DESIGN.md §8.2).
    pub(super) fn step<P: SchedPolicy>(
        &self,
        shared: &Shared<'_, P>,
        wobs: &mut WorkerObs,
    ) -> bool {
        self.claim().map(|(shard, w)| self.scan(shard, w, shared, wobs)).is_some()
    }

    /// Claims a free shard at the open window by one CAS: `None` when
    /// decode is over, or every shard is held or waits for the commit.
    /// A worker that then parks is woken by that commit (§8.2).
    fn claim(&self) -> Option<(&Shard, usize)> {
        let open = self.committed.load(Ordering::Acquire);
        if open == self.windows {
            return None;
        }
        let free = open << 1;
        let shard = self.shards.iter().find(|shard| {
            // relaxed: a failed claim reads nothing; the claimer moves on
            shard
                .cursor
                .compare_exchange(free, free | HELD, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        })?;
        Some((shard, open))
    }

    /// Scans window `w` of a claimed shard, releases it, and commits
    /// the window if this was its last scan.
    fn scan<P: SchedPolicy>(
        &self,
        shard: &Shard,
        w: usize,
        shared: &Shared<'_, P>,
        wobs: &mut WorkerObs,
    ) {
        let lo = w * self.window;
        let hi = (lo + self.window).min(self.trace.len());
        let span = SpanStamp::begin();
        let cpu = CpuStamp::now();
        {
            let mut work = shard.work.lock().expect("decode shard poisoned");
            #[cfg(test)]
            if self.trace.name() == tests::PANICS_IN_SCAN {
                panic!("{}", tests::PANICS_IN_SCAN);
            }
            let ShardWork { state, pairs } = &mut *work;
            pairs.clear();
            state.scan(self.trace, lo, hi, pairs);
        }
        wobs.role_cpu(CpuRole::Scan, cpu);
        wobs.scan(w as u32, span, &shared.obs);
        if RELEASE_EARLY {
            shard.cursor.store(w << 1, Ordering::Release);
        }
        shard.cursor.store((w + 1) << 1, Ordering::Release);
        if self.scanned.fetch_add(1, Ordering::AcqRel) + 1 == (w + 1) * self.shards.len() {
            let cpu = CpuStamp::now();
            self.commit(w, shared, wobs);
            wobs.role_cpu(CpuRole::Commit, cpu);
        }
    }

    /// Commits window `w`, whose every shard has scanned it, then opens
    /// the next one to the shards and wakes the parked workers: the
    /// window's roots are in the injector and the next window's steps
    /// are free. The commit lock also hands the injector's one-pusher
    /// role from committer to committer.
    fn commit<P: SchedPolicy>(&self, w: usize, shared: &Shared<'_, P>, wobs: &mut WorkerObs) {
        let mut st = self.commit.lock().expect("commit state poisoned");
        let CommitState { cursors, views, ended } = &mut *st;
        // Swapped in for the commit and back after it: `views` holds
        // empty vectors in between, and no buffer changes hands for good.
        let trade = |views: &mut [PairBuf]| {
            for (shard, view) in self.shards.iter().zip(views) {
                std::mem::swap(&mut shard.work.lock().expect("decode shard poisoned").pairs, view);
            }
        };
        trade(views);
        let lo = w * self.window;
        let hi = (lo + self.window).min(self.trace.len());
        shared.release.commit_window((lo, hi), views, &shared.status, cursors, |root| {
            shared.injector.push(root);
            // Injector-path Spawn event for sampled roots (the
            // deque-path event lives in `complete`); the drain-time
            // pairing in `SharedObs::finish` turns it into the task's
            // queue-wait anchor.
            if tss_obs::sampled(root) {
                wobs.spawn(root, &shared.obs);
            }
        });
        trade(views);
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
        drop(st);
        self.committed.store(w + 1, Ordering::Release);
        // One wake per commit, not per task: parked workers rescan the
        // injector (and re-balance via batch steals) and the shards.
        shared.parker.wake_all();
    }

    /// What the front end reports once the crew is done: the decode
    /// span from `started` to the last commit, and the rename
    /// statistics summed over the shards. A step that panicked left its
    /// lock poisoned; the run reports that panic as `WorkerPanic`, and
    /// what is read here goes unused, so a poisoned lock is read as is.
    pub(super) fn finish(&self, started: Stamp) -> (Duration, RenameStats) {
        let st = self.commit.lock().unwrap_or_else(PoisonError::into_inner);
        let mut rename = RenameStats { enforced_edges: st.cursors.edges, ..RenameStats::default() };
        for shard in &self.shards {
            let work = shard.work.lock().unwrap_or_else(PoisonError::into_inner);
            let stats = work.state.stats();
            rename.objects += stats.objects;
            rename.tracked_operands += stats.tracked_operands;
            rename.removed_by_renaming += stats.removed_by_renaming;
        }
        (st.ended.map_or(Duration::ZERO, |end| end.since(started)), rename)
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
    /// shard's lock held: an executor bug, as the run sees one.
    pub(super) const PANICS_IN_SCAN: &str = "panics-in-scan";

    #[test]
    fn a_panic_inside_a_decode_step_is_a_worker_panic() {
        let mut tr = TaskTrace::new(PANICS_IN_SCAN);
        let k = tr.add_kernel("k");
        for t in 0..4 {
            tr.push_task(k, 10, vec![OperandDesc::inout(0x40 * (t % 2 + 1), 64)]);
        }
        for threads in [1, 2] {
            let cfg = ExecConfig { threads, window: 2, decode_shards: 2, ..ExecConfig::default() };
            match Executor::new(cfg).run(&tr) {
                Err(ExecError::WorkerPanic { message }) => assert_eq!(message, PANICS_IN_SCAN),
                other => panic!("{threads} workers: expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn tiny_windows_and_many_shards_replay_validated() {
        // Window 1 with multiple shards maximizes cross-window edges
        // and pending-release traffic.
        let cfg = ExecConfig { threads: 3, window: 1, decode_shards: 3, ..ExecConfig::default() };
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
        let cfg = ExecConfig { threads: 2, window: 2, decode_shards: 2, ..ExecConfig::default() };
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
    use crate::sched::LifoPolicy;
    use shuttle::thread;
    use std::sync::Arc;
    use tss_trace::OperandDesc;

    /// Six tasks, three windows of two. Task `t` writes an object of
    /// shard `t % 2`, so every window has a tracked operand in each of
    /// the two shards — a step scanned twice or never moves the rename
    /// statistics. An odd task also reads what the task before it wrote
    /// and, past the first window, what the first task of the window
    /// before wrote: each window's one root is its first task, and
    /// edges cross window boundaries.
    fn trace() -> &'static TaskTrace {
        let addrs = |shard| {
            (1u64..).map(|i| i * 0x40).filter(move |&a| crate::renamer::shard_of(a, 2) == shard)
        };
        let out: Vec<u64> = addrs(0).zip(addrs(1)).take(3).flat_map(|(a, b)| [a, b]).collect();
        let mut tr = TaskTrace::new("front");
        let k = tr.add_kernel("k");
        for t in 0..6 {
            let mut ops = vec![OperandDesc::output(out[t], 64)];
            if t % 2 == 1 {
                ops.push(OperandDesc::input(out[t - 1], 64));
                ops.extend(t.checked_sub(3).map(|p| OperandDesc::input(out[p], 64)));
            }
            tr.push_task(k, 10, ops);
        }
        Box::leak(Box::new(tr))
    }

    /// Two workers step a 3-window, 2-shard front in the worker loop's
    /// shape: epoch, step, park until the next commit. In every schedule
    /// explored:
    ///
    /// - every `(window, shard)` is scanned exactly once — the summed
    ///   rename statistics and edges are the one-shot decoder's;
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
    /// `--cfg tss_bug_front_release_early` releases a shard's claim
    /// before its window cursor advances, and a window can then be
    /// scanned twice: this test fails.
    #[test]
    fn model_front_claims_each_step_once_and_commits_in_order() {
        let trace = trace();
        let graph = Renamer::new().decode(trace);
        assert_eq!(graph.roots().collect::<Vec<_>>(), [0, 2, 4]);
        let cfg = ExecConfig { threads: 2, window: 2, decode_shards: 2, ..ExecConfig::default() };
        for one_leaves in [false, true] {
            let scenario = || {
                let operands = trace.iter().map(|t| t.operands.len()).sum();
                let release = StreamRelease::new(trace.len(), operands);
                let front = DecodeShared::new(trace, &cfg);
                let shared = Arc::new(Shared::<LifoPolicy>::new(trace, release, Some(front), &cfg));
                let workers: Vec<_> = [false, one_leaves]
                    .into_iter()
                    .map(|leaves| {
                        let shared = Arc::clone(&shared);
                        thread::spawn(move || {
                            let front = shared.front.as_ref().expect("a streamed run");
                            let done = || front.committed.load(Ordering::Acquire) == front.windows;
                            let mut wobs = WorkerObs::new();
                            loop {
                                let seen = shared.parker.current_epoch();
                                if front.step(&shared, &mut wobs) {
                                    if leaves {
                                        return;
                                    }
                                    continue;
                                }
                                if done() {
                                    return;
                                }
                                shared.parker.park(seen, done);
                            }
                        })
                    })
                    .collect();
                for worker in workers {
                    worker.join().unwrap();
                }
                let front = shared.front.as_ref().expect("a streamed run");
                let (_, rename) = front.finish(Stamp::now());
                assert_eq!(&rename, graph.stats(), "a step scanned twice or never");
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
