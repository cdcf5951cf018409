//! The streaming front end (DESIGN.md §8.2): decode shard roles rename
//! the trace window by window, and whichever shard finishes a window
//! last commits it into the run's release table while workers already
//! execute the windows before it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use tss_obs::clock::{CpuStamp, Stamp};
use tss_obs::{Role as CpuRole, SpanStamp, WorkerObs};
use tss_trace::TaskTrace;

use super::release::CommitCursors;
use super::shared::Shared;
use crate::fault::panic_message;
use crate::renamer::{RenameStats, ShardState};
use crate::runtime::Role;
use crate::sched::SchedPolicy;
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::Mutex;

/// One window × shard pair buffer: `(consumer, producer)` in scan
/// order.
type PairBuf = Vec<(u32, u32)>;

/// What one decode shard role hands back: its rename statistics and
/// its observability sink.
pub(super) type ShardScan = (RenameStats, WorkerObs);

/// Decode-side shared state for a streaming run.
pub(super) struct DecodeShared<'a> {
    trace: &'a TaskTrace,
    window: usize,
    windows: usize,
    shards: usize,
    /// `scan_done[w]`: shards that have finished scanning window `w`.
    scan_done: Vec<AtomicUsize>,
    /// `bufs[w][sh]`: window `w`'s `(consumer, producer)` pairs from
    /// shard `sh`. Mutex-guarded but uncontended by construction (the
    /// owning shard writes before its `scan_done` bump; the committer
    /// reads after observing all bumps) — the lock is an auditability
    /// choice on a per-window cold path.
    bufs: Vec<Vec<Mutex<PairBuf>>>,
    /// Serializes window commits and owns the committer-side cursors.
    commit: Mutex<CommitState>,
    /// Wall-clock anchor of the run and of `ExecReport::decode_wall`.
    pub(super) started: Stamp,
    /// Nanoseconds from `started` to the last commit.
    decode_span_ns: AtomicU64,
}

struct CommitState {
    /// Next window to commit (windows commit strictly in order: that
    /// keeps injector pushes — and thus 1-worker replays —
    /// deterministic).
    next_window: usize,
    /// Where the release table's commits stand.
    cursors: CommitCursors,
}

impl<'a> DecodeShared<'a> {
    pub(super) fn new(trace: &'a TaskTrace, window: usize, shards: usize) -> Self {
        let n = trace.len();
        let windows = n.div_ceil(window.max(1));
        DecodeShared {
            trace,
            window,
            windows,
            shards,
            scan_done: (0..windows).map(|_| AtomicUsize::new(0)).collect(),
            bufs: (0..windows)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            commit: Mutex::new(CommitState { next_window: 0, cursors: CommitCursors::default() }),
            started: Stamp::now(),
            decode_span_ns: AtomicU64::new(0),
        }
    }

    /// One decode role per slot of `scans` (one per shard), each
    /// leaving its shard's result there. A slot still `None` afterwards
    /// is a role that panicked — an executor bug, noted on `shared`,
    /// which aborts the run with a structured error instead of
    /// unwinding into the crew.
    pub(super) fn roles<'r, P: SchedPolicy>(
        &'r self,
        shared: &'r Shared<'_, P>,
        renaming: bool,
        scans: &'r mut [Option<ShardScan>],
    ) -> Vec<Role<'r>> {
        scans
            .iter_mut()
            .enumerate()
            .map(|(sh, out)| {
                Box::new(move || {
                    *out =
                        catch_unwind(AssertUnwindSafe(|| decode_loop(sh, renaming, self, shared)))
                            .map_err(|p| shared.note_infra_panic(panic_message(&*p)))
                            .ok();
                }) as Role<'r>
            })
            .collect()
    }

    /// What the front end reports once its roles are done: the decode
    /// span, the rename statistics summed over the shards, and the
    /// shards' observability sinks.
    pub(super) fn finish(
        &self,
        scans: Vec<Option<ShardScan>>,
    ) -> (Duration, RenameStats, Vec<WorkerObs>) {
        let mut rename = RenameStats {
            enforced_edges: self.commit.lock().expect("commit state poisoned").cursors.edges,
            ..RenameStats::default()
        };
        let mut decode_obs = Vec::with_capacity(scans.len());
        for (stats, dobs) in scans.into_iter().flatten() {
            rename.objects += stats.objects;
            rename.tracked_operands += stats.tracked_operands;
            rename.removed_by_renaming += stats.removed_by_renaming;
            decode_obs.push(dobs);
        }
        // relaxed: decode-span metric read after decode threads joined
        let decode_wall = Duration::from_nanos(self.decode_span_ns.load(Ordering::Relaxed));
        (decode_wall, rename, decode_obs)
    }

    /// Commits every consecutively-ready window starting at the commit
    /// cursor. Called by whichever shard thread finished a window last;
    /// the commit mutex makes the committer role migrate safely (the
    /// injector's one-pusher contract rides the same lock).
    fn commit_ready<P: SchedPolicy>(&self, shared: &Shared<'_, P>, dobs: &mut WorkerObs) {
        let mut st = self.commit.lock().expect("commit state poisoned");
        let mut pushed_roots = false;
        while st.next_window < self.windows {
            let w = st.next_window;
            if self.scan_done[w].load(Ordering::Acquire) != self.shards {
                break;
            }
            let lo = w * self.window;
            let hi = ((w + 1) * self.window).min(self.trace.len());
            let views: Vec<PairBuf> = self.bufs[w]
                .iter()
                .map(|m| std::mem::take(&mut *m.lock().expect("window buffer poisoned")))
                .collect();
            let cursors = &mut st.cursors;
            shared.release.commit_window((lo, hi), &views, &shared.status, cursors, |root| {
                shared.injector.push(root);
                pushed_roots = true;
                // Injector-path Spawn event for sampled roots (the
                // deque-path event lives in `complete`); the
                // drain-time pairing in `SharedObs::finish` turns
                // it into the task's queue-wait anchor.
                if tss_obs::sampled(root) {
                    dobs.spawn(root, &shared.obs);
                }
            });
            st.next_window = w + 1;
            // Per-window commit event + commit-lag gauge (how far the
            // committed frontier runs ahead of completions). The whole
            // block folds away in NoopSink builds.
            if tss_obs::ENABLED {
                dobs.commit(w as u32, &shared.obs);
                // relaxed: commit-lag gauge sample of the ticket counter;
                // advisory observability snapshot, never a correctness
                // input (DESIGN.md §12.3)
                let lag = hi.saturating_sub(shared.next_ticket.load(Ordering::Relaxed));
                shared.obs.note_commit_lag(lag as u64);
            }
        }
        let finished = st.next_window == self.windows;
        drop(st);
        if finished {
            let ns = self.started.elapsed().as_nanos() as u64;
            // relaxed: decode-span metric fetch_max; diagnostic timing
            // only, never a correctness input
            self.decode_span_ns.fetch_max(ns, Ordering::Relaxed);
        }
        if pushed_roots {
            // One wake per commit, not per task: parked workers rescan
            // the injector and re-balance via batch steals.
            shared.parker.wake_all();
        }
    }
}

/// One decode shard thread: scan every window (in order — the shard's
/// rename state is sequential), commit whenever this shard is the last
/// to finish a window.
fn decode_loop<P: SchedPolicy>(
    shard: usize,
    renaming: bool,
    dec: &DecodeShared<'_>,
    shared: &Shared<'_, P>,
) -> ShardScan {
    let mut dobs = WorkerObs::new();
    let mut state = ShardState::new(renaming, shard as u32, dec.shards as u32);
    // Pairs this shard found in the window before: what the next
    // buffer is sized to, instead of doubling up from empty (a trace's
    // neighbouring windows are alike).
    let mut pairs_before = 0;
    for w in 0..dec.windows {
        let lo = w * dec.window;
        let hi = ((w + 1) * dec.window).min(dec.trace.len());
        let sp = SpanStamp::begin();
        let cpu = CpuStamp::now();
        {
            let mut buf = dec.bufs[w][shard].lock().expect("window buffer poisoned");
            buf.reserve(pairs_before);
            state.scan(dec.trace, lo, hi, &mut buf);
            pairs_before = buf.len();
        }
        dobs.role_cpu(CpuRole::Scan, cpu);
        dobs.scan(w as u32, sp, &shared.obs);
        if dec.scan_done[w].fetch_add(1, Ordering::AcqRel) + 1 == dec.shards {
            let cpu = CpuStamp::now();
            dec.commit_ready(shared, &mut dobs);
            dobs.role_cpu(CpuRole::Commit, cpu);
        }
    }
    (*state.stats(), dobs)
}

#[cfg(test)]
mod tests {
    use super::super::testkit::diamond;
    use super::super::{ExecConfig, Executor};
    use crate::renamer::Renamer;

    #[test]
    fn tiny_windows_and_many_shards_replay_validated() {
        // Window 1 with multiple shards maximizes cross-window edges
        // and pending-release traffic.
        let cfg = ExecConfig { threads: 3, window: 1, decode_shards: 3, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&diamond()).expect("tiny-window replay failed");
        assert!(report.validated);
        assert_eq!(report.order[0], 0);
        assert_eq!(report.order[3], 3);
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
