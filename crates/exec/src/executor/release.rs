//! How a finished task finds its consumers: one readiness counter, one
//! status byte and one pending-release list per task (DESIGN.md §8.2,
//! §11.2). The pending list is the software analogue of the paper's
//! TRS consumer chain (Fig. 10) and the only release structure there
//! is: a streamed run grows the lists window by window
//! ([`StreamRelease::register_edge`]), a replay of an already-decoded
//! graph starts with every list complete ([`StreamRelease::from_graph`]).

use crate::renamer::TaskGraph;
use crate::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicU8, Ordering};
use tss_obs::SharedObs;

// ---------------------------------------------------------------------
// Task status (the POISONED readiness sentinel, DESIGN.md §11)
// ---------------------------------------------------------------------

/// Task ran (or will run) normally.
pub(super) const HEALTHY: u8 = 0;
/// A producer in the task's ancestry failed: skip the payload, count it
/// quarantined, propagate.
pub(super) const POISONED: u8 = 1;
/// The task itself failed every attempt.
pub(super) const FAILED: u8 = 2;

/// Ordering of the *fail-path* pending-list close (the `swap` to
/// `PENDING_CLOSED` in `poison_release`). The release half is what
/// publishes the producer's FAILED/POISONED status byte to a window
/// committer that observes `PENDING_CLOSED` with its `Acquire` head
/// load: weaken it and the committer can read a stale HEALTHY status
/// and wrongly count the edge healthy-satisfied, executing a task whose
/// producer failed. `--cfg tss_bug_poison_relaxed` seeds exactly that
/// bug so CI can prove the model suite still catches it (§10.3).
#[cfg(not(tss_bug_poison_relaxed))]
const POISON_PUBLISH: Ordering = Ordering::AcqRel;
#[cfg(tss_bug_poison_relaxed)]
// relaxed: deliberately-weak seeded-bug arm, compiled only under --cfg
// tss_bug_poison_relaxed; model_poison_publish_reaches_the_committer fails
// when active (DESIGN.md §11.2)
const POISON_PUBLISH: Ordering = Ordering::Relaxed;

/// Marks a task poisoned. Plain store: the countdown RMW chain (or the
/// pending-close publish) that makes the task *ready* is what carries
/// the byte to whoever pops it.
#[inline]
pub(super) fn mark_poisoned(status: &AtomicU8) {
    // relaxed: poison byte store; carried to the consumer by the countdown
    // AcqRel RMW chain or the pending-close publish (DESIGN.md §11.2)
    status.store(POISONED, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// The release table
// ---------------------------------------------------------------------

/// Pending-list head sentinels.
const PENDING_NIL: u32 = u32::MAX;
const PENDING_CLOSED: u32 = u32::MAX - 1;

/// Readiness sentinel of a task no window has committed yet: a counter
/// at `UNPUBLISHED − k` means "not yet decoded, k producers already
/// finished". Must exceed any real producer count; `1 << 30` towers
/// over the ≤ `3 × operands` edge bound.
const UNPUBLISHED: i32 = 1 << 30;

/// The release table of one run. A producer's successor set is not
/// known until every later window has decoded, so each task owns a
/// lock-free pending-release list that commits push onto and the
/// task's completion closes and drains; readiness counters start at
/// the [`UNPUBLISHED`] sentinel and are reconciled by the commit that
/// publishes the task.
pub(super) struct StreamRelease {
    unready: Vec<AtomicI32>,
    /// Pending-list heads: `PENDING_NIL` empty, `PENDING_CLOSED` after
    /// the owner completed and drained, else a `nodes` index.
    pending: Vec<AtomicU32>,
    /// Node slab: `(next << 32) | succ`, bump-allocated by the window
    /// committer (the commit lock serializes allocation), capacity
    /// fixed at the `3 × operands` edge bound so nodes never move.
    nodes: Vec<AtomicU64>,
}

impl StreamRelease {
    /// An empty table for `n` tasks nobody has decoded yet, with room
    /// for `edge_cap` edges.
    pub(super) fn new(n: usize, edge_cap: usize) -> Self {
        StreamRelease {
            unready: (0..n).map(|_| AtomicI32::new(UNPUBLISHED)).collect(),
            pending: (0..n).map(|_| AtomicU32::new(PENDING_NIL)).collect(),
            nodes: (0..edge_cap).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The table of a graph decoded before the run, as every window
    /// committing before any task completed would have left it — built
    /// directly, not by replaying those commits: counters at the exact
    /// producer counts (no sentinel to fold away), every edge already
    /// on its producer's list. The node slab is laid out in the graph's
    /// CSR order, each node linking to its right-hand neighbour, so a
    /// drain visits `graph.succs(p)` front to back — the order a direct
    /// CSR walk released them in, which the one-worker determinism
    /// digest (`tests/determinism.rs`) holds two-phase replays to.
    pub(super) fn from_graph(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let mut nodes = Vec::with_capacity(graph.stats().enforced_edges);
        let pending = (0..n)
            .map(|p| {
                let succs = graph.succs(p);
                let first = nodes.len() as u32;
                for (k, &s) in succs.iter().enumerate() {
                    let next =
                        if k + 1 == succs.len() { PENDING_NIL } else { first + k as u32 + 1 };
                    nodes.push(AtomicU64::new(((next as u64) << 32) | s as u64));
                }
                AtomicU32::new(if succs.is_empty() { PENDING_NIL } else { first })
            })
            .collect();
        StreamRelease {
            unready: (0..n).map(|t| AtomicI32::new(graph.pred_count(t) as i32)).collect(),
            pending,
            nodes,
        }
    }

    #[inline]
    fn countdown(&self, s: u32, ready: &mut Vec<u32>) {
        // AcqRel: release our payload writes to the successor's
        // executor, acquire the other producers' on the 1 → 0 edge.
        if self.unready[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
            ready.push(s);
        }
    }

    /// Registers edge `p → s` (committer thread, under the commit
    /// lock), storing the list node at `node_idx`. Returns how the edge
    /// resolved; on either `Satisfied*` fate the node slot is unused.
    pub(super) fn register_edge(
        &self,
        node_idx: u32,
        p: u32,
        s: u32,
        status: &[AtomicU8],
    ) -> EdgeFate {
        loop {
            let head = self.pending[p as usize].load(Ordering::Acquire);
            if head == PENDING_CLOSED {
                // `p` completed and drained before this edge existed:
                // the committer owns the satisfaction (§8). The Acquire
                // head load synchronizes with the closing swap, so `p`'s
                // status byte (stored before the close) is visible —
                // unless the seeded §10.3 bug weakened the close.
                // relaxed: status byte read after the Acquire head load
                // observed PENDING_CLOSED; ordered by the AcqRel close
                // (DESIGN.md §11.2)
                return if status[p as usize].load(Ordering::Relaxed) == HEALTHY {
                    EdgeFate::SatisfiedHealthy
                } else {
                    EdgeFate::SatisfiedPoisoned
                };
            }
            // relaxed: node payload write; published to the drainer by the
            // AcqRel head CAS that links it
            self.nodes[node_idx as usize]
                .store(((head as u64) << 32) | s as u64, Ordering::Relaxed);
            if self.pending[p as usize]
                .compare_exchange(head, node_idx, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return EdgeFate::Registered;
            }
            // Lost to the drain swap (or another commit — impossible
            // under the commit lock): retry against the new head.
        }
    }

    /// Publishes task `s` at its window's commit: folds the
    /// [`UNPUBLISHED`] sentinel away, leaving the `preds − satisfied`
    /// producers still to finish. Whichever atomic op lands the counter
    /// exactly on zero owns the push — returns whether this one did.
    #[inline]
    pub(super) fn publish(&self, s: u32, preds: usize, satisfied: usize) -> bool {
        let delta = preds as i32 - satisfied as i32 - UNPUBLISHED;
        self.unready[s as usize].fetch_add(delta, Ordering::AcqRel) + delta == 0
    }

    /// Called exactly once per completed task `t`; appends every task
    /// made ready by this completion to `ready`. `obs` carries the
    /// sampled pending-drain gauge (a no-op in NoopSink builds).
    #[inline]
    pub(super) fn release(&self, t: u32, ready: &mut Vec<u32>, obs: &SharedObs) {
        // Close the list: every edge registered up to now is drained
        // here; every edge registered after sees CLOSED and counts
        // itself satisfied at the commit (§8 exactly-once handshake).
        let mut head = self.pending[t as usize].swap(PENDING_CLOSED, Ordering::AcqRel);
        let mut drained = 0u64;
        while head != PENDING_NIL {
            // relaxed: node read after winning the AcqRel swap of the
            // pending head; the swap orders the list
            let node = self.nodes[head as usize].load(Ordering::Relaxed);
            self.countdown(node as u32, ready);
            drained += 1;
            head = (node >> 32) as u32;
        }
        // Sampled pending-drain gauge: folds away in NoopSink builds
        // (`sampled` is const false), and on RingSink builds only 1-in-
        // SAMPLE_EVERY completions touch the shared gauge line.
        if tss_obs::sampled(t) {
            obs.note_pending_drain(drained as usize);
        }
    }

    /// [`StreamRelease::release`] for a FAILED or POISONED task `t`:
    /// marks every successor POISONED in `status` *before* counting it
    /// down, so a successor that becomes ready is observed poisoned by
    /// whichever worker pops it (the countdown's AcqRel chain plus the
    /// deque's push/steal protocol carry the byte).
    pub(super) fn poison_release(&self, t: u32, status: &[AtomicU8], ready: &mut Vec<u32>) {
        // Same close as `release`, but the swap's ordering is the
        // POISON_PUBLISH constant: its release half is what hands `t`'s
        // FAILED/POISONED status byte to a committer that sees CLOSED
        // (the §10.3 seeded bug weakens exactly this edge).
        let mut head = self.pending[t as usize].swap(PENDING_CLOSED, POISON_PUBLISH);
        while head != PENDING_NIL {
            // relaxed: node read after winning the POISON_PUBLISH swap of
            // the pending head; the swap orders the list
            let node = self.nodes[head as usize].load(Ordering::Relaxed);
            let s = node as u32;
            mark_poisoned(&status[s as usize]);
            self.countdown(s, ready);
            head = (node >> 32) as u32;
        }
    }
}

/// How a window-commit edge registration resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum EdgeFate {
    /// Pushed onto the producer's pending list; the producer's drain
    /// will count it down.
    Registered,
    /// The producer already completed healthy: the committer counts the
    /// edge satisfied.
    SatisfiedHealthy,
    /// The producer already completed FAILED/POISONED: the committer
    /// counts the edge satisfied *and* poisons the successor.
    SatisfiedPoisoned,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::renamer::Renamer;
    use tss_workloads::{Benchmark, Scale};

    /// A graph-seeded table is the CSR, relinked: counters at the
    /// producer counts, and `release(p)` — the real drain, made to
    /// report every visit by arming each successor's counter at one —
    /// yields exactly `TaskGraph::succs(p)`, in order, and closes the
    /// list.
    #[test]
    fn graph_seeded_table_drains_the_csr_in_order() {
        let obs = SharedObs::new();
        for b in [Benchmark::Cholesky, Benchmark::H264] {
            let graph = Renamer::new().decode(&b.trace(Scale::Small, 7));
            let table = StreamRelease::from_graph(&graph);
            assert_eq!(table.nodes.len(), graph.stats().enforced_edges, "{b}");
            for (t, counter) in table.unready.iter().enumerate() {
                assert_eq!(counter.load(Ordering::Acquire), graph.pred_count(t) as i32, "{b}: {t}");
            }
            let mut visited = Vec::new();
            for p in 0..graph.len() {
                for &s in graph.succs(p) {
                    table.unready[s as usize].store(1, Ordering::Release);
                }
                visited.clear();
                table.release(p as u32, &mut visited, &obs);
                assert_eq!(visited, graph.succs(p), "{b}: producer {p}");
            }
            let closed = |h: &AtomicU32| h.load(Ordering::Acquire) == PENDING_CLOSED;
            assert!(table.pending.iter().all(closed), "{b}: a head was left open");
        }
    }
}

/// Model-checked interleaving test for the poison publish (DESIGN.md
/// §10.3). Compiled only under `RUSTFLAGS="--cfg tss_model_check"`.
#[cfg(all(test, tss_model_check))]
mod model_tests {
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
            let status: Arc<Vec<AtomicU8>> =
                Arc::new((0..2).map(|_| AtomicU8::new(HEALTHY)).collect());
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
}
