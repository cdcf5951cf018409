//! How a finished task finds its consumers: one readiness counter, one
//! status byte and one pending-release list per task (DESIGN.md §8.2,
//! §11.2). The pending list is the software analogue of the paper's
//! TRS consumer chain (Fig. 10) and the only release structure there
//! is: a streamed run grows the lists window by window
//! ([`StreamRelease::commit_window`]), a replay of an already-decoded
//! graph starts with every list complete ([`StreamRelease::from_graph`]).
//! A locked instruction is spent only where another thread can be
//! racing: a counter nobody can be counting down yet is published by a
//! plain store, and a list nobody can push onto any more — the table is
//! *sealed* — is read, not swapped closed.

use std::sync::OnceLock;

use crate::renamer::{merge_window, TaskGraph};
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
fn mark_poisoned(status: &AtomicU8) {
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

/// Whether a window commit publishes its tasks only once every edge of
/// the window is registered — the second of its two phases
/// ([`StreamRelease::commit_window`]). `--cfg
/// tss_bug_private_after_publish` seeds the bug the phases exist to
/// exclude: each task is published the moment its own edges are in,
/// before the later tasks of its window have put theirs on its list
/// with the plain stores only an unpublished producer's list can take,
/// so a worker may close that list under the committer's feet and an
/// edge is lost. `model_private_commit_never_loses_an_edge` fails when
/// active (DESIGN.md §8.2).
const PUBLISH_AFTER_WINDOW: bool = cfg!(not(tss_bug_private_after_publish));

/// Whether the publish phase walks the window newest task first. A
/// task whose outstanding producers are all of its own window gets its
/// counter by a plain store, which is sound only while none of them is
/// published — descending order publishes every producer after its
/// consumers. `--cfg tss_bug_plain_publish_ascending` walks the window
/// oldest first: a producer published (and made ready by an earlier
/// window's drain) ahead of its consumer can run and count the consumer
/// down before the store lands on top of the countdown.
/// `model_plain_publish_never_loses_a_countdown` fails when active
/// (DESIGN.md §8.2).
const PUBLISH_DESCENDING: bool = cfg!(not(tss_bug_plain_publish_ascending));

/// Ordering of the seal ([`StreamRelease::commit_window`]'s last
/// store): the `Release` a drain's `Acquire` load of the seal pairs
/// with, which is all that orders a sealed drain's plain head read
/// after the registrations before it. `--cfg tss_bug_seal_relaxed`
/// weakens it, so a drain may see the seal and a stale, shorter list.
/// `model_sealed_drain_sees_every_edge` fails when active (§8.2).
#[cfg(not(tss_bug_seal_relaxed))]
const SEAL_PUBLISH: Ordering = Ordering::Release;
#[cfg(tss_bug_seal_relaxed)]
// relaxed: deliberately-weak seeded-bug arm, compiled only under --cfg
// tss_bug_seal_relaxed; model_sealed_drain_sees_every_edge fails when
// active (DESIGN.md §8.2)
const SEAL_PUBLISH: Ordering = Ordering::Relaxed;

/// Flag on a [`CommitCursors::unfinished`] entry: an edge of the task
/// went onto the list of a producer an earlier window published, whose
/// drain may therefore be counting the task down while the commit
/// publishes it. Producer counts stay below [`UNPUBLISHED`], let alone
/// this bit.
const RACED: u32 = 1 << 31;

/// The committer's side of a run's window commits: what one commit
/// leaves for the next. Lives under the commit lock, so whichever
/// thread is the committer is its only user.
#[derive(Default)]
pub(super) struct CommitCursors {
    /// Bump cursor into the node slab.
    next_node: u32,
    /// Enforced (post-dedup) edges committed so far.
    pub(super) edges: usize,
    /// Reused storage: one task's producers, per task of the window in
    /// hand the producers it still waits for (and whether one of them
    /// is [`RACED`]), kept from the first phase for the second, and the
    /// roots the second found.
    producers: Vec<u32>,
    unfinished: Vec<u32>,
    roots: Vec<u32>,
}

/// The release table of one run. A producer's successor set is not
/// known until every later window has decoded, so each task owns a
/// lock-free pending-release list that commits push onto and the
/// task's completion closes and drains; readiness counters start at
/// the [`UNPUBLISHED`] sentinel and are reconciled by the commit that
/// publishes the task.
pub(super) struct StreamRelease {
    unready: Vec<AtomicI32>,
    /// Pending-list heads: `PENDING_NIL` empty, `PENDING_CLOSED` after
    /// the owner completed and drained an unsealed list, else a node
    /// index.
    pending: Vec<AtomicU32>,
    /// Nonzero once every list is final: from construction for a graph
    /// decoded beforehand, from the commit of the last window
    /// otherwise. A drain that sees it reads its head and closes
    /// nothing — there is no committer left to tell.
    sealed: AtomicU8,
    /// Node slab, first segment: `(next << 32) | succ`, bump-allocated
    /// by the window committer (the commit lock serializes allocation).
    /// Sized to the edges a run registers, not to the bound on them
    /// ([`StreamRelease::new`]); contiguous, and never grown, so nodes
    /// never move.
    nodes: Vec<AtomicU64>,
    /// Second segment: node indices `nodes.len()..edge_bound`, one
    /// contiguous block the committer allocates when its cursor first
    /// crosses into it (never, on a trace of the paper's shape).
    /// A std `OnceLock`, not a facade type: it orders nothing the
    /// protocol relies on — a drain learns an overflow index only from
    /// a head or link the committer stored after the block existed.
    overflow: OnceLock<Vec<AtomicU64>>,
    /// The proven bound on node indices (≥ `nodes.len()`).
    edge_bound: usize,
}

fn zeroed_nodes(len: usize) -> Vec<AtomicU64> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

/// Task ids and node indices share the pending heads' `u32` space with
/// the two list sentinels: both must stay below [`PENDING_CLOSED`], or
/// an index would be read as "closed" or "empty". Stated once, for
/// every way a table is built.
fn check_index_space(tasks: usize, edge_bound: usize) {
    let limit = PENDING_CLOSED as usize;
    assert!(
        tasks < limit && edge_bound < limit,
        "release table index space exhausted: {tasks} tasks and an edge bound of {edge_bound} \
         must both stay below the pending-list sentinel {limit}"
    );
}

impl StreamRelease {
    /// An empty table for `n` tasks nobody has decoded yet, carrying
    /// `operands` operands between them.
    ///
    /// The index bound is the pre-dedup pair bound, `3 × operands` (≤ 1
    /// RaW per read + 1 WaW per write + the readers a write clears,
    /// ≤ total reads — see `renamer.rs`). Memory is sized to what runs
    /// register instead: enforced edges ÷ operands is ≤ 0.98 on all nine
    /// workloads at both scales, renaming on and off (EXPERIMENTS.md
    /// "PR 20"), so the first segment holds `1.25 × operands` nodes and
    /// the rest of the bound is the overflow segment's to allocate.
    pub(super) fn new(n: usize, operands: usize) -> Self {
        Self::with_segments(n, operands + operands / 4 + 8, 3 * operands + 8)
    }

    /// [`StreamRelease::new`] with the two node counts given: `primary`
    /// nodes allocated now, `edge_bound` indices in all.
    fn with_segments(n: usize, primary: usize, edge_bound: usize) -> Self {
        check_index_space(n, edge_bound);
        StreamRelease {
            unready: (0..n).map(|_| AtomicI32::new(UNPUBLISHED)).collect(),
            pending: (0..n).map(|_| AtomicU32::new(PENDING_NIL)).collect(),
            sealed: AtomicU8::new(0),
            nodes: zeroed_nodes(primary.min(edge_bound)),
            overflow: OnceLock::new(),
            edge_bound,
        }
    }

    /// The table of a graph decoded before the run, as every window
    /// committing before any task completed would have left it — built
    /// directly, not by replaying those commits: counters at the exact
    /// producer counts (no sentinel to fold away), every edge already
    /// on its producer's list, and the table sealed — the crew hand-off
    /// publishes all of it. The node slab is laid out in the graph's
    /// CSR order, each node linking to its right-hand neighbour, so a
    /// drain visits `graph.succs(p)` front to back — the order a direct
    /// CSR walk released them in, which the one-worker determinism
    /// digest (`tests/determinism.rs`) holds two-phase replays to.
    pub(super) fn from_graph(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let edges = graph.stats().enforced_edges;
        check_index_space(n, edges);
        let mut nodes = Vec::with_capacity(edges);
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
            sealed: AtomicU8::new(1),
            nodes,
            overflow: OnceLock::new(),
            edge_bound: edges,
        }
    }

    /// Reads node `i` of the slab, `nodes` being its first segment: that
    /// one answers through the bounds check an index pays anyway, and
    /// only an index past it takes the second, out-of-line lookup. The
    /// access sits inside each arm so that the first is one indexed
    /// load rather than a pointer computed for both: the drain's loads
    /// are a dependent chain, and address arithmetic on it is latency.
    #[inline]
    fn load_node(&self, nodes: &[AtomicU64], i: u32) -> u64 {
        match nodes.get(i as usize) {
            // relaxed: node read after winning the swap of the pending
            // head, or after the Acquire load that saw the seal; either
            // orders the list
            Some(node) => node.load(Ordering::Relaxed),
            // relaxed: as above, in the overflow segment
            None => self.overflow_node(i as usize - nodes.len()).load(Ordering::Relaxed),
        }
    }

    /// Writes node `i` of the slab (committer only): `link` is `(next <<
    /// 32) | succ`. Whoever links the node into a list publishes it.
    #[inline]
    fn store_node(&self, i: u32, link: u64) {
        match self.nodes.get(i as usize) {
            // relaxed: node payload write; published to the drainer by
            // the head CAS that links it, or — on an unpublished
            // producer's list — by that producer's publish RMW
            Some(node) => node.store(link, Ordering::Relaxed),
            None => {
                let node = self.overflow_node(i as usize - self.nodes.len());
                // relaxed: as above, in the overflow segment
                node.store(link, Ordering::Relaxed)
            }
        }
    }

    /// Node `i` of the overflow segment, allocating the segment on the
    /// committer's first store into it. Indexing past `edge_bound`
    /// panics, as indexing past the one slab did.
    #[cold]
    #[inline(never)]
    fn overflow_node(&self, i: usize) -> &AtomicU64 {
        &self.overflow.get_or_init(|| zeroed_nodes(self.edge_bound - self.nodes.len()))[i]
    }

    /// Closes `t`'s list — with `close`, the ordering of the swap — and
    /// counts down every successor registered on it, `visit`ing each
    /// first; appends the ones this made ready to `ready` and returns
    /// how many it visited. Every edge registered up to the swap is
    /// drained here; every edge registered after sees `CLOSED` and
    /// counts itself satisfied at the commit (§8 exactly-once
    /// handshake). On a sealed table no edge comes after: the head is
    /// read, ordered after every registration by the seal's
    /// release/acquire pair, and left as it is.
    #[inline]
    fn drain(
        &self,
        t: u32,
        close: Ordering,
        ready: &mut Vec<u32>,
        mut visit: impl FnMut(u32),
    ) -> usize {
        // The two tables the loop indexes, taken once: `self` holds a
        // `OnceLock`, so past the (never taken) overflow call the
        // compiler would have to reload their headers per node.
        let (nodes, unready) = (&self.nodes[..], &self.unready[..]);
        let mut head = if self.sealed.load(Ordering::Acquire) != 0 {
            // relaxed: head of a sealed list; the Acquire load of the
            // seal just above orders it after every registration
            self.pending[t as usize].load(Ordering::Relaxed)
        } else {
            self.pending[t as usize].swap(PENDING_CLOSED, close)
        };
        let mut drained = 0;
        while head != PENDING_NIL {
            let node = self.load_node(nodes, head);
            let s = node as u32;
            visit(s);
            // AcqRel: release our payload writes to the successor's
            // executor, acquire the other producers' on the 1 → 0 edge.
            if unready[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.push(s);
            }
            drained += 1;
            head = (node >> 32) as u32;
        }
        drained
    }

    /// Registers edge `p → s` for a producer an earlier window
    /// published — it may be running, or done — storing the list node at
    /// `node_idx`. Returns how the edge resolved; on either `Satisfied*`
    /// fate the node slot is unused.
    fn register_edge(&self, node_idx: u32, p: u32, s: u32, status: &[AtomicU8]) -> EdgeFate {
        let list = &self.pending[p as usize];
        loop {
            let head = list.load(Ordering::Acquire);
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
            self.store_node(node_idx, ((head as u64) << 32) | s as u64);
            if list.compare_exchange(head, node_idx, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                return EdgeFate::Registered;
            }
            // Lost to the drain swap (or another commit — impossible
            // under the commit lock): retry against the new head.
        }
    }

    /// Registers edge `p → s` for a producer `p` of the window being
    /// committed: `p` is unpublished — its counter still carries the
    /// sentinel — so it cannot have run, nobody can have closed its
    /// list, and the committer (the commit lock makes it one thread at a
    /// time) is the list's only accessor, the argument
    /// [`StreamRelease::from_graph`] rests on too. Plain loads and
    /// stores therefore, no CAS and no `CLOSED` check. What carries
    /// them to the worker that later swaps the list closed is `p`'s
    /// publish: the release half of that RMW, then either the deque
    /// hand-off of the push it earned or the countdown RMW chain on the
    /// same counter (DESIGN.md §8.2).
    #[inline]
    fn register_unpublished(&self, node_idx: u32, p: u32, s: u32) {
        let list = &self.pending[p as usize];
        // relaxed: head of an unpublished producer's list; only the
        // committer touches it before the publish RMW releases it
        let head = list.load(Ordering::Relaxed);
        debug_assert_ne!(head, PENDING_CLOSED, "an unpublished task closed its list");
        self.store_node(node_idx, ((head as u64) << 32) | s as u64);
        // relaxed: head of an unpublished producer's list, as above; the
        // publish RMW's release half orders it before any drain
        list.store(node_idx, Ordering::Relaxed);
    }

    /// Commits the window of tasks `[lo, hi)` (committer thread, under
    /// the commit lock): merges the scan's consumer-ascending
    /// `(consumer, producer)` `pairs` into each task's sorted unique
    /// producer set and puts the window into the table in two phases
    /// (DESIGN.md §8.2).
    ///
    /// **Register.** Every edge of the window goes onto its producer's
    /// list: privately when the producer is in this window
    /// ([`StreamRelease::register_unpublished`] — it cannot have
    /// completed, so the edge is never born satisfied), through the
    /// [`StreamRelease::register_edge`] handshake when it was published
    /// by an earlier one, the committer owning the satisfaction (and
    /// the poison) of an edge whose producer already drained.
    ///
    /// **Publish.** Only then is each task published — newest first —
    /// and, once all are, `ready` called for the ones no producer holds
    /// back: the window's roots, in program order. Newest first,
    /// because a task none of whose edges went through the handshake
    /// waits only for producers of this window, which are older and so
    /// still unpublished when its turn comes: nobody can be counting it
    /// down, and its counter is a plain store ([`StreamRelease::publish`]).
    /// Roots afterwards and oldest first, because the injector is FIFO:
    /// the order roots go in is the order a lone worker runs them, which
    /// the committed one-worker digest pins.
    ///
    /// The commit of the last window seals the table.
    pub(super) fn commit_window(
        &self,
        (lo, hi): (usize, usize),
        pairs: &[(u32, u32)],
        status: &[AtomicU8],
        at: &mut CommitCursors,
        mut ready: impl FnMut(u32),
    ) {
        // The node cursor lives in a local for the length of the commit:
        // bumped per edge, written back once.
        let mut next_node = at.next_node;
        let CommitCursors { edges, producers, unfinished, roots, .. } = at;
        unfinished.clear();
        merge_window(lo, hi, pairs, producers, |s, preds| {
            let (mut satisfied, mut raced) = (0, 0);
            for &p in preds {
                if p as usize >= lo {
                    self.register_unpublished(next_node, p, s);
                    next_node += 1;
                    continue;
                }
                match self.register_edge(next_node, p, s, status) {
                    EdgeFate::Registered => {
                        next_node += 1;
                        raced = RACED;
                    }
                    // Either way the node slot stays free for the next edge.
                    EdgeFate::SatisfiedHealthy => satisfied += 1,
                    EdgeFate::SatisfiedPoisoned => {
                        // The producer failed (or was poisoned) before
                        // this edge existed: the committer owns both the
                        // satisfaction *and* the poison propagation (§11).
                        mark_poisoned(&status[s as usize]);
                        satisfied += 1;
                    }
                }
            }
            *edges += preds.len();
            let left = (preds.len() - satisfied) as u32 | raced;
            if PUBLISH_AFTER_WINDOW {
                unfinished.push(left);
            } else if self.publish(s, left) {
                ready(s);
            }
        });
        roots.clear();
        let n = unfinished.len();
        for k in 0..n {
            let i = if PUBLISH_DESCENDING { n - 1 - k } else { k };
            let s = (lo + i) as u32;
            if self.publish(s, unfinished[i]) {
                roots.push(s);
            }
        }
        for &s in roots.iter().rev() {
            ready(s);
        }
        at.next_node = next_node;
        if hi == self.unready.len() {
            // No commit comes after this one: every list is final.
            self.sealed.store(1, SEAL_PUBLISH);
        }
    }

    /// Publishes task `s`, whose `unfinished` entry counts the producers
    /// still to finish and flags whether one of them is [`RACED`]:
    /// replaces the [`UNPUBLISHED`] sentinel by the count, and returns
    /// whether that made `s` ready (the caller owns the push).
    ///
    /// A raced task may already have been counted down through the
    /// sentinel, so the sentinel is folded away by an RMW, and whichever
    /// atomic op lands the counter exactly on zero owns the push. A
    /// task that is not waits only for unpublished producers — nothing
    /// has touched its counter and nothing can until they are published,
    /// later in this commit — so the count is stored plainly, with no
    /// ordering of its own: every path from here to a worker that
    /// decrements the counter, or drains `s`'s own privately registered
    /// list, passes through a later release of this committer's — the
    /// injector push of a root (`bottom`'s `Release` store, §8.1), or
    /// the publish RMW of a raced producer, which an earlier window's
    /// drain continues as an RMW chain (DESIGN.md §8.2).
    #[inline]
    fn publish(&self, s: u32, unfinished: u32) -> bool {
        let counter = &self.unready[s as usize];
        if unfinished & RACED == 0 {
            // relaxed: counter of a task all of whose outstanding
            // producers are unpublished; carried to its first decrement
            // by the committer's later releases (see above)
            counter.store(unfinished as i32, Ordering::Relaxed);
            return unfinished == 0;
        }
        let delta = (unfinished & !RACED) as i32 - UNPUBLISHED;
        counter.fetch_add(delta, Ordering::AcqRel) + delta == 0
    }

    /// Called exactly once per completed task `t`; appends every task
    /// made ready by this completion to `ready`. `obs` carries the
    /// sampled pending-drain gauge (a no-op in NoopSink builds).
    #[inline]
    pub(super) fn release(&self, t: u32, ready: &mut Vec<u32>, obs: &SharedObs) {
        let drained = self.drain(t, Ordering::AcqRel, ready, |_| {});
        // Sampled pending-drain gauge: folds away in NoopSink builds
        // (`sampled` is const false), and on RingSink builds only 1-in-
        // SAMPLE_EVERY completions touch the shared gauge line.
        if tss_obs::sampled(t) {
            obs.note_pending_drain(drained);
        }
    }

    /// [`StreamRelease::release`] for a FAILED or POISONED task `t`:
    /// marks every successor POISONED in `status` *before* counting it
    /// down, so a successor that becomes ready is observed poisoned by
    /// whichever worker pops it (the countdown's AcqRel chain plus the
    /// deque's push/steal protocol carry the byte). The swap's ordering
    /// is the `POISON_PUBLISH` constant: its release half is what hands
    /// `t`'s FAILED/POISONED status byte to a committer that sees
    /// CLOSED (the §10.3 seeded bug weakens exactly this edge).
    pub(super) fn poison_release(&self, t: u32, status: &[AtomicU8], ready: &mut Vec<u32>) {
        self.drain(t, POISON_PUBLISH, ready, |s| mark_poisoned(&status[s as usize]));
    }
}

/// How a window-commit edge registration resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeFate {
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

    /// A graph-seeded table is the CSR, relinked, and sealed: counters
    /// at the producer counts, and `release(p)` — the real drain, made
    /// to report every visit by arming each successor's counter at one
    /// — visits exactly `TaskGraph::succs(p)`, in order, and swaps
    /// nothing: every head reads after the drains what it read before.
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
            let heads = |t: &StreamRelease| -> Vec<u32> {
                t.pending.iter().map(|h| h.load(Ordering::Acquire)).collect()
            };
            let before = heads(&table);
            let mut visited = Vec::new();
            for p in 0..graph.len() {
                for &s in graph.succs(p) {
                    table.unready[s as usize].store(1, Ordering::Release);
                }
                visited.clear();
                table.release(p as u32, &mut visited, &obs);
                assert_eq!(visited, graph.succs(p), "{b}: producer {p}");
            }
            assert_eq!(heads(&table), before, "{b}: a sealed drain wrote a head");
        }
    }

    /// A streamed table seals itself with the commit of its last window
    /// and not before: until then a drain closes its list, so that a
    /// later commit finds out the producer is done; after, it leaves
    /// the list as it is. And a window's roots reach `ready` in program
    /// order although the window is published newest first.
    #[test]
    fn the_last_commit_seals_and_roots_come_in_program_order() {
        let obs = SharedObs::new();
        let table = StreamRelease::new(6, 6);
        let status: Vec<AtomicU8> = (0..6).map(|_| AtomicU8::new(HEALTHY)).collect();
        let mut at = CommitCursors::default();
        let mut roots = Vec::new();
        // Window one: 0 and 2 are roots, 0 → 1; window two: 3 and 5 are
        // roots, 1 → 4 across the boundary.
        table.commit_window((0, 3), &[(1, 0)], &status, &mut at, |r| roots.push(r));
        assert_eq!(roots, [0, 2]);
        assert_eq!(table.sealed.load(Ordering::Acquire), 0, "sealed before the last window");
        let mut ready = Vec::new();
        table.release(2, &mut ready, &obs);
        assert_eq!(table.pending[2].load(Ordering::Acquire), PENDING_CLOSED);
        table.commit_window((3, 6), &[(4, 1)], &status, &mut at, |r| roots.push(r));
        assert_eq!(roots, [0, 2, 3, 5]);
        assert_ne!(table.sealed.load(Ordering::Acquire), 0, "the last window did not seal");
        table.release(0, &mut ready, &obs);
        assert_eq!(ready, [1]);
        assert_ne!(
            table.pending[0].load(Ordering::Acquire),
            PENDING_CLOSED,
            "a sealed drain swapped"
        );
        table.release(1, &mut ready, &obs);
        assert_eq!(ready, [1, 4]);
        let left: Vec<i32> = table.unready.iter().map(|c| c.load(Ordering::Acquire)).collect();
        assert_eq!(left, [0; 6]);
    }

    /// The slab's second segment: untouched (unallocated) while the
    /// cursor stays inside the first, allocated whole by the first
    /// store past it, and walked by both drains exactly like the first —
    /// a list may link across the boundary in either direction.
    #[test]
    fn a_list_that_crosses_into_the_overflow_segment_drains_whole() {
        let obs = SharedObs::new();
        for poison in [false, true] {
            // 2 nodes now, 6 indices in all; producers 0 and 1, six
            // consumers, edges interleaved so both lists cross over.
            let table = StreamRelease::with_segments(8, 2, 6);
            let status: Vec<AtomicU8> = (0..8).map(|_| AtomicU8::new(HEALTHY)).collect();
            for idx in 0..6u32 {
                assert_eq!(table.overflow.get().is_some(), idx > 2, "before node {idx}");
                let (p, s) = (idx % 2, 2 + idx);
                assert_eq!(table.register_edge(idx, p, s, &status), EdgeFate::Registered);
                table.unready[s as usize].store(1, Ordering::Release);
            }
            assert_eq!(table.overflow.get().map(Vec::len), Some(4));
            for p in 0..2u32 {
                let mut ready = Vec::new();
                if poison {
                    table.poison_release(p, &status, &mut ready);
                } else {
                    table.release(p, &mut ready, &obs);
                }
                // Newest first: a commit pushes at the head.
                assert_eq!(ready, [6 + p, 4 + p, 2 + p], "producer {p}, poison {poison}");
                let fate = |s: u32| status[s as usize].load(Ordering::Acquire);
                assert!(ready.iter().all(|&s| fate(s) == if poison { POISONED } else { HEALTHY }));
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_node_index_past_the_edge_bound_still_panics() {
        let table = StreamRelease::with_segments(2, 1, 3);
        table.register_edge(3, 0, 1, &[AtomicU8::new(HEALTHY), AtomicU8::new(HEALTHY)]);
    }

    /// Task ids and node indices share the heads' `u32` space with the
    /// two sentinels. The boundary, on the real constructor, with
    /// fabricated counts: no task, no first-segment node, so nothing of
    /// the ~34 GB such a table would really take is allocated.
    #[test]
    fn the_index_space_ends_just_below_the_list_sentinels() {
        let limit = PENDING_CLOSED as usize;
        let table = StreamRelease::with_segments(0, 0, limit - 1);
        assert_eq!((table.nodes.len(), table.edge_bound), (0, limit - 1));
        check_index_space(limit - 1, limit - 1);
        for (tasks, edge_bound) in [(0, limit), (limit, 0), (0, usize::MAX)] {
            let built = std::panic::catch_unwind(|| {
                if tasks == 0 {
                    StreamRelease::with_segments(0, 0, edge_bound);
                } else {
                    check_index_space(tasks, edge_bound);
                }
            });
            let message = crate::fault::panic_message(&*built.expect_err("limit not enforced"));
            assert!(
                message.contains(&format!("{tasks} tasks"))
                    && message.contains(&format!("edge bound of {edge_bound}"))
                    && message.contains(&limit.to_string()),
                "message names neither count: {message}"
            );
        }
    }
}

/// Model-checked interleaving tests of the table's handshakes
/// (DESIGN.md §10.3), in `release/model_tests.rs`. Compiled only under
/// `RUSTFLAGS="--cfg tss_model_check"`.
#[cfg(all(test, tss_model_check))]
mod model_tests;
