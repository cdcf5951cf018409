//! The reference dependency analysis (oracle).
//!
//! Replays a [`TaskTrace`] in program order, tracking for every memory
//! object (identified by base address, exactly as the ORTs do) its last
//! writer and the readers of the current version. Edges are classified:
//!
//! - **RaW** — true data dependency: always enforced.
//! - **InoutAnti** — a reader of the current version precedes an `inout`
//!   writer. The pipeline does *not* rename inout operands (Figure 9), so
//!   these are enforced: the inout task receives its "output buffer free"
//!   data-ready only when the previous version drains.
//! - **WaR** / **WaW** against a pure `out` operand — *removed by
//!   renaming* (the OVT allocates a fresh buffer, Figure 7). Counted
//!   ([`DepGraph::edges_removed_by_renaming`]) and listed on demand by
//!   [`classified_edges`] for no-renaming comparisons, but not enforced.
//!
//! The enforced edge set is what any correct out-of-order execution must
//! respect; `tss-runtime` executes directly from it, and the hardware
//! pipeline's schedules are validated against it.
//!
//! The rules are stated here twice, on purpose: `for_each_edge` yields
//! the edges [`DepGraph::from_trace`] builds its adjacency from, and
//! [`check_order`] (a trace's first [`TaskTrace::check_order`]) tests
//! the same rules on a per-object summary of the current version
//! without naming an edge.
//! `tests/properties.rs` holds the first to a brute-force recomputation
//! and the second to the first, so a mistake in one is not inherited by
//! the other (DESIGN.md §14.3).

use crate::task::{TaskId, TaskTrace};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Deterministic multiply-xor hasher for object base addresses.
///
/// `from_trace` hashes one `u64` per tracked operand of every task; the
/// default SipHash shows up in simulator-throughput profiles, and its
/// DoS resistance buys nothing against synthetic traces. The constant is
/// the 64-bit golden ratio (same mixer as `SplitMix64`).
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // Finish with an xor-shift so low output bits depend on high
        // input bits (table indices use the low bits).
        self.0 ^ (self.0 >> 32)
    }
}

/// `HashMap` keyed by object address with the fast deterministic hasher.
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Dependency edge classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write: true dependency (enforced).
    RaW,
    /// Readers of a version ordered before an inout writer (enforced,
    /// because inout operands are not renamed).
    InoutAnti,
    /// Write-after-read against a renamed `out` operand (not enforced).
    WaR,
    /// Write-after-write against a renamed `out` operand (not enforced).
    WaW,
}

impl DepKind {
    /// Whether the pipeline must order the two tasks.
    pub fn enforced(self) -> bool {
        matches!(self, DepKind::RaW | DepKind::InoutAnti)
    }
}

/// Why a completion order is not a valid topological order of the
/// enforced dependency graph (see [`DepGraph::validate_order`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderViolation {
    /// The order names a task id outside the graph.
    UnknownTask(TaskId),
    /// A task appears more than once.
    DuplicateTask(TaskId),
    /// A task never appears (reported when the order is too short).
    MissingTask(TaskId),
    /// A task completed before one of its enforced producers.
    ProducerAfterConsumer {
        /// The producer that finished too late.
        producer: TaskId,
        /// The consumer that finished too early.
        consumer: TaskId,
    },
}

impl std::fmt::Display for OrderViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderViolation::UnknownTask(t) => write!(f, "order names unknown task {t}"),
            OrderViolation::DuplicateTask(t) => write!(f, "task {t} completed more than once"),
            OrderViolation::MissingTask(t) => write!(f, "task {t} never completed"),
            OrderViolation::ProducerAfterConsumer { producer, consumer } => write!(
                f,
                "dependency {producer} -> {consumer} inverted: the consumer \
                 completed before its producer"
            ),
        }
    }
}

impl std::error::Error for OrderViolation {}

/// One classified dependency edge `from → to` (with `from` earlier in
/// program order), as [`classified_edges`] yields it. Endpoints are
/// task ids at `u32` width, as everywhere the graph stores them; use
/// [`DepEdge::from_id`]/[`DepEdge::to_id`] for `TaskId`-typed endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producer / predecessor task.
    pub from: u32,
    /// Consumer / successor task.
    pub to: u32,
    /// Classification.
    pub kind: DepKind,
}

impl DepEdge {
    /// Producer endpoint as a [`TaskId`].
    pub fn from_id(&self) -> TaskId {
        self.from as TaskId
    }

    /// Consumer endpoint as a [`TaskId`].
    pub fn to_id(&self) -> TaskId {
        self.to as TaskId
    }
}

/// An object's `last_writer` before its first write.
const NO_WRITER: u32 = u32::MAX;

/// One object's current version, 64 bytes: its writer and its readers
/// as task ids at `u32` width ([`DepGraph::from_trace`] asserts that
/// every id fits below [`NO_WRITER`]).
#[derive(Debug, Clone)]
struct ObjectState {
    /// Task holding the latest version (last writer), or [`NO_WRITER`].
    last_writer: u32,
    /// Readers of the latest version since the last write. Table-I
    /// traces rarely exceed a handful of readers per version (Figure
    /// 10), so the first 8 live inline and the replay loop allocates
    /// only for outliers.
    readers_len: u32,
    readers: [u32; 8],
    readers_overflow: Vec<u32>,
}

impl Default for ObjectState {
    fn default() -> Self {
        ObjectState {
            last_writer: NO_WRITER,
            readers_len: 0,
            readers: [0; 8],
            readers_overflow: Vec::new(),
        }
    }
}

impl ObjectState {
    fn push_reader(&mut self, t: u32) {
        match self.readers.get_mut(self.readers_len as usize) {
            Some(slot) => *slot = t,
            None => self.readers_overflow.push(t),
        }
        self.readers_len += 1;
    }

    fn readers(&self) -> impl Iterator<Item = u32> + '_ {
        let inline = (self.readers_len as usize).min(self.readers.len());
        self.readers[..inline].iter().copied().chain(self.readers_overflow.iter().copied())
    }

    fn clear_readers(&mut self) {
        self.readers_len = 0;
        self.readers_overflow.clear();
    }
}

/// The enforced dependency graph of a trace: predecessor and successor
/// adjacency, deduplicated and sorted, plus the count of edges renaming
/// removes.
///
/// Adjacency is stored flat (CSR: one offsets array, one data array per
/// direction) instead of `Vec<Vec<_>>`: graph construction runs once per
/// software-runtime simulation, and 2·n little vectors dominated its
/// allocator traffic. Every entry is a task id or an offset at `u32`
/// width, so a graph of `n` tasks and `E` enforced edges holds exactly
/// 4 B × (2(n + 1) + 2E) (`tests/dep_graph_bytes.rs`). The classified
/// edge list, non-enforced edges included, is not kept: its readers are
/// tests, and [`classified_edges`] recomputes it.
#[derive(Debug, Clone)]
pub struct DepGraph {
    n: usize,
    pred_off: Vec<u32>,
    pred_dat: Vec<u32>,
    succ_off: Vec<u32>,
    succ_dat: Vec<u32>,
    removed_by_renaming: usize,
}

/// The replay's working set: one [`ObjectState`] per distinct base
/// address. The caller of [`for_each_edge`] allocates it and decides
/// when it dies. Where it dies moves `replay_large`'s peak RSS, because
/// freeing a block glibc mapped raises its dynamic mmap threshold, and
/// later blocks then come from the heap (DESIGN.md §14.3): with 64-byte
/// states, freeing it before the successor CSR is built reads 47.1 MB,
/// against 48.3 MB for freeing it on return and 48.5 MB for a table
/// grown from empty (medians of eleven runs).
pub(crate) struct ObjectTable {
    // Declared (hence dropped) states-first but allocated index-first:
    // the order measured with the earlier 112-byte states, kept.
    states: Vec<ObjectState>,
    /// Object states live in the dense vector above; the hash map only
    /// interns addresses to indices. Keeping the map entries at 12
    /// bytes (vs. a 64-byte inline state) keeps the whole probe table
    /// cache-resident for big traces.
    index: AddrMap<u32>,
}

impl ObjectTable {
    /// Sized for the common case of roughly one distinct object per
    /// task (Table-I traces all fit); a wider-fan-in trace may still
    /// rehash once or twice. Untouched capacity is never resident.
    pub(crate) fn for_trace(trace: &TaskTrace) -> Self {
        let n = trace.len().max(16);
        let index = AddrMap::with_capacity_and_hasher(n, BuildHasherDefault::default());
        ObjectTable { states: Vec::with_capacity(n), index }
    }
}

/// The dependence rules as edges: replays `trace` in program order over
/// `table` and yields every classified edge `from → to` (`from` earlier
/// in program order) in discovery order, duplicates included — so in
/// ascending `to`. [`DepGraph::from_trace`] and [`classified_edges`]
/// are its callers; the streamed [`check_order`] states the enforced
/// rules again without edges, and the executor's renamer a third time
/// (DESIGN.md §14.3). Task ids must fit below [`NO_WRITER`].
#[inline]
pub(crate) fn for_each_edge(
    trace: &TaskTrace,
    table: &mut ObjectTable,
    mut edge: impl FnMut(u32, u32, DepKind),
) {
    let ObjectTable { states, index } = table;
    for (tid, task) in trace.iter().enumerate() {
        let tid = tid as u32;
        for op in task.operands.iter().filter(|o| o.is_tracked()) {
            let id = *index.entry(op.addr).or_insert_with(|| {
                states.push(ObjectState::default());
                (states.len() - 1) as u32
            });
            let st = &mut states[id as usize];
            let w = st.last_writer;
            if op.dir.reads() && w != NO_WRITER && w != tid {
                // RaW from the in-flight producer.
                edge(w, tid, DepKind::RaW);
            }
            if op.dir.writes() {
                let inout = op.dir.reads();
                // Ordering against the previous version's readers.
                for r in st.readers() {
                    if r != tid {
                        let kind = if inout { DepKind::InoutAnti } else { DepKind::WaR };
                        edge(r, tid, kind);
                    }
                }
                // Ordering against the previous writer (for inout the
                // RaW edge above already covers it).
                if w != NO_WRITER && w != tid && !inout {
                    edge(w, tid, DepKind::WaW);
                }
                st.last_writer = tid;
                st.clear_readers();
            }
            if op.dir.reads() {
                st.push_reader(tid);
            }
        }
    }
}

/// Every classified edge of `trace`, non-enforced WaR/WaW included, in
/// discovery order with duplicates — recomputed on each call, since
/// [`DepGraph`] keeps only the enforced adjacency and a count of the
/// rest. For tests and ablations that need the kinds.
///
/// # Panics
///
/// Panics if the trace has `u32::MAX` tasks or more.
pub fn classified_edges(trace: &TaskTrace) -> Vec<DepEdge> {
    assert_fits_u32(trace);
    let mut edges = Vec::new();
    let mut table = ObjectTable::for_trace(trace);
    for_each_edge(trace, &mut table, |from, to, kind| edges.push(DepEdge { from, to, kind }));
    edges
}

fn assert_fits_u32(trace: &TaskTrace) {
    assert!(trace.len() < NO_WRITER as usize, "{} tasks: task ids must fit u32", trace.len());
}

/// Closes the open task's predecessor range (the tail of `dat` from
/// `off`'s last entry): sorted, deduplicated, and its end appended.
fn seal_preds(off: &mut Vec<u32>, dat: &mut Vec<u32>) {
    let start = *off.last().expect("offsets start at [0]") as usize;
    dat[start..].sort_unstable();
    let mut kept = start;
    for i in start..dat.len() {
        if kept == start || dat[i] != dat[kept - 1] {
            dat[kept] = dat[i];
            kept += 1;
        }
    }
    dat.truncate(kept);
    off.push(u32::try_from(dat.len()).expect("enforced edges fit u32"));
}

/// `position[t]` = index of `t` in `order`, after checking that `order`
/// names each of the `n` tasks exactly once.
fn positions(n: usize, order: &[TaskId]) -> Result<Vec<u32>, OrderViolation> {
    const UNSEEN: u32 = u32::MAX;
    let mut position = vec![UNSEEN; n];
    for (i, &t) in order.iter().enumerate() {
        if t >= n {
            return Err(OrderViolation::UnknownTask(t));
        }
        if position[t] != UNSEEN {
            return Err(OrderViolation::DuplicateTask(t));
        }
        position[t] = i as u32;
    }
    if let Some(t) = position.iter().position(|&p| p == UNSEEN) {
        return Err(OrderViolation::MissingTask(t));
    }
    Ok(position)
}

/// [`DepGraph::validate_order`]'s predicate without the graph, in one
/// pass over the operands. Per object it keeps the current version in
/// the order domain — the 1-based completion position of its writer
/// and the latest of its readers' (0 = none) — instead of the version's
/// tasks: a read fails if the writer finished after it (RaW), an inout
/// if a reader did (InoutAnti, the paper's "output buffer free"); a
/// write starts a new version and a read joins the current one. No edge
/// list, no CSR, nothing memoized, and a table that grows with objects,
/// not tasks. [`TaskTrace::check_order`] takes this path on a trace's
/// first check and says when; it is public so that the tests of the
/// algorithm reach it on every call.
///
/// Exact because positions are a permutation: a producer finished after
/// its consumer iff its position is the larger, and the consumer's own
/// earlier operands on the object compare equal, so no self-edge needs
/// a case. Accepts and rejects exactly the orders `validate_order`
/// does, with the same violation kind; of several inverted dependencies
/// it names the first consumer in program order and, on that operand,
/// its latest-finishing producer, where `validate_order` names the
/// first consumer in completion order.
pub fn check_order(trace: &TaskTrace, order: &[TaskId]) -> Result<(), OrderViolation> {
    let position = positions(trace.len(), order)?;
    // (writer, latest reader) of each object's current version.
    let mut versions: AddrMap<(u32, u32)> = AddrMap::default();
    for (consumer, task) in trace.iter().enumerate() {
        let own = position[consumer] + 1;
        for op in task.operands.iter().filter(|o| o.is_tracked()) {
            let (writer, readers) = versions.entry(op.addr).or_default();
            let mut latest = 0;
            if op.dir.reads() {
                latest = *writer;
            }
            #[cfg(not(tss_bug_check_skips_inout_anti))]
            if op.dir.reads() && op.dir.writes() {
                latest = latest.max(*readers);
            }
            if latest > own {
                let producer = order[latest as usize - 1];
                return Err(OrderViolation::ProducerAfterConsumer { producer, consumer });
            }
            if op.dir.writes() {
                (*writer, *readers) = (own, 0);
            }
            if op.dir.reads() {
                *readers = (*readers).max(own);
            }
        }
    }
    Ok(())
}

impl DepGraph {
    /// Builds the graph by exact replay of `trace` in program order.
    ///
    /// Which entry point to use: [`TaskTrace::dep_graph`] when the graph
    /// itself is needed on a shared trace (sweeps, the simulators) — it
    /// memoizes one `Arc<DepGraph>` per trace; [`TaskTrace::check_order`]
    /// to check a completion order (it builds the graph only for a
    /// trace checked more than once); `from_trace` directly only for a
    /// private, unshared graph.
    pub fn from_trace(trace: &TaskTrace) -> Self {
        assert_fits_u32(trace);
        let n = trace.len();
        // Edges reach the visitor in ascending `to`, so the predecessor
        // CSR fills as the walk goes: a task's range is sealed when the
        // first edge of a later task arrives. No edge list is stored.
        let mut pred_off = Vec::with_capacity(n + 1);
        pred_off.push(0u32);
        let mut pred_dat = Vec::new();
        let mut removed = 0;
        let mut table = ObjectTable::for_trace(trace);
        for_each_edge(trace, &mut table, |from, to, kind| {
            #[cfg(tss_bug_graph_drops_inout_anti)]
            if kind == DepKind::InoutAnti {
                return;
            }
            if !kind.enforced() {
                removed += 1;
                return;
            }
            while pred_off.len() <= to as usize {
                seal_preds(&mut pred_off, &mut pred_dat);
            }
            pred_dat.push(from);
        });
        // Freed before the CSR build, not on return (see `ObjectTable`).
        drop(table);
        while pred_off.len() <= n {
            seal_preds(&mut pred_off, &mut pred_dat);
        }
        pred_dat.shrink_to_fit();

        // The successor CSR is the transpose: count, take inclusive
        // prefix sums (each entry the end of its range), then walk the
        // consumers backwards, moving each producer's end down to its
        // start — which leaves every range ascending.
        let mut succ_off = vec![0u32; n + 1];
        for &p in &pred_dat {
            succ_off[p as usize] += 1;
        }
        let mut end = 0;
        for slot in &mut succ_off {
            end += *slot;
            *slot = end;
        }
        let mut succ_dat = vec![0u32; pred_dat.len()];
        for t in (0..n).rev() {
            for &p in &pred_dat[pred_off[t] as usize..pred_off[t + 1] as usize] {
                succ_off[p as usize] -= 1;
                succ_dat[succ_off[p as usize] as usize] = t as u32;
            }
        }

        DepGraph { n, pred_off, pred_dat, succ_off, succ_dat, removed_by_renaming: removed }
    }

    /// Number of tasks (graph nodes).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Enforced (deduplicated, ascending) predecessors of `t`.
    pub fn preds(&self, t: TaskId) -> &[u32] {
        &self.pred_dat[self.pred_off[t] as usize..self.pred_off[t + 1] as usize]
    }

    /// Enforced (deduplicated, ascending) successors of `t`.
    pub fn succs(&self, t: TaskId) -> &[u32] {
        &self.succ_dat[self.succ_off[t] as usize..self.succ_off[t + 1] as usize]
    }

    /// Number of WaR/WaW edges that operand renaming eliminates.
    pub fn edges_removed_by_renaming(&self) -> usize {
        self.removed_by_renaming
    }

    /// Number of enforced edges (after dedup).
    pub fn enforced_edge_count(&self) -> usize {
        self.succ_dat.len()
    }

    /// Tasks with no enforced predecessors (immediately runnable).
    pub fn roots(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.n).filter(|&t| self.preds(t).is_empty())
    }

    /// Validates a *completion order* — task ids in the sequence they
    /// finished — against the enforced dependency graph: every task
    /// exactly once, every enforced producer before its consumer.
    ///
    /// This is the oracle check shared by the native executor
    /// (`tss-exec`, whose completion log is a linearization of real
    /// threaded execution) and the simulator (whose schedule, sorted by
    /// completion cycle, must linearize the same way). It is weaker
    /// than [`validate_schedule`](crate::validate_schedule) — no
    /// timestamps, no core-occupancy check — and is exactly what an
    /// execution without a global clock can be held to.
    ///
    /// # Errors
    ///
    /// Returns the first [`OrderViolation`] found.
    pub fn validate_order(&self, order: &[TaskId]) -> Result<(), OrderViolation> {
        let position = positions(self.n, order)?;
        for (i, &t) in order.iter().enumerate() {
            for &p in self.preds(t) {
                if position[p as usize] > i as u32 {
                    let producer = p as TaskId;
                    return Err(OrderViolation::ProducerAfterConsumer { producer, consumer: t });
                }
            }
        }
        Ok(())
    }

    /// Whether `to` is reachable from `from` over enforced edges.
    /// (Figure 1's observation: tasks 6 and 23 are *not* ordered.)
    pub fn reachable(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let mut visited = vec![false; self.n];
        let mut stack = vec![from];
        visited[from] = true;
        while let Some(t) = stack.pop() {
            for &s in self.succs(t) {
                let s = s as TaskId;
                if s == to {
                    return true;
                }
                if !visited[s] {
                    visited[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Renders the enforced graph in Graphviz DOT (labels are `creation
    /// order + 1`, matching Figure 1's numbering).
    pub fn to_dot(&self, trace: &TaskTrace) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph tasks {\n  rankdir=TB;\n");
        for t in 0..self.n {
            let kernel = trace.kernel_name(trace.task(t).kernel);
            let _ = writeln!(out, "  t{t} [label=\"{} ({kernel})\"];", t + 1);
        }
        for t in 0..self.n {
            for &s in self.succs(t) {
                let _ = writeln!(out, "  t{t} -> t{s};");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{OperandDesc, TaskDesc, TaskTrace};

    fn trace_of(ops_per_task: Vec<Vec<OperandDesc>>) -> TaskTrace {
        let mut tr = TaskTrace::new("t");
        let k = tr.add_kernel("k");
        for ops in ops_per_task {
            tr.push(TaskDesc::new(k, 10, ops));
        }
        tr
    }

    #[test]
    fn raw_edge_detected() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)],
            vec![OperandDesc::input(0x100, 64)],
        ]);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.succs(0), &[1]);
        assert_eq!(classified_edges(&tr), [DepEdge { from: 0, to: 1, kind: DepKind::RaW }]);
    }

    #[test]
    fn waw_and_war_removed_by_renaming() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)], // writer v0
            vec![OperandDesc::input(0x100, 64)],  // reader of v0
            vec![OperandDesc::output(0x100, 64)], // writer v1: WaW + WaR, renamed
        ]);
        let g = DepGraph::from_trace(&tr);
        assert!(g.preds(2).is_empty(), "renamed writer must not wait");
        assert_eq!(g.edges_removed_by_renaming(), 2);
        let kinds: Vec<DepKind> = classified_edges(&tr).iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [DepKind::RaW, DepKind::WaR, DepKind::WaW]);
        // Reader still depends on the first writer.
        assert_eq!(g.preds(1), &[0]);
    }

    #[test]
    fn inout_enforces_anti_dependencies() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)], // producer
            vec![OperandDesc::input(0x100, 64)],  // reader
            vec![OperandDesc::inout(0x100, 64)],  // inout: waits for both
        ]);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(g.preds(2), &[0, 1]);
        let kinds: Vec<DepKind> = classified_edges(&tr).iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [DepKind::RaW, DepKind::RaW, DepKind::InoutAnti]);
        assert_eq!(g.edges_removed_by_renaming(), 0);
    }

    #[test]
    fn inout_chains_are_serialized() {
        let tr = trace_of(vec![
            vec![OperandDesc::inout(0x100, 64)],
            vec![OperandDesc::inout(0x100, 64)],
            vec![OperandDesc::inout(0x100, 64)],
        ]);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.preds(2), &[1]);
        assert!(g.reachable(0, 2));
    }

    #[test]
    fn readers_do_not_depend_on_each_other() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)],
            vec![OperandDesc::input(0x100, 64)],
            vec![OperandDesc::input(0x100, 64)],
        ]);
        let g = DepGraph::from_trace(&tr);
        assert!(!g.reachable(1, 2));
        assert!(!g.reachable(2, 1));
        assert_eq!(g.preds(2), &[0]);
    }

    #[test]
    fn new_version_hides_old_producer() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)], // v0
            vec![OperandDesc::output(0x100, 64)], // v1 (renamed)
            vec![OperandDesc::input(0x100, 64)],  // reads v1, not v0
        ]);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(g.preds(2), &[1]);
    }

    #[test]
    fn untracked_scalars_create_no_edges() {
        let tr = trace_of(vec![vec![OperandDesc::scalar(8)], vec![OperandDesc::scalar(8)]]);
        let g = DepGraph::from_trace(&tr);
        assert!(classified_edges(&tr).is_empty());
        assert_eq!(g.enforced_edge_count(), 0);
        assert_eq!(g.roots().count(), 2);
    }

    #[test]
    fn self_dependency_is_ignored() {
        // A task reading and writing the same object through two operands
        // must not depend on itself.
        let tr =
            trace_of(vec![vec![OperandDesc::output(0x100, 64), OperandDesc::input(0x100, 64)]]);
        let g = DepGraph::from_trace(&tr);
        assert!(g.preds(0).is_empty());
        assert_eq!(check_order(&tr, &[0]), Ok(()));
    }

    #[test]
    fn different_objects_are_independent() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)],
            vec![OperandDesc::input(0x200, 64)],
        ]);
        let g = DepGraph::from_trace(&tr);
        assert!(classified_edges(&tr).is_empty());
        assert_eq!(g.enforced_edge_count(), 0);
    }

    #[test]
    fn validate_order_accepts_any_linearization() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)],
            vec![OperandDesc::input(0x100, 64), OperandDesc::output(0x200, 64)],
            vec![OperandDesc::input(0x100, 64)],
            vec![OperandDesc::input(0x200, 64)],
        ]);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(g.validate_order(&[0, 1, 2, 3]), Ok(()));
        assert_eq!(g.validate_order(&[0, 2, 1, 3]), Ok(()), "siblings reorder freely");
    }

    #[test]
    fn validate_order_reports_each_violation_kind() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)],
            vec![OperandDesc::input(0x100, 64)],
        ]);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(
            g.validate_order(&[1, 0]),
            Err(OrderViolation::ProducerAfterConsumer { producer: 0, consumer: 1 })
        );
        assert_eq!(g.validate_order(&[0, 0]), Err(OrderViolation::DuplicateTask(0)));
        assert_eq!(g.validate_order(&[0]), Err(OrderViolation::MissingTask(1)));
        assert_eq!(g.validate_order(&[0, 7]), Err(OrderViolation::UnknownTask(7)));
        let msg = OrderViolation::ProducerAfterConsumer { producer: 3, consumer: 9 }.to_string();
        assert!(msg.contains("3 -> 9"));
    }

    /// The streamed check against each edge kind.
    #[test]
    fn streaming_check_enforces_raw_and_inout_anti_only() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)], // 0: writes v0
            vec![OperandDesc::input(0x100, 64)],  // 1: reads v0        (RaW 0→1)
            vec![OperandDesc::inout(0x100, 64)],  // 2: v0 → v1 in place (RaW 0→2, InoutAnti 1→2)
            vec![OperandDesc::input(0x100, 64)],  // 3: reads v1        (RaW 2→3)
            vec![OperandDesc::output(0x100, 64)], // 4: renamed v2      (WaR 3→4, WaW 2→4)
        ]);
        assert_eq!(check_order(&tr, &[0, 1, 2, 3, 4]), Ok(()));
        // Only the renamed WaR/WaW edges inverted: task 4 may run first.
        assert_eq!(check_order(&tr, &[4, 0, 1, 2, 3]), Ok(()));
        assert_eq!(
            check_order(&tr, &[1, 0, 2, 3, 4]),
            Err(OrderViolation::ProducerAfterConsumer { producer: 0, consumer: 1 }),
            "inverted RaW"
        );
        assert_eq!(
            check_order(&tr, &[0, 2, 1, 3, 4]),
            Err(OrderViolation::ProducerAfterConsumer { producer: 1, consumer: 2 }),
            "inverted InoutAnti"
        );
        assert_eq!(check_order(&tr, &[0, 1, 2, 3, 3]), Err(OrderViolation::DuplicateTask(3)));
        assert_eq!(check_order(&tr, &[0, 1, 2, 3]), Err(OrderViolation::MissingTask(4)));
        assert_eq!(check_order(&tr, &[0, 1, 2, 3, 9]), Err(OrderViolation::UnknownTask(9)));
        // Every verdict above agrees with the graph oracle's.
        let g = DepGraph::from_trace(&tr);
        for order in [[0, 1, 2, 3, 4], [4, 0, 1, 2, 3], [1, 0, 2, 3, 4], [0, 2, 1, 3, 4]] {
            assert_eq!(check_order(&tr, &order), g.validate_order(&order), "{order:?}");
        }
    }

    /// The streamed check keeps one reader position per version, not the
    /// readers: of several producers inverted on one operand it names
    /// the one that finished last.
    #[test]
    fn streaming_check_names_the_latest_finishing_producer() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)], // 0: writes v0
            vec![OperandDesc::input(0x100, 64)],  // 1: reads v0
            vec![OperandDesc::input(0x100, 64)],  // 2: reads v0
            vec![OperandDesc::inout(0x100, 64)],  // 3: waits for 0, 1 and 2
        ]);
        // Both readers finish after the inout; either order of the two.
        assert_eq!(
            check_order(&tr, &[0, 3, 1, 2]),
            Err(OrderViolation::ProducerAfterConsumer { producer: 2, consumer: 3 })
        );
        assert_eq!(
            check_order(&tr, &[0, 3, 2, 1]),
            Err(OrderViolation::ProducerAfterConsumer { producer: 1, consumer: 3 })
        );
        // The writer last of all: it is named, not a reader.
        assert_eq!(
            check_order(&tr, &[1, 2, 3, 0]),
            Err(OrderViolation::ProducerAfterConsumer { producer: 0, consumer: 1 }),
            "the first consumer in program order is 1, whose one producer is 0"
        );
    }

    /// A task that reads an object and then updates it in place through a
    /// second operand joins the version before it supersedes it: its own
    /// read must not count as a reader it waits for.
    #[test]
    fn streaming_check_has_no_self_edge_through_read_then_inout() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)],
            vec![OperandDesc::input(0x100, 64), OperandDesc::inout(0x100, 64)],
            vec![OperandDesc::input(0x100, 64)],
        ]);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(g.preds(1), &[0], "the graph has no self-edge either");
        assert_eq!(check_order(&tr, &[0, 1, 2]), Ok(()));
        assert_eq!(
            check_order(&tr, &[0, 2, 1]),
            Err(OrderViolation::ProducerAfterConsumer { producer: 1, consumer: 2 })
        );
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2]] {
            assert_eq!(check_order(&tr, &order), g.validate_order(&order), "{order:?}");
        }
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let tr = trace_of(vec![
            vec![OperandDesc::output(0x100, 64)],
            vec![OperandDesc::input(0x100, 64)],
        ]);
        let g = DepGraph::from_trace(&tr);
        let dot = g.to_dot(&tr);
        assert!(dot.contains("t0 -> t1"));
        assert!(dot.contains("label=\"1 (k)\""));
    }
}
