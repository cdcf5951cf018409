//! The software renamer: an ORT/OVT-equivalent address-map frontend.
//!
//! The hardware pipeline's Object Renaming Tables map operand base
//! addresses to in-flight producers, and the Object Versioning Tables
//! give every pure `out` operand a fresh version so WaR/WaW orderings
//! vanish (paper, Figures 7 and 9). This module performs the same decode
//! in software, streaming over a [`TaskTrace`] in program order — the
//! in-order decode requirement of Section III.B — and emitting the
//! executor's runtime structures directly:
//!
//! - a CSR successor list (who to notify on completion), and
//! - a per-task *unready-operand* count (how many producers must finish
//!   before the task may issue), the O(1) readiness scheme the simulator
//!   backend already uses.
//!
//! Renaming is toggleable for ablation parity with the simulator's
//! `FrontendConfig::renaming`: with renaming **on**, only RaW and
//! inout-anti orderings are enforced (exactly the `DepGraph` oracle's
//! enforced edge set — a parity test in `tests/determinism.rs` pins
//! this); with renaming **off**, WaR and WaW orderings are enforced too,
//! mimicking a runtime without versioning.
//!
//! The decode loop is the subject of the `exec` harness's decode
//! microbench: one pass over the trace, one interned-hash probe per
//! tracked operand — the native analog of the paper's ~700 ns/task
//! software decoder measurement (Section II).
//!
//! **Table layout.** Rename state is two-level: an `AddrMap<u32>`
//! interns an address to an index, and a dense `Vec` holds one 64-byte
//! `ObjectVersion` per object — writer, reader count and 14 inline
//! readers as `u32`s, hot fields first; the one version in a hundred
//! with more readers keeps the rest in a list its entry indexes, behind
//! out-of-line calls so that the scan loop stays tight. Entries land in the `Vec`
//! in first-touch order, which is what keeps the table cache-resident.
//! Tried and dropped, so nobody repeats them (DESIGN.md §8.3,
//! EXPERIMENTS.md "PR 20"): a one-level open-addressed table of
//! cache-line entries (loses the dense order: no gain in situ), a
//! custom probe index in place of hashbrown (slower), `align(64)`
//! entries (the table can no longer grow by `realloc`: +2.8 ns/task),
//! the side-map probes inlined into the loop (+11 ns/task), sizing the
//! table from the trace length up front (scan −4, commit +2: nothing
//! left), per-task producer rows emitted by the scan (scan +13, commit
//! −14) and a hand-rolled insertion sort in `merge_window` (+6 ns/task
//! over `sort_unstable` + `dedup`).
//!
//! The rename rules are stated once in this crate — `RenameState::scan`,
//! driven by [`StreamingRenamer::decode_graph`], of which
//! [`Renamer::decode`] is the one-window case — and that
//! loop deliberately does **not** share code with `tss-trace`'s
//! `for_each_edge` or its streamed order check, although all three walk
//! traces the same way: the oracle check (every completion log
//! validated by the streamed check on a trace's first run, against
//! `DepGraph` after that) is only evidence of correctness because the
//! decoders are independent implementations. Folding them into one
//! shared helper would let a single decode bug pass the parity test and
//! every validated run. A semantic change to dependency rules must be
//! made in all three — `tests/determinism.rs` pins both renaming
//! settings to the oracle on every benchmark (and the unit parity test
//! below), and `tests/properties.rs` the streamed check to the graph;
//! each fails loudly if they drift.

use tss_trace::graph::AddrMap;
use tss_trace::{TaskId, TaskTrace};

/// What the renamer decoded a trace into: the executor's dependency
/// structures plus decode statistics.
///
/// Equality compares the full decoded structure (CSR, counters,
/// stats) — what the streaming-vs-one-shot parity tests assert on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    n: usize,
    succ_off: Vec<u32>,
    succ_dat: Vec<u32>,
    pred_count: Vec<u32>,
    stats: RenameStats,
}

/// Decode-time statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenameStats {
    /// Distinct memory objects observed (ORT entries a hardware run
    /// would have interned).
    pub objects: usize,
    /// Dependency-tracked operands decoded.
    pub tracked_operands: usize,
    /// Enforced edges after deduplication.
    pub enforced_edges: usize,
    /// WaR/WaW orderings that renaming eliminated (0 when renaming is
    /// disabled: they are enforced instead).
    pub removed_by_renaming: usize,
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Tasks to notify when `t` completes (sorted, deduplicated).
    pub fn succs(&self, t: TaskId) -> &[u32] {
        &self.succ_dat[self.succ_off[t] as usize..self.succ_off[t + 1] as usize]
    }

    /// How many producers must complete before `t` may issue.
    pub fn pred_count(&self, t: TaskId) -> u32 {
        self.pred_count[t]
    }

    /// Tasks with no producers, in program order (the initial ready set).
    pub fn roots(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.n).filter(|&t| self.pred_count[t] == 0)
    }

    /// Decode statistics.
    pub fn stats(&self) -> &RenameStats {
        &self.stats
    }

    /// The quarantine cone (DESIGN.md §11): `cone[t]` is true iff `t`
    /// is a *strict* transitive successor of some task with `failed[t]`
    /// set (the failed tasks themselves are not in the cone — they are
    /// accounted as failed, not poisoned). Forward scan suffices: succ
    /// edges always point to later tasks, so by the time `t` is
    /// visited every producer's cone membership is final. This is the
    /// chaos suite's reachability oracle for the executor's poison
    /// propagation.
    pub fn poison_cone(&self, failed: &[bool]) -> Vec<bool> {
        assert_eq!(failed.len(), self.n, "failed mask length mismatch");
        let mut cone = vec![false; self.n];
        for t in 0..self.n {
            if failed[t] || cone[t] {
                for &s in self.succs(t) {
                    cone[s as usize] = true;
                }
            }
        }
        cone
    }
}

/// `ObjectVersion::last_writer` of a version nobody has written. Task
/// ids stay below it ([`RenameState::scan`] checks).
const NO_WRITER: u32 = u32::MAX;

/// Readers of one version held inside its entry: what fills the line.
/// Consumer chains are short (Figure 10) — over the nine paper-scale
/// traces 1.1% of versions have more readers than this (3.5% had more
/// than the 8 an entry used to hold).
const INLINE_READERS: usize = 14;

/// One in-flight version of a memory object, as the ORTs track it: 64
/// bytes — a cache line's worth, hot fields first — owning no heap. A
/// version with more than [`INLINE_READERS`] readers keeps the rest in
/// a list of the table's (`RenameState::spilled`), reached from the
/// entry: its last reader slot then holds the list's index
/// ([`SPILL_LINK`]), so the common entry pays for no `Vec` header and
/// the rare one for no hash probe. Deliberately *not* `align(64)`: an
/// over-aligned `Vec` cannot grow through `realloc`, and copying the
/// table at every doubling cost the scan more (+2.8 ns/task) than
/// entries straddling two lines do (EXPERIMENTS.md "PR 20").
#[derive(Debug)]
#[repr(C)]
struct ObjectVersion {
    last_writer: u32,
    /// Readers of the current version, the spilled ones included.
    readers_len: u32,
    readers: [u32; INLINE_READERS],
}

const _: () = assert!(std::mem::size_of::<ObjectVersion>() == 64);

/// The reader slot a spilled version turns into the index of its list
/// (the reader it held moves to the head of that list).
const SPILL_LINK: usize = INLINE_READERS - 1;

impl ObjectVersion {
    const UNWRITTEN: ObjectVersion =
        ObjectVersion { last_writer: NO_WRITER, readers_len: 0, readers: [0; INLINE_READERS] };

    fn has_spilled(&self) -> bool {
        self.readers_len as usize > INLINE_READERS
    }

    /// The readers held in the entry itself: all of them, or — once the
    /// version has spilled — the ones before the link.
    fn inline_readers(&self) -> &[u32] {
        let held = if self.has_spilled() { SPILL_LINK } else { self.readers_len as usize };
        &self.readers[..held]
    }
}

/// Reader lists of the versions with more than [`INLINE_READERS`]
/// readers, each reached through its entry's [`SPILL_LINK`] slot — an
/// index, where a side map keyed by the entry cost one hash probe per
/// spilled reader (versions that spill have up to a thousand). A list
/// outlives its version: an overwritten version's goes back to `free`,
/// emptied, for the next one that spills. Both accessors are out of
/// line — one version in a hundred comes here, and inlining them is
/// what made the scan loop +11 ns/task slower (DESIGN.md §8.3).
#[derive(Debug, Default)]
struct SpilledReaders {
    lists: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl SpilledReaders {
    /// Adds `reader` to `version`, whose entry is full.
    #[cold]
    #[inline(never)]
    fn push(&mut self, version: &mut ObjectVersion, reader: u32) {
        if version.readers_len as usize == INLINE_READERS {
            let list = self.free.pop().unwrap_or_else(|| {
                self.lists.push(Vec::new());
                (self.lists.len() - 1) as u32
            });
            self.lists[list as usize].push(version.readers[SPILL_LINK]);
            version.readers[SPILL_LINK] = list;
        }
        self.lists[version.readers[SPILL_LINK] as usize].push(reader);
    }

    /// Hands the spilled readers of `version` to `each` and forgets
    /// them.
    #[cold]
    #[inline(never)]
    fn drain(&mut self, version: &ObjectVersion, each: &mut dyn FnMut(u32)) {
        let list = version.readers[SPILL_LINK];
        self.lists[list as usize].drain(..).for_each(each);
        self.free.push(list);
    }
}

/// The software renamer.
#[derive(Debug, Clone)]
pub struct Renamer {
    renaming: bool,
}

impl Default for Renamer {
    fn default() -> Self {
        Renamer::new()
    }
}

impl Renamer {
    /// A renamer with operand renaming enabled (the paper's default).
    pub fn new() -> Self {
        Renamer { renaming: true }
    }

    /// Enables or disables renaming (ablation: without versioning, WaR
    /// and WaW orderings against `out` operands are enforced).
    pub fn renaming(mut self, on: bool) -> Self {
        self.renaming = on;
        self
    }

    /// Decodes `trace` into a [`TaskGraph`] by one in-order pass: the
    /// [`StreamingRenamer`] with the whole trace as its single window,
    /// so the rename rules *and* the pair merge are each stated once.
    pub fn decode(&self, trace: &TaskTrace) -> TaskGraph {
        StreamingRenamer::new().renaming(self.renaming).window(trace.len()).decode_graph(trace)
    }
}

// ---------------------------------------------------------------------
// Streaming renamer
// ---------------------------------------------------------------------

/// The sequential rename state: one ORT/OVT for every address the
/// trace touches. The paper splits its ORTs into address-interleaved
/// modules so that their renaming rates add up; in software a split
/// table is a pass over every operand per part, so there is one
/// (DESIGN.md §8.3).
#[derive(Debug)]
pub(crate) struct RenameState {
    renaming: bool,
    /// Address → index into `versions`. Two levels on purpose: entries
    /// land in `versions` in first-touch order, which is what keeps the
    /// table cache-resident on the paper traces — a one-level
    /// open-addressed table of cache-line entries lost exactly that
    /// (DESIGN.md §8.3).
    map: AddrMap<u32>,
    versions: Vec<ObjectVersion>,
    spilled: SpilledReaders,
    stats: RenameStats,
}

impl RenameState {
    pub(crate) fn new(renaming: bool) -> Self {
        RenameState {
            renaming,
            map: AddrMap::with_capacity_and_hasher(64, Default::default()),
            versions: Vec::with_capacity(64),
            spilled: SpilledReaders::default(),
            stats: RenameStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> &RenameStats {
        &self.stats
    }

    /// Scans tasks `[lo, hi)` of `trace`, appending `(consumer,
    /// producer)` pairs. Pairs are emitted with `consumer` ascending
    /// (scan order); the per-consumer producer sets may hold duplicates
    /// (deduplicated at the window merge).
    ///
    /// Must be called with contiguous, in-order ranges: the rename
    /// state is sequential.
    ///
    /// # Panics
    ///
    /// Panics if a task id in the range does not fit below the `u32`
    /// writer sentinel.
    pub(crate) fn scan(
        &mut self,
        trace: &TaskTrace,
        lo: usize,
        hi: usize,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        assert!(hi <= NO_WRITER as usize, "task ids must fit below the renamer's u32 sentinel");
        let RenameState { renaming, map, versions, spilled, stats } = self;
        let renaming = *renaming;
        for tid in lo..hi {
            let t = tid as u32;
            for op in trace.task(tid).operands.iter().filter(|o| o.is_tracked()) {
                stats.tracked_operands += 1;
                let id = *map.entry(op.addr).or_insert_with(|| {
                    versions.push(ObjectVersion::UNWRITTEN);
                    (versions.len() - 1) as u32
                });
                let st = &mut versions[id as usize];
                let writer = st.last_writer;
                if op.dir.reads() && writer != NO_WRITER && writer != t {
                    pairs.push((t, writer)); // RaW
                }
                if op.dir.writes() {
                    let inout = op.dir.reads();
                    let enforced = inout || !renaming;
                    let mut ordered_before = |r: u32| match (r != t, enforced) {
                        (true, true) => pairs.push((t, r)), // anti / WaR
                        (true, false) => stats.removed_by_renaming += 1,
                        (false, _) => {}
                    };
                    st.inline_readers().iter().copied().for_each(&mut ordered_before);
                    if st.has_spilled() {
                        spilled.drain(st, &mut ordered_before);
                    }
                    if writer != NO_WRITER && writer != t && !inout {
                        if renaming {
                            stats.removed_by_renaming += 1; // WaW renamed away
                        } else {
                            pairs.push((t, writer));
                        }
                    }
                    st.last_writer = t;
                    st.readers_len = 0;
                }
                if op.dir.reads() {
                    match st.readers.get_mut(st.readers_len as usize) {
                        Some(slot) => *slot = t,
                        None => spilled.push(st, t),
                    }
                    st.readers_len += 1;
                }
            }
        }
        stats.objects = versions.len();
    }
}

/// Merges one window's pair buffer, as [`RenameState::scan`] left it
/// (consumer-ascending): for every task in `[lo, hi)`, in program
/// order, gathers its producers, sorts and deduplicates them, and
/// hands `(task, sorted unique producers)` to `commit`. `scratch` is
/// reused storage.
///
/// Per-task dedup here is a global pair dedup (a `(p, s)` pair is
/// unique iff it is unique within `s`'s set), so the decoded graph does
/// not depend on where the window boundaries fall — `tests/streaming.rs`
/// pins every window size bit-identical to the single-window one.
pub(crate) fn merge_window(
    lo: usize,
    hi: usize,
    pairs: &[(u32, u32)],
    scratch: &mut Vec<u32>,
    mut commit: impl FnMut(u32, &[u32]),
) {
    let mut pairs = pairs.iter().peekable();
    for s in lo..hi {
        let s = s as u32;
        scratch.clear();
        while let Some(&(_, p)) = pairs.next_if(|&&(c, _)| c == s) {
            scratch.push(p);
        }
        scratch.sort_unstable();
        scratch.dedup();
        commit(s, scratch);
    }
}

/// The streaming face of the renamer: decode in **windows**, so a
/// consumer can start executing window 0 while window 1 is still being
/// decoded.
///
/// This type materializes graphs — for [`Renamer::decode`], tests and
/// offline use; the live overlapped pipeline (workers decoding between
/// the tasks they execute) is assembled in [`crate::executor`] from the
/// same `RenameState` / `merge_window` building blocks.
#[derive(Debug, Clone)]
pub struct StreamingRenamer {
    renaming: bool,
    window: usize,
}

impl Default for StreamingRenamer {
    fn default() -> Self {
        StreamingRenamer::new()
    }
}

impl StreamingRenamer {
    /// Defaults: renaming on, 1024-task windows.
    pub fn new() -> Self {
        StreamingRenamer { renaming: true, window: 1024 }
    }

    /// Enables or disables renaming (see [`Renamer::renaming`]).
    pub fn renaming(mut self, on: bool) -> Self {
        self.renaming = on;
        self
    }

    /// Sets the decode window size (tasks committed per batch; ≥ 1).
    pub fn window(mut self, tasks: usize) -> Self {
        self.window = tasks.max(1);
        self
    }

    /// Decodes `trace` window by window and materializes its
    /// [`TaskGraph`] — the same one (bit-identical CSR, counters, and
    /// stats) at every window size; the parity proptest in
    /// `tests/streaming.rs` pins this.
    pub fn decode_graph(&self, trace: &TaskTrace) -> TaskGraph {
        let n = trace.len();
        let mut state = RenameState::new(self.renaming);
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut pred_count = vec![0u32; n];
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + self.window).min(n);
            buf.clear();
            state.scan(trace, lo, hi, &mut buf);
            merge_window(lo, hi, &buf, &mut scratch, |s, preds| {
                pred_count[s as usize] = preds.len() as u32;
                for &p in preds {
                    pairs.push((p, s));
                }
            });
            lo = hi;
        }
        pairs.sort_unstable();
        let (succ_off, succ_dat) = build_csr_sorted(n, &pairs);
        let stats = RenameStats { enforced_edges: succ_dat.len(), ..state.stats };
        TaskGraph { n, succ_off, succ_dat, pred_count, stats }
    }
}

/// CSR adjacency from an already-sorted, already-unique pair list.
fn build_csr_sorted(n: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for &(from, _) in pairs.iter() {
        off[from as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let dat = pairs.iter().map(|&(_, to)| to).collect();
    (off, dat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::graph::classified_edges;
    use tss_trace::{DepGraph, OperandDesc, TaskTrace};

    fn chain() -> TaskTrace {
        let mut tr = TaskTrace::new("chain");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0x100, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0x100, 64), OperandDesc::output(0x200, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0x200, 64)]);
        tr
    }

    #[test]
    fn decodes_a_producer_consumer_chain() {
        let g = Renamer::new().decode(&chain());
        assert_eq!(g.len(), 3);
        assert_eq!(g.succs(0), &[1]);
        assert_eq!(g.succs(1), &[2]);
        assert_eq!(g.pred_count(0), 0);
        assert_eq!(g.pred_count(1), 1);
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.stats().enforced_edges, 2);
        assert_eq!(g.stats().objects, 2);
    }

    #[test]
    fn renaming_matches_the_oracle_enforced_set() {
        let tr = chain();
        let oracle = DepGraph::from_trace(&tr);
        let g = Renamer::new().decode(&tr);
        for t in 0..tr.len() {
            assert_eq!(g.succs(t), oracle.succs(t));
            assert_eq!(g.pred_count(t) as usize, oracle.preds(t).len());
        }
    }

    #[test]
    fn disabling_renaming_enforces_waw_and_war() {
        let mut tr = TaskTrace::new("ww");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0x100, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0x100, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::output(0x100, 64)]); // WaW vs 0, WaR vs 1
        let with = Renamer::new().decode(&tr);
        assert_eq!(with.pred_count(2), 0);
        assert_eq!(with.stats().removed_by_renaming, 2);
        let without = Renamer::new().renaming(false).decode(&tr);
        assert_eq!(without.pred_count(2), 2);
        assert_eq!(without.stats().removed_by_renaming, 0);
    }

    #[test]
    fn poison_cone_is_the_strict_successor_closure() {
        // diamond 0 → {1, 2} → 3 plus an independent task 4
        let mut tr = TaskTrace::new("diamond");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0xA, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xB, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xC, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xB, 64), OperandDesc::input(0xC, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::output(0xD, 64)]);
        let g = Renamer::new().decode(&tr);
        // Root fails: everything downstream is in the cone, the failed
        // task and the independent task are not.
        let mut failed = vec![false; 5];
        failed[0] = true;
        assert_eq!(g.poison_cone(&failed), vec![false, true, true, true, false]);
        // A mid-graph failure only reaches the join.
        let mut failed = vec![false; 5];
        failed[1] = true;
        assert_eq!(g.poison_cone(&failed), vec![false, false, false, true, false]);
        // A sink failure poisons nothing.
        let mut failed = vec![false; 5];
        failed[3] = true;
        assert_eq!(g.poison_cone(&failed), vec![false; 5]);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        // Two RaW edges over different objects between the same pair.
        let mut tr = TaskTrace::new("dup");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0xA, 64), OperandDesc::output(0xB, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::input(0xB, 64)]);
        let g = Renamer::new().decode(&tr);
        assert_eq!(g.succs(0), &[1]);
        assert_eq!(g.pred_count(1), 1);
    }

    #[test]
    fn empty_trace_decodes_to_an_empty_graph() {
        let g = Renamer::new().decode(&TaskTrace::new("empty"));
        assert!(g.is_empty());
        assert_eq!(g.roots().count(), 0);
        let s = StreamingRenamer::new().decode_graph(&TaskTrace::new("empty"));
        assert!(s.is_empty());
    }

    #[test]
    fn streaming_matches_one_shot_on_unit_traces() {
        let mut waw = TaskTrace::new("ww");
        let k = waw.add_kernel("k");
        waw.push_task(k, 10, vec![OperandDesc::output(0x100, 64)]);
        waw.push_task(k, 10, vec![OperandDesc::input(0x100, 64)]);
        waw.push_task(k, 10, vec![OperandDesc::output(0x100, 64)]);
        for trace in [chain(), waw] {
            for renaming in [true, false] {
                let oneshot = Renamer::new().renaming(renaming).decode(&trace);
                for window in [1, 2, 64] {
                    let streamed = StreamingRenamer::new()
                        .renaming(renaming)
                        .window(window)
                        .decode_graph(&trace);
                    assert_eq!(streamed, oneshot, "window {window}, renaming {renaming}");
                }
            }
        }
    }

    /// Versions with more readers than an entry holds inline: the
    /// spilled readers must be ordered before an `inout` writer
    /// (enforced either way) and before an `out` writer (renamed away,
    /// or enforced with renaming off), and a version's spilled list
    /// must not leak into the next version of the same object — held
    /// to the independent `DepGraph` edge for edge, in windows that cut
    /// the reader runs.
    #[test]
    fn spilled_readers_agree_with_the_oracle_under_inout_and_out_writers() {
        let mut tr = TaskTrace::new("wide");
        let k = tr.add_kernel("k");
        let obj = OperandDesc::input(0x100, 64).addr;
        let readers = |tr: &mut TaskTrace, n: usize| {
            for _ in 0..n {
                tr.push_task(k, 10, vec![OperandDesc::input(obj, 64)]);
            }
        };
        tr.push_task(k, 10, vec![OperandDesc::output(obj, 64)]);
        readers(&mut tr, INLINE_READERS + 6);
        tr.push_task(k, 10, vec![OperandDesc::inout(obj, 64)]);
        readers(&mut tr, INLINE_READERS + 3);
        tr.push_task(k, 10, vec![OperandDesc::output(obj, 64)]);
        readers(&mut tr, 2);
        tr.push_task(k, 10, vec![OperandDesc::inout(obj, 64)]);
        let edges = classified_edges(&tr);
        let pairs_of = |g: &TaskGraph| -> Vec<(u32, u32)> {
            (0..g.len()).flat_map(|t| g.succs(t).iter().map(move |&s| (t as u32, s))).collect()
        };
        let decode =
            |renaming| StreamingRenamer::new().renaming(renaming).window(7).decode_graph(&tr);
        let on = decode(true);
        let enforced: Vec<(u32, u32)> =
            edges.iter().filter(|e| e.kind.enforced()).map(|e| (e.from, e.to)).collect();
        let mut expect = enforced.clone();
        expect.sort_unstable();
        assert_eq!(pairs_of(&on), expect, "renaming on");
        assert_eq!(on.stats().removed_by_renaming, edges.len() - enforced.len());
        // All of it is the out writer's: its WaW, and a WaR per
        // reader of the version before it — the inout task that
        // wrote that version (it reads it too) and the
        // INLINE_READERS + 3 after it.
        assert_eq!(on.stats().removed_by_renaming, 1 + 1 + INLINE_READERS + 3);
        let off = decode(false);
        let mut expect: Vec<(u32, u32)> = edges.iter().map(|e| (e.from, e.to)).collect();
        expect.sort_unstable();
        expect.dedup(); // task 21 → 39 is both a WaR and a WaW
        assert_eq!(pairs_of(&off), expect, "renaming off");
        assert_eq!(off.stats().removed_by_renaming, 0);
    }
}
