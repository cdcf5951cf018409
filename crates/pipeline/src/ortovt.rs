//! Object Renaming Table + its associated Object Versioning Table
//! (paper, Sections IV.B.3 and IV.B.4).
//!
//! Each ORT "is associated with exactly one OVT"; we model the pair as
//! one component with **two** serial-server timelines so each module
//! charges its own 16-cycle packet processing and 22-cycle eDRAM
//! accesses, while their shared state stays coherent (the hardware keeps
//! it coherent with a private point-to-point exchange; co-simulating the
//! pair avoids modeling that inner handshake explicitly).
//!
//! Behaviour implemented (Figures 7–9):
//!
//! - **ORT**: a 16-way logical cache over eDRAM (tags in two sequentially
//!   read 64 B blocks), mapping object base addresses to the *last user*
//!   operand and the current version. It **never evicts**: a full set
//!   (or an exhausted OVT) blocks the module head-of-line and stalls the
//!   gateway until an entry is released.
//! - **OVT**: version records with usage counts, next-version chaining,
//!   and rename buffers. Output operands get a fresh buffer from a
//!   power-of-two bucket allocator over an OS-assigned memory region
//!   (breaking WaR/WaW); inout operands chain to the previous version
//!   and receive their "output ready" only when it drains; fully drained
//!   renamed versions are copied back by DMA (accounted, not simulated
//!   byte-by-byte).

use std::collections::VecDeque;

use tss_sim::{Component, Context, Cycle, ServerTimeline, SplitMix64};
use tss_trace::Direction;

use crate::config::FrontendConfig;
use crate::gateway::Topology;
use crate::ids::{OperandRef, VersionRef};
use crate::msg::{Msg, ReadyKind};

/// Power-of-two bucket allocator for rename buffers (Section IV.B.4:
/// "a fixed number of buckets, assigned to allocate predetermined
/// power-of-2 sizes", backed by OS-assigned main memory).
///
/// Free lists are a dense array indexed by the class's bit position
/// (classes are powers of two from 64 up, so there are at most 33), not
/// a hash map: buffer grabs and returns sit on the decode hot path.
#[derive(Debug)]
pub struct BucketAlloc {
    base: u64,
    bump: u64,
    /// `free[log2(class)]` holds returned buffers of that class.
    free: Vec<Vec<u64>>,
    allocated_bytes: u64,
    peak_bytes: u64,
    grabs: u64,
}

impl BucketAlloc {
    /// A new allocator over a region starting at `base`.
    pub fn new(base: u64) -> Self {
        BucketAlloc {
            base,
            bump: 0,
            free: vec![Vec::new(); 33],
            allocated_bytes: 0,
            peak_bytes: 0,
            grabs: 0,
        }
    }

    fn class_of(size: u32) -> u32 {
        size.next_power_of_two().max(64)
    }

    /// Index of a class's free list: its (single) set bit position, with
    /// a wrapped `next_power_of_two` (0) parked in the last entry.
    fn list_of(class: u32) -> usize {
        class.trailing_zeros() as usize
    }

    /// Grabs a buffer for an object of `size` bytes.
    pub fn alloc(&mut self, size: u32) -> u64 {
        self.grabs += 1;
        let class = Self::class_of(size);
        self.allocated_bytes += class as u64;
        self.peak_bytes = self.peak_bytes.max(self.allocated_bytes);
        if let Some(addr) = self.free[Self::list_of(class)].pop() {
            return addr;
        }
        let addr = self.base + self.bump;
        self.bump += class as u64;
        addr
    }

    /// Returns a buffer of `size` bytes to its bucket.
    pub fn free(&mut self, addr: u64, size: u32) {
        let class = Self::class_of(size);
        debug_assert!(self.allocated_bytes >= class as u64, "freeing more than allocated");
        self.allocated_bytes -= class as u64;
        self.free[Self::list_of(class)].push(addr);
    }

    /// Live rename-buffer bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Peak rename-buffer bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Total allocations served.
    pub fn grabs(&self) -> u64 {
        self.grabs
    }
}

#[derive(Debug, Clone)]
struct OrtEntry {
    addr: u64,
    last_user: OperandRef,
    /// In-flight producer of the current version, if any (used by the
    /// no-chaining ablation, which registers consumers directly with
    /// the producer instead of the last user).
    last_writer: Option<OperandRef>,
    current_version: u32,
    /// Allocated version records of this object (current + undrained
    /// superseded ones). The entry is released when this drops to zero
    /// live records with a drained current version.
    live_records: u32,
}

#[derive(Debug, Clone)]
struct VersionRec {
    addr: u64,
    size: u32,
    entry_slot: u32,
    usage: u32,
    /// Total operands that ever referenced this version (writer +
    /// readers): the consumer-chain length is `users_total - 1`.
    users_total: u32,
    superseded: bool,
    /// An inout (or unrenamed output) writer waiting for this version to
    /// drain before its buffer is free.
    chained_writer: Option<OperandRef>,
    rename_buffer: Option<u64>,
}

/// One OVT record slot: generation + in-place record, so the hot
/// `ReleaseUse` path (generation check + usage countdown) touches one
/// indexed entry instead of two parallel arrays (ISSUE 5, §9.1).
#[derive(Debug, Clone)]
struct VersionEntry {
    gen: u32,
    rec: Option<VersionRec>,
}

#[derive(Debug, Clone)]
struct PendingOp {
    op: OperandRef,
    addr: u64,
    size: u32,
    dir: Direction,
}

/// Counters exported after a run.
///
/// Cache-line-aligned so an array of module stats (one per ORT/OVT
/// pair) can never false-share: the simulator core is single-threaded
/// today, but these blocks are written on every lookup, and a parallel
/// sweep driver running one `Simulation` per thread keeps each module's
/// counters on private lines (ISSUE 4 satellite; measured delta on the
/// single-threaded engine is noise-level, recorded in EXPERIMENTS.md).
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
pub struct OrtOvtStats {
    /// Operand lookups processed.
    pub lookups: u64,
    /// Lookups that hit a live entry.
    pub hits: u64,
    /// Versions created.
    pub versions_created: u64,
    /// Output renames performed.
    pub renames: u64,
    /// Drained renamed versions copied back by DMA.
    pub copybacks: u64,
    /// Bytes copied back.
    pub copyback_bytes: u64,
    /// Cycles the module spent blocked (set full / OVT exhausted).
    pub blocked_cycles: u64,
    /// Times the module blocked.
    pub blocks: u64,
    /// Peak live ORT entries.
    pub peak_entries: u32,
    /// Peak live OVT records.
    pub peak_records: u32,
    /// Histogram of consumer-chain lengths (readers per version);
    /// bucket `i` counts versions with `i` readers, the last bucket is
    /// `9+` (Figure 10: for most benchmarks 95% of chains are <= 2).
    pub chain_hist: [u64; 10],
}

/// One ORT + OVT pair.
pub struct OrtOvt {
    index: u8,
    sets: u32,
    ways: usize,
    timing: crate::config::TimingParams,
    renaming: bool,
    chaining: bool,
    topo: Topology,
    entries: Vec<Option<OrtEntry>>,
    /// Probe acceleration: `tags[slot]` mirrors `entries[slot].addr` and
    /// `live_mask[set]` has bit `w` set iff way `w` is occupied, so a
    /// set probe reads 2 cache lines of tags instead of 16 ways × 48 B
    /// of entries. Tags are only meaningful under a set live bit.
    tags: Vec<u64>,
    live_mask: Vec<u16>,
    live_entries: u32,
    versions: Vec<VersionEntry>,
    vfree: Vec<u32>,
    queue: VecDeque<PendingOp>,
    processing: bool,
    blocked: bool,
    blocked_since: Cycle,
    ort_server: ServerTimeline,
    ovt_server: ServerTimeline,
    buffers: BucketAlloc,
    stats: OrtOvtStats,
}

impl OrtOvt {
    /// Builds pair `index` of the frontend.
    pub fn new(index: u8, cfg: &FrontendConfig, topo: Topology) -> Self {
        let sets = cfg.sets_per_ort();
        let ways = cfg.ort_ways;
        assert!(ways <= 16, "the probe bitmask models at most 16 ways");
        let records = cfg.records_per_ovt();
        OrtOvt {
            index,
            sets,
            ways,
            timing: cfg.timing.clone(),
            renaming: cfg.renaming,
            chaining: cfg.chaining,
            topo,
            entries: vec![None; (sets as usize) * ways],
            tags: vec![0; (sets as usize) * ways],
            live_mask: vec![0; sets as usize],
            live_entries: 0,
            versions: vec![VersionEntry { gen: 0, rec: None }; records as usize],
            vfree: (0..records).rev().collect(),
            queue: VecDeque::with_capacity(64),
            processing: false,
            blocked: false,
            blocked_since: 0,
            ort_server: ServerTimeline::new(),
            ovt_server: ServerTimeline::new(),
            // Each OVT gets its own OS-assigned region for rename buffers.
            buffers: BucketAlloc::new((index as u64 + 1) << 40),
            stats: OrtOvtStats::default(),
        }
    }

    /// Post-run statistics.
    pub fn stats(&self) -> &OrtOvtStats {
        &self.stats
    }

    /// Rename-buffer allocator (for post-run inspection).
    pub fn buffers(&self) -> &BucketAlloc {
        &self.buffers
    }

    /// Live entries right now (should be 0 after a drained run).
    pub fn live_entries(&self) -> u32 {
        self.live_entries
    }

    /// Live version records right now.
    pub fn live_records(&self) -> u32 {
        self.versions.len() as u32 - self.vfree.len() as u32
    }

    fn set_of(&self, addr: u64) -> u32 {
        ((SplitMix64::new(addr).next_u64() >> 32) % self.sets as u64) as u32
    }

    fn find_entry(&self, addr: u64) -> Option<u32> {
        let set = self.set_of(addr) as usize;
        let mut mask = self.live_mask[set];
        while mask != 0 {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let slot = set * self.ways + w;
            if self.tags[slot] == addr {
                debug_assert_eq!(
                    self.entries[slot].as_ref().map(|e| e.addr),
                    Some(addr),
                    "tag/entry mirror out of sync"
                );
                return Some(slot as u32);
            }
        }
        None
    }

    fn free_way(&self, addr: u64) -> Option<u32> {
        let set = self.set_of(addr) as usize;
        let free = !self.live_mask[set] & ((1u32 << self.ways) - 1) as u16;
        if free == 0 {
            return None;
        }
        let w = free.trailing_zeros() as usize;
        Some((set * self.ways + w) as u32)
    }

    /// Installs `entry` in `slot`, keeping the probe mirror in sync.
    fn set_entry(&mut self, slot: u32, entry: OrtEntry) {
        let set = slot as usize / self.ways;
        let way = slot as usize % self.ways;
        self.tags[slot as usize] = entry.addr;
        self.live_mask[set] |= 1 << way;
        self.entries[slot as usize] = Some(entry);
    }

    /// Clears `slot`, keeping the probe mirror in sync.
    fn clear_entry(&mut self, slot: u32) {
        let set = slot as usize / self.ways;
        let way = slot as usize % self.ways;
        self.live_mask[set] &= !(1 << way);
        self.entries[slot as usize] = None;
    }

    fn vref(&self, idx: u32) -> VersionRef {
        VersionRef { ovt: self.index, idx, gen: self.versions[idx as usize].gen }
    }

    fn alloc_version(&mut self, addr: u64, size: u32, entry_slot: u32, rename: bool) -> u32 {
        let idx = self.vfree.pop().expect("caller checked a record is free");
        let rename_buffer = if rename { Some(self.buffers.alloc(size)) } else { None };
        if rename {
            self.stats.renames += 1;
        }
        self.versions[idx as usize].rec = Some(VersionRec {
            addr,
            size,
            entry_slot,
            usage: 1, // the creating operand holds one use
            users_total: 1,
            superseded: false,
            chained_writer: None,
            rename_buffer,
        });
        self.stats.versions_created += 1;
        self.stats.peak_records = self.stats.peak_records.max(self.live_records());
        idx
    }

    /// Frees a version record, performing the DMA copy-back accounting
    /// for renamed buffers, and notifies a chained writer if present.
    /// Returns the entry slot the record belonged to.
    fn finalize_version(&mut self, idx: u32, at: Cycle, ctx: &mut Context<'_, Msg>) -> u32 {
        let rec = self.versions[idx as usize].rec.take().expect("finalizing a live version");
        debug_assert_eq!(rec.usage, 0, "finalize requires a drained version");
        let readers = rec.users_total.saturating_sub(1) as usize;
        self.stats.chain_hist[readers.min(9)] += 1;
        if let Some(buf) = rec.rename_buffer {
            // The external DMA engine copies the temporary buffer back to
            // the original object address (Section IV).
            self.stats.copybacks += 1;
            self.stats.copyback_bytes += rec.size as u64;
            self.buffers.free(buf, rec.size);
        }
        if let Some(writer) = rec.chained_writer {
            // "data ready for output": the previous version drained.
            ctx.send_at(
                self.topo.trs[writer.task.trs as usize],
                at + self.timing.frontend_hop,
                Msg::DataReady { op: writer, buffer: rec.addr, kind: ReadyKind::Output },
            );
        }
        self.versions[idx as usize].gen += 1;
        self.vfree.push(idx);
        let entry = self.entries[rec.entry_slot as usize]
            .as_mut()
            .expect("version belongs to a live entry");
        entry.live_records -= 1;
        rec.entry_slot
    }

    /// If the entry holds only its (drained) current version, release the
    /// entry — this is what un-stalls the gateway (Section IV.B.3).
    fn maybe_teardown(&mut self, entry_slot: u32, at: Cycle, ctx: &mut Context<'_, Msg>) {
        let Some(e) = &self.entries[entry_slot as usize] else { return };
        if e.live_records != 1 {
            return;
        }
        let cur = e.current_version;
        let drained = self.versions[cur as usize]
            .rec
            .as_ref()
            .map(|v| v.usage == 0 && !v.superseded)
            .unwrap_or(false);
        if !drained {
            return;
        }
        // Free the current record (copy-back if renamed) and the entry.
        let rec = self.versions[cur as usize].rec.as_mut().expect("checked");
        debug_assert!(rec.chained_writer.is_none(), "current version cannot have a chained writer");
        rec.superseded = true; // mark so finalize's invariants hold
        self.finalize_version(cur, at, ctx);
        self.clear_entry(entry_slot);
        self.live_entries -= 1;
        self.maybe_unblock(at, ctx);
    }

    fn maybe_unblock(&mut self, at: Cycle, ctx: &mut Context<'_, Msg>) {
        if self.blocked {
            self.blocked = false;
            self.stats.blocked_cycles += at.saturating_sub(self.blocked_since);
            ctx.send_at(
                self.topo.gateway,
                at + self.timing.frontend_hop,
                Msg::OrtResumed { ort: self.index },
            );
            if !self.processing && !self.queue.is_empty() {
                self.processing = true;
                let me = ctx.self_id();
                ctx.send_at(me, at, Msg::OrtWork);
            }
        }
    }

    fn block(&mut self, ctx: &mut Context<'_, Msg>) {
        self.blocked = true;
        self.blocked_since = ctx.now();
        self.stats.blocks += 1;
        self.processing = false;
        ctx.send(self.topo.gateway, self.timing.frontend_hop, Msg::OrtStalled { ort: self.index });
    }

    /// Attempts to process the queue head. Returns the service completion
    /// time, or `None` if the head blocked.
    fn process_head(&mut self, ctx: &mut Context<'_, Msg>) -> Option<Cycle> {
        let head = self.queue.front().cloned().expect("caller checked non-empty");
        let hit_slot = self.find_entry(head.addr);
        let needs_entry = hit_slot.is_none();
        // Every decode needs a version record except a read hit (which
        // joins the current version).
        let needs_record = needs_entry || head.dir.writes();
        if needs_entry && self.free_way(head.addr).is_none() {
            self.block(ctx);
            return None;
        }
        if needs_record && self.vfree.is_empty() {
            self.block(ctx);
            return None;
        }
        self.queue.pop_front();
        self.stats.lookups += 1;
        if hit_slot.is_some() {
            self.stats.hits += 1;
        }

        // ORT service: packet processing + two sequential 64 B tag-block
        // reads (Section IV.B.3).
        let lookup_cost = self.timing.packet_cost + 2 * self.timing.edram_latency;
        let t_ort = self.ort_server.occupy(ctx.now(), lookup_cost);
        let hop = self.timing.frontend_hop;
        let trs_of = |op: OperandRef| op.task.trs as usize;

        match head.dir {
            Direction::In => {
                if let Some(slot) = hit_slot {
                    // Figure 8: forward the previous user's operand ID and
                    // join the current version. (Without chaining, the
                    // consumer registers directly with the producer.)
                    let e = self.entries[slot as usize].as_mut().expect("hit");
                    let producer = if self.chaining { Some(e.last_user) } else { e.last_writer };
                    e.last_user = head.op;
                    let cur = e.current_version;
                    let v = self.vref(cur);
                    {
                        let rec =
                            self.versions[cur as usize].rec.as_mut().expect("current is live");
                        rec.usage += 1;
                        rec.users_total += 1;
                    }
                    ctx.send_at(
                        self.topo.trs[trs_of(head.op)],
                        t_ort + hop,
                        Msg::OperandInfo {
                            op: head.op,
                            size: head.size,
                            producer,
                            version: v,
                            readies_needed: 1,
                        },
                    );
                    if producer.is_none() {
                        // No in-flight producer (read-miss-created
                        // version, no chaining): data is in memory.
                        let t_ovt = self
                            .ovt_server
                            .occupy(t_ort, self.timing.packet_cost + self.timing.edram_latency);
                        ctx.send_at(
                            self.topo.trs[trs_of(head.op)],
                            t_ovt + hop,
                            Msg::DataReady {
                                op: head.op,
                                buffer: head.addr,
                                kind: ReadyKind::Input,
                            },
                        );
                    }
                } else {
                    // Miss: the data lives in memory; create the initial
                    // version and answer ready immediately.
                    let slot = self.free_way(head.addr).expect("checked");
                    let vidx = self.alloc_version(head.addr, head.size, slot, false);
                    self.set_entry(
                        slot,
                        OrtEntry {
                            addr: head.addr,
                            last_user: head.op,
                            last_writer: None,
                            current_version: vidx,
                            live_records: 1,
                        },
                    );
                    self.live_entries += 1;
                    self.stats.peak_entries = self.stats.peak_entries.max(self.live_entries);
                    let v = self.vref(vidx);
                    ctx.send_at(
                        self.topo.trs[trs_of(head.op)],
                        t_ort + hop,
                        Msg::OperandInfo {
                            op: head.op,
                            size: head.size,
                            producer: None,
                            version: v,
                            readies_needed: 1,
                        },
                    );
                    let t_ovt = self
                        .ovt_server
                        .occupy(t_ort, self.timing.packet_cost + self.timing.edram_latency);
                    ctx.send_at(
                        self.topo.trs[trs_of(head.op)],
                        t_ovt + hop,
                        Msg::DataReady { op: head.op, buffer: head.addr, kind: ReadyKind::Input },
                    );
                }
            }
            Direction::Out | Direction::InOut => {
                let inout = head.dir == Direction::InOut;
                let rename = !inout && self.renaming;
                // Resolve (or create) the entry.
                let (slot, prev_user, prev_cur) = match hit_slot {
                    Some(slot) => {
                        let e = self.entries[slot as usize].as_ref().expect("hit");
                        let prev = if self.chaining { Some(e.last_user) } else { e.last_writer };
                        (slot, prev, Some(e.current_version))
                    }
                    None => {
                        let slot = self.free_way(head.addr).expect("checked");
                        self.set_entry(
                            slot,
                            OrtEntry {
                                addr: head.addr,
                                last_user: head.op,
                                last_writer: None,
                                current_version: 0, // fixed below
                                live_records: 0,
                            },
                        );
                        self.live_entries += 1;
                        self.stats.peak_entries = self.stats.peak_entries.max(self.live_entries);
                        (slot, None, None)
                    }
                };
                let inout_needs_memory_input = inout && prev_user.is_none() && hit_slot.is_some();
                let vidx = self.alloc_version(head.addr, head.size, slot, rename);
                {
                    let e = self.entries[slot as usize].as_mut().expect("just resolved");
                    e.last_user = head.op;
                    e.last_writer = Some(head.op);
                    e.current_version = vidx;
                    e.live_records += 1;
                }
                let v = self.vref(vidx);
                let readies_needed = if inout { 2 } else { 1 };
                // Inout consumes the previous version's data via the
                // consumer chain; pure outputs read nothing.
                let producer = if inout { prev_user } else { None };
                ctx.send_at(
                    self.topo.trs[trs_of(head.op)],
                    t_ort + hop,
                    Msg::OperandInfo {
                        op: head.op,
                        size: head.size,
                        producer,
                        version: v,
                        readies_needed,
                    },
                );

                let t_ovt = self
                    .ovt_server
                    .occupy(t_ort, self.timing.packet_cost + self.timing.edram_latency);
                if rename {
                    // Figure 7: renamed output — buffer immediately free.
                    let buf = self.versions[vidx as usize]
                        .rec
                        .as_ref()
                        .expect("live")
                        .rename_buffer
                        .expect("renamed");
                    ctx.send_at(
                        self.topo.trs[trs_of(head.op)],
                        t_ovt + hop,
                        Msg::DataReady { op: head.op, buffer: buf, kind: ReadyKind::Output },
                    );
                    // The previous version drains independently.
                    if let Some(pc) = prev_cur {
                        let drained = {
                            let p = self.versions[pc as usize].rec.as_mut().expect("live");
                            p.superseded = true;
                            p.usage == 0
                        };
                        if drained {
                            let es = self.finalize_version(pc, t_ovt, ctx);
                            debug_assert_eq!(es, slot);
                        }
                    }
                } else {
                    // Figure 9 (or the no-renaming ablation): chain to the
                    // previous version; output ready when it drains.
                    match prev_cur {
                        Some(pc) => {
                            let drained = {
                                let p = self.versions[pc as usize].rec.as_mut().expect("live");
                                p.superseded = true;
                                p.usage == 0
                            };
                            if drained {
                                let es = self.finalize_version(pc, t_ovt, ctx);
                                debug_assert_eq!(es, slot);
                                ctx.send_at(
                                    self.topo.trs[trs_of(head.op)],
                                    t_ovt + hop,
                                    Msg::DataReady {
                                        op: head.op,
                                        buffer: head.addr,
                                        kind: ReadyKind::Output,
                                    },
                                );
                            } else {
                                self.versions[pc as usize]
                                    .rec
                                    .as_mut()
                                    .expect("live")
                                    .chained_writer = Some(head.op);
                            }
                        }
                        None => {
                            // No previous version: buffer free now.
                            ctx.send_at(
                                self.topo.trs[trs_of(head.op)],
                                t_ovt + hop,
                                Msg::DataReady {
                                    op: head.op,
                                    buffer: head.addr,
                                    kind: ReadyKind::Output,
                                },
                            );
                        }
                    }
                    if inout && prev_user.is_none() {
                        // No in-flight producer: input data is in memory
                        // (miss, or no-chaining hit without a writer).
                        let _ = inout_needs_memory_input;
                        ctx.send_at(
                            self.topo.trs[trs_of(head.op)],
                            t_ovt + hop,
                            Msg::DataReady {
                                op: head.op,
                                buffer: head.addr,
                                kind: ReadyKind::Input,
                            },
                        );
                    }
                }
            }
        }
        Some(t_ort)
    }
}

impl Component<Msg> for OrtOvt {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::DecodeOperand { op, addr, size, dir } => {
                self.queue.push_back(PendingOp { op, addr, size, dir });
                if !self.processing && !self.blocked {
                    self.processing = true;
                    let me = ctx.self_id();
                    ctx.send(me, 0, Msg::OrtWork);
                }
            }
            Msg::OrtWork => {
                if self.blocked {
                    self.processing = false;
                    return;
                }
                if self.queue.is_empty() {
                    self.processing = false;
                    return;
                }
                match self.process_head(ctx) {
                    Some(t_done) => {
                        if self.queue.is_empty() {
                            self.processing = false;
                        } else {
                            let me = ctx.self_id();
                            ctx.send_at(me, t_done, Msg::OrtWork);
                        }
                    }
                    None => {
                        // Blocked: `block()` already recorded it.
                    }
                }
            }
            Msg::ReleaseUse { version } => {
                assert_eq!(version.ovt, self.index, "release routed to the wrong OVT");
                let t = self
                    .ovt_server
                    .occupy(ctx.now(), self.timing.packet_cost + self.timing.edram_latency);
                let (drained, superseded, entry_slot) = {
                    let e = &mut self.versions[version.idx as usize];
                    assert_eq!(
                        e.gen, version.gen,
                        "release of a stale version: uses must keep records alive"
                    );
                    let rec = e.rec.as_mut().expect("live version (generation checked)");
                    debug_assert!(rec.usage > 0, "usage underflow");
                    rec.usage -= 1;
                    (rec.usage == 0, rec.superseded, rec.entry_slot)
                };
                if drained {
                    if superseded {
                        self.finalize_version(version.idx, t, ctx);
                        self.maybe_teardown(entry_slot, t, ctx);
                        self.maybe_unblock(t, ctx);
                    } else {
                        self.maybe_teardown(entry_slot, t, ctx);
                    }
                }
            }
            other => panic!("ORT/OVT received unexpected message {other:?}"),
        }
    }
}
