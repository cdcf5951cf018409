//! Task Reservation Stations (paper, Section IV.B.2).
//!
//! A TRS stores the meta-data of in-flight tasks in its private eDRAM
//! (128 B blocks, inode layout — see [`crate::blocks`]) and thereby
//! *embeds the task dependency graph*: each operand records at most one
//! chained consumer (Figure 10), producers notify the first consumer on
//! task finish, and every consumer forwards the `DataReady` to its
//! successor on receipt.
//!
//! TRSs are directly addressed — incoming messages carry the task slot —
//! so no associative lookup is needed. Slot reuse is guarded by
//! generation counters: a `RegisterConsumer` that reaches a recycled slot
//! proves the producer already finished, so the consumer is answered
//! "data ready" immediately.
//!
//! # Host data layout (ISSUE 5, DESIGN.md §9.1)
//!
//! Task slots live in a dense `Vec<SlotEntry>` indexed by slot id (the
//! id *is* the task's main block index, handed out low-first by
//! [`BlockStore`] and bounded by the configured block count). Every hot
//! message resolves to exactly one slot + one operand, so the layout is
//! tuned for that access: the generation counter lives *inside* the
//! entry (not a parallel array — one random access, not two), the first
//! `INLINE_OPS` operands are stored inline (no heap hop behind a
//! dependent pointer load), and each operand's chained consumer is an
//! inline `Option` (a `Vec` spill exists only for the no-chaining
//! ablation). Slots are recycled **in place**: a finished task bumps the
//! generation and clears the live flag; nothing is moved, dropped, or
//! reallocated on the steady-state path.

use std::sync::Arc;

use tss_sim::{Component, Context, Cycle, ServerTimeline};
use tss_trace::{Direction, OperandKind, TaskId, TaskTrace};

use crate::blocks::{blocks_for_operands, BlockStore};
use crate::config::FrontendConfig;
use crate::gateway::Topology;
use crate::ids::{OperandRef, TaskRef, VersionRef};
use crate::msg::{Msg, ReadyKind};

/// Operands stored inline in the slot entry. Eight covers nearly every
/// task of all nine Table-I benchmarks including H264's >6-operand
/// macroblocks (measured: 8 beats 4 on H264 with no regression
/// elsewhere); wider tasks spill to a per-slot `Vec` whose capacity is
/// recycled with the slot. The value trades operand-lookup locality
/// against slot footprint.
const INLINE_OPS: usize = 8;

#[derive(Debug, Clone)]
struct OperandSlot {
    dir: Direction,
    is_scalar: bool,
    version: Option<VersionRef>,
    /// Chained consumer (Figure 10): with consumer chaining at most one
    /// exists (the ORT always points newcomers at the last user), stored
    /// inline. The no-chaining ablation's longer lists overflow to the
    /// TRS-level side table (`Trs::overflow_consumers`) so the hot
    /// operand stays small.
    consumer: Option<OperandRef>,
    /// Whether this operand has overflow consumers in the side table.
    consumer_overflow: bool,
    /// The "producer" was an earlier operand of the same task: the data
    /// this operand stands for is produced by its own task, so chain
    /// forwarding must wait for task finish (like a writer).
    self_produced: bool,
    data_ready: bool,
    buffer: u64,
    readies_needed: u8,
    readies_got: u8,
    info_received: bool,
}

impl OperandSlot {
    fn empty() -> Self {
        OperandSlot {
            dir: Direction::In,
            is_scalar: false,
            version: None,
            consumer: None,
            consumer_overflow: false,
            self_produced: false,
            data_ready: false,
            buffer: 0,
            readies_needed: 0,
            readies_got: 0,
            info_received: false,
        }
    }

    /// Resets for a fresh task. The caller clears any overflow list
    /// (recycled slots cannot carry one: overflow only outlives a task
    /// in the no-chaining ablation, and is purged on task finish).
    fn reset(&mut self, dir: Direction, is_scalar: bool) {
        self.dir = dir;
        self.is_scalar = is_scalar;
        self.version = None;
        self.consumer = None;
        debug_assert!(!self.consumer_overflow, "overflow must be purged on finish");
        self.self_produced = false;
        self.data_ready = false;
        self.buffer = 0;
        self.readies_needed = 0;
        self.readies_got = 0;
        self.info_received = false;
    }
}

/// Decode lifecycle of a slot. The paper's intermediate "ready" state
/// (decoded, waiting in the ready queue) lives in the backend's queuing
/// system; inside the TRS a task goes straight from decoding to running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Decoding,
    Running,
}

#[derive(Debug)]
struct TaskSlot {
    trace_id: TaskId,
    /// Occupied block ids, inline: the inode layout caps a task at 4
    /// blocks, so no per-task heap allocation is needed.
    blocks: [u32; 4],
    block_count: u8,
    op_len: u8,
    infos_pending: u8,
    /// Operands still waiting for readies (`readies_got <
    /// readies_needed`), maintained incrementally so readiness checks
    /// are O(1) instead of rescanning every operand per message.
    unready_ops: u8,
    state: SlotState,
    decode_done: Option<Cycle>,
    /// The first `INLINE_OPS` operands, in place.
    ops: [OperandSlot; INLINE_OPS],
    /// Operands `INLINE_OPS..op_len` (rare; capacity recycled).
    ops_spill: Vec<OperandSlot>,
}

impl TaskSlot {
    fn empty() -> Self {
        TaskSlot {
            trace_id: 0,
            blocks: [0; 4],
            block_count: 0,
            op_len: 0,
            infos_pending: 0,
            unready_ops: 0,
            state: SlotState::Decoding,
            decode_done: None,
            ops: std::array::from_fn(|_| OperandSlot::empty()),
            ops_spill: Vec::new(),
        }
    }

    #[inline]
    fn op(&self, i: usize) -> &OperandSlot {
        if i < INLINE_OPS {
            &self.ops[i]
        } else {
            &self.ops_spill[i - INLINE_OPS]
        }
    }

    #[inline]
    fn op_mut(&mut self, i: usize) -> &mut OperandSlot {
        if i < INLINE_OPS {
            &mut self.ops[i]
        } else {
            &mut self.ops_spill[i - INLINE_OPS]
        }
    }

    fn ops_iter(&self) -> impl Iterator<Item = &OperandSlot> {
        let inline = (self.op_len as usize).min(INLINE_OPS);
        self.ops[..inline].iter().chain(self.ops_spill.iter())
    }

    /// O(1) readiness test (the full scan survives as a debug check).
    fn all_ready(&self) -> bool {
        debug_assert_eq!(
            self.unready_ops == 0,
            self.ops_iter().all(|o| o.readies_got >= o.readies_needed),
            "unready_ops counter out of sync"
        );
        self.infos_pending == 0 && self.unready_ops == 0
    }
}

/// One dense slot entry: generation + live flag + in-place task storage.
/// Everything a hot message needs is behind a single indexed access.
struct SlotEntry {
    gen: u32,
    live: bool,
    task: TaskSlot,
}

impl SlotEntry {
    fn empty() -> Self {
        SlotEntry { gen: 0, live: false, task: TaskSlot::empty() }
    }
}

/// Counters exported after a run.
///
/// Cache-line-aligned for the same reason as
/// [`OrtOvtStats`](crate::ortovt::OrtOvtStats): per-module counter
/// blocks must not share lines across modules (ISSUE 4 satellite).
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
pub struct TrsStats {
    /// Tasks allocated in this TRS.
    pub tasks_allocated: u64,
    /// Allocation requests rejected for lack of blocks.
    pub allocs_rejected: u64,
    /// Peak simultaneously in-flight tasks (window occupancy share).
    pub peak_in_flight: u32,
    /// `DataReady` messages forwarded along consumer chains.
    pub chain_forwards: u64,
    /// `RegisterConsumer` messages answered from a recycled slot
    /// (producer had already finished).
    pub stale_registers: u64,
    /// Fraction-of-storage-wasted samples (internal fragmentation), one
    /// per allocated task.
    pub waste_sum: f64,
    /// Decode completion timestamps ("additions to the task graph").
    pub decode_times: Vec<Cycle>,
}

/// One task reservation station.
pub struct Trs {
    index: u8,
    trace: Arc<TaskTrace>,
    timing: crate::config::TimingParams,
    chaining: bool,
    block_bytes: u64,
    topo: Topology,
    store: BlockStore,
    slots: Vec<SlotEntry>,
    /// Consumers beyond each operand's inline slot, keyed by
    /// `(slot, operand)`. Populated only by the no-chaining ablation
    /// (with chaining an operand has at most one consumer), so the hot
    /// layout never pays for the list.
    overflow_consumers: std::collections::HashMap<(u32, u8), Vec<OperandRef>>,
    server: ServerTimeline,
    reported_full: bool,
    in_flight: u32,
    stats: TrsStats,
}

impl Trs {
    /// Builds TRS `index`.
    pub fn new(index: u8, trace: Arc<TaskTrace>, cfg: &FrontendConfig, topo: Topology) -> Self {
        let blocks = cfg.blocks_per_trs();
        Trs {
            index,
            trace,
            timing: cfg.timing.clone(),
            chaining: cfg.chaining,
            block_bytes: cfg.trs_block_bytes,
            topo,
            store: BlockStore::new(blocks, cfg.timing.edram_latency),
            slots: Vec::new(),
            overflow_consumers: std::collections::HashMap::new(),
            server: ServerTimeline::new(),
            reported_full: false,
            in_flight: 0,
            stats: TrsStats::default(),
        }
    }

    /// Post-run statistics.
    pub fn stats(&self) -> &TrsStats {
        &self.stats
    }

    /// Module busy cycles.
    pub fn busy_cycles(&self) -> Cycle {
        self.server.busy_cycles()
    }

    /// Tasks currently in flight (0 after a drained run).
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// The block store (for post-run inspection).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The live task in `slot`, if any.
    fn slot(&mut self, slot: u32) -> Option<&mut TaskSlot> {
        match self.slots.get_mut(slot as usize) {
            Some(e) if e.live => Some(&mut e.task),
            _ => None,
        }
    }

    /// The slot entry for a directly-addressed message, with the
    /// release-mode generation check every such message must pass
    /// (stale-slot delivery is a protocol bug, never noise).
    #[inline]
    fn live_entry(&mut self, slot: u32, gen: u32, what: &str) -> &mut TaskSlot {
        let e = &mut self.slots[slot as usize];
        assert!(e.live && e.gen == gen, "{what} addressed a recycled slot");
        &mut e.task
    }

    /// Grows the dense vector up to the slot id (which `BlockStore`
    /// bounds by capacity) and returns the entry for (re)initialization.
    fn entry_for_install(&mut self, slot: u32) -> &mut SlotEntry {
        let i = slot as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, SlotEntry::empty);
        }
        debug_assert!(!self.slots[i].live, "slot {slot} double-allocated");
        &mut self.slots[i]
    }

    fn occupy(&mut self, now: Cycle, cost: Cycle) -> Cycle {
        self.server.occupy(now, cost)
    }

    fn check_ready(&mut self, slot: u32, at: Cycle, ctx: &mut Context<'_, Msg>) {
        // Copy the send parameters first so the slot is looked up and
        // borrowed exactly once (this runs once per frontend message).
        let backend = self.topo.backend;
        let hop = self.timing.frontend_hop;
        let trs = self.index;
        let Some(e) = self.slots.get_mut(slot as usize).filter(|e| e.live) else { return };
        let task = TaskRef { trs, slot, gen: e.gen };
        let s = &mut e.task;
        if s.state == SlotState::Decoding && s.all_ready() {
            s.state = SlotState::Running;
            let trace_id = s.trace_id;
            // Push into the ready queue (the backend's queuing system).
            ctx.send_at(backend, at + hop, Msg::TaskReady { task, trace_id });
        }
    }

    /// Handles a `DataReady` for `op` at service completion `at`.
    ///
    /// This is the hottest frontend handler (one per ready notification,
    /// plus chain traffic): a single slot access resolves generation,
    /// task header, and the operand, and sibling fields (`stats`,
    /// `topo`, `timing`) stay accessible through disjoint field borrows.
    fn apply_data_ready(
        &mut self,
        op: OperandRef,
        buffer: u64,
        kind: ReadyKind,
        at: Cycle,
        ctx: &mut Context<'_, Msg>,
    ) {
        debug_assert_eq!(op.task.trs, self.index, "DataReady routed to the wrong TRS");
        let hop = self.timing.frontend_hop;
        let e = &mut self.slots[op.task.slot as usize];
        assert!(
            e.live && e.gen == op.task.gen,
            "DataReady for a recycled slot: operands must be ready before a task finishes"
        );
        let s = &mut e.task;
        let o = s.op_mut(op.index as usize);
        o.readies_got += 1;
        debug_assert!(
            o.readies_got <= o.readies_needed.max(1),
            "operand {op} received more readies than needed"
        );
        // Crossing from waiting to satisfied retires this operand from
        // the slot's incremental unready count (a `readies_needed` of 0
        // never registered, so only an exact crossing decrements).
        let crossed = o.readies_needed > 0 && o.readies_got == o.readies_needed;
        let mut forward = false;
        if kind == ReadyKind::Input {
            o.data_ready = true;
            o.buffer = buffer;
            // Readers forward along the chain on receipt (Figure 10);
            // writers (and self-produced readers) notify their consumer
            // only when the task finishes.
            forward = !o.dir.writes() && !o.self_produced;
        } else if o.buffer == 0 {
            o.buffer = buffer;
        }
        if crossed {
            debug_assert!(s.unready_ops > 0, "unready_ops underflow");
            s.unready_ops -= 1;
        }
        if forward {
            let o = s.op(op.index as usize);
            let overflow = o.consumer_overflow;
            if let Some(next) = o.consumer {
                self.stats.chain_forwards += 1;
                ctx.send_at(
                    self.topo.trs[next.task.trs as usize],
                    at + hop,
                    Msg::DataReady { op: next, buffer, kind: ReadyKind::Input },
                );
            }
            if overflow {
                // No-chaining ablation: the rest of the list lives in
                // the side table.
                if let Some(rest) = self.overflow_consumers.get(&(op.task.slot, op.index)) {
                    for next in rest {
                        self.stats.chain_forwards += 1;
                        ctx.send_at(
                            self.topo.trs[next.task.trs as usize],
                            at + hop,
                            Msg::DataReady { op: *next, buffer, kind: ReadyKind::Input },
                        );
                    }
                }
            }
        }
        // Inline readiness check: the chain forwards above must precede
        // the TaskReady in the queue (FIFO determinism).
        if s.state == SlotState::Decoding && s.all_ready() {
            s.state = SlotState::Running;
            let trace_id = s.trace_id;
            ctx.send_at(self.topo.backend, at + hop, Msg::TaskReady { task: op.task, trace_id });
        }
    }
}

impl Component<Msg> for Trs {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let hop = self.timing.frontend_hop;
        match msg {
            // --------------------------------------------------- Figure 6
            Msg::AllocTask { trace_id, operand_count, gw_buf } => {
                let need = blocks_for_operands(operand_count as usize);
                let reply_to = self.topo.gateway;
                let mut blocks = [0u32; 4];
                if let Some(cost_cycles) = self.store.alloc_into(&mut blocks[..need as usize]) {
                    // Packet processing + allocation (SRAM/eDRAM) + main
                    // block initialization.
                    let cost = self.timing.packet_cost + cost_cycles + self.timing.edram_latency;
                    let t = self.occupy(ctx.now(), cost);
                    let slot = blocks[0];
                    let index = self.index;
                    // Local handle so the task borrow stays disjoint
                    // from the slot-entry borrow below.
                    let trace = Arc::clone(&self.trace);
                    let task = trace.task(trace_id);
                    let waste =
                        crate::blocks::fragmentation_waste(task.operands.len(), self.block_bytes);
                    self.stats.waste_sum += waste;
                    self.stats.tasks_allocated += 1;
                    self.in_flight += 1;
                    self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
                    // In-place (re)initialization: reset exactly the
                    // operands this task uses; spare spill capacity (and
                    // each consumer list's allocation) survives churn.
                    let op_len = task.operands.len();
                    let e = self.entry_for_install(slot);
                    e.live = true;
                    let s = &mut e.task;
                    s.trace_id = trace_id;
                    s.blocks = blocks;
                    s.block_count = need as u8;
                    s.op_len = op_len as u8;
                    s.infos_pending = op_len as u8;
                    s.unready_ops = 0;
                    s.state = SlotState::Decoding;
                    s.decode_done = None;
                    s.ops_spill.truncate(op_len.saturating_sub(INLINE_OPS));
                    for (i, od) in task.operands.iter().enumerate() {
                        let is_scalar = od.kind == OperandKind::Scalar;
                        if i < INLINE_OPS {
                            s.ops[i].reset(od.dir, is_scalar);
                        } else if let Some(o) = s.ops_spill.get_mut(i - INLINE_OPS) {
                            o.reset(od.dir, is_scalar);
                        } else {
                            let mut o = OperandSlot::empty();
                            o.dir = od.dir;
                            o.is_scalar = is_scalar;
                            s.ops_spill.push(o);
                        }
                    }
                    let task_ref = TaskRef { trs: index, slot, gen: e.gen };
                    ctx.send_at(
                        reply_to,
                        t + hop,
                        Msg::AllocReply { task: Some(task_ref), trace_id, gw_buf, trs: index },
                    );
                    // Zero-operand tasks are ready the moment they decode.
                    if op_len == 0 {
                        let s = self.slot(slot).expect("just installed");
                        s.decode_done = Some(t);
                        self.stats.decode_times.push(t);
                        self.check_ready(slot, t, ctx);
                    }
                } else {
                    self.stats.allocs_rejected += 1;
                    self.reported_full = true;
                    let t = self.occupy(ctx.now(), self.timing.packet_cost);
                    ctx.send_at(
                        reply_to,
                        t + hop,
                        Msg::AllocReply { task: None, trace_id, gw_buf, trs: self.index },
                    );
                }
            }

            // ------------------------------------------------ scalar path
            Msg::ScalarOperand { op } => {
                let t = self.occupy(ctx.now(), self.timing.packet_cost);
                let s = self.live_entry(op.task.slot, op.task.gen, "scalar");
                let o = s.op_mut(op.index as usize);
                debug_assert!(o.is_scalar, "scalar message for a memory operand");
                debug_assert!(!o.info_received, "duplicate scalar for {op}");
                o.info_received = true;
                o.data_ready = true;
                s.infos_pending -= 1;
                if s.infos_pending == 0 {
                    s.decode_done = Some(t);
                    self.stats.decode_times.push(t);
                }
                // A scalar can complete the decode of an otherwise
                // satisfied task (one message per scalar operand — not
                // hot enough to justify inlining the readiness check).
                self.check_ready(op.task.slot, t, ctx);
            }

            // ----------------------------------------------- Figures 7–9
            Msg::OperandInfo { op, size: _, producer, version, readies_needed } => {
                let t = self.occupy(ctx.now(), self.timing.packet_cost + self.timing.edram_latency);
                let self_task = op.task;
                let s = self.live_entry(op.task.slot, op.task.gen, "OperandInfo");
                {
                    let o = s.op_mut(op.index as usize);
                    debug_assert!(!o.info_received, "duplicate OperandInfo for {op}");
                    debug_assert_eq!(o.readies_got, 0, "ready before OperandInfo for {op}");
                    o.info_received = true;
                    o.version = Some(version);
                    o.readies_needed = readies_needed;
                }
                if readies_needed > 0 {
                    s.unready_ops += 1;
                }
                s.infos_pending -= 1;
                if s.infos_pending == 0 {
                    s.decode_done = Some(t);
                    self.stats.decode_times.push(t);
                }
                match producer {
                    Some(p) if p.task == self_task => {
                        // The previous user is an earlier operand of this
                        // very task: no self-dependency; the data this
                        // task observes is its own — input side is ready,
                        // but consumers chained here must wait for the
                        // task to finish (they read ITS product).
                        let s = self.slot(op.task.slot).expect("live slot");
                        s.op_mut(op.index as usize).self_produced = true;
                        self.apply_data_ready(op, 0, ReadyKind::Input, t, ctx);
                    }
                    Some(p) => {
                        ctx.send_at(
                            self.topo.trs[p.task.trs as usize],
                            t + hop,
                            Msg::RegisterConsumer { producer: p, consumer: op },
                        );
                    }
                    None => {}
                }
                // No readiness check: an OperandInfo always carries
                // `readies_needed >= 1` and no ready can precede the info
                // (asserted above), so this operand is now waiting and
                // the task cannot become runnable here. Readiness fires
                // from DataReady / ScalarOperand / zero-operand alloc.
            }

            // -------------------------------------- Figures 8 and 10
            Msg::RegisterConsumer { producer, consumer } => {
                let t = self.occupy(ctx.now(), self.timing.packet_cost + self.timing.edram_latency);
                let stale = match self.slots.get(producer.task.slot as usize) {
                    Some(e) => !e.live || e.gen != producer.task.gen,
                    None => true,
                };
                if stale {
                    // The producing task finished and its slot was
                    // recycled: its data is long since in memory.
                    self.stats.stale_registers += 1;
                    ctx.send_at(
                        self.topo.trs[consumer.task.trs as usize],
                        t + hop,
                        Msg::DataReady { op: consumer, buffer: 0, kind: ReadyKind::Input },
                    );
                } else {
                    let s = &mut self.slots[producer.task.slot as usize].task;
                    let o = s.op_mut(producer.index as usize);
                    if !o.dir.writes() && !o.self_produced && o.data_ready {
                        // A reader that already has its data forwards
                        // immediately.
                        self.stats.chain_forwards += 1;
                        let buffer = o.buffer;
                        ctx.send_at(
                            self.topo.trs[consumer.task.trs as usize],
                            t + hop,
                            Msg::DataReady { op: consumer, buffer, kind: ReadyKind::Input },
                        );
                    } else {
                        debug_assert!(
                            self.chaining || o.dir.writes() || o.self_produced,
                            "with chaining, readers forward instead of accumulating"
                        );
                        if o.consumer.is_none() && !o.consumer_overflow {
                            o.consumer = Some(consumer);
                        } else {
                            // Only the no-chaining ablation grows a list
                            // (the ORT forwards the last user otherwise).
                            debug_assert!(!self.chaining, "an operand chains at most one consumer");
                            o.consumer_overflow = true;
                            self.overflow_consumers
                                .entry((producer.task.slot, producer.index))
                                .or_default()
                                .push(consumer);
                        }
                    }
                }
            }

            // ------------------------------------------------- readiness
            Msg::DataReady { op, buffer, kind } => {
                let t = self.occupy(ctx.now(), self.timing.packet_cost + self.timing.edram_latency);
                self.apply_data_ready(op, buffer, kind, t, ctx);
            }

            // ----------------------------------------------- task finish
            Msg::TaskFinished { task } => {
                {
                    let e = &self.slots[task.slot as usize];
                    assert!(e.live && e.gen == task.gen, "finish for stale slot");
                    debug_assert_eq!(
                        e.task.state,
                        SlotState::Running,
                        "finish of a non-running task"
                    );
                }
                // Traverse all operands: one eDRAM access each.
                let op_len = self.slots[task.slot as usize].task.op_len as usize;
                let cost =
                    self.timing.packet_cost + self.timing.edram_latency * op_len.max(1) as Cycle;
                let t = self.occupy(ctx.now(), cost);
                // Field-disjoint borrows: the slot entry is read for the
                // notify loop while `server` (chained notify costs) and
                // the context are written.
                let entry = &mut self.slots[task.slot as usize];
                let s = &entry.task;
                let server = &mut self.server;
                let timing = &self.timing;
                let topo = &self.topo;
                let overflow_consumers = &self.overflow_consumers;
                let mut any_overflow = false;
                for i in 0..op_len {
                    let o = s.op(i);
                    any_overflow |= o.consumer_overflow;
                    if o.dir.writes() || o.self_produced {
                        // The produced data is now ready: notify the first
                        // consumer in the chain (with chaining there is at
                        // most one; the ablation notifies all directly,
                        // paying a packet cost per extra message).
                        let mut t_send = t;
                        if let Some(next) = o.consumer {
                            ctx.send_at(
                                topo.trs[next.task.trs as usize],
                                t_send + hop,
                                Msg::DataReady {
                                    op: next,
                                    buffer: o.buffer,
                                    kind: ReadyKind::Input,
                                },
                            );
                        }
                        if o.consumer_overflow {
                            let rest = overflow_consumers
                                .get(&(task.slot, i as u8))
                                .map(Vec::as_slice)
                                .unwrap_or_default();
                            for next in rest {
                                t_send = server.occupy(t_send, timing.packet_cost);
                                ctx.send_at(
                                    topo.trs[next.task.trs as usize],
                                    t_send + hop,
                                    Msg::DataReady {
                                        op: *next,
                                        buffer: o.buffer,
                                        kind: ReadyKind::Input,
                                    },
                                );
                            }
                        }
                    }
                    if let Some(v) = o.version {
                        ctx.send_at(
                            topo.ort[v.ovt as usize],
                            t + hop,
                            Msg::ReleaseUse { version: v },
                        );
                    }
                }
                let blocks = s.blocks;
                let block_count = s.block_count;
                // Recycle in place: bump the generation, drop liveness.
                // Operand state is re-initialized by the next install;
                // spill/consumer capacities stay with the slot.
                entry.live = false;
                entry.gen += 1;
                if any_overflow {
                    // Ablation-only cleanup: purge side-table lists and
                    // their flags before the slot is reused.
                    let s = &mut entry.task;
                    for i in 0..op_len {
                        let o = s.op_mut(i);
                        if o.consumer_overflow {
                            o.consumer_overflow = false;
                            self.overflow_consumers.remove(&(task.slot, i as u8));
                        }
                    }
                }
                self.store.free(&blocks[..block_count as usize]);
                self.in_flight -= 1;
                if self.reported_full && self.store.can_alloc(4) {
                    self.reported_full = false;
                    ctx.send_at(self.topo.gateway, t + hop, Msg::TrsHasSpace { trs: self.index });
                }
            }

            other => panic!("TRS received unexpected message {other:?}"),
        }
    }
}
