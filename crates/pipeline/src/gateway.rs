//! The pipeline gateway and the task-generating thread (paper, Section
//! IV.B.1).
//!
//! The **generator** models the decoupled task-generating thread: it
//! packs one task at a time (base + per-operand cost) and writes it into
//! the gateway's 1 KB incoming buffer, stalling when the buffer is full —
//! "the thread is only stalled when the task window becomes \[full\]".
//!
//! The **gateway**:
//!
//! - keeps a queue of TRSs with free space and sends each new task an
//!   allocation request (non-blocking: it "can continue sending
//!   allocation requests for newly arrived tasks while waiting for TRS
//!   replies");
//! - on an allocation reply, issues the task's operands to the ORTs
//!   (selected by hashed base address, to avoid load imbalance) and
//!   scalars directly to the allocated TRS;
//! - pauses while any ORT reports a stall (full set / exhausted OVT) and
//!   resumes when all clear.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use tss_sim::{Component, ComponentId, Context, Cycle, ServerTimeline, SplitMix64};
use tss_trace::{OperandKind, TaskId, TaskTrace};

use crate::config::{FrontendConfig, TimingParams};
use crate::ids::{OperandRef, TaskRef};
use crate::msg::Msg;

/// Routing table of the assembled frontend (component ids are assigned
/// in a fixed order by the assembler).
#[derive(Debug, Clone)]
pub struct Topology {
    /// The task-generating threads (one in the paper's main design;
    /// Section III.B sketches the data-partitioned multi-thread
    /// extension, which this reproduction implements).
    pub generators: Vec<ComponentId>,
    /// The pipeline gateway.
    pub gateway: ComponentId,
    /// TRS modules, by TRS index.
    pub trs: Vec<ComponentId>,
    /// ORT/OVT pairs, by ORT index.
    pub ort: Vec<ComponentId>,
    /// The execution backend (ready queue + cores).
    pub backend: ComponentId,
}

/// Bytes one packed task occupies in the gateway buffer: kernel pointer
/// and globals (16 B) plus one 16 B record per operand. A 1 KB buffer
/// thus "holds over 20 incoming tasks" of 2–3 operands.
pub fn task_packet_bytes(operands: usize) -> u64 {
    16 + 16 * operands as u64
}

/// Picks the ORT for a memory object: the base address is hashed so that
/// object size variation does not imbalance the ORTs (Section IV.B.1).
pub fn ort_for_addr(addr: u64, num_ort: usize) -> usize {
    (SplitMix64::new(addr).next_u64() % num_ort as u64) as usize
}

/// One task-generating thread: walks its own partition of the trace in
/// program order, packing one task at a time into its share of the
/// gateway buffer.
pub struct Generator {
    trace: Arc<TaskTrace>,
    timing: TimingParams,
    topo: Topology,
    /// The tasks this thread emits, in program order.
    ids: Arc<Vec<TaskId>>,
    next: usize,
    credit_bytes: u64,
    packing: bool,
    stalled_since: Option<Cycle>,
    stalled_cycles: Cycle,
    finished_at: Option<Cycle>,
}

impl Generator {
    /// Creates the single generator of the base design, with the full
    /// gateway buffer as credit.
    pub fn new(trace: Arc<TaskTrace>, cfg: &FrontendConfig, topo: Topology) -> Self {
        let ids = Arc::new((0..trace.len()).collect());
        Self::with_partition(trace, cfg, topo, ids, cfg.gateway_buffer_bytes)
    }

    /// Creates a generator emitting only `ids` (a data partition), with
    /// `credit_bytes` of gateway buffer reserved for it.
    pub fn with_partition(
        trace: Arc<TaskTrace>,
        cfg: &FrontendConfig,
        topo: Topology,
        ids: Arc<Vec<TaskId>>,
        credit_bytes: u64,
    ) -> Self {
        Generator {
            trace,
            timing: cfg.timing.clone(),
            topo,
            ids,
            next: 0,
            credit_bytes,
            packing: false,
            stalled_since: None,
            stalled_cycles: 0,
            finished_at: None,
        }
    }

    /// Cycles spent stalled on a full gateway buffer.
    pub fn stalled_cycles(&self) -> Cycle {
        self.stalled_cycles
    }

    /// When the last task was submitted, if the trace is exhausted.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    fn pack_cost(&self, id: TaskId) -> Cycle {
        self.timing.task_gen_base
            + self.timing.task_gen_per_operand * self.trace.task(id).operands.len() as Cycle
    }

    fn try_start_packing(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.packing || self.next >= self.ids.len() {
            return;
        }
        let id = self.ids[self.next];
        let bytes = task_packet_bytes(self.trace.task(id).operands.len());
        if bytes > self.credit_bytes {
            // Buffer full: stall until the gateway frees space.
            if self.stalled_since.is_none() {
                self.stalled_since = Some(ctx.now());
            }
            return;
        }
        if let Some(since) = self.stalled_since.take() {
            self.stalled_cycles += ctx.now() - since;
        }
        self.credit_bytes -= bytes;
        self.packing = true;
        let me = ctx.self_id();
        ctx.send(me, self.pack_cost(id), Msg::GeneratorTick);
    }
}

impl Component<Msg> for Generator {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::GeneratorTick => {
                debug_assert!(self.packing, "tick without packing");
                self.packing = false;
                let id = self.ids[self.next];
                self.next += 1;
                ctx.send(
                    self.topo.gateway,
                    self.timing.frontend_hop,
                    Msg::SubmitTask { trace_id: id },
                );
                if self.next >= self.ids.len() {
                    self.finished_at = Some(ctx.now());
                }
                self.try_start_packing(ctx);
            }
            Msg::GatewayCredit { free_bytes } => {
                self.credit_bytes += free_bytes;
                self.try_start_packing(ctx);
            }
            other => panic!("generator received unexpected message {other:?}"),
        }
    }
}

/// The pipeline gateway.
pub struct Gateway {
    trace: Arc<TaskTrace>,
    cfg: FrontendConfig,
    topo: Topology,
    server: ServerTimeline,
    /// TRSs currently believed to have free space, in rotation order.
    trs_queue: VecDeque<u8>,
    trs_full: Vec<bool>,
    /// Tasks waiting for a TRS with space, retried oldest-first so the
    /// window cannot be monopolized by younger tasks that are themselves
    /// waiting (in program order) on the starved one.
    pending_alloc: BTreeSet<TaskId>,
    /// Allocated tasks whose operands have not been issued yet, indexed
    /// densely by trace id (two hot map operations per task replaced by
    /// two array accesses). Operand issue MUST follow per-thread program
    /// order (the in-order decode requirement, Section III.B):
    /// allocation replies arrive out of order from differently-loaded
    /// TRSs, so issue is re-serialized here.
    issuable: Vec<Option<TaskRef>>,
    /// Which generating thread emitted each task.
    thread_of: Arc<Vec<u8>>,
    /// Per-thread program order of task ids.
    thread_order: Vec<Vec<TaskId>>,
    /// Per-thread cursor into `thread_order`: the next task whose
    /// operands may be issued.
    issue_next: Vec<usize>,
    stalled_orts: usize,
    stall_started: Option<Cycle>,
    stalled_cycles: Cycle,
    tasks_in: u64,
    allocs_retried: u64,
}

impl Gateway {
    /// Creates the gateway for the single-threaded base design.
    pub fn new(trace: Arc<TaskTrace>, cfg: &FrontendConfig, topo: Topology) -> Self {
        let thread_of = Arc::new(vec![0u8; trace.len()]);
        Self::with_threads(trace, cfg, topo, thread_of)
    }

    /// Creates the gateway for `thread_of.max()+1` generating threads;
    /// per-thread program order is preserved through decode.
    pub fn with_threads(
        trace: Arc<TaskTrace>,
        cfg: &FrontendConfig,
        topo: Topology,
        thread_of: Arc<Vec<u8>>,
    ) -> Self {
        assert_eq!(thread_of.len(), trace.len(), "one thread tag per task");
        let threads = thread_of.iter().map(|&t| t as usize + 1).max().unwrap_or(1);
        let mut thread_order: Vec<Vec<TaskId>> = vec![Vec::new(); threads];
        for (id, &t) in thread_of.iter().enumerate() {
            thread_order[t as usize].push(id);
        }
        Gateway {
            issuable: vec![None; trace.len()],
            trace,
            cfg: cfg.clone(),
            // Cast per id, not on the bound: 256 TRSs (the `validate`
            // maximum) is id 255, but `256 as u8` is an empty range.
            trs_queue: (0..cfg.num_trs).map(|i| i as u8).collect(),
            trs_full: vec![false; cfg.num_trs],
            topo,
            server: ServerTimeline::new(),
            pending_alloc: BTreeSet::new(),
            thread_of,
            issue_next: vec![0; threads],
            thread_order,
            stalled_orts: 0,
            stall_started: None,
            stalled_cycles: 0,
            tasks_in: 0,
            allocs_retried: 0,
        }
    }

    /// Cycles the gateway spent paused by ORT stalls.
    pub fn stalled_cycles(&self) -> Cycle {
        self.stalled_cycles
    }

    /// Tasks accepted from the generator.
    pub fn tasks_in(&self) -> u64 {
        self.tasks_in
    }

    /// Allocation requests that had to be re-sent because a TRS was full.
    pub fn allocs_retried(&self) -> u64 {
        self.allocs_retried
    }

    /// Gateway busy cycles (for utilization reporting).
    pub fn busy_cycles(&self) -> Cycle {
        self.server.busy_cycles()
    }

    fn send_alloc(&mut self, trace_id: TaskId, ctx: &mut Context<'_, Msg>) {
        let Some(&trs) = self.trs_queue.front() else {
            self.pending_alloc.insert(trace_id);
            return;
        };
        // Rotate for round-robin load spreading.
        self.trs_queue.rotate_left(1);
        let done = self.server.occupy(ctx.now(), self.cfg.timing.packet_cost);
        let ops = self.trace.task(trace_id).operands.len() as u8;
        ctx.send_at(
            self.topo.trs[trs as usize],
            done + self.cfg.timing.frontend_hop,
            Msg::AllocTask { trace_id, operand_count: ops, gw_buf: trace_id as u32 },
        );
    }

    fn issue_operands(&mut self, task: TaskRef, trace_id: TaskId, ctx: &mut Context<'_, Msg>) {
        let t = self.trace.task(trace_id);
        for (i, op) in t.operands.iter().enumerate() {
            let done = self.server.occupy(ctx.now(), self.cfg.timing.packet_cost);
            let op_ref = OperandRef { task, index: i as u8 };
            match op.kind {
                OperandKind::Memory => {
                    let ort = ort_for_addr(op.addr, self.cfg.num_ort);
                    ctx.send_at(
                        self.topo.ort[ort],
                        done + self.cfg.timing.frontend_hop,
                        Msg::DecodeOperand {
                            op: op_ref,
                            addr: op.addr,
                            size: op.size,
                            dir: op.dir,
                        },
                    );
                }
                OperandKind::Scalar => {
                    // Scalars go straight to the TRS (Section IV.A).
                    ctx.send_at(
                        self.topo.trs[task.trs as usize],
                        done + self.cfg.timing.frontend_hop,
                        Msg::ScalarOperand { op: op_ref },
                    );
                }
            }
        }
        // The buffer entry is recycled once the operands are on the wire;
        // the credit returns to the thread that emitted the task.
        let freed = task_packet_bytes(t.operands.len());
        let gen = self.topo.generators[self.thread_of[trace_id] as usize];
        ctx.send(gen, self.cfg.timing.frontend_hop, Msg::GatewayCredit { free_bytes: freed });
    }

    /// Retries parked allocations, oldest first, while a TRS has space.
    fn retry_parked(&mut self, ctx: &mut Context<'_, Msg>) {
        while !self.trs_queue.is_empty() {
            let Some(&tid) = self.pending_alloc.iter().next() else { break };
            self.pending_alloc.remove(&tid);
            self.send_alloc(tid, ctx);
        }
    }

    /// Issues operands for every allocated task that is next in its
    /// thread's program order, unless an ORT stall pauses the gateway.
    fn try_issue(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut progressed = true;
        while progressed && self.stalled_orts == 0 {
            progressed = false;
            for th in 0..self.thread_order.len() {
                while self.stalled_orts == 0 {
                    let Some(&head) = self.thread_order[th].get(self.issue_next[th]) else {
                        break;
                    };
                    let Some(task) = self.issuable[head].take() else { break };
                    self.issue_next[th] += 1;
                    progressed = true;
                    self.issue_operands(task, head, ctx);
                }
            }
        }
    }
}

impl Component<Msg> for Gateway {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::SubmitTask { trace_id } => {
                self.tasks_in += 1;
                if self.pending_alloc.is_empty() {
                    self.send_alloc(trace_id, ctx);
                } else {
                    // Older tasks are starving for window space: queue
                    // behind them (allocation stays in program order).
                    self.pending_alloc.insert(trace_id);
                }
            }
            Msg::AllocReply { task, trace_id, gw_buf: _, trs } => match task {
                Some(task) => {
                    self.issuable[trace_id] = Some(task);
                    self.try_issue(ctx);
                }
                None => {
                    // That TRS is out of blocks: remove it from rotation
                    // and retry (oldest parked task first).
                    self.allocs_retried += 1;
                    if !self.trs_full[trs as usize] {
                        self.trs_full[trs as usize] = true;
                        self.trs_queue.retain(|&t| t != trs);
                    }
                    self.pending_alloc.insert(trace_id);
                    self.retry_parked(ctx);
                }
            },
            Msg::TrsHasSpace { trs } => {
                if self.trs_full[trs as usize] {
                    self.trs_full[trs as usize] = false;
                    self.trs_queue.push_back(trs);
                }
                self.retry_parked(ctx);
            }
            Msg::OrtStalled { ort: _ } => {
                if self.stalled_orts == 0 {
                    self.stall_started = Some(ctx.now());
                }
                self.stalled_orts += 1;
            }
            Msg::OrtResumed { ort: _ } => {
                debug_assert!(self.stalled_orts > 0, "resume without stall");
                self.stalled_orts -= 1;
                if self.stalled_orts == 0 {
                    if let Some(s) = self.stall_started.take() {
                        self.stalled_cycles += ctx.now() - s;
                    }
                    self.try_issue(ctx);
                }
            }
            other => panic!("gateway received unexpected message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_bytes_hold_twenty_tasks_per_kb() {
        // 2-operand tasks: 48 B each -> 21 fit in 1 KB.
        assert_eq!(task_packet_bytes(2), 48);
        assert!(1024 / task_packet_bytes(2) >= 20);
    }

    #[test]
    fn ort_hash_spreads_consecutive_addresses() {
        // Consecutive 64 KB blocks must not all land on ORT 0.
        let hits: Vec<usize> =
            (0..16u64).map(|i| ort_for_addr(0x10_0000 + i * 0x1_0000, 4)).collect();
        let distinct: std::collections::HashSet<_> = hits.iter().collect();
        assert!(distinct.len() >= 3, "hash must spread: {hits:?}");
    }

    #[test]
    fn ort_hash_is_deterministic_and_in_range() {
        for n in [1usize, 2, 4, 8] {
            for a in [0u64, 64, 4096, u64::MAX] {
                let x = ort_for_addr(a, n);
                assert_eq!(x, ort_for_addr(a, n));
                assert!(x < n);
            }
        }
    }
}
