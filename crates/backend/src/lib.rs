//! Execution backend: the "generic CMP substrate" of Section IV.B.5.
//!
//! The frontend pushes runnable tasks into a queuing system similar to
//! Carbon (a global hardware ready queue; no task stealing, as in the
//! paper), a scheduler hands them to idle in-order cores, and completion
//! messages travel back to the owning TRS. Dispatch and completion
//! messages ride the two-level ring of `tss-noc`, so backend latencies
//! scale with machine size and congestion.
//!
//! [`CorePool`] models the queue + scheduler + all cores as one
//! component (cores are pure occupancy: the simulator is trace-driven,
//! exactly like the paper's TaskSim). It serves both the hardware
//! pipeline (`TaskReady` carrying a `TaskRef`) and the software-runtime
//! baseline (`SoftDecoded` from the decoder, with completion reported
//! back to it).

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::Arc;

use tss_noc::{Node, RingConfig, RingNetwork};
use tss_pipeline::{Msg, TaskRef, Topology};
use tss_sim::{Component, ComponentId, Context, Cycle};
use tss_trace::{ScheduleRecord, TaskId, TaskTrace};

/// Backend parameters.
#[derive(Debug, Clone)]
pub struct BackendConfig {
    /// Number of worker cores (32–256 in the paper).
    pub cores: usize,
    /// Ring interconnect parameters.
    pub ring: RingConfig,
    /// Fixed cost of popping the ready queue and making a scheduling
    /// decision, in cycles.
    pub schedule_cost: Cycle,
    /// Bytes of a dispatch message (task descriptor sent to a core).
    pub dispatch_bytes: u64,
    /// Bytes of a completion message.
    pub completion_bytes: u64,
}

impl BackendConfig {
    /// Defaults for a `cores`-way CMP (Table II ring).
    pub fn for_cores(cores: usize) -> Self {
        BackendConfig {
            cores,
            ring: RingConfig::for_cores(cores),
            schedule_cost: 4,
            dispatch_bytes: 64,
            completion_bytes: 16,
        }
    }
}

/// Where task completions are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionSink {
    /// Hardware pipeline: notify the owning TRS (`TaskFinished`).
    Trs,
    /// Software runtime: notify the decoder (`SoftTaskFinished`).
    Decoder(ComponentId),
}

#[derive(Debug, Clone, Copy)]
struct QueuedTask {
    task: Option<TaskRef>,
    trace_id: TaskId,
    enqueued: Cycle,
}

/// Global ready queue + scheduler + worker cores.
pub struct CorePool {
    trace: Arc<TaskTrace>,
    topo: Topology,
    cfg: BackendConfig,
    sink: CompletionSink,
    ring: RingNetwork,
    ready: VecDeque<QueuedTask>,
    idle_cores: Vec<usize>,
    schedule: Vec<ScheduleRecord>,
    completed: u64,
    queue_wait_total: Cycle,
    peak_queue: usize,
    busy_cycles: Cycle,
}

impl CorePool {
    /// Creates the backend.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores == 0`.
    pub fn new(
        trace: Arc<TaskTrace>,
        topo: Topology,
        cfg: BackendConfig,
        sink: CompletionSink,
    ) -> Self {
        assert!(cfg.cores > 0, "a backend needs cores");
        // Reserve the send-path buffers up front. The schedule gets
        // exactly one record per task and never grows mid-run; the
        // ready-queue reservation is a heuristic (it can back up to the
        // whole frontend window, so a deep backlog may still grow it).
        let tasks = trace.len();
        CorePool {
            trace,
            topo,
            ring: RingNetwork::new(cfg.ring.clone()),
            idle_cores: (0..cfg.cores).rev().collect(),
            cfg,
            sink,
            ready: VecDeque::with_capacity(1024.min(tasks + 1)),
            schedule: Vec::with_capacity(tasks),
            completed: 0,
            queue_wait_total: 0,
            peak_queue: 0,
            busy_cycles: 0,
        }
    }

    /// The execution schedule (one record per completed task).
    pub fn schedule(&self) -> &[ScheduleRecord] {
        &self.schedule
    }

    /// Tasks completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Mean ready-queue wait in cycles.
    pub fn avg_queue_wait(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.queue_wait_total as f64 / self.completed as f64
        }
    }

    /// Peak ready-queue depth.
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    /// Aggregate core-busy cycles.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Core utilization over a makespan.
    pub fn utilization(&self, makespan: Cycle) -> f64 {
        if makespan == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (makespan as f64 * self.cfg.cores as f64)
        }
    }

    fn dispatch(&mut self, ctx: &mut Context<'_, Msg>) {
        while !self.ready.is_empty() && !self.idle_cores.is_empty() {
            let qt = self.ready.pop_front().expect("non-empty");
            let core = self.idle_cores.pop().expect("non-empty");
            self.queue_wait_total += ctx.now() - qt.enqueued;
            // Scheduling decision + dispatch message over the ring.
            let depart = ctx.now() + self.cfg.schedule_cost;
            let arrive =
                self.ring.route(Node::Frontend, Node::Core(core), self.cfg.dispatch_bytes, depart);
            let runtime = self.trace.task(qt.trace_id).runtime;
            let start = arrive;
            let end = start + runtime;
            self.busy_cycles += runtime;
            self.schedule.push(ScheduleRecord { task: qt.trace_id, start, end, core });
            let me = ctx.self_id();
            ctx.send_at(me, end, Msg::CoreDone { core, task: qt.task, trace_id: qt.trace_id });
        }
    }
}

impl Component<Msg> for CorePool {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::TaskReady { task, trace_id } => {
                self.ready.push_back(QueuedTask {
                    task: Some(task),
                    trace_id,
                    enqueued: ctx.now(),
                });
                self.peak_queue = self.peak_queue.max(self.ready.len());
                self.dispatch(ctx);
            }
            Msg::SoftDecoded { trace_id } => {
                // The software runtime path: the decoder marked this task
                // runnable (no TaskRef — there is no TRS slot).
                self.ready.push_back(QueuedTask { task: None, trace_id, enqueued: ctx.now() });
                self.peak_queue = self.peak_queue.max(self.ready.len());
                self.dispatch(ctx);
            }
            Msg::CoreDone { core, task, trace_id } => {
                self.completed += 1;
                self.idle_cores.push(core);
                // Completion message back over the ring.
                let arrive = self.ring.route(
                    Node::Core(core),
                    Node::Frontend,
                    self.cfg.completion_bytes,
                    ctx.now(),
                );
                let delay = arrive - ctx.now();
                match self.sink {
                    CompletionSink::Trs => {
                        let task = task.expect("hardware tasks carry a TaskRef");
                        ctx.send(
                            self.topo.trs[task.trs as usize],
                            delay,
                            Msg::TaskFinished { task },
                        );
                    }
                    CompletionSink::Decoder(dec) => {
                        ctx.send(dec, delay, Msg::SoftTaskFinished { trace_id });
                    }
                }
                self.dispatch(ctx);
            }
            other => panic!("backend received unexpected message {other:?}"),
        }
    }
}

/// Factory for a hardware-pipeline backend, matching
/// `tss_pipeline::assembly::build_frontend`'s signature.
pub fn cmp_backend(cfg: BackendConfig) -> impl FnOnce(Arc<TaskTrace>, Topology) -> CorePool {
    move |trace, topo| CorePool::new(trace, topo, cfg, CompletionSink::Trs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_sim::Simulation;
    use tss_trace::OperandDesc;

    fn topo_for(backend_idx: usize) -> Topology {
        Topology {
            generators: vec![ComponentId::from_index(1_000)], // unused in these tests
            gateway: ComponentId::from_index(1_001),
            trs: vec![],
            ort: vec![],
            backend: ComponentId::from_index(backend_idx),
        }
    }

    /// Decoder stand-in that records completions.
    struct Collector {
        done: Vec<(Cycle, TaskId)>,
    }
    impl Component<Msg> for Collector {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::SoftTaskFinished { trace_id } => self.done.push((ctx.now(), trace_id)),
                other => panic!("collector got {other:?}"),
            }
        }
    }

    fn two_task_trace(rt: Cycle) -> Arc<TaskTrace> {
        let mut tr = TaskTrace::new("t");
        let k = tr.add_kernel("k");
        for i in 0..2u64 {
            tr.push_task(k, rt, vec![OperandDesc::output(0x1000 + i * 0x100, 64)]);
        }
        Arc::new(tr)
    }

    #[test]
    fn single_core_serializes_two_tasks() {
        let trace = two_task_trace(1_000);
        let mut sim = Simulation::<Msg>::new();
        let collector = sim.add(Collector { done: vec![] });
        let pool = sim.add(CorePool::new(
            trace.clone(),
            topo_for(1),
            BackendConfig::for_cores(1),
            CompletionSink::Decoder(collector),
        ));
        sim.schedule(0, pool, Msg::SoftDecoded { trace_id: 0 });
        sim.schedule(0, pool, Msg::SoftDecoded { trace_id: 1 });
        sim.run();
        let pool_ref = sim.component::<CorePool>(pool);
        assert_eq!(pool_ref.completed(), 2);
        let s = pool_ref.schedule();
        assert_eq!(s.len(), 2);
        assert!(s[1].start >= s[0].end, "one core cannot overlap tasks");
        assert_eq!(s[0].core, s[1].core);
        assert!(pool_ref.avg_queue_wait() > 0.0, "second task must have waited");
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let trace = two_task_trace(10_000);
        let mut sim = Simulation::<Msg>::new();
        let collector = sim.add(Collector { done: vec![] });
        let pool = sim.add(CorePool::new(
            trace.clone(),
            topo_for(1),
            BackendConfig::for_cores(2),
            CompletionSink::Decoder(collector),
        ));
        sim.schedule(0, pool, Msg::SoftDecoded { trace_id: 0 });
        sim.schedule(0, pool, Msg::SoftDecoded { trace_id: 1 });
        sim.run();
        let pool_ref = sim.component::<CorePool>(pool);
        let s = pool_ref.schedule();
        assert_ne!(s[0].core, s[1].core);
        assert!(s[1].start < s[0].end, "two cores must overlap");
    }

    #[test]
    fn dispatch_pays_ring_latency() {
        let trace = two_task_trace(100);
        let mut sim = Simulation::<Msg>::new();
        let collector = sim.add(Collector { done: vec![] });
        let pool = sim.add(CorePool::new(
            trace.clone(),
            topo_for(1),
            BackendConfig::for_cores(4),
            CompletionSink::Decoder(collector),
        ));
        sim.schedule(0, pool, Msg::SoftDecoded { trace_id: 0 });
        sim.run();
        let s = sim.component::<CorePool>(pool).schedule();
        assert!(s[0].start > 0, "dispatch cannot be instantaneous");
    }

    #[test]
    fn completions_reach_the_decoder_sink() {
        let trace = two_task_trace(500);
        let mut sim = Simulation::<Msg>::new();
        let collector = sim.add(Collector { done: vec![] });
        let pool = sim.add(CorePool::new(
            trace.clone(),
            topo_for(1),
            BackendConfig::for_cores(2),
            CompletionSink::Decoder(collector),
        ));
        sim.schedule(0, pool, Msg::SoftDecoded { trace_id: 1 });
        sim.run();
        let c = sim.component::<Collector>(collector);
        assert_eq!(c.done.len(), 1);
        assert_eq!(c.done[0].1, 1);
    }

    #[test]
    fn utilization_and_peak_queue_reported() {
        let trace = two_task_trace(1_000);
        let mut sim = Simulation::<Msg>::new();
        let collector = sim.add(Collector { done: vec![] });
        let pool = sim.add(CorePool::new(
            trace.clone(),
            topo_for(1),
            BackendConfig::for_cores(1),
            CompletionSink::Decoder(collector),
        ));
        sim.schedule(0, pool, Msg::SoftDecoded { trace_id: 0 });
        sim.schedule(0, pool, Msg::SoftDecoded { trace_id: 1 });
        let end = sim.run();
        let pool_ref = sim.component::<CorePool>(pool);
        // The first task dispatches immediately; the second waits queued.
        assert_eq!(pool_ref.peak_queue(), 1);
        let u = pool_ref.utilization(end);
        assert!(u > 0.5 && u <= 1.0, "one busy core: {u}");
    }

    #[test]
    #[should_panic(expected = "needs cores")]
    fn zero_cores_rejected() {
        let trace = two_task_trace(1);
        let _ = CorePool::new(
            trace,
            topo_for(0),
            BackendConfig { cores: 0, ..BackendConfig::for_cores(1) },
            CompletionSink::Trs,
        );
    }
}
