//! Frontend assembly: wires generator, gateway, TRSs, and ORT/OVT pairs
//! into a [`Simulation`], with a pluggable execution backend.
//!
//! The real CMP backend (ready queue + cores + ring) lives in
//! `tss-backend`; [`instant_backend`] is an idealized backend with one
//! core per task and zero dispatch latency, useful for isolating the
//! frontend (e.g. the decode-rate experiments of Figures 12–13 use a
//! large backend so decode, not execution, is the bottleneck).

use std::sync::Arc;

use tss_sim::{Component, ComponentStore, Context, Cycle, Extract, Insert, Simulation};
use tss_trace::{ScheduleRecord, TaskTrace};

use crate::config::FrontendConfig;
use crate::gateway::{Gateway, Generator, Topology};
use crate::msg::Msg;
use crate::ortovt::{OrtOvt, OrtOvtStats};
use crate::trs::Trs;

/// What a component store must support to host (and report on) the
/// frontend modules. `tss-sim`'s boxed [`tss_sim::DynStore`] satisfies
/// this via its blanket impls; `tss-core`'s monomorphized `SystemStore`
/// implements it with direct enum variants (no boxing, no `Any`).
pub trait FrontendStore:
    ComponentStore<Msg>
    + Insert<Generator>
    + Insert<Gateway>
    + Insert<Trs>
    + Insert<OrtOvt>
    + Extract<Generator>
    + Extract<Gateway>
    + Extract<Trs>
    + Extract<OrtOvt>
{
}

impl<S> FrontendStore for S where
    S: ComponentStore<Msg>
        + Insert<Generator>
        + Insert<Gateway>
        + Insert<Trs>
        + Insert<OrtOvt>
        + Extract<Generator>
        + Extract<Gateway>
        + Extract<Trs>
        + Extract<OrtOvt>
{
}

/// Builds the frontend and backend into `sim`; returns the routing table.
///
/// Component ids are assigned in a fixed order (generator, gateway,
/// TRSs, ORTs, backend) so the [`Topology`] can be constructed up front.
/// The initial generator kick is scheduled automatically. The backend is
/// whatever concrete component `make_backend` produces, as long as the
/// store can hold it.
///
/// # Panics
///
/// Panics if `cfg` is invalid (see [`FrontendConfig::validate`]) or if
/// `sim` already contains components.
pub fn build_frontend<S, B>(
    sim: &mut Simulation<Msg, S>,
    trace: Arc<TaskTrace>,
    cfg: &FrontendConfig,
    make_backend: impl FnOnce(Arc<TaskTrace>, Topology) -> B,
) -> Topology
where
    S: FrontendStore + Insert<B>,
{
    let thread_of = Arc::new(vec![0u8; trace.len()]);
    build_frontend_threaded(sim, trace, cfg, thread_of, make_backend)
}

/// The Section III.B extension: multiple task-generating threads over a
/// data-partitioned trace. `thread_of[i]` names the thread emitting task
/// `i`; each thread's tasks decode in that thread's program order, and
/// the gateway buffer is split evenly between threads.
///
/// # Panics
///
/// Panics if the partition is not data-disjoint (an enforced dependency
/// crosses threads): in-order decode is only guaranteed per thread, so a
/// cross-thread dependency could be decoded backwards (the paper's
/// correctness argument requires partitioned data).
pub fn build_frontend_threaded<S, B>(
    sim: &mut Simulation<Msg, S>,
    trace: Arc<TaskTrace>,
    cfg: &FrontendConfig,
    thread_of: Arc<Vec<u8>>,
    make_backend: impl FnOnce(Arc<TaskTrace>, Topology) -> B,
) -> Topology
where
    S: FrontendStore + Insert<B>,
{
    cfg.validate();
    assert_eq!(sim.component_count(), 0, "build_frontend needs a fresh simulation");
    assert_eq!(thread_of.len(), trace.len(), "one thread tag per task");
    let threads = thread_of.iter().map(|&t| t as usize + 1).max().unwrap_or(1);
    if threads > 1 {
        // Verify the data partition: no enforced dependency may cross
        // threads (Section III.B).
        let graph = trace.dep_graph();
        for t in 0..trace.len() {
            for &p in graph.preds(t) {
                assert_eq!(
                    thread_of[p as usize], thread_of[t],
                    "dependency {p} -> {t} crosses generating threads: data must be partitioned"
                );
            }
        }
    }

    let mut next = 0usize;
    let mut take = || {
        let id = tss_sim::ComponentId::from_index(next);
        next += 1;
        id
    };
    let topo = Topology {
        generators: (0..threads).map(|_| take()).collect(),
        gateway: take(),
        trs: (0..cfg.num_trs).map(|_| take()).collect(),
        ort: (0..cfg.num_ort).map(|_| take()).collect(),
        backend: take(),
    };

    let credit_share = cfg.gateway_buffer_bytes / threads as u64;
    for (th, &want) in topo.generators.iter().enumerate() {
        let ids: Vec<usize> = (0..trace.len()).filter(|&i| thread_of[i] as usize == th).collect();
        let g = Generator::with_partition(
            trace.clone(),
            cfg,
            topo.clone(),
            Arc::new(ids),
            credit_share,
        );
        let id = sim.add(g);
        assert_eq!(id, want);
    }
    let id = sim.add(Gateway::with_threads(trace.clone(), cfg, topo.clone(), thread_of));
    assert_eq!(id, topo.gateway);
    for (i, &want) in topo.trs.iter().enumerate() {
        let id = sim.add(Trs::new(i as u8, trace.clone(), cfg, topo.clone()));
        assert_eq!(id, want);
    }
    for (i, &want) in topo.ort.iter().enumerate() {
        let id = sim.add(OrtOvt::new(i as u8, cfg, topo.clone()));
        assert_eq!(id, want);
    }
    let id = sim.add(make_backend(trace.clone(), topo.clone()));
    assert_eq!(id, topo.backend);

    if !trace.is_empty() {
        for &g in &topo.generators {
            sim.schedule(0, g, Msg::GatewayCredit { free_bytes: 0 });
        }
    }
    topo
}

/// An idealized backend: every ready task starts immediately on its own
/// core and completes after its trace runtime. Records the schedule.
pub struct InstantBackend {
    trace: Arc<TaskTrace>,
    topo: Topology,
    schedule: Vec<ScheduleRecord>,
    next_core: usize,
    completed: u64,
}

impl InstantBackend {
    /// Creates the backend.
    pub fn new(trace: Arc<TaskTrace>, topo: Topology) -> Self {
        InstantBackend { trace, topo, schedule: Vec::new(), next_core: 0, completed: 0 }
    }

    /// The execution schedule (one record per completed task).
    pub fn schedule(&self) -> &[ScheduleRecord] {
        &self.schedule
    }

    /// Tasks completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

impl Component<Msg> for InstantBackend {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::TaskReady { task, trace_id } => {
                let rt = self.trace.task(trace_id).runtime;
                let core = self.next_core;
                self.next_core += 1;
                self.schedule.push(ScheduleRecord {
                    task: trace_id,
                    start: ctx.now(),
                    end: ctx.now() + rt,
                    core,
                });
                let me = ctx.self_id();
                ctx.send(me, rt, Msg::CoreDone { core, task: Some(task), trace_id });
            }
            Msg::CoreDone { task, .. } => {
                self.completed += 1;
                let task = task.expect("hardware pipeline tasks carry a TaskRef");
                ctx.send(self.topo.trs[task.trs as usize], 1, Msg::TaskFinished { task });
            }
            other => panic!("instant backend received unexpected message {other:?}"),
        }
    }
}

/// Factory for [`InstantBackend`] matching [`build_frontend`]'s signature.
pub fn instant_backend(trace: Arc<TaskTrace>, topo: Topology) -> InstantBackend {
    InstantBackend::new(trace, topo)
}

/// Aggregated post-run frontend statistics.
#[derive(Debug, Clone)]
pub struct FrontendStats {
    /// Tasks fully decoded (added to the task graph).
    pub tasks_decoded: u64,
    /// Mean cycles between successive additions to the task graph — the
    /// paper's decode-rate metric (Figures 12–13).
    pub decode_rate_cycles: f64,
    /// Peak in-flight tasks across all TRSs (achieved window size).
    pub window_peak: u32,
    /// `DataReady` forwards along consumer chains.
    pub chain_forwards: u64,
    /// Registers answered from recycled slots.
    pub stale_registers: u64,
    /// Mean internal fragmentation of TRS task storage (Figure 11's
    /// "average waste ~20 %").
    pub avg_storage_waste: f64,
    /// Allocation requests bounced off a full TRS.
    pub allocs_rejected: u64,
    /// Cycles the generating thread stalled on a full gateway buffer.
    pub generator_stalled: Cycle,
    /// Cycles the gateway was paused by ORT stalls.
    pub gateway_stalled: Cycle,
    /// Summed ORT/OVT counters.
    pub ort: OrtOvtStats,
    /// Live state left after the run (must be 0 on a drained run).
    pub leaked_tasks: u64,
}

/// Extracts aggregated statistics after a run.
pub fn frontend_stats<S: FrontendStore>(
    sim: &Simulation<Msg, S>,
    topo: &Topology,
    _cfg: &FrontendConfig,
) -> FrontendStats {
    let mut decode_times: Vec<Cycle> = Vec::new();
    let mut window_peak = 0u32;
    let mut chain_forwards = 0u64;
    let mut stale_registers = 0u64;
    let mut waste_sum = 0.0f64;
    let mut tasks = 0u64;
    let mut allocs_rejected = 0u64;
    let mut leaked = 0u64;
    for &id in &topo.trs {
        let trs = sim.component::<Trs>(id);
        let st = trs.stats();
        decode_times.extend(&st.decode_times);
        window_peak += st.peak_in_flight;
        chain_forwards += st.chain_forwards;
        stale_registers += st.stale_registers;
        waste_sum += st.waste_sum;
        tasks += st.tasks_allocated;
        allocs_rejected += st.allocs_rejected;
        leaked += trs.in_flight() as u64;
    }
    let mut ort = OrtOvtStats::default();
    for &id in &topo.ort {
        let o = sim.component::<OrtOvt>(id);
        let s = o.stats();
        ort.lookups += s.lookups;
        ort.hits += s.hits;
        ort.versions_created += s.versions_created;
        ort.renames += s.renames;
        ort.copybacks += s.copybacks;
        ort.copyback_bytes += s.copyback_bytes;
        ort.blocked_cycles += s.blocked_cycles;
        ort.blocks += s.blocks;
        ort.peak_entries += s.peak_entries;
        ort.peak_records += s.peak_records;
        for (acc, v) in ort.chain_hist.iter_mut().zip(s.chain_hist.iter()) {
            *acc += v;
        }
        leaked += o.live_entries() as u64;
    }
    let decoded = decode_times.len() as u64;
    let decode_rate = if decode_times.len() >= 2 {
        let min = *decode_times.iter().min().expect("non-empty");
        let max = *decode_times.iter().max().expect("non-empty");
        (max - min) as f64 / (decode_times.len() - 1) as f64
    } else {
        0.0
    };
    let gateway = sim.component::<Gateway>(topo.gateway);
    let generator_stalled: Cycle =
        topo.generators.iter().map(|&g| sim.component::<Generator>(g).stalled_cycles()).sum();
    FrontendStats {
        tasks_decoded: decoded,
        decode_rate_cycles: decode_rate,
        window_peak,
        chain_forwards,
        stale_registers,
        avg_storage_waste: if tasks == 0 { 0.0 } else { waste_sum / tasks as f64 },
        allocs_rejected,
        generator_stalled,
        gateway_stalled: gateway.stalled_cycles(),
        ort,
        leaked_tasks: leaked,
    }
}
