//! The software StarSs-like runtime baseline (paper, Sections II and
//! VI.C).
//!
//! The StarSs master thread decodes task dependencies in software: the
//! paper measured "just over 700 ns" per task for the highly tuned x86
//! decoder (2.66 GHz Core Duo) and ~2.5 µs for the Cell BE port. The
//! decoder is strictly serial — that rate is the hard ceiling on task
//! throughput — but its task window is effectively *infinite* (heap
//! allocated), which is exactly the trade-off Figure 16 evaluates
//! against the hardware pipeline.
//!
//! [`SoftDecoder`] decodes the trace in program order at a fixed cost
//! per task, resolves dependencies exactly (using the `tss-trace`
//! oracle, as the real runtime computes exact dependencies), and feeds
//! the same `tss-backend` core pool the hardware pipeline uses.

#![forbid(unsafe_code)]

use std::sync::Arc;

use tss_backend::{BackendConfig, CompletionSink, CorePool};
use tss_pipeline::{Msg, Topology};
use tss_sim::{ns_to_cycles, Component, ComponentId, Context, Cycle, Simulation};
use tss_trace::{DepGraph, TaskId, TaskTrace};

/// Software-runtime parameters.
#[derive(Debug, Clone)]
pub struct SoftRuntimeConfig {
    /// Serial decode cost per task, in cycles.
    pub decode_cost: Cycle,
}

impl SoftRuntimeConfig {
    /// The paper's tuned x86 decoder: ~700 ns/task.
    pub fn x86() -> Self {
        SoftRuntimeConfig { decode_cost: ns_to_cycles(700.0) }
    }

    /// The Cell BE decoder measured by Rico et al.: ~2.5 µs/task.
    pub fn cell_be() -> Self {
        SoftRuntimeConfig { decode_cost: ns_to_cycles(2_500.0) }
    }
}

impl Default for SoftRuntimeConfig {
    fn default() -> Self {
        Self::x86()
    }
}

/// The serial software dependency decoder (master thread).
pub struct SoftDecoder {
    graph: std::sync::Arc<DepGraph>,
    decode_cost: Cycle,
    backend: ComponentId,
    next_decode: TaskId,
    n: usize,
    decoded: Vec<bool>,
    completed: Vec<bool>,
    missing_preds: Vec<usize>,
    tasks_completed: usize,
    decode_times: Vec<Cycle>,
    finished_at: Option<Cycle>,
}

impl SoftDecoder {
    /// Creates a decoder over `trace`'s exact dependency graph.
    pub fn new(trace: &TaskTrace, cfg: &SoftRuntimeConfig, backend: ComponentId) -> Self {
        // Memoized oracle: sweeps running one shared trace through many
        // software systems decode the dependency graph once (ISSUE 5).
        let graph = trace.dep_graph();
        let n = trace.len();
        let missing_preds = (0..n).map(|t| graph.preds(t).len()).collect();
        SoftDecoder {
            graph,
            decode_cost: cfg.decode_cost,
            backend,
            next_decode: 0,
            n,
            decoded: vec![false; n],
            completed: vec![false; n],
            missing_preds,
            tasks_completed: 0,
            decode_times: Vec::with_capacity(n),
            finished_at: None,
        }
    }

    /// Decode completion timestamps (for decode-rate comparison).
    pub fn decode_times(&self) -> &[Cycle] {
        &self.decode_times
    }

    /// When the last task completed, if the run is done.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// Tasks completed so far.
    pub fn tasks_completed(&self) -> usize {
        self.tasks_completed
    }

    fn start_next_decode(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.next_decode < self.n {
            let id = self.next_decode;
            let me = ctx.self_id();
            ctx.send(me, self.decode_cost, Msg::SoftDecoded { trace_id: id });
        }
    }

    fn release_if_runnable(&mut self, t: TaskId, ctx: &mut Context<'_, Msg>) {
        if self.decoded[t] && !self.completed[t] && self.missing_preds[t] == 0 {
            ctx.send(self.backend, 1, Msg::SoftDecoded { trace_id: t });
        }
    }
}

impl Component<Msg> for SoftDecoder {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            // Self-message: one task finished decoding on the master
            // thread.
            Msg::SoftDecoded { trace_id } => {
                debug_assert_eq!(trace_id, self.next_decode, "decode is strictly in order");
                self.decoded[trace_id] = true;
                self.decode_times.push(ctx.now());
                self.next_decode += 1;
                self.release_if_runnable(trace_id, ctx);
                self.start_next_decode(ctx);
            }
            Msg::SoftTaskFinished { trace_id } => {
                debug_assert!(!self.completed[trace_id], "double completion");
                self.completed[trace_id] = true;
                self.tasks_completed += 1;
                // Indexed loop instead of a scratch copy (releasing
                // borrows `self` mutably): completion is once per task,
                // but a per-task allocation here was visible in profiles.
                for i in 0..self.graph.succs(trace_id).len() {
                    let s = self.graph.succs(trace_id)[i] as TaskId;
                    self.missing_preds[s] -= 1;
                    self.release_if_runnable(s, ctx);
                }
                if self.tasks_completed == self.n {
                    self.finished_at = Some(ctx.now());
                }
            }
            // The initial kick reuses the credit message.
            Msg::GatewayCredit { .. } => self.start_next_decode(ctx),
            other => panic!("software decoder received unexpected message {other:?}"),
        }
    }
}

/// Assembles the software-runtime system: serial decoder + CMP backend.
/// Returns `(decoder, pool)` component ids; the initial decode kick is
/// scheduled automatically.
pub fn build_software_runtime<S>(
    sim: &mut Simulation<Msg, S>,
    trace: Arc<TaskTrace>,
    rt_cfg: &SoftRuntimeConfig,
    backend_cfg: BackendConfig,
) -> (ComponentId, ComponentId)
where
    S: tss_sim::ComponentStore<Msg> + tss_sim::Insert<SoftDecoder> + tss_sim::Insert<CorePool>,
{
    let decoder_id = ComponentId::from_index(sim.component_count());
    let pool_id = ComponentId::from_index(sim.component_count() + 1);
    // The pool only uses `topo.trs` for the hardware sink; a software
    // pool reports to the decoder instead.
    let topo = Topology {
        generators: vec![decoder_id],
        gateway: decoder_id,
        trs: Vec::new(),
        ort: Vec::new(),
        backend: pool_id,
    };
    let id = sim.add(SoftDecoder::new(&trace, rt_cfg, pool_id));
    assert_eq!(id, decoder_id);
    let id = sim.add(CorePool::new(
        trace.clone(),
        topo,
        backend_cfg,
        CompletionSink::Decoder(decoder_id),
    ));
    assert_eq!(id, pool_id);
    if !trace.is_empty() {
        sim.schedule(0, decoder_id, Msg::GatewayCredit { free_bytes: 0 });
    }
    (decoder_id, pool_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::{validate_schedule, OperandDesc};

    fn run(
        trace: TaskTrace,
        cores: usize,
        cfg: SoftRuntimeConfig,
    ) -> (Simulation<Msg>, ComponentId, ComponentId, Arc<TaskTrace>) {
        let trace = Arc::new(trace);
        let mut sim = Simulation::<Msg>::new();
        let (dec, pool) =
            build_software_runtime(&mut sim, trace.clone(), &cfg, BackendConfig::for_cores(cores));
        sim.run();
        (sim, dec, pool, trace)
    }

    fn chain(n: usize, rt: Cycle) -> TaskTrace {
        let mut tr = TaskTrace::new("chain");
        let k = tr.add_kernel("k");
        for _ in 0..n {
            tr.push_task(k, rt, vec![OperandDesc::inout(0x1000, 64)]);
        }
        tr
    }

    fn independent(n: usize, rt: Cycle) -> TaskTrace {
        let mut tr = TaskTrace::new("ind");
        let k = tr.add_kernel("k");
        for i in 0..n as u64 {
            tr.push_task(k, rt, vec![OperandDesc::output(0x1000 + i * 0x100, 64)]);
        }
        tr
    }

    #[test]
    fn all_tasks_complete_and_schedule_is_valid() {
        let (sim, dec, pool, trace) = run(chain(20, 5_000), 4, SoftRuntimeConfig::x86());
        let d = sim.component::<SoftDecoder>(dec);
        assert_eq!(d.tasks_completed(), 20);
        let p = sim.component::<CorePool>(pool);
        let g = DepGraph::from_trace(&trace);
        validate_schedule(&g, p.schedule()).expect("valid schedule");
    }

    #[test]
    fn decode_rate_is_the_serial_bottleneck() {
        // 100 independent 1-cycle tasks on 64 cores: throughput is bound
        // by the 2240-cycle decode, so the makespan is ~100 x 2240.
        let (sim, _, _, _) = run(independent(100, 1), 64, SoftRuntimeConfig::x86());
        let expected = 100 * ns_to_cycles(700.0);
        assert!(
            sim.now() >= expected && sim.now() < expected + 10_000,
            "makespan {} vs serial decode {}",
            sim.now(),
            expected
        );
    }

    #[test]
    fn infinite_window_uncovers_distant_parallelism() {
        // A long serial chain followed by independent tasks: the software
        // decoder's unbounded window lets the independent tail overlap
        // the chain's execution.
        let mut tr = chain(10, 50_000);
        let k = tr.add_kernel("k2");
        for i in 0..10u64 {
            tr.push_task(k, 50_000, vec![OperandDesc::output(0x100_0000 + i * 0x100, 64)]);
        }
        let (sim, _, pool, trace) = run(tr, 16, SoftRuntimeConfig::x86());
        let p = sim.component::<CorePool>(pool);
        let g = DepGraph::from_trace(&trace);
        validate_schedule(&g, p.schedule()).expect("valid");
        // Chain: 10 x 50k serial = 500k; the independent tail must finish
        // well within that window.
        let chain_end = p.schedule().iter().filter(|r| r.task < 10).map(|r| r.end).max().unwrap();
        let tail_end = p.schedule().iter().filter(|r| r.task >= 10).map(|r| r.end).max().unwrap();
        assert!(tail_end < chain_end, "tail {tail_end} must overlap chain {chain_end}");
    }

    #[test]
    fn cell_preset_is_slower() {
        let (sim_x86, ..) = run(independent(50, 1), 8, SoftRuntimeConfig::x86());
        let (sim_cell, ..) = run(independent(50, 1), 8, SoftRuntimeConfig::cell_be());
        assert!(sim_cell.now() > 3 * sim_x86.now());
    }

    #[test]
    fn plateau_matches_avg_runtime_over_decode_cost() {
        // Section VI.C: software speedup saturates near
        // avg_runtime / decode_cost regardless of core count.
        let rt = 10 * ns_to_cycles(700.0); // plateau at ~10 cores
        let trace = independent(400, rt);
        let total: Cycle = trace.total_runtime();
        let (sim, ..) = run(trace, 64, SoftRuntimeConfig::x86());
        let speedup = total as f64 / sim.now() as f64;
        assert!(
            (8.0..=11.0).contains(&speedup),
            "speedup {speedup} should plateau near 10 despite 64 cores"
        );
    }

    #[test]
    fn empty_trace_is_noop() {
        let (sim, ..) = run(TaskTrace::new("e"), 2, SoftRuntimeConfig::x86());
        assert_eq!(sim.now(), 0);
    }
}
