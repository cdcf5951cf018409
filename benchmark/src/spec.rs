//! What the benchmark measures: the workloads and the metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repo root
//! states the same tables for the driver; a unit test below keeps the
//! two identical.

use tss_exec::PayloadMode;
use tss_workloads::{Benchmark, Scale};

/// Executor workers in every workload. They share the one CPU the
/// benchmark confines itself to (`hw_threads` and the CPU are stamped
/// on every run).
pub const EXEC_THREADS: usize = 2;
/// Client threads, one connection each, in the serve workloads.
pub const CLIENTS: usize = 2;
/// Tasks per `Tasks` frame, as the loadgen default.
pub const CHUNK: usize = 256;
/// Simulated processors in the simulator workload (the paper's machine).
pub const SIM_PROCESSORS: usize = 256;
/// How long one run measures unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 30.0;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (untraced pass). One
/// bound covers a metric on every gated workload, so each is set by
/// the noisiest: the paper-scale graphs live in the shared last-level
/// cache and memory, whose speed drifts by a tenth over minutes with
/// the host's other tenants. The README has the spread each workload
/// holds.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "tasks_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "graphs_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "graph_latency_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// A single layer's metric (traced pass); no bound.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Every workload reports every one of these (traced pass), measured
/// on its own graphs. Counts that must repeat exactly are marked in
/// the README; their direction is nominal.
pub const PER_LAYER: [Layer; 56] = [
    layer("proto.frames_ns_per_task", "ns", "lower"),
    layer("proto.encode_ns_per_task", "ns", "lower"),
    layer("proto.decode_ns_per_task", "ns", "lower"),
    layer("proto.assemble_ns_per_task", "ns", "lower"),
    layer("proto.bytes_per_task", "B", "lower"),
    layer("proto.frames_per_graph", "count", "lower"),
    layer("client.write_us_p50", "us", "lower"),
    layer("client.admission_wait_us_p50", "us", "lower"),
    layer("client.run_wait_us_p50", "us", "lower"),
    layer("client.graph_latency_p50_us", "us", "lower"),
    layer("client.graph_latency_p90_us", "us", "lower"),
    layer("client.graph_latency_p99_us", "us", "lower"),
    layer("client.graph_latency_p999_us", "us", "lower"),
    layer("client.resubmits", "count", "lower"),
    layer("server.exec_wall_us_p50", "us", "lower"),
    layer("server.queue_and_done_us_p50", "us", "lower"),
    layer("server.admission_residual_us_p50", "us", "lower"),
    layer("server.accepted", "count", "higher"),
    layer("server.completed", "count", "higher"),
    layer("server.rejected_overloaded", "count", "lower"),
    layer("server.rejected_quota", "count", "lower"),
    layer("server.undelivered_done", "count", "lower"),
    layer("server.start_ms", "ms", "lower"),
    layer("server.drain_ms", "ms", "lower"),
    layer("exec.stream_ns_per_task", "ns", "lower"),
    layer("exec.replay_ns_per_task", "ns", "lower"),
    layer("exec.run_us_per_graph_p50", "us", "lower"),
    layer("exec.run_us_per_graph_p90", "us", "lower"),
    layer("exec.fixed_us_per_run", "us", "lower"),
    layer("exec.fixed_armed_us_per_run", "us", "lower"),
    layer("exec.validate_ns_per_task", "ns", "lower"),
    layer("exec.steals_per_iter", "count", "lower"),
    layer("exec.busy_frac", "frac", "higher"),
    layer("exec.decode_overlap_pct", "%", "higher"),
    layer("renamer.decode_ns_per_task", "ns", "lower"),
    layer("renamer.stream_decode_ns_per_task", "ns", "lower"),
    layer("renamer.enforced_edges", "count", "lower"),
    layer("renamer.objects", "count", "lower"),
    layer("renamer.removed_by_renaming", "count", "higher"),
    layer("deque.push_pop_ns_per_op", "ns", "lower"),
    layer("deque.steal_ns_per_op", "ns", "lower"),
    layer("deque.steal_batch_ns_per_item", "ns", "lower"),
    layer("payload.serial_ns_per_task", "ns", "lower"),
    layer("payload.share_of_cpu", "frac", "lower"),
    layer("sim.events_per_s", "1/s", "higher"),
    layer("sim.hw_events_per_s", "1/s", "higher"),
    layer("sim.sw_events_per_s", "1/s", "higher"),
    layer("sim.host_ns_per_event", "ns", "lower"),
    layer("sim.events", "count", "lower"),
    layer("sim.makespan_cycles", "count", "lower"),
    layer("sim.peak_event_queue", "count", "lower"),
    layer("gen.trace_gen_ms", "ms", "lower"),
    layer("gen.tasks_per_iter", "count", "higher"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.timer_ns_per_span", "ns", "lower"),
    layer("bench.budget_coverage_pct", "%", "higher"),
];

/// Which part of the stack a workload drives in its timed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `Executor::run` over each graph in turn.
    Replay,
    /// Loopback `Server` with closed-loop clients.
    Serve,
    /// `run_hardware_arc` + `run_software_arc` over each graph.
    Sim,
}

/// One named workload. Every workload is a closed loop: a caller of
/// this system waits for its graph to finish before sending the next.
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    /// The distinct graphs, generated from `--seed`.
    pub graphs: &'static [(Benchmark, Scale)],
    /// What each task execution does.
    pub payload: PayloadMode,
    /// Serve: the cycle of graph indices each client loops.
    /// Replay/Sim: every graph once, in order.
    pub pattern: &'static [usize],
    /// Serve: where in the pattern the second client starts.
    pub offset: usize,
    /// Graph index whose latency the quantiles are over, if only one
    /// class counts (`serve_mixed`: the small class).
    pub latency_class: Option<usize>,
    /// Fixed warm-up, in passes over the pattern per client, done in
    /// set-up.
    pub warmup_passes: usize,
    /// Serve: graphs per timed batch per client (the "iteration" whose
    /// median gives the rate).
    pub batch: usize,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds its
    /// end-to-end metrics to their bounds (`repeat` runs these too).
    /// The driver's time budget fits four workloads at 30 s a run; the
    /// rest run under `all` and `--workload` only (the README says why
    /// each was left out).
    pub gated: bool,
}

const fn nine(scale: Scale) -> [(Benchmark, Scale); 9] {
    [
        (Benchmark::Cholesky, scale),
        (Benchmark::MatMul, scale),
        (Benchmark::Fft, scale),
        (Benchmark::H264, scale),
        (Benchmark::KMeans, scale),
        (Benchmark::Knn, scale),
        (Benchmark::Pbpi, scale),
        (Benchmark::Specfem, scale),
        (Benchmark::Stap, scale),
    ]
}

const NINE_PAPER: [(Benchmark, Scale); 9] = nine(Scale::Paper);
const NINE_SMALL: [(Benchmark, Scale); 9] = nine(Scale::Small);
const IN_ORDER_9: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "replay_large",
        why: "In-process Executor::run over the nine paper-scale traces, no-op payload: renamer and deque/release per-task cost dominates, per-run spawn is about 5%",
        kind: Kind::Replay,
        graphs: &NINE_PAPER,
        payload: PayloadMode::Noop,
        pattern: &IN_ORDER_9,
        offset: 0,
        latency_class: None,
        warmup_passes: 4,
        batch: 9,
        gated: true,
    },
    Workload {
        name: "replay_small",
        why: "The same call over the nine small traces (220-1.5k tasks): per-run fixed cost (spawn/join, arena, watchdog) dominates, so a resident runtime shows here and not on replay_large",
        kind: Kind::Replay,
        graphs: &NINE_SMALL,
        payload: PayloadMode::Noop,
        pattern: &IN_ORDER_9,
        offset: 0,
        latency_class: None,
        warmup_passes: 100,
        batch: 9,
        gated: true,
    },
    Workload {
        name: "payload_mixed",
        why: "replay_large's traces with the mixed spin/memcpy payload at time scale 1: payload is about 98% of CPU, so scheduler, renamer and wire changes predict no change (the bypass workload)",
        kind: Kind::Replay,
        graphs: &NINE_PAPER,
        payload: PayloadMode::Mixed { time_scale: 1.0 },
        pattern: &IN_ORDER_9,
        offset: 0,
        latency_class: None,
        // Under the no-op payload: a spinning task has nothing to
        // warm, the traces and allocator do.
        warmup_passes: 2,
        batch: 9,
        gated: false,
    },
    Workload {
        name: "serve_small",
        why: "Loopback server, 2 closed-loop clients sending Cholesky-small (220 tasks): fixed per-graph cost of every layer - frame round trips, gate, pool queue, per-graph spawn, Done write",
        kind: Kind::Serve,
        graphs: &[(Benchmark::Cholesky, Scale::Small)],
        payload: PayloadMode::Noop,
        pattern: &[0],
        offset: 0,
        latency_class: None,
        warmup_passes: 400,
        batch: 64,
        gated: true,
    },
    Workload {
        name: "serve_large",
        why: "Same server, 2 clients sending Cholesky-paper (30,856 tasks, 1.5 MB): per-task cost dominates (encode, socket copy, decode, assemble, rename, execute), fixed per-graph cost vanishes",
        kind: Kind::Serve,
        graphs: &[(Benchmark::Cholesky, Scale::Paper)],
        payload: PayloadMode::Noop,
        pattern: &[0],
        offset: 0,
        latency_class: None,
        warmup_passes: 8,
        batch: 2,
        gated: true,
    },
    Workload {
        name: "serve_mixed",
        why: "Same server, each client loops nine Cholesky-small then one Knn-paper (6,048 tasks), second client offset by five: unequal graphs share runners, head-of-line blocking shows at p90 of the small class",
        kind: Kind::Serve,
        graphs: &[(Benchmark::Cholesky, Scale::Small), (Benchmark::Knn, Scale::Paper)],
        payload: PayloadMode::Noop,
        pattern: &[0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        offset: 5,
        latency_class: Some(0),
        warmup_passes: 12,
        batch: 10,
        gated: false,
    },
    Workload {
        name: "sim_frontend",
        why: "Hardware pipeline and software runtime simulated at 256 processors over the nine paper-scale traces: the paper-reproduction product; nothing in the exec/serve stack should move it",
        kind: Kind::Sim,
        graphs: &NINE_PAPER,
        payload: PayloadMode::Noop,
        pattern: &IN_ORDER_9,
        offset: 0,
        latency_class: None,
        warmup_passes: 1,
        batch: 18,
        gated: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workloads `BENCHMARK.json` lists.
pub fn gated() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().filter(|w| w.gated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_patterns_index_their_graphs() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.pattern.iter().all(|&g| g < w.graphs.len()), "{}", w.name);
            assert!(w.offset < w.pattern.len(), "{}", w.name);
            assert!(w.latency_class.is_none_or(|g| g < w.graphs.len()), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(workload("serve_small").map(|w| w.kind), Some(Kind::Serve));
        assert!(workload("nope").is_none());
    }

    /// `BENCHMARK.json` is what the driver reads; it must state these
    /// tables, in this order, and nothing else.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        use crate::json::{parse, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let rows = |k: &str| doc.get(k).and_then(Value::as_arr).unwrap().to_vec();

        let paths: Vec<String> =
            rows("paths").iter().map(|p| p.as_str().unwrap().to_string()).collect();
        assert_eq!(paths, ["benchmark"]);
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(RUN_SECONDS));

        let workloads: Vec<(String, String)> =
            rows("workloads").iter().map(|w| (str_of(w, "name"), str_of(w, "why"))).collect();
        let ours: Vec<(String, String)> =
            gated().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), m.bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }
}
