//! One run of one workload: set-up, the timed pass, the correctness
//! gate, and the metrics. The untraced pass yields every end-to-end
//! metric; the traced pass yields every per-layer metric.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tss_exec::{Executor, PayloadMode};
use tss_server::DrainSummary;
use tss_trace::TaskTrace;
use tss_workloads::Scale;

use crate::drive::{replay, sim, Check, ReplayOut, ServeOut, ServeSession, SimOut, Stop};
use crate::json::Metric;
use crate::probes::{self, exec_config};
use crate::spans::{chrome_json, overhead_pct, totals_by_name, Span, Tracer};
use crate::spec::{Kind, Workload, CLIENTS, END_TO_END, EXEC_THREADS, PER_LAYER};
use crate::stats::{median, median_sorted, quantile_supported, sort, supported_q};

/// Set-up is repeated (and its median reported) up to this many times,
/// stopping early once the repetitions have taken this long.
const SETUP_REPS: usize = 9;
const SETUP_REPS_MIN: usize = 3;
const SETUP_TIME_CAP: Duration = Duration::from_millis(2500);

/// Where the traced pass writes its Chrome trace, from the repo root.
const TRACE_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Feeds trace generation (and the steal-victim rotation seeds).
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: small-scale traces everywhere, one set-up.
    pub quick: bool,
    /// The one CPU the process is confined to, and how many it could
    /// use before (`main` pins before anything runs).
    pub cpu: usize,
    pub hw_threads: usize,
}

/// What a run hands back: the result line's fields plus the
/// human-readable report.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub report: String,
    /// Correctness violations, naming the layer and what broke.
    pub violations: Vec<String>,
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// A workload ready to be measured.
struct Ready {
    graphs: Vec<Arc<TaskTrace>>,
    gen_ms: f64,
    exec: Executor,
    session: Option<ServeSession>,
}

fn generate(w: &Workload, opts: &Options) -> Vec<Arc<TaskTrace>> {
    w.graphs
        .iter()
        .map(|&(bench, scale)| {
            let scale = if opts.quick { Scale::Small } else { scale };
            Arc::new(bench.trace(scale, opts.seed))
        })
        .collect()
}

/// Everything before the timed phase: trace generation from the seed,
/// the executor or the server and its handshaken clients, and the
/// workload's fixed warm-up (for the simulator, the oracle-validated
/// pass).
fn set_up(w: &Workload, opts: &Options, check: &mut Check) -> Result<Ready, String> {
    let t0 = Instant::now();
    let graphs = generate(w, opts);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let exec = Executor::new(exec_config(w.payload, opts.seed));
    let warm = Stop::Passes(w.warmup_passes);
    let mut session = None;
    match w.kind {
        Kind::Replay => {
            // A spinning payload has nothing to warm; the traces, the
            // memoized oracle and the allocator do.
            let warm_exec = Executor::new(exec_config(PayloadMode::Noop, opts.seed));
            replay(&graphs, &warm_exec, warm, &mut Tracer::off(), check);
        }
        Kind::Serve => {
            let mut s = ServeSession::start(w.payload, opts.seed)?;
            s.run(w, &graphs, warm, &mut tracers_off(), check);
            session = Some(s);
        }
        Kind::Sim => {
            sim(&graphs, true, warm, &mut Tracer::off(), check);
        }
    }
    Ok(Ready { graphs, gen_ms, exec, session })
}

fn tracers_off() -> Vec<Tracer> {
    (0..CLIENTS).map(|_| Tracer::off()).collect()
}

// ---------------------------------------------------------------------
// Derived figures
// ---------------------------------------------------------------------

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    sort(&mut s);
    s
}

/// Tasks in one pass over the workload's own pattern.
fn tasks_per_pass(w: &Workload, graphs: &[Arc<TaskTrace>]) -> f64 {
    let tasks: usize = w.pattern.iter().map(|&g| graphs[g].len()).sum();
    match w.kind {
        // Both engines simulate every task.
        Kind::Sim => 2.0 * tasks as f64,
        _ => tasks as f64,
    }
}

/// Graphs per second of a serve loop: each client's batch size over
/// its median batch time, summed over the clients.
fn serve_graphs_per_s(w: &Workload, out: &ServeOut) -> f64 {
    out.batch_s.iter().filter(|b| !b.is_empty()).map(|b| w.batch as f64 / median(b)).sum()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Untraced pass: the end-to-end metrics
// ---------------------------------------------------------------------

pub fn run(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        traced(w, opts)
    } else {
        untraced(w, opts)
    }
}

fn untraced(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let mut check = Check::default();

    // Set up several times and report the median; the last one is the
    // one that gets measured.
    let mut setup_s = Vec::new();
    let setup_t0 = Instant::now();
    let mut ready = loop {
        let t0 = Instant::now();
        let ready = set_up(w, opts, &mut check)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let enough = setup_s.len() >= SETUP_REPS
            || (setup_s.len() >= SETUP_REPS_MIN && setup_t0.elapsed() >= SETUP_TIME_CAP);
        if opts.quick || enough {
            break ready;
        }
        if let Some(s) = ready.session {
            s.finish(&mut check);
        }
    };

    let stop = Stop::After(Duration::from_secs_f64(opts.seconds));
    let tasks_pass = tasks_per_pass(w, &ready.graphs);
    let (graphs_per_s, tasks_per_s, mut latency_us) = match w.kind {
        Kind::Replay => {
            let out = replay(&ready.graphs, &ready.exec, stop, &mut Tracer::off(), &mut check);
            let iter = median(&out.iter_s);
            (ready.graphs.len() as f64 / iter, tasks_pass / iter, out.graph_us)
        }
        Kind::Serve => {
            let mut session = ready.session.take().expect("serve set-up starts a session");
            let out = session.run(w, &ready.graphs, stop, &mut tracers_off(), &mut check);
            session.finish(&mut check);
            let gps = serve_graphs_per_s(w, &out);
            (gps, gps * tasks_pass / w.pattern.len() as f64, out.latency_us)
        }
        Kind::Sim => {
            let out = sim(&ready.graphs, false, stop, &mut Tracer::off(), &mut check);
            let iter = median(&out.iter_s);
            (2.0 * ready.graphs.len() as f64 / iter, tasks_pass / iter, out.run_us)
        }
    };
    sort(&mut latency_us);
    let samples = latency_us.len();
    let values =
        [tasks_per_s, graphs_per_s, median_sorted(&latency_us), peak_rss_mb(), median(&setup_s)];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric { name: m.name, value, unit: m.unit })
        .collect();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: closed loop, {} executor workers{}, all on cpu {}; {:.1} s timed, seed {}",
        w.name,
        EXEC_THREADS,
        if w.kind == Kind::Serve { format!(", {CLIENTS} clients") } else { String::new() },
        opts.cpu,
        opts.seconds,
        opts.seed
    );
    // The tail is a layer metric (it spreads too much to hold a bound);
    // the untraced figure is printed for the reader only.
    let _ = writeln!(
        report,
        "  latency over {samples} graphs, p{:.1} = {:.1} us (not bounded); set-up median of {}",
        100.0 * supported_q(samples, 0.9),
        quantile_supported(&latency_us, 0.9),
        setup_s.len()
    );
    finish(w, check, metrics, report)
}

// ---------------------------------------------------------------------
// Traced pass: the per-layer metrics
// ---------------------------------------------------------------------

/// One serve loop's figures plus the server's own ledger.
struct Served {
    out: ServeOut,
    summary: DrainSummary,
    start_ms: f64,
    drain_ms: f64,
}

fn traced(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let mut check = Check::default();
    let Ready { graphs, gen_ms, exec, session } = set_up(w, opts, &mut check)?;
    let graphs = &graphs[..];
    let share = |f: f64| Duration::from_secs_f64(opts.seconds * f);
    let (main, probe) = (Stop::After(share(0.50)), Stop::After(share(0.08)));
    let epoch = Instant::now();
    let off = &mut Tracer::off();

    // The workload's own loop runs with every other iteration traced:
    // it feeds the layer table and the Chrome trace, and the traced
    // and untraced iterations differ by the tracing overhead. The
    // other two loops run as short untraced probes over the same
    // graphs.
    let mut threads: Vec<(u32, Vec<Span>)> = Vec::new();
    let (replayed, served, simulated, overhead): (ReplayOut, Served, SimOut, f64);
    match w.kind {
        Kind::Replay => {
            let mut tr = Tracer::on(epoch, 0);
            replayed = replay(graphs, &exec, main, &mut tr, &mut check);
            threads.push(tr.finish());
            overhead = overhead_pct(&replayed.iter_s);
            served = serve_probe(w, graphs, opts, probe, &mut check)?;
            simulated = sim(graphs, false, probe, off, &mut check);
        }
        Kind::Serve => {
            let session = session.expect("serve set-up starts a session");
            let mut trs: Vec<Tracer> = (0..CLIENTS).map(|c| Tracer::on(epoch, c as u32)).collect();
            served = serve_and_drain(session, w, graphs, main, &mut trs, &mut check);
            threads.extend(trs.into_iter().map(Tracer::finish));
            let batches = &served.out.batch_s;
            overhead = batches.iter().map(|b| overhead_pct(b)).sum::<f64>() / CLIENTS as f64;
            // The server's payload is the workload's, so `exec` is the
            // in-process twin of what the runners execute.
            replayed = replay(graphs, &exec, probe, off, &mut check);
            simulated = sim(graphs, false, probe, off, &mut check);
        }
        Kind::Sim => {
            let mut tr = Tracer::on(epoch, 0);
            simulated = sim(graphs, false, main, &mut tr, &mut check);
            threads.push(tr.finish());
            overhead = overhead_pct(&simulated.iter_s);
            replayed = replay(graphs, &exec, probe, off, &mut check);
            served = serve_probe(w, graphs, opts, probe, &mut check)?;
        }
    }

    let wire = probes::proto(graphs, share(0.04), &mut check);
    let rename = probes::renamer(graphs, share(0.06), &mut check);
    let deques = probes::deque(share(0.02));
    let payload_ns = probes::payload(graphs, w.payload, share(0.03));
    let fixed_us = probes::exec_fixed(false, opts.seed, share(0.03), &mut check);
    let fixed_armed_us = probes::exec_fixed(true, opts.seed, share(0.03), &mut check);
    let validate_ns = probes::validate(graphs, opts.seed, share(0.03), &mut check);
    let prebuilt_ns = probes::replay_prebuilt(graphs, opts.seed, share(0.05), &mut check);
    let timer_ns = probes::timer_ns_per_span();

    // The replay loop's renamer counts must be the probe's: both
    // decode the same graphs.
    check.require(
        replayed.rename.enforced_edges == rename.stats.enforced_edges
            && replayed.rename.objects == rename.stats.objects,
        || {
            format!(
                "renamer: Executor::run counted {:?}, Renamer::decode {:?}",
                replayed.rename, rename.stats
            )
        },
    );

    let graph_tasks: f64 = graphs.iter().map(|g| g.len()).sum::<usize>() as f64;
    let stream_ns = 1e9 * median(&replayed.iter_s) / graph_tasks;
    let s = &served.out;
    let latency = sorted(&s.latency_us);
    // Decode + assemble of the graphs the latency samples are over.
    let class_decode_us: Vec<f64> = w
        .pattern
        .iter()
        .filter(|&&g| w.latency_class.is_none_or(|c| c == g))
        .map(|&g| wire.decode_assemble_us[g])
        .collect();
    // The p50 of each part, and each part's mean over the graphs whose
    // latency lies between p45 and p55: parts of one interval, so the
    // second column adds up to the latency of the median graph.
    let parts: [(&str, &[f64]); 4] = [
        ("client.write", &s.write_us),
        ("client.admission_wait", &s.admission_us),
        ("server.exec_wall", &s.exec_wall_us),
        ("server.queue_and_done", &s.queue_and_done_us),
    ];
    let band = median_band(&s.latency_us);
    let budget_rows: Vec<(&str, f64, f64)> = parts
        .iter()
        .map(|(name, v)| {
            (*name, median(v), band.iter().map(|&i| v[i]).sum::<f64>() / band.len().max(1) as f64)
        })
        .collect();
    let latency_p50 = median_sorted(&latency);
    let coverage_pct = if latency_p50 > 0.0 {
        100.0 * budget_rows.iter().map(|r| r.2).sum::<f64>() / latency_p50
    } else {
        0.0
    };
    let sim_events = (simulated.hw_events + simulated.sw_events) as f64;
    let sim_iter = median(&simulated.iter_s);

    let values: HashMap<&str, f64> = HashMap::from([
        ("proto.frames_ns_per_task", wire.frames_ns_per_task),
        ("proto.encode_ns_per_task", wire.encode_ns_per_task),
        ("proto.decode_ns_per_task", wire.decode_ns_per_task),
        ("proto.assemble_ns_per_task", wire.assemble_ns_per_task),
        ("proto.bytes_per_task", wire.bytes_per_task),
        ("proto.frames_per_graph", wire.frames_per_graph),
        ("client.write_us_p50", median(&s.write_us)),
        ("client.admission_wait_us_p50", median(&s.admission_us)),
        ("client.run_wait_us_p50", median(&s.run_wait_us)),
        ("client.graph_latency_p50_us", latency_p50),
        ("client.graph_latency_p90_us", quantile_supported(&latency, 0.9)),
        ("client.graph_latency_p99_us", quantile_supported(&latency, 0.99)),
        ("client.graph_latency_p999_us", quantile_supported(&latency, 0.999)),
        ("client.resubmits", s.seen.resubmits as f64),
        ("server.exec_wall_us_p50", median(&s.exec_wall_us)),
        ("server.queue_and_done_us_p50", median(&s.queue_and_done_us)),
        ("server.admission_residual_us_p50", median(&s.admission_us) - median(&class_decode_us)),
        ("server.accepted", served.summary.accepted as f64),
        ("server.completed", served.summary.completed as f64),
        ("server.rejected_overloaded", served.summary.rejected_overloaded as f64),
        ("server.rejected_quota", served.summary.rejected_quota as f64),
        ("server.undelivered_done", served.summary.undelivered_done as f64),
        ("server.start_ms", served.start_ms),
        ("server.drain_ms", served.drain_ms),
        ("exec.stream_ns_per_task", stream_ns),
        ("exec.replay_ns_per_task", prebuilt_ns),
        ("exec.run_us_per_graph_p50", median(&replayed.graph_us)),
        ("exec.run_us_per_graph_p90", quantile_supported(&sorted(&replayed.graph_us), 0.9)),
        ("exec.fixed_us_per_run", fixed_us),
        ("exec.fixed_armed_us_per_run", fixed_armed_us),
        ("exec.validate_ns_per_task", validate_ns),
        ("exec.steals_per_iter", median(&replayed.steals)),
        ("exec.busy_frac", median(&replayed.busy_frac)),
        ("exec.decode_overlap_pct", median(&replayed.overlap_pct)),
        ("renamer.decode_ns_per_task", rename.decode_ns_per_task),
        ("renamer.stream_decode_ns_per_task", rename.stream_decode_ns_per_task),
        ("renamer.enforced_edges", rename.stats.enforced_edges as f64),
        ("renamer.objects", rename.stats.objects as f64),
        ("renamer.removed_by_renaming", rename.stats.removed_by_renaming as f64),
        ("deque.push_pop_ns_per_op", deques.push_pop_ns_per_op),
        ("deque.steal_ns_per_op", deques.steal_ns_per_op),
        ("deque.steal_batch_ns_per_item", deques.steal_batch_ns_per_item),
        ("payload.serial_ns_per_task", payload_ns),
        // CPU the payload needs over the CPU the run had.
        ("payload.share_of_cpu", (payload_ns / (EXEC_THREADS as f64 * stream_ns)).min(1.0)),
        ("sim.events_per_s", sim_events / sim_iter),
        ("sim.hw_events_per_s", simulated.hw_events as f64 / median(&simulated.hw_s)),
        ("sim.sw_events_per_s", simulated.sw_events as f64 / median(&simulated.sw_s)),
        ("sim.host_ns_per_event", 1e9 * sim_iter / sim_events),
        ("sim.events", sim_events),
        ("sim.makespan_cycles", simulated.makespan_cycles as f64),
        ("sim.peak_event_queue", simulated.peak_event_queue as f64),
        ("gen.trace_gen_ms", gen_ms),
        ("gen.tasks_per_iter", tasks_per_pass(w, graphs)),
        ("bench.trace_overhead_pct", overhead),
        ("bench.timer_ns_per_span", timer_ns),
        ("bench.budget_coverage_pct", coverage_pct),
    ]);
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: *values.get(m.name).unwrap_or_else(|| panic!("no value for {}", m.name)),
            unit: m.unit,
        })
        .collect();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: traced pass, {:.1} s shared between the workload's loop (untraced, then traced) and the layer probes; seed {}",
        w.name, opts.seconds, opts.seed
    );
    let from = |kind| {
        if w.kind == kind {
            "this workload's traced loop"
        } else {
            "a probe loop over its graphs"
        }
    };
    let _ = writeln!(
        report,
        "  exec.* from {}, client.*/server.* from {}, sim.* from {}",
        from(Kind::Replay),
        from(Kind::Serve),
        from(Kind::Sim)
    );
    let _ = writeln!(
        report,
        "  client latency over {} graphs (p99 reported at p{:.2}, p999 at p{:.2})",
        latency.len(),
        100.0 * supported_q(latency.len(), 0.99),
        100.0 * supported_q(latency.len(), 0.999)
    );
    span_table(&mut report, &threads);
    if w.kind == Kind::Serve {
        budget_table(&mut report, &budget_rows, latency_p50, coverage_pct);
    }
    write_trace(w, &threads, &mut report);
    finish(w, check, metrics, report)
}

/// A fresh loopback session over `graphs` for a workload whose own
/// loop is not the serve loop.
fn serve_probe(
    w: &Workload,
    graphs: &[Arc<TaskTrace>],
    opts: &Options,
    stop: Stop,
    check: &mut Check,
) -> Result<Served, String> {
    let session = ServeSession::start(w.payload, opts.seed)?;
    Ok(serve_and_drain(session, w, graphs, stop, &mut tracers_off(), check))
}

/// Runs the clients' loop on `session`, then drains it.
fn serve_and_drain(
    mut session: ServeSession,
    w: &Workload,
    graphs: &[Arc<TaskTrace>],
    stop: Stop,
    tracers: &mut [Tracer],
    check: &mut Check,
) -> Served {
    let out = session.run(w, graphs, stop, tracers, check);
    let start_ms = session.start_ms;
    let (summary, drain_ms) = session.finish(check);
    Served { out, summary, start_ms, drain_ms }
}

fn span_table(report: &mut String, threads: &[(u32, Vec<Span>)]) {
    let _ = writeln!(report, "  spans of the traced loop (self = duration minus child spans):");
    let _ = writeln!(
        report,
        "    {:<24} {:>9} {:>13} {:>13}",
        "span", "count", "mean us", "self mean us"
    );
    for (name, t) in totals_by_name(threads) {
        let n = t.count.max(1) as f64;
        let _ = writeln!(
            report,
            "    {:<24} {:>9} {:>13.2} {:>13.2}",
            name,
            t.count,
            t.total_ns as f64 / n / 1e3,
            t.self_ns as f64 / n / 1e3
        );
    }
}

/// Indices of the samples between the 45th and 55th percentile.
fn median_band(latency_us: &[f64]) -> Vec<usize> {
    let mut by_latency: Vec<usize> = (0..latency_us.len()).collect();
    by_latency.sort_by(|&a, &b| latency_us[a].total_cmp(&latency_us[b]));
    let n = by_latency.len();
    let (lo, hi) = (n * 45 / 100, (n * 55).div_ceil(100).max(n.min(1)));
    by_latency[lo.min(hi)..hi].to_vec()
}

fn budget_table(
    report: &mut String,
    rows: &[(&str, f64, f64)],
    latency_p50: f64,
    coverage_pct: f64,
) {
    let _ = writeln!(
        report,
        "  latency budget, outside-in (p50 of each part | its mean over the p45-p55 graphs):"
    );
    for (name, p50, mid) in rows {
        let _ = writeln!(
            report,
            "    {:<24} {:>10.1} us | {:>10.1} us {:>6.1}%",
            name,
            p50,
            mid,
            100.0 * mid / latency_p50.max(f64::MIN_POSITIVE)
        );
    }
    let _ = writeln!(
        report,
        "    {:<24} {:>10.1} us | {:>10.1} us {:>6.1}%  of graph latency p50 {:.1} us",
        "sum",
        rows.iter().map(|r| r.1).sum::<f64>(),
        rows.iter().map(|r| r.2).sum::<f64>(),
        coverage_pct,
        latency_p50
    );
    let mut by_cost = rows.to_vec();
    by_cost.sort_by(|a, b| b.2.total_cmp(&a.2));
    let _ = writeln!(report, "    two largest: {} then {}", by_cost[0].0, by_cost[1].0);
}

fn write_trace(w: &Workload, threads: &[(u32, Vec<Span>)], report: &mut String) {
    let path = format!("{TRACE_DIR}/trace_{}.json", w.name);
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, chrome_json(threads)));
    let spans: usize = threads.iter().map(|t| t.1.len()).sum();
    let _ = match written {
        Ok(()) => writeln!(report, "  wrote {spans} spans to {path}"),
        Err(e) => writeln!(report, "  could not write {path}: {e}"),
    };
}

fn finish(
    w: &Workload,
    check: Check,
    mut metrics: Vec<Metric>,
    mut report: String,
) -> Result<Outcome, String> {
    let mut violations: Vec<String> =
        check.notes.iter().map(|n| format!("{}: {n}", w.name)).collect();
    let mut failed = check.failed;
    for m in &mut metrics {
        // JSON has no NaN: a figure that could not be computed is a
        // failure, reported as 0.
        if !m.value.is_finite() {
            violations.push(format!("{}: metric {} is not a finite number", w.name, m.name));
            m.value = 0.0;
            failed += 1;
        }
    }
    for m in &metrics {
        let _ = writeln!(report, "  {:<34} {:>18.4} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(report, "  attempted {}  failed {}", check.attempted, failed);
    Ok(Outcome {
        correct: failed == 0,
        attempted: check.attempted.max(1),
        failed,
        metrics,
        report,
        violations,
    })
}
