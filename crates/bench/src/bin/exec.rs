//! Native-executor harness: replay all nine Table-I benchmarks on real
//! threads (`tss-exec`), oracle-validate every completion log, and
//! record decode + replay + pipelined-streaming throughput in
//! `BENCH_exec.json` (DESIGN.md §7–§8).
//!
//! Three numbers per benchmark:
//!
//! - **decode** — the software renamer's one-pass, single-thread decode
//!   rate in ns/task (best of [`DECODE_REPS`] passes). This is the
//!   native analog of the paper's Section-II measurement that a
//!   software task decoder costs ~700 ns/task — the ceiling the whole
//!   hardware pipeline exists to break.
//! - **replay** — two-phase (decode first, then execute) threaded
//!   replay throughput in tasks/sec with the selected payload: the
//!   scheduler-only number, comparable across PRs.
//! - **stream** — the pipelined end-to-end run: workers with nothing to
//!   run rename window by window *while* the others execute earlier
//!   windows.
//!   Reported as end-to-end tasks/sec plus `decode_overlap_pct` (share
//!   of the run during which decode was still streaming — the paper's
//!   "decode must not serialize the backend" claim, at native speed).
//!
//! Every replay's completion log is checked against the `DepGraph`
//! oracle; any violation exits nonzero (CI gates on this, not timing).
//! Chaos runs (DESIGN.md §11) additionally gate on the accounting
//! identity `completed + failed + poisoned = tasks` and on the replay
//! and streamed runs agreeing on the (seed-deterministic) failure sets.
//!
//! Flags: `--scale small|paper|large`, `--threads N`, `--payload
//! noop|spin|memcpy|faulty|mixed`, `--spin-scale F`, `--seed N`,
//! `--window N`, `--decode-shards N`, `--no-renaming`, `--json`, `--out
//! PATH`, plus the failure domain: `--fault-rate F` (0..=1),
//! `--fault-seed N`, `--failure-policy fail-fast|quarantine`,
//! `--run-deadline-ms N`, `--kill-worker W`. Bad flag values *and* bad
//! flag combinations print a clear error naming the flags and exit 2
//! (they never panic); a structured run failure ([`ExecError`]) also
//! exits 2.
//!
//! Observability (DESIGN.md §12, needs a `--features obs` build —
//! rejected up front otherwise): `--trace-out PATH` writes the
//! streaming runs as Chrome `trace_event` JSON (one process per
//! benchmark, one track per worker, decode steps included); `--histogram`
//! prints the sampled per-task latency quantiles. An obs build also
//! adds `latency_p50/p99/p999_ns` and `queue_p50/p99/p999_ns` (from
//! the replay runs) to every JSON row and to `totals`, and the streamed
//! runs' per-role thread-CPU budget (DESIGN.md §12.6) as
//! `cpu_{setup,scan,commit,workers,finish}_ns_per_task` — printed as a
//! table too.

use std::time::{Duration, Instant};

use tss_bench::cli::{fail, validated_run, Flags, Parsed};
use tss_bench::hw_threads;
use tss_bench::json::{self, Fields};
use tss_bench::ratio;
use tss_core::report::{fmt_count_pct, fmt_f};
use tss_core::Table;
use tss_exec::fault::install_quiet_hook;
use tss_exec::{
    ConfigError, ExecConfig, ExecError, ExecReport, Executor, FailurePolicy, PayloadMode, Renamer,
};
use tss_obs::hist::Histogram;
use tss_obs::Role;
use tss_workloads::{Benchmark, Scale};

/// The paper's software-decoder baseline (Section II): ~700 ns/task.
const PAPER_SOFTWARE_DECODE_NS: f64 = 700.0;

/// Decode passes per benchmark; the best is reported (first pass pays
/// page faults and cache warmup).
const DECODE_REPS: usize = 3;

struct Args {
    /// The trace scale of every benchmark.
    scale: Scale,
    /// Print the JSON document to stdout instead of the table.
    json: bool,
    /// Where the artifact is written.
    out: String,
    /// What every run of the session executes under. Each completion log
    /// is oracle-checked by the run itself, after its timed span.
    cfg: ExecConfig,
    fault_rate_ppm: u32,
    fault_seed: u64,
    // --- observability (DESIGN.md §12) ---
    trace_out: Option<String>,
    histogram: bool,
}

fn parse_args() -> Parsed<Args> {
    let mut out = Args {
        scale: Scale::Small,
        json: false,
        out: "BENCH_exec.json".into(),
        cfg: ExecConfig { seed: 42, ..ExecConfig::default() },
        fault_rate_ppm: 0,
        fault_seed: 7,
        trace_out: None,
        histogram: false,
    };
    let mut payload_name = String::from("noop");
    let mut spin_scale = 1.0;
    let mut fault_rate: Option<f64> = None;
    let mut policy_name: Option<String> = None;
    let policies = FailurePolicy::all().map(|p| p.name()).join("|");
    let mut flags = Flags::from_env(format!(
        "exec [--scale small|paper|large] [--threads N] \
         [--payload noop|spin|memcpy|faulty|mixed] [--spin-scale F] [--seed N] \
         [--window N] [--decode-shards N] [--no-renaming] [--json] [--out PATH] \
         [--fault-rate F --failure-policy {policies}] \
         [--fault-seed N] [--run-deadline-ms N] [--kill-worker W] \
         [--trace-out PATH] [--histogram]"
    ));
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--scale" => out.scale = flags.scale()?,
            "--seed" => out.cfg.seed = flags.num()?,
            "--json" => out.json = true,
            "--out" => out.out = flags.value()?,
            "--threads" => out.cfg.threads = flags.positive()?,
            "--window" => out.cfg.window = flags.positive()?,
            "--decode-shards" => out.cfg.decode_shards = flags.positive()?,
            "--payload" => payload_name = flags.value()?,
            "--spin-scale" => spin_scale = flags.num()?,
            "--no-renaming" => out.cfg.renaming = false,
            "--fault-rate" => {
                let f: f64 = flags.num()?;
                if !(0.0..=1.0).contains(&f) {
                    return Err("--fault-rate must be a probability in 0..=1".into());
                }
                fault_rate = Some(f);
            }
            "--fault-seed" => out.fault_seed = flags.num()?,
            "--failure-policy" => policy_name = Some(flags.value()?),
            "--run-deadline-ms" => out.cfg.run_deadline = Some(flags.millis()?),
            "--kill-worker" => out.cfg.kill_worker = Some(flags.num()?),
            "--trace-out" => out.trace_out = Some(flags.value()?),
            "--histogram" => out.histogram = true,
            _ => return Err(flags.unknown()),
        }
    }
    out.cfg.payload = PayloadMode::parse(&payload_name, spin_scale).ok_or_else(|| {
        format!("unknown payload '{payload_name}' (noop|spin|memcpy|faulty|mixed)")
    })?;

    // Flag-combination validation (all errors name the flags involved;
    // the CLI tests pin these). Injection must be paired with an
    // explicit policy: silently defaulting to fail-fast would turn a
    // chaos run into a guaranteed exit-2.
    let injecting = fault_rate.is_some_and(|f| f > 0.0)
        || matches!(out.cfg.payload, PayloadMode::Faulty { .. });
    if fault_rate.is_some()
        && !matches!(out.cfg.payload, PayloadMode::Noop | PayloadMode::Faulty { .. })
    {
        return Err(format!(
            "--fault-rate needs --payload noop or faulty, not {}",
            out.cfg.payload.name()
        ));
    }
    if injecting && policy_name.is_none() {
        return Err(format!("--fault-rate / --payload faulty needs --failure-policy {policies}"));
    }
    if let Some(name) = &policy_name {
        out.cfg.policy = FailurePolicy::parse(name)
            .ok_or_else(|| format!("unknown --failure-policy '{name}' ({policies})"))?;
    }
    // The ranges are `ExecConfig::check`'s; only the wording is the
    // flags' (`--threads 0` never gets here: `positive` refused it).
    out.cfg.check().map_err(|e| match (e, out.cfg.kill_worker) {
        (ConfigError::KillWorkerOutOfRange, Some(k)) => {
            format!("--kill-worker {k} is out of range for --threads {}", out.cfg.threads)
        }
        (ConfigError::KillWorkerAlone, _) => {
            "--kill-worker needs --threads of at least 2 (a lone dead worker cannot finish)".into()
        }
        _ => e.to_string(),
    })?;
    if let Some(rate) = fault_rate {
        out.fault_rate_ppm = (rate * 1e6).round() as u32;
    } else if let PayloadMode::Faulty { rate_ppm, .. } = out.cfg.payload {
        out.fault_rate_ppm = rate_ppm;
    }
    if out.fault_rate_ppm > 0 {
        out.cfg.payload =
            PayloadMode::Faulty { rate_ppm: out.fault_rate_ppm, seed: out.fault_seed };
    }
    // Observability flags need a recording build: in the default
    // NoopSink build there is nothing to export, so failing up front
    // beats writing an empty trace file (the CLI tests pin exit 2).
    if !tss_exec::obs_enabled() {
        if out.trace_out.is_some() {
            return Err(
                "--trace-out needs a build with the obs feature (cargo ... --features obs)".into(),
            );
        }
        if out.histogram {
            return Err(
                "--histogram needs a build with the obs feature (cargo ... --features obs)".into(),
            );
        }
    }
    Ok(out)
}

struct Point {
    /// Two-phase replay (decode excluded from `exec_wall`).
    replay: ExecReport,
    /// Pipelined streaming run (decode inside `exec_wall`).
    stream: ExecReport,
    decode_best: Duration,
}

impl Point {
    fn decode_ns_per_task(&self) -> f64 {
        ratio(self.decode_best.as_nanos() as f64, self.replay.tasks as f64)
    }

    fn decode_tasks_per_sec(&self) -> f64 {
        ratio(1e9, self.decode_ns_per_task())
    }

    /// Workers lost over both runs — what the `workers_lost` field and
    /// the chaos line report.
    fn workers_lost(&self) -> usize {
        self.replay.fault.workers_lost + self.stream.fault.workers_lost
    }
}

/// A run's sampled histograms: `(exec latency, queue wait)`.
type Sampled<'a> = (&'a Histogram, &'a Histogram);

fn sampled(report: &ExecReport) -> Option<Sampled<'_>> {
    report.obs.as_ref().map(|o| (&o.exec_latency, &o.queue_wait))
}

/// The six latency fields of one run's samples — none in a NoopSink
/// build (`bench_check` presence-gates exactly this).
fn latency_fields(fields: Fields, obs: Option<Sampled<'_>>) -> Fields {
    fields.quantiles("latency", obs.map(|o| o.0)).quantiles("queue", obs.map(|o| o.1))
}

/// Thread-CPU nanoseconds per task, one figure per [`Role`].
type RoleBudget = [f64; Role::ALL.len()];

/// The per-role CPU budget of the streamed `runs` (the runs with all
/// five roles), in ns per task over all of them; `None` in a NoopSink
/// build.
fn role_cpu_ns_per_task<'a>(runs: impl IntoIterator<Item = &'a ExecReport>) -> Option<RoleBudget> {
    let (mut ns, mut tasks) = ([0u64; Role::ALL.len()], 0usize);
    for run in runs {
        let obs = run.obs.as_ref()?;
        tasks += run.tasks;
        for role in Role::ALL {
            ns[role as usize] += obs.role_cpu.ns(role);
        }
    }
    Some(ns.map(|ns| ratio(ns as f64, tasks as f64)))
}

/// [`role_cpu_ns_per_task`] as `cpu_<role>_ns_per_task` fields — none
/// when the build recorded none.
fn role_fields(fields: Fields, budget: Option<RoleBudget>) -> Fields {
    let Some(budget) = budget else { return fields };
    Role::ALL.into_iter().fold(fields, |fields, role| {
        fields.fixed(&format!("cpu_{}_ns_per_task", role.name()), budget[role as usize], 1)
    })
}

/// Every replay run's samples merged, for the totals row. `None` in a
/// NoopSink build.
fn merged_obs(points: &[Point]) -> Option<(Histogram, Histogram)> {
    let mut runs = points.iter().filter_map(|p| sampled(&p.replay));
    let (exec, queue) = runs.next()?;
    let mut merged = (exec.clone(), queue.clone());
    for (exec, queue) in runs {
        merged.0.merge(exec);
        merged.1.merge(queue);
    }
    Some(merged)
}

/// Aggregate decode stats over all benchmarks: `(total tasks, ns/task,
/// tasks/sec, headroom vs the paper's software decoder)`. One helper so
/// the JSON artifact and the printed summary can never disagree.
fn aggregate_decode(points: &[Point]) -> (usize, f64, f64, f64) {
    let tasks: usize = points.iter().map(|p| p.replay.tasks).sum();
    let decode_wall: f64 = points.iter().map(|p| p.decode_best.as_secs_f64()).sum();
    let agg_ns = ratio(decode_wall * 1e9, tasks as f64);
    (tasks, agg_ns, ratio(1e9, agg_ns), ratio(PAPER_SOFTWARE_DECODE_NS, agg_ns))
}

/// Aggregate throughput over a wall-time extractor: `sum(tasks) /
/// sum(wall)` — the headline number EXPERIMENTS.md tracks across PRs.
fn aggregate_rate(points: &[Point], wall: impl Fn(&Point) -> f64) -> f64 {
    let tasks: usize = points.iter().map(|p| p.replay.tasks).sum();
    ratio(tasks as f64, points.iter().map(wall).sum())
}

fn to_json(args: &Args, points: &[Point]) -> String {
    let cfg = &args.cfg;
    let header = Fields::new()
        .text("schema", "tss-bench-exec/v5")
        .text("scale", args.scale.name())
        .put("threads", cfg.threads)
        .put("hw_threads", hw_threads())
        .text("payload", cfg.payload.name())
        .put("seed", cfg.seed)
        .put("window", cfg.window)
        .put("decode_shards", cfg.decode_shards)
        .put("renaming", cfg.renaming)
        .text("failure_policy", cfg.policy.name())
        .put("fault_rate_ppm", args.fault_rate_ppm)
        .put("fault_seed", args.fault_seed)
        .put("paper_software_decoder_ns_per_task", PAPER_SOFTWARE_DECODE_NS);
    let rows: Vec<Fields> = points
        .iter()
        .map(|p| {
            let r = &p.replay;
            let workers = (0..r.workers.len()).map(|w| {
                Fields::new()
                    .put("executed", r.workers[w].executed)
                    .put("steals", r.workers[w].steals)
                    .fixed("busy_frac", r.utilization(w), 4)
                    .object()
            });
            let timing = Fields::new()
                .text("benchmark", &r.benchmark)
                .put("tasks", r.tasks)
                .put("enforced_edges", r.rename.enforced_edges)
                .fixed("decode_ns_per_task", p.decode_ns_per_task(), 1)
                .fixed("decode_tasks_per_sec", p.decode_tasks_per_sec(), 0)
                .fixed("exec_wall_ms", r.exec_wall.as_secs_f64() * 1e3, 3)
                .fixed("exec_tasks_per_sec", r.tasks_per_sec(), 0)
                .put("steals", r.total_steals())
                .fixed("stream_wall_ms", p.stream.exec_wall.as_secs_f64() * 1e3, 3)
                .fixed("stream_tasks_per_sec", p.stream.tasks_per_sec(), 0)
                .fixed("decode_overlap_pct", p.stream.decode_overlap_pct, 1);
            role_fields(latency_fields(timing, sampled(r)), role_cpu_ns_per_task([&p.stream]))
                .put("failed", r.fault.failed.len())
                .put("poisoned", r.fault.poisoned.len())
                .put("workers_lost", p.workers_lost())
                .put("validated", r.validated && p.stream.validated)
                .list("workers", workers)
        })
        .collect();
    let (tasks, agg_ns, per_sec, headroom) = aggregate_decode(points);
    let overlap = if points.is_empty() {
        0.0
    } else {
        points.iter().map(|p| p.stream.decode_overlap_pct).sum::<f64>() / points.len() as f64
    };
    let sum = |count: fn(&Point) -> usize| points.iter().map(count).sum::<usize>();
    let rates = Fields::new()
        .put("tasks", tasks)
        .put("hw_threads", hw_threads())
        .fixed("decode_ns_per_task", agg_ns, 1)
        .fixed("decode_tasks_per_sec", per_sec, 0)
        .fixed("decode_headroom_vs_paper", headroom, 1)
        .fixed(
            "exec_tasks_per_sec",
            aggregate_rate(points, |p| p.replay.exec_wall.as_secs_f64()),
            0,
        )
        .fixed(
            "stream_tasks_per_sec",
            aggregate_rate(points, |p| p.stream.exec_wall.as_secs_f64()),
            0,
        )
        .fixed("decode_overlap_pct_mean", overlap, 1);
    let merged = merged_obs(points);
    let totals = latency_fields(rates, merged.as_ref().map(|m| (&m.0, &m.1)));
    let totals = role_fields(totals, role_cpu_ns_per_task(points.iter().map(|p| &p.stream)))
        .put("failed", sum(|p| p.replay.fault.failed.len()))
        .put("poisoned", sum(|p| p.replay.fault.poisoned.len()))
        .put("workers_lost", sum(Point::workers_lost));
    json::document(header, &rows, totals)
}

/// Renders the sampled latency quantiles as a table (`--histogram`;
/// only reachable in an obs build, so the replay reports carry obs).
fn histogram_table(points: &[Point]) -> String {
    let mut table = Table::new(
        format!("Sampled task latency (1 in {} tasks, ns)", tss_exec::obs::SAMPLE_EVERY),
        &[
            "Benchmark",
            "samples",
            "exec p50",
            "exec p99",
            "exec p999",
            "queue p50",
            "queue p99",
            "queue p999",
        ],
    );
    let row = |table: &mut Table, name: String, (exec, queue): Sampled<'_>| {
        table.row(vec![
            name,
            exec.count().to_string(),
            exec.p50().to_string(),
            exec.p99().to_string(),
            exec.p999().to_string(),
            queue.p50().to_string(),
            queue.p99().to_string(),
            queue.p999().to_string(),
        ]);
    };
    for p in points {
        if let Some(o) = sampled(&p.replay) {
            row(&mut table, p.replay.benchmark.clone(), o);
        }
    }
    if let Some(m) = merged_obs(points) {
        row(&mut table, "TOTAL".into(), (&m.0, &m.1));
    }
    table.render()
}

/// Renders the streamed runs' per-role CPU budget as a table; `None`
/// in a NoopSink build.
fn role_table(points: &[Point]) -> Option<String> {
    let mut columns = vec!["Benchmark"];
    columns.extend(Role::ALL.map(Role::name));
    columns.push("all roles");
    let mut table =
        Table::new("Thread CPU per role, streamed runs (ns per task)".to_string(), &columns);
    let mut row = |name: String, budget: RoleBudget| {
        let mut cells = vec![name];
        cells.extend(budget.iter().map(|&ns| fmt_f(ns, 1)));
        cells.push(fmt_f(budget.iter().sum(), 1));
        table.row(cells);
    };
    for p in points {
        row(p.stream.benchmark.clone(), role_cpu_ns_per_task([&p.stream])?);
    }
    row("TOTAL".into(), role_cpu_ns_per_task(points.iter().map(|p| &p.stream))?);
    Some(table.render())
}

/// The failure identity of a run: which tasks failed and which
/// were cone-poisoned. Injection is a pure function of `(fault seed,
/// task)` (DESIGN.md §11), so with `--fault-rate` armed the replay and
/// streamed runs must agree on this exactly.
fn failure_sets(r: &ExecReport) -> (Vec<u32>, Vec<u32>) {
    (r.fault.failed.iter().map(|f| f.task).collect(), r.fault.poisoned.clone())
}

/// Unwraps one run's result and applies the post-run gates, in severity
/// order: a structured run failure ([`ExecError`]) is a user-visible
/// outcome and exits 2; an oracle violation ([`validated_run`]) or a
/// non-reconciling accounting identity is an executor bug and exits 1.
fn run_checked(bench: Benchmark, result: Result<ExecReport, ExecError>) -> ExecReport {
    let report = validated_run("exec", bench, result);
    if !report.accounting_reconciles() {
        eprintln!(
            "[exec] {bench}: ACCOUNTING MISMATCH: completed {} + failed {} + poisoned {} \
             != tasks {}",
            report.completed(),
            report.fault.failed.len(),
            report.fault.poisoned.len(),
            report.tasks,
        );
        std::process::exit(1);
    }
    report
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(e));
    let chaos = args.fault_rate_ppm > 0 || args.cfg.kill_worker.is_some();
    if chaos {
        // Injected panics are expected traffic at a 5% rate; keep the
        // default hook's backtraces for *real* panics only.
        install_quiet_hook();
    }
    let mut points = Vec::with_capacity(9);
    for bench in Benchmark::all() {
        let trace = bench.trace(args.scale, args.cfg.seed);

        // Decode microbench: the renamer alone, single pass, best of N.
        let renamer = Renamer::new().renaming(args.cfg.renaming);
        let mut decode_best = Duration::MAX;
        let mut graph = None;
        for _ in 0..DECODE_REPS {
            drop(graph.take()); // the previous pass's graph, outside the timed span
            let t0 = Instant::now();
            let g = renamer.decode(&trace);
            decode_best = decode_best.min(t0.elapsed());
            graph = Some(g);
        }
        let graph = graph.expect("DECODE_REPS is at least 1");

        let exec = Executor::new(args.cfg.clone());
        // Two-phase replay of the graph just decoded: the scheduler-only,
        // PR-comparable number, reporting the decode time the table prints.
        let replay = run_checked(bench, exec.replay(&trace, &graph, decode_best));
        // Pipelined streaming run: decode overlapped with execution. The
        // replayed graph is not resident under the span its columns time.
        drop(graph);
        let stream = run_checked(bench, exec.run(&trace));
        if args.fault_rate_ppm > 0 && failure_sets(&replay) != failure_sets(&stream) {
            eprintln!(
                "[exec] {bench}: DETERMINISM VIOLATION: replay and streamed runs disagree \
                 on the failure sets (replay {:?}, stream {:?}) for the same fault seed",
                failure_sets(&replay),
                failure_sets(&stream),
            );
            std::process::exit(1);
        }
        eprintln!(
            "  [exec] {bench}: {} tasks, decode {:.0} ns/task, replay {:.2} ms ({} steals), \
             stream {:.2} ms ({:.0}% decode overlap) — ok",
            replay.tasks,
            decode_best.as_nanos() as f64 / replay.tasks.max(1) as f64,
            replay.exec_wall.as_secs_f64() * 1e3,
            replay.total_steals(),
            stream.exec_wall.as_secs_f64() * 1e3,
            stream.decode_overlap_pct,
        );
        if replay.fault.any() || stream.fault.any() {
            eprintln!(
                "  [exec] {bench}: chaos (replay run): failed {}, poisoned {}; \
                 workers lost {} (replay + stream)",
                fmt_count_pct(replay.fault.failed.len(), replay.tasks),
                fmt_count_pct(replay.fault.poisoned.len(), replay.tasks),
                replay.fault.workers_lost + stream.fault.workers_lost,
            );
        }
        points.push(Point { replay, stream, decode_best });
    }

    let json = to_json(&args, &points);
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", args.out)));

    // Timeline export (DESIGN.md §12.4): the streaming runs, whose
    // worker tracks carry the decode steps too. Only reachable in an obs
    // build (parse_args rejects the flag otherwise).
    if let Some(path) = &args.trace_out {
        let runs: Vec<(String, &tss_exec::obs::ObsReport)> = points
            .iter()
            .filter_map(|p| p.stream.obs.as_ref().map(|o| (p.stream.benchmark.clone(), o)))
            .collect();
        std::fs::write(path, tss_exec::obs::chrome_trace(&runs))
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("  [exec] wrote Chrome trace of {} runs to {path}", runs.len());
    }

    if args.json {
        print!("{json}");
        if args.histogram {
            // Keep stdout parseable: the human table goes to stderr.
            eprintln!("{}", histogram_table(&points));
        }
    } else {
        let mut table = Table::new(
            format!(
                "Native executor ({} scale, {} threads, {} payload, seed {}, window {}, {} decode shards)",
                args.scale.name(),
                args.cfg.threads,
                args.cfg.payload.name(),
                args.cfg.seed,
                args.cfg.window,
                args.cfg.decode_shards,
            ),
            &[
                "Benchmark",
                "tasks",
                "edges",
                "decode ns/t",
                "replay ms",
                "replay t/s",
                "steals",
                "stream ms",
                "stream t/s",
                "overlap %",
                "failed",
                "poisoned",
                "valid",
            ],
        );
        for p in &points {
            let r = &p.replay;
            table.row(vec![
                r.benchmark.clone(),
                r.tasks.to_string(),
                r.rename.enforced_edges.to_string(),
                fmt_f(p.decode_ns_per_task(), 0),
                fmt_f(r.exec_wall.as_secs_f64() * 1e3, 2),
                fmt_f(r.tasks_per_sec(), 0),
                r.total_steals().to_string(),
                fmt_f(p.stream.exec_wall.as_secs_f64() * 1e3, 2),
                fmt_f(p.stream.tasks_per_sec(), 0),
                fmt_f(p.stream.decode_overlap_pct, 0),
                r.fault.failed.len().to_string(),
                r.fault.poisoned.len().to_string(),
                if r.validated && p.stream.validated { "ok".into() } else { "FAIL".into() },
            ]);
        }
        println!("{}", table.render());
        if args.histogram {
            println!("{}", histogram_table(&points));
        }
        if let Some(roles) = role_table(&points) {
            println!("{roles}");
        }
        let (_, agg_ns, per_sec, headroom) = aggregate_decode(&points);
        println!(
            "Aggregate native decode: {agg_ns:.0} ns/task ({:.2}M tasks/s) vs the paper's \
             ~{PAPER_SOFTWARE_DECODE_NS:.0} ns/task software decoder — {headroom:.1}x headroom.",
            per_sec / 1e6,
        );
        println!(
            "Aggregate replay {:.2}M tasks/s (two-phase) | streamed end-to-end {:.2}M tasks/s.",
            aggregate_rate(&points, |p| p.replay.exec_wall.as_secs_f64()) / 1e6,
            aggregate_rate(&points, |p| p.stream.exec_wall.as_secs_f64()) / 1e6,
        );
        if chaos {
            let total: usize = points.iter().map(|p| p.replay.tasks).sum();
            let failed: usize = points.iter().map(|p| p.replay.fault.failed.len()).sum();
            let poisoned: usize = points.iter().map(|p| p.replay.fault.poisoned.len()).sum();
            println!(
                "Chaos ({} @ {} ppm, fault seed {}): failed {}, poisoned {} — accounting \
                 reconciled, replay/stream failure sets agree.",
                args.cfg.policy.name(),
                args.fault_rate_ppm,
                args.fault_seed,
                fmt_count_pct(failed, total),
                fmt_count_pct(poisoned, total),
            );
        }
        println!("(wrote {})", args.out);
    }
}
