//! Scheduling-policy ablation harness (DESIGN.md §13): replay all nine
//! Table-I benchmarks under both [`SchedKind`]s — the `lifo` baseline
//! and its `fifo` control — across a worker-count grid, with the
//! *mixed* payload (memcpy for memory-class tasks, spin for
//! compute-class), and record the policy-by-policy numbers in
//! `BENCH_sched.json`.
//!
//! Every replay is validated against the `DepGraph` oracle — a
//! violating completion order exits 1 (CI gates on this, not timing):
//! a scheduling policy is free to reorder *ready* tasks, never to
//! break dependences.
//!
//! Every JSON row (and the top level) is stamped with `hw_threads` —
//! the parallelism actually available to the process — because a
//! `--workers 64` row produced on a 1-core container measures
//! scheduler overhead, not scaling (EXPERIMENTS.md §PR 4/5 erratum).
//!
//! Flags: `--scale small|paper|large`, `--policy all|lifo|fifo`
//! (default all), `--workers N,N,...` (default `2,4,8,16,32,64`),
//! `--spin-scale F`, `--seed N`, `--jobs N` (sweep fan-out), `--json`,
//! `--out PATH`. Bad values exit 2 with a message naming the flag; an
//! oracle violation exits 1.

use std::time::Instant;

use tss_bench::cli::{fail, validated_run, Flags, Parsed, RunFlags};
use tss_bench::hw_threads;
use tss_bench::json::{self, Fields};
use tss_bench::ratio;
use tss_core::fabric;
use tss_core::report::fmt_f;
use tss_core::Table;
use tss_exec::{ExecConfig, ExecReport, Executor, PayloadMode, SchedKind, SCHED_MENU};
use tss_trace::TaskTrace;
use tss_workloads::Benchmark;

struct Args {
    /// `--scale --spin-scale --seed --json --out`, and the `--policy`
    /// that `policies` is resolved from.
    run: RunFlags,
    policies: Vec<SchedKind>,
    workers: Vec<usize>,
    jobs: usize,
}

fn parse_args() -> Parsed<Args> {
    let mut run = RunFlags::new("BENCH_sched.json");
    let mut workers = vec![2, 4, 8, 16, 32, 64];
    let mut jobs = fabric::default_jobs();
    let mut flags = Flags::from_env(format!(
        "sched [--scale small|paper|large] [--policy all|{SCHED_MENU}] \
         [--workers N,N,...] [--spin-scale F] [--seed N] [--jobs N] [--json] [--out PATH]"
    ));
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--workers" => {
                let list = flags.value()?;
                workers = list
                    .split(',')
                    .map(|w| match w.trim().parse() {
                        Ok(n) if n >= 1 => Ok(n),
                        _ => Err(format!(
                            "--workers entries must be counts of at least 1, got '{w}'"
                        )),
                    })
                    .collect::<Parsed<_>>()?;
            }
            "--jobs" => jobs = flags.positive()?,
            _ => run.take(&mut flags)?,
        }
    }
    let policies = match run.policy.as_deref() {
        None | Some("all") => SchedKind::all().to_vec(),
        Some(v) => vec![SchedKind::parse(v)
            .ok_or_else(|| format!("unknown policy '{v}' (all|{SCHED_MENU})"))?],
    };
    Ok(Args { policies, workers, jobs, run })
}

/// One grid point: `(benchmark index, policy, worker count)`.
type Point = (usize, SchedKind, usize);

struct Row {
    benchmark: String,
    policy: SchedKind,
    workers: usize,
    report: ExecReport,
}

/// Replays one grid point; the run oracle-checks its own completion
/// order (`validate` is on by default).
fn run_point(args: &Args, trace: &TaskTrace, p: Point) -> Row {
    let (_, policy, workers) = p;
    let cfg = ExecConfig {
        threads: workers,
        payload: PayloadMode::Mixed { time_scale: args.run.spin_scale },
        sched: policy,
        seed: args.run.seed,
        ..Default::default()
    };
    let run = format!("{} [{} x{workers}]", trace.name(), policy.name());
    let report = validated_run("sched", run, Executor::new(cfg).run_oneshot(trace));
    Row { benchmark: trace.name().to_string(), policy, workers, report }
}

/// Per-policy aggregate over every `(benchmark, workers)` cell:
/// `(tasks, tasks/s, steals)`.
fn policy_totals(rows: &[Row], policy: SchedKind) -> (usize, f64, u64) {
    let mine: Vec<&Row> = rows.iter().filter(|r| r.policy == policy).collect();
    let tasks: usize = mine.iter().map(|r| r.report.tasks).sum();
    let wall: f64 = mine.iter().map(|r| r.report.exec_wall.as_secs_f64()).sum();
    let steals: u64 = mine.iter().map(|r| r.report.total_steals()).sum();
    (tasks, ratio(tasks as f64, wall), steals)
}

fn to_json(args: &Args, rows: &[Row], suite_wall_ms: f64) -> String {
    let hw = hw_threads();
    let header = Fields::new()
        .text("schema", "tss-bench-sched/v1")
        .text("scale", args.run.scale.name())
        .text("payload", "mixed")
        .put("seed", args.run.seed)
        .put("hw_threads", hw)
        .list("workers", args.workers.iter().map(|w| w.to_string()))
        .list("policies", args.policies.iter().map(|p| json::string(p.name())));
    let results: Vec<Fields> = rows
        .iter()
        .map(|row| {
            let r = &row.report;
            Fields::new()
                .text("benchmark", &row.benchmark)
                .text("policy", row.policy.name())
                .put("workers", row.workers)
                .put("hw_threads", hw)
                .put("tasks", r.tasks)
                .fixed("exec_wall_ms", r.exec_wall.as_secs_f64() * 1e3, 3)
                .fixed("exec_tasks_per_sec", r.tasks_per_sec(), 0)
                .put("steals", r.total_steals())
                .quantiles("latency", r.obs.as_ref().map(|o| &o.exec_latency))
                .put("validated", r.validated)
        })
        .collect();
    let per_policy = args.policies.iter().map(|&policy| {
        let (tasks, rate, steals) = policy_totals(rows, policy);
        Fields::new()
            .text("policy", policy.name())
            .put("tasks", tasks)
            .fixed("exec_tasks_per_sec", rate, 0)
            .put("steals", steals)
            .object()
    });
    let totals = Fields::new()
        .put("hw_threads", hw)
        .put("jobs", args.jobs)
        .fixed("suite_wall_ms", suite_wall_ms, 1)
        .list("per_policy", per_policy);
    json::document(header, &results, totals)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(e));

    // Generate each benchmark trace once and share it across the whole
    // policy x workers grid (the grid re-runs the *executor*, not the
    // generator).
    let traces: Vec<TaskTrace> =
        Benchmark::all().into_iter().map(|b| b.trace(args.run.scale, args.run.seed)).collect();

    let mut points: Vec<Point> = Vec::new();
    for bi in 0..traces.len() {
        for &policy in &args.policies {
            for &workers in &args.workers {
                points.push((bi, policy, workers));
            }
        }
    }
    eprintln!(
        "[sched] {} grid points ({} benchmarks x {} policies x {} worker counts), \
         {} hw threads, {} jobs",
        points.len(),
        traces.len(),
        args.policies.len(),
        args.workers.len(),
        hw_threads(),
        args.jobs,
    );

    let t0 = Instant::now();
    let rows = fabric::sweep(args.jobs, points, |p| {
        let (bi, _, _) = p;
        run_point(&args, &traces[bi], p)
    });
    let suite_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let json = to_json(&args, &rows, suite_wall_ms);
    std::fs::write(&args.run.out, &json)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", args.run.out)));

    if args.run.json {
        print!("{json}");
    } else {
        let mut table = Table::new(
            format!(
                "Scheduling ablation ({} scale, mixed payload, seed {}, {} hw threads)",
                args.run.scale.name(),
                args.run.seed,
                hw_threads(),
            ),
            &["Benchmark", "policy", "workers", "tasks", "wall ms", "tasks/s", "steals"],
        );
        for row in &rows {
            let r = &row.report;
            table.row(vec![
                row.benchmark.clone(),
                row.policy.name().into(),
                row.workers.to_string(),
                r.tasks.to_string(),
                fmt_f(r.exec_wall.as_secs_f64() * 1e3, 2),
                fmt_f(r.tasks_per_sec(), 0),
                r.total_steals().to_string(),
            ]);
        }
        println!("{}", table.render());
        let (_, base_rate, _) = policy_totals(&rows, args.policies[0]);
        for &policy in &args.policies {
            let (tasks, rate, steals) = policy_totals(&rows, policy);
            println!(
                "{:>9}: {tasks} tasks, {} tasks/s aggregate ({:+.1}% vs {}), {steals} steals",
                policy.name(),
                fmt_f(rate, 0),
                if base_rate > 0.0 { (rate / base_rate - 1.0) * 1e2 } else { 0.0 },
                args.policies[0].name(),
            );
        }
        println!("(wrote {})", args.run.out);
    }
}
