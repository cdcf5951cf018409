//! Simulator throughput harness: the benchmark trajectory for the event
//! core itself (DESIGN.md §6, §9).
//!
//! Runs all nine Table-I benchmarks through **both** engines (hardware
//! pipeline and software runtime) at the requested `--scale`, measuring
//! host wall time, delivered events per second, and peak event-queue
//! depth, then writes `BENCH_pipeline.json` (schema
//! `tss-bench-pipeline/v2`) next to the working directory for CI to
//! archive and EXPERIMENTS.md to quote.
//!
//! Unlike the figure binaries this one times the *simulator*, not the
//! simulated machine: oracle validation is skipped so the measurement is
//! the event loop plus module handlers, nothing else.
//!
//! `--jobs N` fans the benchmarks across the sweep fabric. Per-row wall
//! times are each run's own span, so with `--jobs > 1` concurrent runs
//! share the host and per-row `events_per_sec` is *not* comparable to a
//! serial session — use `--jobs 1` for per-row throughput numbers.
//! `suite_wall_ms` in `totals` is the end-to-end suite span, the figure
//! the fabric is meant to shrink; the `jobs` field records what
//! produced the artifact. The timing fields are for people to read:
//! CI's baseline gate compares `events` and `makespan_cycles` only
//! (the stack benchmark is where a speed is bounded).
//!
//! Flags: `--scale small|paper|large`, `--seed N`, `--jobs N`, `--json`
//! (print the JSON document to stdout instead of the aligned table),
//! `--out PATH` (where to write the JSON file; default
//! `BENCH_pipeline.json`).

use std::sync::Arc;
use std::time::Instant;

use tss_bench::cli::{fail, Flags, Parsed};
use tss_bench::json::{self, Fields};
use tss_bench::ratio;
use tss_core::report::fmt_f;
use tss_core::{fabric, RunReport, SystemBuilder, Table};
use tss_workloads::{Benchmark, Scale};

struct PerfArgs {
    scale: Scale,
    seed: u64,
    jobs: usize,
    json: bool,
    out: String,
}

fn parse_args() -> Parsed<PerfArgs> {
    let mut out = PerfArgs {
        scale: Scale::Paper,
        seed: 42,
        jobs: fabric::default_jobs(),
        json: false,
        out: "BENCH_pipeline.json".into(),
    };
    let mut flags = Flags::from_env(
        "perf [--scale small|paper|large] [--seed N] [--jobs N] [--json] [--out PATH]",
    );
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--scale" => out.scale = flags.scale()?,
            "--seed" => out.seed = flags.num()?,
            "--jobs" => out.jobs = flags.positive()?,
            "--json" => out.json = true,
            "--out" => out.out = flags.value()?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(out)
}

/// One engine's run of one benchmark and the host time it took.
struct PerfPoint {
    report: RunReport,
    engine: &'static str,
    wall_s: f64,
}

impl PerfPoint {
    /// Keeps the report's counts and lets its per-task schedule go: 18
    /// of those would otherwise sit in memory under the runs still timed.
    fn new(report: RunReport, engine: &'static str, wall_s: f64) -> PerfPoint {
        PerfPoint { report: RunReport { schedule: Vec::new(), ..report }, engine, wall_s }
    }

    fn events_per_sec(&self) -> f64 {
        ratio(self.report.events as f64, self.wall_s)
    }
}

/// `(events, wall seconds)` summed over every point.
fn totals(points: &[PerfPoint]) -> (u64, f64) {
    (points.iter().map(|p| p.report.events).sum(), points.iter().map(|p| p.wall_s).sum())
}

fn to_json(args: &PerfArgs, points: &[PerfPoint], suite_wall_s: f64) -> String {
    let header = Fields::new()
        .text("schema", "tss-bench-pipeline/v2")
        .text("scale", args.scale.name())
        .put("seed", args.seed)
        .put("jobs", args.jobs)
        .text("event_core", tss_sim::engine::EVENT_CORE);
    let rows: Vec<Fields> = points
        .iter()
        .map(|p| {
            Fields::new()
                .text("benchmark", &p.report.benchmark)
                .text("engine", p.engine)
                .put("tasks", p.report.tasks)
                .put("makespan_cycles", p.report.makespan)
                .put("events", p.report.events)
                .put("peak_event_queue", p.report.event_queue_peak)
                .fixed("wall_ms", p.wall_s * 1e3, 3)
                .fixed("events_per_sec", p.events_per_sec(), 0)
        })
        .collect();
    let (events, wall) = totals(points);
    let totals = Fields::new()
        .put("events", events)
        .fixed("wall_ms", wall * 1e3, 3)
        .fixed("events_per_sec", ratio(events as f64, wall), 0)
        .fixed("suite_wall_ms", suite_wall_s * 1e3, 3)
        .put("jobs", args.jobs);
    json::document(header, &rows, totals)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(e));
    let suite_t0 = Instant::now();
    // One fabric point per benchmark (hardware + software measured
    // back-to-back inside the point); rows come back in catalog order.
    let benches: Vec<Benchmark> = Benchmark::all().to_vec();
    let rows = fabric::sweep(args.jobs, benches, |bench| {
        let trace = Arc::new(bench.trace(args.scale, args.seed));
        // Validation is O(edges) outside the event loop; skip it so the
        // clock sees only the engine + handlers.
        let t0 = Instant::now();
        let hw = SystemBuilder::new().processors(256).skip_validation().run_hardware_arc(&trace);
        let hw_wall = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let sw = SystemBuilder::new().processors(256).skip_validation().run_software_arc(&trace);
        let sw_wall = t1.elapsed().as_secs_f64();
        eprintln!("  [perf] {bench} done (hw {:.0} ms, sw {:.0} ms)", hw_wall * 1e3, sw_wall * 1e3);
        [PerfPoint::new(hw, "hardware", hw_wall), PerfPoint::new(sw, "software", sw_wall)]
    });
    let points: Vec<PerfPoint> = rows.into_iter().flatten().collect();
    let suite_wall_s = suite_t0.elapsed().as_secs_f64();

    let json = to_json(&args, &points, suite_wall_s);
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", args.out)));

    if args.json {
        print!("{json}");
    } else {
        let mut table = Table::new(
            format!(
                "Simulator throughput ({} scale, seed {}, event core: {})",
                args.scale.name(),
                args.seed,
                tss_sim::engine::EVENT_CORE
            ),
            &["Benchmark", "engine", "tasks", "events", "peakQ", "wall ms", "events/s"],
        );
        for p in &points {
            table.row(vec![
                p.report.benchmark.clone(),
                p.engine.to_string(),
                p.report.tasks.to_string(),
                p.report.events.to_string(),
                p.report.event_queue_peak.to_string(),
                fmt_f(p.wall_s * 1e3, 1),
                fmt_f(p.events_per_sec(), 0),
            ]);
        }
        let (events, wall) = totals(&points);
        table.row(vec![
            "Total".to_string(),
            "both".to_string(),
            String::new(),
            events.to_string(),
            String::new(),
            fmt_f(wall * 1e3, 1),
            fmt_f(ratio(events as f64, wall), 0),
        ]);
        println!("{}", table.render());
        println!(
            "suite wall: {:.1} ms with --jobs {} (wrote {})",
            suite_wall_s * 1e3,
            args.jobs,
            args.out
        );
    }
}
