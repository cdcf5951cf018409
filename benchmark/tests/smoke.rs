//! End-to-end smoke of the benchmark's own command line: every
//! workload, both passes, with small-scale traces and a fraction of a
//! second each.

use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_stack-bench");

/// The four `BENCHMARK.json` lists, which `repeat` runs.
const GATED: [&str; 4] = ["replay_large", "replay_small", "serve_small", "serve_large"];

const WORKLOADS: [&str; 7] = [
    "replay_large",
    "replay_small",
    "payload_mixed",
    "serve_small",
    "serve_large",
    "serve_mixed",
    "sim_frontend",
];

/// Runs the binary in a working directory of the calling test's own:
/// the traced pass writes `benchmark/out/` under it, and tests run in
/// parallel.
fn run(test: &str, args: &[&str]) -> (bool, String, String) {
    let cwd = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&cwd).expect("create the test's working directory");
    let out = Command::new(BIN).args(args).current_dir(cwd).output().expect("start stack-bench");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The metric names on a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = line.split_once("\"metrics\": {").expect("metrics key").1;
    let mut chunks: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    // Each chunk ends with the next metric's quoted name, except the
    // last, which only closes the object.
    chunks.pop();
    chunks.iter().map(|c| c.rsplit_once('"').expect("a quoted name").1.to_string()).collect()
}

#[test]
fn quick_smoke_runs_all_seven_workloads_both_passes_under_ten_seconds() {
    let t0 = Instant::now();
    let (ok, stdout, stderr) = run("all", &["all", "--quick", "--seconds", "0.2", "--seed", "7"]);
    let took = t0.elapsed();
    assert!(ok, "all --quick failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("all workloads correct"), "{stdout}");
    assert!(stdout.contains("hw_threads") && stdout.contains("rustc"), "no stamp:\n{stdout}");
    for w in WORKLOADS {
        assert!(stdout.contains(&format!("{w}: closed loop")), "{w} untraced report missing");
        assert!(stdout.contains(&format!("{w}: traced pass")), "{w} traced report missing");
    }
    // One table row per metric, one column per workload.
    for row in
        ["tasks_per_s [1/s, higher]", "setup_s [s, lower]", "bench.trace_overhead_pct [%, lower]"]
    {
        let line =
            stdout.lines().find(|l| l.starts_with(row)).unwrap_or_else(|| panic!("no row {row}"));
        assert_eq!(line[row.len()..].split_whitespace().count(), WORKLOADS.len(), "{line}");
    }
    assert!(stdout.contains("latency budget, outside-in"), "no budget table");
    assert!(took.as_secs_f64() < 10.0, "quick smoke took {took:?}");
}

#[test]
fn a_run_ends_with_one_result_line_holding_every_metric_of_its_pass() {
    for (trace, first, last_name, count) in [
        ("0", "tasks_per_s", "setup_s", 5),
        ("1", "proto.frames_ns_per_task", "bench.budget_coverage_pct", 56),
    ] {
        let (ok, stdout, stderr) = run(
            "one",
            &[
                "--workload",
                "serve_mixed",
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--quick",
            ],
        );
        assert!(ok, "--trace {trace} failed:\n{stdout}\n{stderr}");
        let last = stdout.trim_end().lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": ")
                && last.contains("\"failed\": 0,"),
            "--trace {trace}: {last}"
        );
        let names = metric_names(last);
        assert_eq!(names.len(), count, "--trace {trace}: {names:?}");
        assert_eq!((names[0].as_str(), names[count - 1].as_str()), (first, last_name));
    }
}

#[test]
fn repeat_prints_a_spread_for_every_metric_of_every_gated_workload() {
    // Tiny runs need not hold the bounds; the table must be complete.
    let (_, stdout, stderr) =
        run("repeat", &["repeat", "--runs", "2", "--quick", "--seconds", "0.05"]);
    for w in GATED {
        let rows = stdout.lines().filter(|l| l.starts_with(w) && l.contains('%')).count();
        assert_eq!(rows, 5, "{w}:\n{stdout}\n{stderr}");
    }
}

#[test]
fn bad_command_lines_exit_2_and_name_the_problem() {
    for (args, needle) in [
        (&["--workload", "nope"][..], "unknown workload 'nope'"),
        (&["--workload", "serve_small", "--trace", "2"][..], "--trace"),
        (&["--seconds"][..], "--seconds needs a value"),
        (&["repeat", "--runs", "1"][..], "--runs must be at least 2"),
        (&["--bogus"][..], "unknown argument '--bogus'"),
    ] {
        let out = Command::new(BIN).args(args).output().expect("start stack-bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
