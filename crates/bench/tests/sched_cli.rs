//! CLI contract of the `sched` ablation harness (ISSUE 9 satellite):
//! bad flag values and bad flag *combinations* are user errors — clear
//! message naming the flags, exit 2, never a panic — and a good run
//! writes a schema'd `BENCH_sched.json` with every row stamped with
//! the real core count.

use std::process::Command;

mod common;

fn run(args: &[&str]) -> (i32, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_sched")).args(args).output().expect("spawn sched harness");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().unwrap_or(-1), stderr)
}

#[test]
fn unknown_policy_suggests_the_menu() {
    let (code, err) = run(&["--policy", "greedy"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("unknown policy 'greedy'"), "stderr: {err}");
    assert!(err.contains("all|lifo|fifo|cost|locality"), "suggests the menu: {err}");
    assert!(!err.contains("panicked"), "panicked instead of failing cleanly: {err}");
}

#[test]
fn class_and_domain_flags_require_the_locality_policy() {
    let (code, err) = run(&["--policy", "lifo", "--domains", "4"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--domains 4"), "names the offending flag: {err}");
    assert!(err.contains("--policy locality"), "names the required policy: {err}");

    let (code, err) = run(&["--policy", "cost", "--classes", "2"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--classes 2"), "stderr: {err}");
    assert!(err.contains("--policy locality"), "stderr: {err}");
}

#[test]
fn domains_must_fit_the_smallest_worker_count() {
    let (code, err) = run(&["--policy", "locality", "--workers", "2,4", "--domains", "4"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--domains 4"), "stderr: {err}");
    assert!(err.contains("--workers entry 2"), "stderr: {err}");
}

#[test]
fn bad_values_are_clean_errors() {
    for args in [
        &["--scale", "huge"][..],
        &["--workers", "0"][..],
        &["--workers", "two"][..],
        &["--workers"][..],
        &["--jobs", "0"][..],
        &["--frobnicate"][..],
    ] {
        let (code, err) = run(args);
        assert_eq!(code, 2, "args {args:?}, stderr: {err}");
        assert!(err.contains("error:"), "args {args:?}, stderr: {err}");
        assert!(!err.contains("panicked"), "args {args:?} panicked: {err}");
    }
}

#[test]
fn help_exits_zero_and_documents_the_grid() {
    let (code, err) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(err.contains("usage: sched"));
    assert!(err.contains("--policy"), "help must document the policy flag: {err}");
    assert!(err.contains("--workers"), "help must document the worker grid: {err}");
}

/// One real (tiny) ablation run: a single benchmark-sized grid would
/// still be 9 benchmarks, so keep the worker grid minimal and check
/// the artifact's schema, row shape, and `hw_threads` stamps.
#[test]
fn small_run_writes_a_schemad_artifact() {
    let dir = std::env::temp_dir().join(format!("tss-sched-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tempdir");
    let out_path = dir.join("sched.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sched"))
        .args([
            "--scale",
            "small",
            "--policy",
            "locality",
            "--workers",
            "2",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn sched harness");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sched failed: {err}");

    let doc = std::fs::read_to_string(&out_path).expect("artifact written");
    assert!(doc.contains("\"schema\": \"tss-bench-sched/v1\""), "doc: {doc:.200}");
    assert!(doc.contains("\"payload\": \"mixed\""));
    assert!(doc.contains("\"policy\": \"locality\""));
    assert!(doc.contains("\"cross_steals\""));
    assert!(doc.contains("\"per_policy\""));
    // Every results row and the totals carry the honest-scaling stamp:
    // one top-level + one per row + one in totals.
    let rows = doc.matches("\"benchmark\":").count();
    assert_eq!(rows, 9, "one row per Table-I benchmark: {doc}");
    assert_eq!(
        doc.matches("\"hw_threads\":").count(),
        rows + 2,
        "hw_threads must stamp the top level, every row, and totals: {doc}"
    );
    // `BENCH_sched.json` has no committed baseline (nothing in it is
    // exact-gated), so its key set is pinned here.
    const KEYS: &str = r#"{"schema": 0, "scale": 0, "payload": 0, "seed": 0, "hw_threads": 0,
        "classes": 0, "domains": 0, "workers": 0, "policies": 0,
        "results": [{"benchmark": 0, "policy": 0, "workers": 0, "hw_threads": 0, "tasks": 0,
            "exec_wall_ms": 0, "exec_tasks_per_sec": 0, "steals": 0, "cross_steals": 0,
            "validated": 0}],
        "totals": {"hw_threads": 0, "jobs": 0, "suite_wall_ms": 0, "per_policy": 0}}"#;
    common::assert_carries_keys_of(&doc, KEYS, None);
    std::fs::remove_dir_all(&dir).ok();
}
