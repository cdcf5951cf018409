//! CLI contract of the `exec` harness (ISSUE 4 satellite): bad flag
//! values are *user errors* — the binary must print a clear message and
//! exit nonzero, never panic (a panic would read as an executor bug in
//! CI logs and dump a backtrace instead of usage help).

use std::process::Command;

mod common;

/// The committed baseline the artifact's key set must cover.
const EXEC_BASELINE: &str = include_str!("../../../ci/baselines/BENCH_exec_small.json");

fn run(args: &[&str]) -> (i32, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_exec")).args(args).output().expect("spawn exec harness");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().unwrap_or(-1), stderr)
}

#[test]
fn zero_threads_is_a_clean_error() {
    let (code, err) = run(&["--threads", "0"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--threads must be at least 1"), "stderr: {err}");
    assert!(!err.contains("panicked"), "panicked instead of failing cleanly: {err}");
}

#[test]
fn unknown_payload_is_a_clean_error() {
    let (code, err) = run(&["--payload", "fft"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("unknown payload 'fft'"), "stderr: {err}");
    assert!(err.contains("noop|spin|memcpy"), "suggests the menu: {err}");
    assert!(!err.contains("panicked"), "panicked instead of failing cleanly: {err}");
}

#[test]
fn unknown_scale_flag_value_and_missing_value_are_clean_errors() {
    for args in [
        &["--scale", "huge"][..],
        &["--frobnicate"][..],
        &["--threads"][..],
        &["--threads", "many"][..],
        &["--window", "0"][..],
    ] {
        let (code, err) = run(args);
        assert_eq!(code, 2, "args {args:?}, stderr: {err}");
        assert!(err.contains("error:"), "args {args:?}, stderr: {err}");
        assert!(!err.contains("panicked"), "args {args:?} panicked: {err}");
    }
}

#[test]
fn help_exits_zero() {
    let (code, err) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(err.contains("usage: exec"));
    assert!(err.contains("--failure-policy"), "help must document the chaos flags: {err}");
}

// --- failure-domain flag combinations (DESIGN.md §11 satellite) ---

#[test]
fn fault_rate_without_a_policy_names_both_flags() {
    let (code, err) = run(&["--fault-rate", "0.05"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--fault-rate"), "stderr: {err}");
    assert!(err.contains("--failure-policy"), "stderr: {err}");
    assert!(!err.contains("panicked"), "panicked instead of failing cleanly: {err}");
}

#[test]
fn fault_rate_out_of_range_is_a_clean_error() {
    let (code, err) = run(&["--fault-rate", "1.5", "--failure-policy", "quarantine"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--fault-rate must be a probability in 0..=1"), "stderr: {err}");
}

#[test]
fn fault_rate_rejects_timed_payloads() {
    let (code, err) =
        run(&["--fault-rate", "0.05", "--failure-policy", "quarantine", "--payload", "spin"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--fault-rate needs --payload noop or faulty"), "stderr: {err}");
}

#[test]
fn zero_deadlines_are_clean_errors() {
    let (code, err) = run(&["--run-deadline-ms", "0"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--run-deadline-ms"), "stderr: {err}");
    assert!(err.contains("at least 1 ms"), "stderr: {err}");
}

#[test]
fn kill_worker_bounds_are_validated_against_threads() {
    let (code, err) = run(&["--kill-worker", "0", "--threads", "1"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--kill-worker needs --threads of at least 2"), "stderr: {err}");

    let (code, err) = run(&["--kill-worker", "5", "--threads", "4"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--kill-worker 5 is out of range for --threads 4"), "stderr: {err}");
}

/// The `retry` policy and the per-task deadline are gone, with their
/// flags: asking for them is outside input like any other unknown name.
#[test]
fn removed_retry_and_task_deadline_flags_are_rejected() {
    for (args, names) in [
        (&["--failure-policy", "retry"][..], "unknown --failure-policy 'retry'"),
        (&["--retry-max", "3"][..], "unknown flag '--retry-max'"),
        (&["--retry-backoff-ms", "1"][..], "unknown flag '--retry-backoff-ms'"),
        (&["--task-deadline-ms", "5"][..], "unknown flag '--task-deadline-ms'"),
    ] {
        let (code, err) = run(args);
        assert_eq!(code, 2, "args {args:?}, stderr: {err}");
        assert!(err.contains(names), "args {args:?} must name the value or flag: {err}");
        assert!(!err.contains("panicked"), "args {args:?} panicked: {err}");
    }
}

#[test]
fn unknown_policy_suggests_the_menu() {
    let (code, err) = run(&["--failure-policy", "ignore"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("unknown --failure-policy 'ignore'"), "stderr: {err}");
    assert!(err.contains("(fail-fast|quarantine)"), "stderr: {err}");
}

/// The scheduling policies and their shaping flags are gone (DESIGN.md
/// §13): asking for them is outside input like any other unknown flag.
#[test]
fn removed_policies_and_shaping_flags_are_rejected() {
    for (args, names) in [
        (&["--policy", "fifo"][..], "unknown flag '--policy'"),
        (&["--policy", "cost"][..], "unknown flag '--policy'"),
        (&["--policy", "locality"][..], "unknown flag '--policy'"),
        (&["--classes", "2"][..], "unknown flag '--classes'"),
        (&["--domains", "4"][..], "unknown flag '--domains'"),
    ] {
        let (code, err) = run(args);
        assert_eq!(code, 2, "args {args:?}, stderr: {err}");
        assert!(err.contains(names), "args {args:?} must name the value or flag: {err}");
        assert!(!err.contains("panicked"), "args {args:?} panicked: {err}");
    }
}

#[test]
fn mixed_payload_is_on_the_menu() {
    let (code, err) = run(&["--payload", "fft"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("mixed"), "menu must include the mixed payload: {err}");
}

// --- observability flags (ISSUE 8 satellite, DESIGN.md §12) ---

#[cfg(not(feature = "obs"))]
#[test]
fn trace_out_without_the_obs_feature_is_rejected_up_front() {
    let (code, err) = run(&["--scale", "small", "--trace-out", "/tmp/never-written.json"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--trace-out"), "must name the flag: {err}");
    assert!(err.contains("obs"), "must name the missing feature: {err}");
    assert!(!err.contains("panicked"), "panicked instead of failing cleanly: {err}");
}

#[cfg(not(feature = "obs"))]
#[test]
fn histogram_without_the_obs_feature_is_rejected_up_front() {
    let (code, err) = run(&["--histogram"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--histogram"), "must name the flag: {err}");
    assert!(err.contains("obs"), "must name the missing feature: {err}");
}

#[test]
fn trace_out_needs_a_path() {
    let (code, err) = run(&["--trace-out"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--trace-out needs a value"), "stderr: {err}");
}

/// End-to-end in an obs build: a small run must write a Chrome trace
/// with per-worker tracks, and the JSON artifact must carry the
/// latency quantiles (the ISSUE 8 acceptance gate, as a test).
#[cfg(feature = "obs")]
#[test]
fn obs_build_writes_a_chrome_trace_and_latency_fields() {
    let dir = std::env::temp_dir().join(format!("tss-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tempdir");
    let trace = dir.join("trace.json");
    let bench = dir.join("bench.json");
    let out = Command::new(env!("CARGO_BIN_EXE_exec"))
        .args([
            "--scale",
            "small",
            "--threads",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--out",
            bench.to_str().unwrap(),
        ])
        .output()
        .expect("spawn exec harness");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exec failed: {err}");

    let tj = std::fs::read_to_string(&trace).expect("trace written");
    assert!(tj.contains("\"traceEvents\""), "not a Chrome trace: {tj:.200}");
    for track in ["worker-0", "worker-1"] {
        assert!(tj.contains(track), "missing track {track}");
    }
    // The streamed runs decode on the workers: their tracks carry the
    // scans and commits, and there is no other track.
    for event in ["\"scan w0\"", "\"commit w0\""] {
        assert!(tj.contains(event), "no {event} event on the worker tracks");
    }
    assert!(!tj.contains("decode-"), "a track that is not a worker's");
    assert!(tj.contains("\"ph\":\"X\""), "no slices recorded");

    let bj = std::fs::read_to_string(&bench).expect("bench json written");
    assert!(bj.contains("\"schema\": \"tss-bench-exec/v5\""));
    for key in [
        "latency_p50_ns",
        "latency_p99_ns",
        "latency_p999_ns",
        "queue_p999_ns",
        "cpu_setup_ns_per_task",
        "cpu_scan_ns_per_task",
        "cpu_commit_ns_per_task",
        "cpu_workers_ns_per_task",
        "cpu_finish_ns_per_task",
    ] {
        assert!(bj.contains(key), "missing {key} in BENCH json");
    }
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("Thread CPU per role"), "no role table on stdout: {table}");
    assert!(bj.contains("\"hw_threads\""), "artifact must stamp the real core count");
    common::assert_carries_keys_of(&bj, EXEC_BASELINE, None);
    std::fs::remove_dir_all(&dir).ok();
}

/// A default build's `--json` stdout carries every key of the
/// (obs-build) baseline but the sampled quantiles; the obs build's
/// artifact is held to all of them by the test above.
#[cfg(not(feature = "obs"))]
#[test]
fn exec_json_carries_the_key_set_of_its_committed_baseline() {
    let out = Command::new(env!("CARGO_BIN_EXE_exec"))
        .args(["--scale", "small", "--threads", "2", "--json", "--out", "/dev/null"])
        .output()
        .expect("spawn exec harness");
    assert!(out.status.success(), "exec failed: {}", String::from_utf8_lossy(&out.stderr));
    let doc = String::from_utf8_lossy(&out.stdout);
    common::assert_carries_keys_of(&doc, EXEC_BASELINE, Some("_ns"));
}
