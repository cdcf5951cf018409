//! CLI contract of the `serve` and `loadgen` binaries (ISSUE 10
//! satellite): bad flag values and combinations are *user errors* —
//! exit 2 with a message naming the offending flag, never a panic —
//! plus the end-to-end smoke (serve, load, drain) and the SIGINT
//! graceful-drain path.

use std::process::{Child, Command};
use std::time::{Duration, Instant};

mod common;

fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let exe = match bin {
        "serve" => env!("CARGO_BIN_EXE_serve"),
        "loadgen" => env!("CARGO_BIN_EXE_loadgen"),
        other => panic!("unknown binary {other}"),
    };
    let out = Command::new(exe).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().unwrap_or(-1), stderr)
}

// --- serve flag validation ---

#[test]
fn serve_zero_sizings_are_clean_errors() {
    for (args, needle) in [
        (&["--exec-threads", "0"][..], "--exec-threads must be at least 1"),
        (&["--runners", "0"][..], "--runners must be at least 1"),
        (&["--quota", "0"][..], "--quota must be at least 1"),
        (&["--max-queued-graphs", "0"][..], "--max-queued-graphs must be at least 1"),
        (&["--drain-deadline-ms", "0"][..], "--drain-deadline-ms must be at least 1 ms"),
        (&["--read-timeout-ms", "0"][..], "--read-timeout-ms must be at least 1 ms"),
    ] {
        let (code, err) = run("serve", args);
        assert_eq!(code, 2, "args {args:?}, stderr: {err}");
        assert!(err.contains(needle), "args {args:?}, stderr: {err}");
        assert!(!err.contains("panicked"), "args {args:?} panicked: {err}");
    }
}

#[test]
fn serve_rejects_unknown_flags_and_missing_values() {
    for args in [&["--frobnicate"][..], &["--port"][..], &["--runners", "many"][..]] {
        let (code, err) = run("serve", args);
        assert_eq!(code, 2, "args {args:?}, stderr: {err}");
        assert!(err.contains("error:"), "args {args:?}, stderr: {err}");
    }
}

#[test]
fn serve_payload_menu_excludes_faulty() {
    let (code, err) = run("serve", &["--payload", "faulty"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--payload faulty"), "names the flag: {err}");
    assert!(err.contains("noop|spin|memcpy|mixed"), "suggests the menu: {err}");

    let (code, err) = run("serve", &["--payload", "fft"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("unknown payload 'fft'"), "stderr: {err}");
}

#[test]
fn serve_spin_scale_requires_a_timed_payload() {
    let (code, err) = run("serve", &["--spin-scale", "2.0"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--spin-scale"), "names the flag: {err}");
    assert!(err.contains("spin or mixed"), "names the required payloads: {err}");
}

#[test]
fn serve_help_exits_zero() {
    let (code, err) = run("serve", &["--help"]);
    assert_eq!(code, 0);
    assert!(err.contains("usage: serve"));
    assert!(err.contains("--drain-deadline-ms"), "help documents drain: {err}");
}

// --- loadgen flag validation ---

#[test]
fn loadgen_requires_an_addr() {
    let (code, err) = run("loadgen", &[]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--addr is required"), "stderr: {err}");
}

#[test]
fn loadgen_zero_sizings_are_clean_errors() {
    for (args, needle) in [
        (&["--clients", "0"][..], "--clients must be at least 1"),
        (&["--graphs", "0"][..], "--graphs must be at least 1"),
        (&["--chunk", "0"][..], "--chunk must be at least 1"),
        (&["--retry-max", "0"][..], "--retry-max must be at least 1"),
    ] {
        let (code, err) = run("loadgen", args);
        assert_eq!(code, 2, "args {args:?}, stderr: {err}");
        assert!(err.contains(needle), "args {args:?}, stderr: {err}");
    }
}

#[test]
fn loadgen_unknown_bench_suggests_the_menu() {
    let (code, err) = run("loadgen", &["--bench", "linpack"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("unknown benchmark 'linpack'"), "stderr: {err}");
    assert!(err.contains("Cholesky"), "menu lists the workloads: {err}");
    assert!(err.contains("STAP"), "menu lists all nine: {err}");
}

#[test]
fn loadgen_retry_max_conflicts_with_chaos() {
    let (code, err) =
        run("loadgen", &["--addr", "127.0.0.1:1", "--retry-max", "3", "--chaos-seed", "7"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--retry-max"), "names one flag: {err}");
    assert!(err.contains("--chaos-seed"), "names the other: {err}");
}

#[test]
fn loadgen_bad_addr_is_a_clean_error() {
    let (code, err) = run("loadgen", &["--addr", "not-an-addr"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("--addr must be HOST:PORT"), "stderr: {err}");
}

#[test]
fn loadgen_help_exits_zero() {
    let (code, err) = run("loadgen", &["--help"]);
    assert_eq!(code, 0);
    assert!(err.contains("usage: loadgen"));
    assert!(err.contains("--chaos-seed"), "help documents chaos: {err}");
}

// --- end to end ---

/// Starts `serve --port 0` and waits for the bound address via
/// `--port-file` (the readiness handshake scripts use).
// Every caller reaps the child through `wait_bounded` (which kills on
// hang); a readiness-timeout panic aborts the test process anyway.
#[allow(clippy::zombie_processes)]
fn start_serve(dir: &std::path::Path, extra: &[&str]) -> (Child, String) {
    let port_file = dir.join("port.txt");
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--port", "0", "--port-file", port_file.to_str().unwrap()])
        .args(extra)
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                return (child, s);
            }
        }
        assert!(Instant::now() < deadline, "serve never wrote its port file");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits for the child to exit, failing the test if it hangs.
fn wait_bounded(child: &mut Child, what: &str) -> i32 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code().unwrap_or(-1);
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            panic!("{what} did not exit within the bound");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn serve_and_loadgen_round_trip_and_drain() {
    let dir = std::env::temp_dir().join(format!("tss-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tempdir");
    let (mut serve, addr) = start_serve(&dir, &[]);

    let artifact = dir.join("BENCH_serve.json");
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--addr",
            &addr,
            "--clients",
            "2",
            "--graphs",
            "3",
            "--bench",
            "knn",
            "--out",
            artifact.to_str().unwrap(),
            "--shutdown",
        ])
        .output()
        .expect("spawn loadgen");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "loadgen failed: {err}");

    // The Shutdown frame must drain serve to a clean exit 0.
    assert_eq!(wait_bounded(&mut serve, "serve after --shutdown"), 0);

    let json = std::fs::read_to_string(&artifact).expect("artifact written");
    assert!(json.contains("\"schema\": \"tss-bench-serve/v1\""), "schema: {json:.200}");
    assert!(json.contains("\"engine\": \"client-1\""), "one row per client");
    assert!(json.contains("\"completed\": 3"), "all graphs completed: {json}");
    assert!(json.contains("latency_p50_ns"), "latency quantiles present");
    assert!(json.contains("\"hw_threads\""), "artifact stamps the core count");
    let baseline = include_str!("../../../ci/baselines/BENCH_serve_small.json");
    common::assert_carries_keys_of(&json, baseline, None);
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGINT must trigger the same graceful drain as a `Shutdown` frame
/// (ISSUE 10: "graceful drain on SIGINT or shutdown frame").
#[test]
fn sigint_drains_serve_to_a_clean_exit() {
    let dir = std::env::temp_dir().join(format!("tss-serve-sigint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tempdir");
    let (mut serve, _addr) = start_serve(&dir, &[]);

    let status =
        Command::new("kill").args(["-INT", &serve.id().to_string()]).status().expect("spawn kill");
    assert!(status.success(), "kill -INT failed");

    assert_eq!(wait_bounded(&mut serve, "serve after SIGINT"), 0, "drain must exit 0");
    std::fs::remove_dir_all(&dir).ok();
}
