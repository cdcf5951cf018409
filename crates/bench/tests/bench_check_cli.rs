//! CLI contract of the `bench_check` baseline gate: exact fields must
//! be equal, every key the baseline carries must be present (a
//! baseline with latency fields fails a fresh artifact without them),
//! and timing values are not compared at all — on synthetic fixtures,
//! so the tests are instant and deterministic.

use std::process::Command;

/// A minimal exec-style artifact: one row + totals, with optional
/// latency fields spliced in.
fn artifact(exec_wall_ms: f64, latency: Option<(u64, u64)>) -> String {
    let lat = match latency {
        Some((p50, p999)) => format!(
            "\"latency_p50_ns\": {p50}, \"latency_p99_ns\": {p999}, \
             \"latency_p999_ns\": {p999}, \"queue_p50_ns\": {p50}, \
             \"queue_p99_ns\": {p999}, \"queue_p999_ns\": {p999}, "
        ),
        None => String::new(),
    };
    format!(
        "{{\n\"schema\": \"tss-bench-exec/v4\",\n\"results\": [\n\
         {{\"benchmark\": \"Cholesky\", \"tasks\": 220, \
         \"exec_wall_ms\": {exec_wall_ms:.3}, {lat}\"validated\": true}}\n\
         ],\n\
         \"totals\": {{\"tasks\": 220, {lat}\"failed\": 0}}\n}}\n"
    )
}

fn check(baseline: &str, fresh: &str) -> (i32, String) {
    let dir = std::env::temp_dir().join(format!(
        "tss-bench-check-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mk tempdir");
    let bp = dir.join("baseline.json");
    let fp = dir.join("fresh.json");
    std::fs::write(&bp, baseline).unwrap();
    std::fs::write(&fp, fresh).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .args(["--baseline", bp.to_str().unwrap(), "--fresh", fp.to_str().unwrap()])
        .output()
        .expect("spawn bench_check");
    std::fs::remove_dir_all(&dir).ok();
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn matching_latency_fields_pass() {
    let base = artifact(1.0, Some((150, 5_000)));
    let fresh = artifact(1.2, Some((180, 9_000)));
    let (code, text) = check(&base, &fresh);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("keys present"), "ok line should count what it checked: {text}");
}

#[test]
fn missing_latency_field_fails_naming_it() {
    // Baseline from an obs build, fresh from a NoopSink build: the
    // gated run silently lost its feature flag — exactly what the
    // presence gate exists to catch.
    let base = artifact(1.0, Some((150, 5_000)));
    let fresh = artifact(1.0, None);
    let (code, text) = check(&base, &fresh);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("latency_p50_ns"), "must name the missing field: {text}");
    assert!(text.contains("obs feature"), "must hint at the cause: {text}");
}

#[test]
fn an_exact_field_off_by_one_fails() {
    let base = artifact(1.0, None);
    for (from, to) in
        [("\"tasks\": 220, \"exec", "\"tasks\": 221, \"exec"), ("\"failed\": 0", "\"failed\": 1")]
    {
        let fresh = base.replacen(from, to, 1);
        assert_ne!(fresh, base, "fixture no longer contains {from}");
        let (code, text) = check(&base, &fresh);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("must match exactly"), "{text}");
    }
}

#[test]
fn a_dropped_key_fails_naming_it() {
    let base = artifact(1.0, None);
    let fresh = base.replacen("\"validated\": true", "\"valid\": true", 1);
    let (code, text) = check(&base, &fresh);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("Cholesky: key 'validated'"), "must name the row and the key: {text}");
}

#[test]
fn timing_values_are_not_compared() {
    // A 10x wall and 100x quantiles: the host's business, not the
    // gate's (the stack benchmark is where a speed is bounded).
    let base = artifact(1.0, Some((1_000_000, 2_000_000)));
    let fresh = artifact(10.0, Some((100_000_000, 200_000_000)));
    let (code, text) = check(&base, &fresh);
    assert_eq!(code, 0, "{text}");
}

#[test]
fn extra_latency_fields_in_fresh_are_fine() {
    // Old baseline (pre-obs) gated against a new obs-build artifact:
    // presence-gating is one-directional by design.
    let base = artifact(1.0, None);
    let fresh = artifact(1.0, Some((150, 5_000)));
    let (code, text) = check(&base, &fresh);
    assert_eq!(code, 0, "{text}");
}
