//! The bad-flag contract of `tss_bench::cli` reaches every binary, not
//! only the four with CLI tests of their own: the figure/table
//! binaries (`HarnessArgs::parse`) and `perf` used to panic — exit 101
//! and a backtrace — on input `exec` rejected with one line.

use std::process::Command;

mod common;

#[test]
fn figure_table_and_perf_binaries_reject_bad_values_without_panicking() {
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_fig16"), ["--scale", "tiny"]),
        (env!("CARGO_BIN_EXE_table1"), ["--jobs", "0"]),
        (env!("CARGO_BIN_EXE_perf"), ["--seed", "x"]),
    ] {
        let out = Command::new(exe).args(args).output().expect("spawn harness binary");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {err}");
        assert!(err.contains("error:"), "{exe} {args:?}: {err}");
        assert!(!err.contains("panicked"), "{exe} {args:?} panicked: {err}");
    }
}

#[test]
fn perf_json_carries_the_key_set_of_its_committed_baseline() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--scale", "small", "--jobs", "1", "--json", "--out", "/dev/null"])
        .output()
        .expect("spawn perf harness");
    assert!(out.status.success(), "perf failed: {}", String::from_utf8_lossy(&out.stderr));
    let baseline = include_str!("../../../ci/baselines/BENCH_pipeline_small.json");
    common::assert_carries_keys_of(&String::from_utf8_lossy(&out.stdout), baseline, None);
}
