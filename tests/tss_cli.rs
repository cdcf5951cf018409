//! CLI contract of the `tss` driver (ISSUE 18 satellite): a count the
//! simulator would only reject by panicking inside a constructor — zero
//! processors, a TRS/ORT count outside the `u8` id space — and a
//! benchmark `graph` cannot draw are user errors: one line naming the
//! flag and what it accepts, exit 2, never a panic.

use std::process::{Command, Output};

fn tss(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tss")).args(args).output().expect("spawn tss")
}

#[test]
fn out_of_range_counts_and_undrawable_benchmarks_exit_two_naming_the_flag() {
    for (args, names) in [
        (&["run", "--processors", "0"][..], "--processors must be at least 1"),
        (&["run", "--trs", "0"][..], "--trs must be in 1..=256"),
        (&["run", "--trs", "300"][..], "--trs must be in 1..=256"),
        (&["run", "--ort", "0"][..], "--ort must be in 1..=256"),
        (&["graph", "--bench", "h264"][..], "only --bench cholesky"),
        // Refused at parse time, before a trace is generated: `--engine
        // bogus` used to print "Cholesky: 220 tasks", then usage.
        (&["run", "--engine", "bogus"][..], "error: unknown engine 'bogus' (hw|sw)"),
        (&["run", "--scale", "tiny"][..], "error: unknown scale 'tiny' (small|paper|large)"),
        (&["run", "--seed", "-1"][..], "error: --seed must be a number, got '-1'"),
    ] {
        let out = tss(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}, stderr: {err}");
        assert!(err.contains(names), "args {args:?} must name the flag and range: {err}");
        assert_eq!(err.lines().count(), 1, "args {args:?}: one line, got: {err}");
        assert!(out.stdout.is_empty(), "args {args:?} printed a report anyway");
    }
}

/// The top of the accepted range really is accepted: 256 TRSs is id
/// 255, which the gateway's free queue used to lose to a `256 as u8`
/// range bound (every task then waited for a TRS forever).
#[test]
fn a_good_run_at_the_top_of_the_range_reports() {
    let out = tss(&["run", "--bench", "cholesky", "--scale", "small", "--trs", "256"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("tasks:         220"), "stdout: {stdout}");
    assert!(stdout.contains("makespan:"), "stdout: {stdout}");
}

#[test]
fn a_good_graph_draws_cholesky() {
    let out = tss(&["graph", "--bench", "cholesky", "--n", "3"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.starts_with("digraph"), "stdout: {stdout}");
}
