//! The resident runtime's thread population (DESIGN.md §15): however
//! many graphs run, and however many `Executor` values run them, a
//! sequential caller keeps exactly one crew alive — one resident thread
//! per worker of its widest run: decoding adds no thread (§8.2), and
//! neither does a run deadline or a cancel token (§11.3). A runtime
//! owned per `Executor` (or one whose members raced the submitter back
//! into the free list) would show up here as a count that grows with
//! the number of runs.
//!
//! This file is one test on purpose: the runtime is process-wide, and
//! a test binary is the only scope in which nothing else leases from
//! it.

#![cfg(target_os = "linux")]

use std::time::Duration;

use tss_exec::{CancelToken, ExecConfig, Executor};
use tss_workloads::{Benchmark, Scale};

/// Live threads of this process that the resident runtime named.
fn crew_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("tss-crew"))
        .count()
}

#[test]
fn sequential_runs_keep_one_crew_however_many_executors_there_are() {
    let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
    let cfg = ExecConfig { threads: 2, ..ExecConfig::default() };
    // Two workers, who also decode.
    let crew = 2;
    assert_eq!(crew_threads(), 0, "the runtime starts no thread before the first run");

    let exec = Executor::new(cfg.clone());
    for i in 0..1_000 {
        let report = exec.run(&trace).expect("run failed");
        assert!(report.validated);
        if i % 100 == 0 {
            assert_eq!(crew_threads(), crew, "after run {i} on one Executor");
        }
    }
    assert_eq!(crew_threads(), crew);

    for i in 0..1_000 {
        let report = Executor::new(cfg.clone()).run(&trace).expect("run failed");
        assert_eq!(report.tasks, trace.len());
        if i % 100 == 0 {
            assert_eq!(crew_threads(), crew, "after run {i} on fresh Executors");
        }
    }
    assert_eq!(crew_threads(), crew);

    // The one-shot path, which decodes before the crew, adds none either.
    for _ in 0..100 {
        Executor::new(cfg.clone()).run_oneshot(&trace).expect("oneshot run failed");
    }
    assert_eq!(crew_threads(), crew, "the one-shot path added threads");

    // Arming a token or a run deadline adds no role: the workers notice
    // both at the stop check they already make.
    let armed = ExecConfig {
        cancel: Some(CancelToken::new()),
        run_deadline: Some(Duration::from_secs(60)),
        ..cfg.clone()
    };
    for _ in 0..100 {
        Executor::new(armed.clone()).run(&trace).expect("armed run failed");
    }
    assert_eq!(crew_threads(), crew, "an armed token or deadline added a thread");
}
