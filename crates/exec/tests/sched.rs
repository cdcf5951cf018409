//! Correctness matrix for the pluggable scheduling core (DESIGN.md
//! §13): every [`SchedKind`] must preserve the executor's three
//! standing contracts, because a policy only chooses among *ready*
//! tasks —
//!
//! - **Oracle linearization** — a proptest over policies × seeds ×
//!   {2, 4, 8} threads × {two-phase replay, pipelined stream}: every
//!   completion log linearizes the `DepGraph`.
//! - **Chaos determinism** — injection is a pure function of
//!   `(fault seed, task)`, so the quarantined failure sets
//!   must be identical across thread counts *and* across policies.
//! - **1-worker bit-determinism** — with one worker there is no race
//!   for any policy to resolve, so two oneshot runs must produce
//!   byte-identical completion logs (FIFO's log differs from LIFO's,
//!   but each must equal itself).

use proptest::prelude::*;
use tss_exec::{ExecConfig, Executor, FailurePolicy, PayloadMode, SchedKind};
use tss_trace::DepGraph;
use tss_workloads::{Benchmark, Scale};

fn cfg(kind: SchedKind, threads: usize, seed: u64) -> ExecConfig {
    ExecConfig { threads, sched: kind, seed, validate: false, ..ExecConfig::default() }
}

#[test]
fn one_worker_replay_is_bit_deterministic_for_every_policy() {
    for kind in SchedKind::all() {
        for b in [Benchmark::Cholesky, Benchmark::H264, Benchmark::Stap] {
            let trace = b.trace(Scale::Small, 7);
            let run = |seed| {
                Executor::new(ExecConfig {
                    payload: PayloadMode::Mixed { time_scale: 0.05 },
                    ..cfg(kind, 1, seed)
                })
                .run_oneshot(&trace)
                .expect("replay failed")
            };
            let first = run(1);
            let second = run(1);
            assert_eq!(
                first.order,
                second.order,
                "{b} under {}: 1-worker order drifted",
                kind.name()
            );
            let other_seed = run(99);
            assert_eq!(
                first.order,
                other_seed.order,
                "{b} under {}: seed leaked into the 1-worker order",
                kind.name()
            );
            assert_eq!(first.total_steals(), 0);
        }
    }
}

/// FIFO really is a different discipline, not a renamed LIFO: on a
/// wide fan-out the 1-worker completion logs must diverge.
#[test]
fn fifo_and_lifo_disagree_on_a_fan_out() {
    let trace = Benchmark::KMeans.trace(Scale::Small, 3);
    let lifo = Executor::new(cfg(SchedKind::Lifo, 1, 1)).run_oneshot(&trace).expect("lifo");
    let fifo = Executor::new(cfg(SchedKind::Fifo, 1, 1)).run_oneshot(&trace).expect("fifo");
    assert_ne!(lifo.order, fifo.order, "policies are indistinguishable on a fan-out");
}

/// Quarantined failure sets are a pure function of the fault seed —
/// invariant across thread counts and across scheduling policies
/// (which only permute *successful* execution order).
#[test]
fn chaos_failure_sets_are_thread_count_and_policy_invariant() {
    let trace = Benchmark::Cholesky.trace(Scale::Small, 5);
    let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
    for kind in SchedKind::all() {
        for threads in [1usize, 2, 4] {
            let report = Executor::new(ExecConfig {
                payload: PayloadMode::Faulty { rate_ppm: 50_000, seed: 9 },
                policy: FailurePolicy::Quarantine,
                ..cfg(kind, threads, 17)
            })
            .run_oneshot(&trace)
            .expect("chaos replay failed");
            let failed: Vec<u32> = report.fault.failed.iter().map(|f| f.task).collect();
            let sets = (failed, report.fault.poisoned.clone());
            match &reference {
                None => reference = Some(sets),
                Some(r) => assert_eq!(
                    r,
                    &sets,
                    "failure sets drifted under {} at {threads} threads",
                    kind.name()
                ),
            }
            assert!(report.accounting_reconciles(), "{} at {threads}", kind.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_policy_linearizes_the_oracle(
        seed in 1u32..50_000,
        thread_sel in 0u8..3,
        bench_sel in 0u8..9,
        kind_sel in 0..SchedKind::all().len(),
        streamed_sel in 0u8..2,
    ) {
        let streamed = streamed_sel == 1;
        let threads = [2usize, 4, 8][thread_sel as usize];
        let bench = Benchmark::all()[bench_sel as usize];
        let kind = SchedKind::all()[kind_sel];
        let trace = bench.trace(Scale::Small, seed as u64);
        let exec = Executor::new(cfg(kind, threads, seed as u64));
        let report = if streamed {
            exec.run(&trace).expect("streamed replay failed")
        } else {
            exec.run_oneshot(&trace).expect("replay failed")
        };
        let oracle = DepGraph::from_trace(&trace);
        prop_assert!(
            oracle.validate_order(&report.order).is_ok(),
            "{} under {} at {} threads, seed {} ({}): log violates the oracle",
            bench, kind.name(), threads, seed,
            if streamed { "stream" } else { "replay" }
        );
        prop_assert_eq!(report.order.len(), trace.len());
        let executed: u64 = report.workers.iter().map(|w| w.executed).sum();
        prop_assert_eq!(executed as usize, trace.len());
    }
}
