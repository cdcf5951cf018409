//! Determinism boundaries of the native executor (ISSUE 3, sharpened
//! by ISSUE 4's pipelined core):
//!
//! - **Single-thread replay is bit-deterministic, streamed or
//!   two-phase.** One worker: no stealing, no ticket race — completion
//!   order is a pure function of the queue discipline (own-deque LIFO
//!   over injector FIFO, with batch steals banking roots oldest-first),
//!   so two runs must produce byte-identical completion logs. A
//!   streamed run adds no decode race either: its one worker decodes
//!   only when it has nothing to run (DESIGN.md §8.2). Both orders are
//!   pinned across commits by a digest each, and a real payload (the
//!   `mixed` one) leaves the order as it is.
//! - **Multi-thread replay is oracle-deterministic, not bit-
//!   deterministic.** The OS scheduler interleaves workers freely; the
//!   contract is that *every* interleaving linearizes the dependency
//!   order. A proptest over seeds × thread counts (2, 4, 8) × front
//!   ends (streamed, two-phase) pins it.
//! - **The renamer is the oracle's twin.** With renaming on, its
//!   pred/succ structure must equal `DepGraph`'s enforced edge set on
//!   every benchmark.

use proptest::prelude::*;
use tss_exec::fault::install_quiet_hook;
use tss_exec::{ExecConfig, Executor, FailurePolicy, PayloadMode, Renamer};
use tss_trace::graph::classified_edges;
use tss_trace::DepGraph;
use tss_workloads::{Benchmark, Scale};

#[test]
fn single_thread_replay_is_bit_deterministic() {
    for payload in [PayloadMode::Noop, PayloadMode::Mixed { time_scale: 0.05 }] {
        for b in [Benchmark::Cholesky, Benchmark::H264, Benchmark::Stap] {
            let trace = b.trace(Scale::Small, 7);
            let run = |seed| {
                Executor::new(ExecConfig { threads: 1, seed, payload, ..ExecConfig::default() })
                    .run_oneshot(&trace)
                    .expect("replay failed")
            };
            let first = run(1);
            let second = run(1);
            let name = payload.name();
            assert_eq!(first.order, second.order, "{b}, {name}: single-thread order drifted");
            // Even the steal seed must be irrelevant with one worker.
            let other_seed = run(99);
            assert_eq!(first.order, other_seed.order, "{b}, {name}: seed leaked into the order");
            assert_eq!(first.total_steals(), 0);
        }
    }
}

/// One-worker runs of each of the nine small traces (seed 7,
/// `Benchmark::all()` order) under `cfg` — streamed (`Executor::run`)
/// or two-phase (`run_oneshot`): the FNV-1a-64 digest of the completion
/// logs (each ticket's task id as four little-endian bytes) and how many
/// tasks ended failed or poisoned.
fn one_worker_digest(cfg: ExecConfig, streamed: bool) -> (u64, usize) {
    let exec = Executor::new(ExecConfig { threads: 1, ..cfg });
    let (mut h, mut unhealthy) = (0xcbf2_9ce4_8422_2325u64, 0);
    for b in Benchmark::all() {
        let trace = b.trace(Scale::Small, 7);
        let report = if streamed { exec.run(&trace) } else { exec.run_oneshot(&trace) }
            .expect("replay failed");
        for byte in report.order.iter().flat_map(|&t| (t as u32).to_le_bytes()) {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        unhealthy += report.fault.failed.len() + report.fault.poisoned.len();
    }
    (h, unhealthy)
}

/// The two-phase contract above, pinned across commits and not only
/// across runs. The digest was computed at the commit *before*
/// `Executor::replay` began seeding the streaming release table from
/// the decoded graph (DESIGN.md §8.2), when it still walked the
/// successor CSR directly; it holds only if a drain of the seeded
/// pending lists visits successors in exactly the order that walk did —
/// on the healthy path and on `poison_release`'s (the quarantine row:
/// 5% injected faults put 138 failed tasks and their 2,449 poisoned
/// successors in the logs). All three rows are one number, and were at
/// that commit too: on these traces the extra WaR/WaW edges (KMeans,
/// SPECFEM) do not move the one-worker order, and a failed or poisoned
/// task takes its ticket exactly where a healthy one would. A
/// deliberate change to the queue discipline regenerates the digest;
/// nothing else may.
#[test]
fn one_worker_two_phase_order_matches_the_committed_digest() {
    const DIGEST: u64 = 0xa40d_d81d_74f0_195d;
    install_quiet_hook();
    let base = ExecConfig::default();
    assert_eq!(one_worker_digest(base.clone(), false), (DIGEST, 0), "renaming on");
    let no_renaming = ExecConfig { renaming: false, ..base.clone() };
    assert_eq!(one_worker_digest(no_renaming, false), (DIGEST, 0), "renaming off");
    let chaos = ExecConfig {
        payload: PayloadMode::Faulty { rate_ppm: 50_000, seed: 7 },
        policy: FailurePolicy::Quarantine,
        ..base
    };
    assert_eq!(one_worker_digest(chaos, false), (DIGEST, 138 + 2_449), "5% faults, quarantine");
}

/// The streamed one-worker order, pinned the same way, at 128-task
/// windows so that every small trace (220–1.5k tasks) spans several:
/// roots come from the window commits and edges into already-finished
/// producers are born satisfied, both in an order the trace alone
/// decides. The
/// digest was computed at the commit that made decode a step of the
/// run's own workers; before it, a decode thread raced the worker and
/// no digest could hold. The quarantine row's failure sets are the
/// two-phase ones: injection is a pure function of the task.
#[test]
fn one_worker_streamed_order_matches_the_committed_digest() {
    const DIGEST: u64 = 0x8c57_5d22_35c0_3405;
    install_quiet_hook();
    let base = ExecConfig { window: 128, ..ExecConfig::default() };
    assert_eq!(one_worker_digest(base.clone(), true), (DIGEST, 0), "renaming on");
    let chaos = ExecConfig {
        payload: PayloadMode::Faulty { rate_ppm: 50_000, seed: 7 },
        policy: FailurePolicy::Quarantine,
        ..base
    };
    assert_eq!(one_worker_digest(chaos, true), (DIGEST, 138 + 2_449), "5% faults, quarantine");
}

#[test]
fn renamer_matches_the_oracle_on_every_benchmark() {
    for b in Benchmark::all() {
        let trace = b.trace(Scale::Small, 3);
        let oracle = DepGraph::from_trace(&trace);
        let graph = Renamer::new().decode(&trace);
        assert_eq!(graph.len(), oracle.len());
        assert_eq!(graph.stats().enforced_edges, oracle.enforced_edge_count(), "{b}");
        for t in 0..trace.len() {
            assert_eq!(graph.succs(t), oracle.succs(t), "{b}: task {t} successors diverge");
            assert_eq!(
                graph.pred_count(t) as usize,
                oracle.preds(t).len(),
                "{b}: task {t} pred count diverges"
            );
        }
    }
}

/// The other setting of the one scan `Renamer::decode` and the
/// streaming path share: with renaming off it must enforce exactly what
/// the oracle *classifies* — every RaW, inout-anti, WaR and WaW pair,
/// deduplicated.
#[test]
fn without_renaming_the_renamer_enforces_every_edge_the_oracle_classifies() {
    for b in Benchmark::all() {
        let trace = b.trace(Scale::Small, 3);
        let mut expect: Vec<(u32, u32)> =
            classified_edges(&trace).iter().map(|e| (e.from, e.to)).collect();
        expect.sort_unstable();
        expect.dedup();
        let graph = Renamer::new().renaming(false).decode(&trace);
        let got: Vec<(u32, u32)> = (0..trace.len())
            .flat_map(|t| graph.succs(t).iter().map(move |&s| (t as u32, s)))
            .collect();
        assert_eq!(got, expect, "{b}: enforced pairs diverge from the classified edges");
        assert_eq!(graph.stats().removed_by_renaming, 0, "{b}");
    }
}

#[test]
fn every_benchmark_replays_validated_at_two_four_and_eight_threads() {
    for b in Benchmark::all() {
        for threads in [2usize, 4, 8] {
            let trace = b.trace(Scale::Small, 11);
            let report = Executor::new(ExecConfig { threads, ..ExecConfig::default() })
                .run(&trace)
                .expect("replay failed");
            assert!(report.validated, "{b} at {threads} threads");
            assert_eq!(report.tasks, trace.len(), "{b} at {threads} threads");
            let executed: u64 = report.workers.iter().map(|w| w.executed).sum();
            assert_eq!(executed as usize, trace.len(), "{b}: workers lost tasks at {threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn multithread_replay_always_linearizes_the_oracle(
        seed in 1u32..50_000,
        thread_sel in 0u8..3,
        bench_sel in 0u8..9,
        streamed_sel in 0u8..2,
    ) {
        let streamed = streamed_sel == 1;
        let threads = [2usize, 4, 8][thread_sel as usize];
        let bench = Benchmark::all()[bench_sel as usize];
        let trace = bench.trace(Scale::Small, seed as u64);
        let cfg = ExecConfig {
            threads,
            payload: PayloadMode::Noop,
            seed: seed as u64,
            ..ExecConfig::default()
        };
        let exec = Executor::new(cfg);
        let report = if streamed { exec.run(&trace) } else { exec.run_oneshot(&trace) }
            .expect("replay failed");
        let oracle = DepGraph::from_trace(&trace);
        prop_assert!(
            oracle.validate_order(&report.order).is_ok(),
            "{} at {} threads, seed {} ({}): completion log violates the oracle",
            bench, threads, seed, if streamed { "stream" } else { "replay" }
        );
        prop_assert_eq!(report.order.len(), trace.len());
        let executed: u64 = report.workers.iter().map(|w| w.executed).sum();
        prop_assert_eq!(executed as usize, trace.len());
    }
}
