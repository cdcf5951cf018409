//! The streaming renamer's contract: decode in windows must be
//! *indistinguishable* from a one-shot decode —
//!
//! - **Structure parity.** For every benchmark, window size and
//!   renaming setting, `StreamingRenamer::decode_graph` must produce
//!   byte-identical successor CSR, unready counters, and stats to
//!   `Renamer::decode` — the same decoder at one point of that space
//!   (a single window holding the whole trace), and the point
//!   `determinism.rs` pins to the independent `DepGraph` oracle. The
//!   sweep holds every other point to it.
//! - **Replay parity.** The live pipelined executor (workers decoding
//!   between the tasks they run, pending-release lists, sentinel
//!   counters) must emit oracle-valid completion logs at every thread
//!   count, and a 1-worker streaming replay is bit-deterministic: its
//!   one worker decodes only when it has nothing to run, so nothing
//!   races, and in-order window commits make the injector sequence a
//!   pure function of the trace and the window size.

use proptest::prelude::*;
use tss_exec::{ExecConfig, Executor, Renamer, StreamingRenamer};
use tss_trace::DepGraph;
use tss_workloads::{Benchmark, Scale};

#[test]
fn streaming_graph_matches_oneshot_on_every_benchmark() {
    for b in Benchmark::all() {
        let trace = b.trace(Scale::Small, 5);
        for renaming in [true, false] {
            let oneshot = Renamer::new().renaming(renaming).decode(&trace);
            // The last two are the `window ≥ n` point itself, reached
            // through the builder: exactly `n`, and past it.
            let n = trace.len();
            for window in [1, 97, 256, 1 << 20, n, n + 1] {
                let streamed =
                    StreamingRenamer::new().renaming(renaming).window(window).decode_graph(&trace);
                assert_eq!(streamed, oneshot, "{b}: window {window}, renaming {renaming}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Window sizes drawn freely, under either renaming setting: the
    /// successor CSR and unready counters never depend on the window.
    #[test]
    fn streaming_graph_parity_over_windows_and_renaming(
        bench_sel in 0u8..9,
        window in 1usize..600,
        renaming in 0u8..2,
        seed in 1u32..10_000,
    ) {
        let bench = Benchmark::all()[bench_sel as usize];
        let trace = bench.trace(Scale::Small, seed as u64);
        let oneshot = Renamer::new().renaming(renaming == 1).decode(&trace);
        let streamed =
            StreamingRenamer::new().renaming(renaming == 1).window(window).decode_graph(&trace);
        prop_assert!(
            streamed == oneshot,
            "{} seed {}: window {}, renaming {} diverged from one-shot",
            bench, seed, window, renaming
        );
    }

    /// The live pipelined executor: any benchmark, thread count and
    /// window size must linearize the oracle.
    #[test]
    fn streamed_replay_always_linearizes_the_oracle(
        bench_sel in 0u8..9,
        thread_sel in 0u8..3,
        window in 1usize..300,
        seed in 1u32..50_000,
    ) {
        let threads = [2usize, 4, 8][thread_sel as usize];
        let bench = Benchmark::all()[bench_sel as usize];
        let trace = bench.trace(Scale::Small, seed as u64);
        let cfg = ExecConfig { threads, seed: seed as u64, window, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&trace).expect("replay failed");
        let oracle = DepGraph::from_trace(&trace);
        prop_assert!(
            oracle.validate_order(&report.order).is_ok(),
            "{} at {} threads / window {}, seed {}: violates the oracle",
            bench, threads, window, seed
        );
        prop_assert_eq!(report.order.len(), trace.len());
    }
}

/// The determinism contract, precisely (DESIGN.md §8.2): a 1-worker
/// run is bit-deterministic whichever front end fills its table. A
/// *streamed* one decodes on its one worker, and only when that worker
/// has nothing to run — so whether a task enters through the injector
/// (ready when its window committed) or through a producer's
/// pending-release list (the producer ran before the task's window was
/// decoded) is decided by the trace and the window size, not by a race:
/// every run, whatever the steal seed, completes in the same order,
/// that order linearizes the dependency oracle, and the rename
/// statistics are the one-shot decoder's (a window scanned twice or
/// skipped would move them). (`determinism.rs` pins the nine small
/// traces' streamed order across commits.)
#[test]
fn one_worker_streaming_is_bit_deterministic() {
    for b in [Benchmark::Cholesky, Benchmark::H264, Benchmark::Specfem] {
        let trace = b.trace(Scale::Small, 7);
        let oneshot = Renamer::new().decode(&trace);
        let run = |seed| {
            let cfg = ExecConfig { threads: 1, seed, window: 128, ..ExecConfig::default() };
            Executor::new(cfg).run(&trace).expect("replay failed")
        };
        let first = run(1);
        for seed in [1, 7, 99] {
            let again = run(seed);
            assert_eq!(again.order, first.order, "{b}: order drifted (seed {seed})");
            assert_eq!(&again.rename, oneshot.stats(), "{b}: rename stats (seed {seed})");
            assert_eq!(again.total_steals(), 0, "{b}: no one to steal from");
        }
    }
}

#[test]
fn streaming_overlap_is_reported() {
    // A real benchmark with several windows: decode must be observed
    // streaming inside the exec span, and the rename stats must match
    // the one-shot decoder's.
    let trace = Benchmark::Cholesky.trace(Scale::Small, 3);
    let oneshot = Renamer::new().decode(&trace);
    let cfg = ExecConfig { threads: 2, window: 64, ..ExecConfig::default() };
    let report = Executor::new(cfg).run(&trace).expect("replay failed");
    assert!(report.streaming);
    assert!((0.0..=100.0).contains(&report.decode_overlap_pct));
    assert!(report.decode_wall.as_nanos() > 0, "decode span was recorded");
    assert_eq!(&report.rename, oneshot.stats(), "streamed stats match one-shot");
}
