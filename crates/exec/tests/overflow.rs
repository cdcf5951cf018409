//! The release slab's second segment under the real pipeline
//! (DESIGN.md §7, §8.2). A run allocates list nodes for `1.25 ×
//! operands` edges and keeps the rest of the proven `3 × operands`
//! index bound for an overflow segment the committer allocates on
//! demand. No Table-I trace registers more than 0.98 edges per operand,
//! so nothing but a trace built for it ever crosses over — this one: `k`
//! readers, then an `inout` writer, round after round on every object.
//! Each round is `k + 1` operands and `2k + 1` enforced edges (a RaW
//! per reader, an anti-dependence per reader, the writer's own RaW),
//! none of which renaming removes.

use tss_exec::fault::install_quiet_hook;
use tss_exec::{ExecConfig, Executor, FailurePolicy, PayloadMode, Renamer};
use tss_trace::{OperandDesc, TaskTrace};

const OBJECTS: u64 = 24;
const READERS: usize = 6;
const ROUNDS: usize = 4;

/// Rounds interleaved across the objects, so every window mixes lists.
fn wide_trace() -> TaskTrace {
    let mut tr = TaskTrace::new("wide");
    let k = tr.add_kernel("k");
    let addr = |o: u64| 0x1000 + o * 0x100;
    for o in 0..OBJECTS {
        tr.push_task(k, 10, vec![OperandDesc::output(addr(o), 64)]);
    }
    for _ in 0..ROUNDS {
        for _ in 0..READERS {
            for o in 0..OBJECTS {
                tr.push_task(k, 10, vec![OperandDesc::input(addr(o), 64)]);
            }
        }
        for o in 0..OBJECTS {
            tr.push_task(k, 10, vec![OperandDesc::inout(addr(o), 64)]);
        }
    }
    tr
}

#[test]
fn a_trace_denser_than_the_first_segment_replays_validated() {
    let trace = wide_trace();
    let operands: usize = trace.iter().map(|t| t.operands.len()).sum();
    for renaming in [true, false] {
        let decoded = Renamer::new().renaming(renaming).decode(&trace);
        let edges = decoded.stats().enforced_edges;
        assert_eq!(edges, OBJECTS as usize * ROUNDS * (2 * READERS + 1));
        // The premise: more edges than the first segment has nodes. A
        // window holding the whole trace registers every one of them
        // (no producer of the window can have completed), so that row
        // crosses over by construction; the small windows race the
        // workers and cross whenever enough producers are still
        // running.
        assert!(edges > operands + operands / 4 + 8, "{edges} edges fit {operands} operands");
        for window in [1, 2, 64, trace.len()] {
            let cfg = ExecConfig { threads: 3, renaming, window, ..Default::default() };
            let report = Executor::new(cfg).run(&trace).expect("replay failed");
            let at = format!("window {window}, renaming {renaming}");
            assert!(report.validated, "{at}");
            assert_eq!(report.order.len(), trace.len(), "{at}");
            assert_eq!(&report.rename, decoded.stats(), "{at}");
        }
    }
}

/// `poison_release` walks the same lists: a failed task's cone, through
/// nodes on both sides of the boundary, is exactly the graph's.
#[test]
fn quarantine_poisons_the_exact_cone_across_the_boundary() {
    install_quiet_hook();
    let trace = wide_trace();
    let graph = Renamer::new().decode(&trace);
    for window in [64, trace.len()] {
        let cfg = ExecConfig {
            threads: 3,
            window,
            payload: PayloadMode::Faulty { rate_ppm: 20_000, seed: 5 },
            policy: FailurePolicy::Quarantine,
            ..Default::default()
        };
        let report = Executor::new(cfg).run(&trace).expect("quarantine run aborted");
        assert!(report.validated && report.accounting_reconciles(), "window {window}");
        assert!(!report.fault.failed.is_empty(), "the seed injects at least one failure");
        let mut failed = vec![false; trace.len()];
        for f in &report.fault.failed {
            failed[f.task as usize] = true;
        }
        let cone = graph.poison_cone(&failed);
        let expect: Vec<u32> = (0..trace.len() as u32).filter(|&t| cone[t as usize]).collect();
        assert_eq!(report.fault.poisoned, expect, "window {window}");
        assert!(!expect.is_empty(), "a failure this early has successors");
    }
}
