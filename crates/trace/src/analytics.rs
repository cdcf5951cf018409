//! Graph analytics: critical path, parallelism profile, and dataflow
//! scheduling bounds.
//!
//! These quantify "how much parallelism is there to uncover" — the
//! question the task window size controls (Section VI.B) — independently
//! of any decode mechanism.

use crate::graph::DepGraph;
use crate::task::{TaskId, TaskTrace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tss_sim::Cycle;

/// Parallelism statistics of a dependency graph under an idealized
/// (zero-overhead, infinite-processor) dataflow execution.
#[derive(Debug, Clone)]
pub struct ParallelismProfile {
    /// Sum of all task runtimes (sequential time).
    pub total_work: Cycle,
    /// Length of the critical path (infinite-processor makespan).
    pub critical_path: Cycle,
    /// `total_work / critical_path`: average available parallelism.
    pub avg_parallelism: f64,
    /// Maximum number of tasks simultaneously running under the ideal
    /// schedule.
    pub max_width: usize,
    /// A longest path through the graph (task ids in order).
    pub critical_tasks: Vec<TaskId>,
}

/// Computes the ideal dataflow execution profile of `trace`.
///
/// Every task starts the instant its last enforced predecessor finishes;
/// processors are unbounded. The resulting makespan is the critical-path
/// length, a hard lower bound on any real execution.
pub fn parallelism_profile(trace: &TaskTrace, graph: &DepGraph) -> ParallelismProfile {
    let n = trace.len();
    assert_eq!(graph.len(), n, "graph/trace mismatch");
    let mut finish: Vec<Cycle> = vec![0; n];
    let mut longest_pred: Vec<Option<TaskId>> = vec![None; n];
    let mut events: Vec<(Cycle, i64)> = Vec::with_capacity(2 * n);

    // Tasks are in program order, and every enforced edge points forward,
    // so a single left-to-right pass is a topological traversal.
    for t in 0..n {
        let mut start: Cycle = 0;
        for &p in graph.preds(t) {
            let p = p as TaskId;
            debug_assert!(p < t, "edges must point forward in program order");
            if finish[p] > start {
                start = finish[p];
                longest_pred[t] = Some(p);
            }
        }
        finish[t] = start + trace.task(t).runtime;
        events.push((start, 1));
        events.push((finish[t], -1));
    }

    let total_work = trace.total_runtime();
    let critical_path = finish.iter().copied().max().unwrap_or(0);

    // Reconstruct one critical path.
    let mut critical_tasks = Vec::new();
    if n > 0 {
        let mut cur = (0..n).max_by_key(|&t| finish[t]).expect("non-empty");
        critical_tasks.push(cur);
        while let Some(p) = longest_pred[cur] {
            critical_tasks.push(p);
            cur = p;
        }
        critical_tasks.reverse();
    }

    // Max width: sweep start/finish events (finishes before starts at the
    // same cycle, so back-to-back chained tasks don't double-count).
    events.sort_unstable();
    let mut width = 0i64;
    let mut max_width = 0i64;
    for (_, d) in events {
        width += d;
        max_width = max_width.max(width);
    }

    ParallelismProfile {
        total_work,
        critical_path,
        avg_parallelism: if critical_path == 0 {
            0.0
        } else {
            total_work as f64 / critical_path as f64
        },
        max_width: max_width.max(0) as usize,
        critical_tasks,
    }
}

/// Greedy list-scheduling makespan on `processors` processors with zero
/// decode/dispatch overhead: the best a *perfect* frontend could achieve.
/// Used as the reference ceiling for Figures 14–16.
///
/// # Panics
///
/// Panics if `processors == 0`.
pub fn dataflow_bound(trace: &TaskTrace, graph: &DepGraph, processors: usize) -> Cycle {
    assert!(processors > 0, "need at least one processor");
    let n = trace.len();
    let mut missing: Vec<usize> = (0..n).map(|t| graph.preds(t).len()).collect();
    // Ready tasks ordered by the time they became ready, then id (FIFO).
    let mut ready: BinaryHeap<Reverse<(Cycle, TaskId)>> = BinaryHeap::new();
    // Running tasks ordered by completion.
    let mut running: BinaryHeap<Reverse<(Cycle, TaskId)>> = BinaryHeap::new();
    for (t, &m) in missing.iter().enumerate() {
        if m == 0 {
            ready.push(Reverse((0, t)));
        }
    }
    let mut free = processors;
    let mut now: Cycle = 0;
    let mut makespan: Cycle = 0;
    let mut done = 0usize;

    while done < n {
        // Dispatch as many ready tasks as fit, but not before they became
        // ready.
        while free > 0 {
            match ready.peek() {
                Some(&Reverse((at, _))) if at <= now => {
                    let Reverse((_, t)) = ready.pop().expect("peeked");
                    let fin = now + trace.task(t).runtime;
                    running.push(Reverse((fin, t)));
                    free -= 1;
                }
                _ => break,
            }
        }
        // Advance time to the next interesting instant.
        let next_ready = ready.peek().map(|&Reverse((at, _))| at);
        let next_done = running.peek().map(|&Reverse((at, _))| at);
        now = match (next_done, next_ready) {
            (Some(d), _) if free == 0 => d,
            (Some(d), Some(r)) => d.min(r.max(now)),
            (Some(d), None) => d,
            (None, Some(r)) => r.max(now),
            (None, None) => break,
        };
        // Retire everything finished by `now`.
        while let Some(&Reverse((fin, _))) = running.peek() {
            if fin > now {
                break;
            }
            let Reverse((fin, t)) = running.pop().expect("peeked");
            makespan = makespan.max(fin);
            free += 1;
            done += 1;
            for &s in graph.succs(t) {
                let s = s as TaskId;
                missing[s] -= 1;
                if missing[s] == 0 {
                    ready.push(Reverse((fin, s)));
                }
            }
        }
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{OperandDesc, TaskDesc, TaskTrace};

    fn chain_trace(n: usize, rt: Cycle) -> TaskTrace {
        let mut tr = TaskTrace::new("chain");
        let k = tr.add_kernel("k");
        for _ in 0..n {
            tr.push(TaskDesc::new(k, rt, vec![OperandDesc::inout(0x100, 64)]));
        }
        tr
    }

    fn independent_trace(n: usize, rt: Cycle) -> TaskTrace {
        let mut tr = TaskTrace::new("indep");
        let k = tr.add_kernel("k");
        for i in 0..n {
            tr.push(TaskDesc::new(k, rt, vec![OperandDesc::output(0x1000 + i as u64 * 64, 64)]));
        }
        tr
    }

    #[test]
    fn chain_has_no_parallelism() {
        let tr = chain_trace(10, 100);
        let g = DepGraph::from_trace(&tr);
        let p = parallelism_profile(&tr, &g);
        assert_eq!(p.total_work, 1000);
        assert_eq!(p.critical_path, 1000);
        assert!((p.avg_parallelism - 1.0).abs() < 1e-12);
        assert_eq!(p.max_width, 1);
        assert_eq!(p.critical_tasks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn independent_tasks_fully_parallel() {
        let tr = independent_trace(8, 100);
        let g = DepGraph::from_trace(&tr);
        let p = parallelism_profile(&tr, &g);
        assert_eq!(p.critical_path, 100);
        assert_eq!(p.max_width, 8);
        assert!((p.avg_parallelism - 8.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_profile() {
        // t0 -> t1, t2 -> t3
        let mut tr = TaskTrace::new("diamond");
        let k = tr.add_kernel("k");
        tr.push(TaskDesc::new(k, 10, vec![OperandDesc::output(0xA, 64)]));
        tr.push(TaskDesc::new(
            k,
            20,
            vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xB, 64)],
        ));
        tr.push(TaskDesc::new(
            k,
            30,
            vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xC, 64)],
        ));
        tr.push(TaskDesc::new(
            k,
            10,
            vec![OperandDesc::input(0xB, 64), OperandDesc::input(0xC, 64)],
        ));
        let g = DepGraph::from_trace(&tr);
        let p = parallelism_profile(&tr, &g);
        assert_eq!(p.critical_path, 10 + 30 + 10);
        assert_eq!(p.max_width, 2);
        assert_eq!(p.critical_tasks, vec![0, 2, 3]);
    }

    #[test]
    fn dataflow_bound_chain_equals_work() {
        let tr = chain_trace(5, 100);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(dataflow_bound(&tr, &g, 4), 500);
    }

    #[test]
    fn dataflow_bound_independent_divides_by_p() {
        let tr = independent_trace(8, 100);
        let g = DepGraph::from_trace(&tr);
        assert_eq!(dataflow_bound(&tr, &g, 1), 800);
        assert_eq!(dataflow_bound(&tr, &g, 2), 400);
        assert_eq!(dataflow_bound(&tr, &g, 8), 100);
        assert_eq!(dataflow_bound(&tr, &g, 100), 100);
    }

    #[test]
    fn dataflow_bound_never_beats_critical_path() {
        let tr = chain_trace(3, 50);
        let g = DepGraph::from_trace(&tr);
        let p = parallelism_profile(&tr, &g);
        assert!(dataflow_bound(&tr, &g, 64) >= p.critical_path);
    }

    #[test]
    fn empty_trace_is_fine() {
        let tr = TaskTrace::new("e");
        let g = DepGraph::from_trace(&tr);
        let p = parallelism_profile(&tr, &g);
        assert_eq!(p.total_work, 0);
        assert_eq!(p.critical_path, 0);
        assert_eq!(dataflow_bound(&tr, &g, 4), 0);
    }
}
