//! Fast workload regression gate: every Table-I benchmark must produce
//! a non-empty, acyclic `Scale::Small` trace. Catches generator
//! breakage in seconds, without the full oracle-validated end-to-end
//! run in `end_to_end.rs`.

use task_superscalar::prelude::*;
use workloads::Scale;

/// Kahn's algorithm over the enforced dependency edges; returns the
/// number of tasks that can be topologically ordered.
fn topo_orderable(g: &DepGraph) -> usize {
    let n = g.len();
    let mut indegree: Vec<usize> = (0..n).map(|t| g.preds(t).len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&t| indegree[t] == 0).collect();
    let mut ordered = 0;
    while let Some(t) = ready.pop() {
        ordered += 1;
        for &s in g.succs(t) {
            let s = s as usize;
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    ordered
}

#[test]
fn benchmark_catalog_is_complete() {
    let all = Benchmark::all();
    assert!(!all.is_empty(), "Benchmark::all() must list the Table-I benchmarks");
    assert_eq!(all.len(), 9, "the paper evaluates nine benchmarks (Table I)");
    let mut names: Vec<&str> = all.iter().map(|b| b.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "benchmark names must be unique");
}

#[test]
fn every_small_trace_is_nonempty_and_acyclic() {
    for bench in Benchmark::all() {
        let trace = bench.trace(Scale::Small, 42);
        assert!(!trace.is_empty(), "{bench:?}: empty Scale::Small trace");
        let g = DepGraph::from_trace(&trace);
        assert_eq!(g.len(), trace.len(), "{bench:?}: oracle node count mismatch");
        assert_eq!(topo_orderable(&g), trace.len(), "{bench:?}: dependency graph has a cycle");
    }
}

#[test]
fn traces_are_reproducible_per_seed() {
    for bench in Benchmark::all() {
        let a = bench.trace(Scale::Small, 7);
        let b = bench.trace(Scale::Small, 7);
        assert_eq!(a.len(), b.len(), "{bench:?}: trace length differs across identical seeds");
        let ga = DepGraph::from_trace(&a);
        let gb = DepGraph::from_trace(&b);
        assert_eq!(
            ga.enforced_edge_count(),
            gb.enforced_edge_count(),
            "{bench:?}: dependency structure differs across identical seeds"
        );
    }
}
