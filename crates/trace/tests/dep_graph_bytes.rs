//! What `DepGraph::from_trace` asks of the allocator, and what the graph
//! it returns keeps — the oracle every re-checked trace memoizes
//! (`TaskTrace::check_order`'s second check, DESIGN.md §14.3). Bytes,
//! not timings: a stored classified-edge list, adjacency at `usize`
//! width or an edge list collected before the CSR build fails this on
//! any host.
//!
//! Its own test binary because of the `#[global_allocator]` (the
//! allocator and the trace are `common`'s).

mod common;

use common::{cholesky, measure, Counting};
use tss_trace::DepGraph;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The object table `ObjectTable::for_trace` sizes to tasks: a 64-byte
/// state, and a 16-byte bucket plus its control byte at ≤ 7/8 load,
/// for each (64 + 17 × 16/7 < 103). Only what the walk touches becomes
/// resident.
const PER_TASK: u64 = 103;

/// The predecessor list, grown by doubling while the walk finds edges:
/// the capacities it passes through sum to < 2 × the last, which is
/// < 2 × the edges (4 B each), so < 16 B an edge. The list is then
/// shrunk to the graph's, which the graph's own term counts.
const PER_EDGE: u64 = 16;

/// Readers of a version past a state's 8 inline ones, in a list per
/// object that grows by doubling and is kept across versions: at most
/// 55 readers of one version here, so capacities 4 to 64, 496 B.
const PER_OBJECT: u64 = 512;

/// The committed budgets. The graph keeps exactly its adjacency at task-
/// id width, `4 B × (2(n + 1) + 2E)`: 949,096 B for this trace. Its
/// build requests that plus `PER_TASK`, `PER_EDGE` and `PER_OBJECT`
/// bytes each: 5,618,088 B against a 6,348,896 B budget at the commit
/// that added it. The build before it kept 4,264,520 B (every classified
/// edge at 12 B in a list reserved at two per operand, `usize`
/// adjacency) and requested 12,488,392.
#[test]
fn a_graph_keeps_its_u32_adjacency_and_its_build_a_stated_budget() {
    let nb = 56;
    let trace = cholesky(nb);
    let (tasks, objects) = (trace.len() as u64, nb * (nb + 1) / 2);
    assert_eq!((tasks, objects), (30_856, 1_596), "Cholesky-paper's shape");
    let (graph, requested, kept) = measure(|| DepGraph::from_trace(&trace));
    let edges = graph.enforced_edge_count() as u64;
    assert_eq!(edges, 87_780, "Cholesky-paper's enforced edges");

    let adjacency = 4 * (2 * (tasks + 1) + 2 * edges);
    assert_eq!(kept, adjacency as i64, "the graph keeps its u32 CSR and nothing else");
    let budget = adjacency + PER_TASK * tasks + PER_EDGE * edges + PER_OBJECT * objects;
    assert!(
        requested <= budget,
        "{requested} B requested for {tasks} tasks, {edges} edges, {objects} objects > {budget} B"
    );
    // At most 25% slack: a budget nothing can fail is no gate.
    assert!(requested * 5 >= budget * 4, "{requested} B leaves the {budget} B budget slack");
}
