//! Small-scope exhaustive agreement of the dependence rules (ROADMAP
//! 7(g)). The rules are stated independently in the executor's renamer,
//! in `for_each_edge` (the `DepGraph`), and in the streamed order check
//! (DESIGN.md §14.3); the random property tests tie them on sampled
//! traces. Here every trace of at most three tasks, each with at most
//! two operands over at most two objects in every direction, is
//! enumerated — 81,399 traces — and for each:
//!
//! - the renamer's edges are the graph's enforced edges with renaming
//!   on, and every classified edge (deduplicated) with it off;
//! - the streamed check and `DepGraph::validate_order` each accept
//!   exactly the linear extensions of the graph, and name an enforced
//!   edge the order inverts when they refuse one.
//!
//! Corner cases (a task that reads and then inouts one object, the same
//! object twice in one task, an empty task) are covered by construction,
//! and a failure is already minimal. The third statement of 7(g), the
//! simulator's completion order, is not covered here.

use task_superscalar::exec::Renamer;
use task_superscalar::trace::graph::{check_order, classified_edges};
use task_superscalar::trace::{DepGraph, Direction, OperandDesc, OrderViolation, TaskTrace};

const DIRECTIONS: [Direction; 3] = [Direction::In, Direction::Out, Direction::InOut];

/// The 6 operands a task may hold: two objects × three directions.
fn operand(choice: usize) -> OperandDesc {
    OperandDesc::memory(0x1000 * (1 + choice as u64 / 3), 64, DIRECTIONS[choice % 3])
}

/// Every task: no operand, one, or an ordered pair (43 in all).
fn every_task() -> Vec<Vec<OperandDesc>> {
    let mut tasks = vec![Vec::new()];
    tasks.extend((0..6).map(|a| vec![operand(a)]));
    tasks.extend((0..36).map(|ab| vec![operand(ab / 6), operand(ab % 6)]));
    tasks
}

/// `(from, to)` pairs of a successor adjacency, in `(from, to)` order.
fn pairs<'a>(n: usize, succs: impl Fn(usize) -> &'a [u32]) -> Vec<(u32, u32)> {
    (0..n).flat_map(|t| succs(t).iter().map(move |&s| (t as u32, s))).collect()
}

/// Every topological order of `g`, by enumerating the choices of Kahn's
/// algorithm: the reference the checks are held to.
fn linear_extensions(g: &DepGraph) -> Vec<Vec<usize>> {
    fn extend(
        g: &DepGraph,
        waiting: &mut [usize],
        order: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if order.len() == g.len() {
            out.push(order.clone());
            return;
        }
        for t in 0..g.len() {
            if waiting[t] == 0 && !order.contains(&t) {
                order.push(t);
                g.succs(t).iter().for_each(|&s| waiting[s as usize] -= 1);
                extend(g, waiting, order, out);
                g.succs(t).iter().for_each(|&s| waiting[s as usize] += 1);
                order.pop();
            }
        }
    }
    let mut waiting: Vec<usize> = (0..g.len()).map(|t| g.preds(t).len()).collect();
    let mut out = Vec::new();
    extend(g, &mut waiting, &mut Vec::new(), &mut out);
    out
}

/// Every permutation of `0..n`, in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut p: Vec<usize> = shorter.iter().map(|&t| t + usize::from(t >= at)).collect();
            p.insert(0, at);
            out.push(p);
        }
    }
    out.sort_unstable();
    out
}

/// Holds one trace's rule statements to each other.
fn agree(tr: &TaskTrace, orders: &[Vec<usize>]) {
    let n = tr.len();
    let g = DepGraph::from_trace(tr);
    let edges = classified_edges(tr);

    // Renaming on: the graph's enforced edges and its renaming count.
    let on = Renamer::new().decode(tr);
    assert_eq!(pairs(n, |t| on.succs(t)), pairs(n, |t| g.succs(t)), "renaming on: {tr:?}");
    assert_eq!(on.stats().removed_by_renaming, g.edges_removed_by_renaming(), "{tr:?}");
    // Renaming off: every classified edge, deduplicated.
    let off = Renamer::new().renaming(false).decode(tr);
    let mut all: Vec<(u32, u32)> = edges.iter().map(|e| (e.from, e.to)).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(pairs(n, |t| off.succs(t)), all, "renaming off: {tr:?}");

    // Both checks accept exactly the linear extensions.
    let extensions = linear_extensions(&g);
    for order in orders {
        let valid = extensions.contains(order);
        for (check, verdict) in
            [("streamed", check_order(tr, order)), ("graph", g.validate_order(order))]
        {
            match verdict {
                Ok(()) => {
                    assert!(valid, "{check} check accepts {order:?}, not an extension of {tr:?}")
                }
                Err(OrderViolation::ProducerAfterConsumer { producer, consumer }) => {
                    assert!(!valid, "{check} check refuses the extension {order:?} of {tr:?}");
                    assert!(g.preds(consumer).contains(&(producer as u32)), "{check}: not an edge");
                    let at = |t| order.iter().position(|&x| x == t);
                    assert!(
                        at(producer) > at(consumer),
                        "{check}: {producer} -> {consumer} not inverted"
                    );
                }
                Err(e) => panic!("{check} check: {e} on the permutation {order:?}"),
            }
        }
    }
}

#[test]
fn every_trace_of_three_tasks_two_operands_two_objects_agrees() {
    let tasks = every_task();
    assert_eq!(tasks.len(), 43);
    let orders: Vec<Vec<Vec<usize>>> = (0..=3).map(permutations).collect();
    let mut traces = 0;
    for len in 1..=3u32 {
        for code in 0..tasks.len().pow(len) {
            let mut tr = TaskTrace::new("exhaustive");
            let k = tr.add_kernel("k");
            for i in 0..len {
                tr.push_task(k, 1, tasks[code / tasks.len().pow(i) % tasks.len()].clone());
            }
            agree(&tr, &orders[len as usize]);
            traces += 1;
        }
    }
    assert_eq!(traces, 43 + 43 * 43 + 43 * 43 * 43);
}
