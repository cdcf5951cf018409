//! Property-based tests (proptest) on the core invariants:
//!
//! - the dependency oracle matches a brute-force O(n²) recomputation;
//! - the streamed order check (`graph::check_order`, a trace's first
//!   `TaskTrace::check_order`) and `DepGraph::validate_order` give the
//!   same verdict on valid, perturbed and malformed completion orders;
//! - `Operands` (inline slots, spilling past `INLINE_OPERANDS`) is
//!   indistinguishable from the `Vec<OperandDesc>` it was built from, at
//!   every length the TRS layout allows;
//! - every hardware-pipeline schedule satisfies the oracle and drains
//!   all frontend state, for arbitrary traces and (tiny) configurations;
//! - the TRS block allocator never double-allocates and always restores
//!   its free count.

use proptest::prelude::*;
use std::sync::Arc;

use task_superscalar::pipeline::assembly::{
    build_frontend, frontend_stats, instant_backend, InstantBackend,
};
use task_superscalar::pipeline::blocks::{blocks_for_operands, BlockStore};
use task_superscalar::pipeline::{FrontendConfig, Msg};
use task_superscalar::sim::Simulation;
use task_superscalar::trace::graph::check_order;
use task_superscalar::trace::{
    validate_schedule, DepGraph, DepKind, Direction, KernelId, OperandDesc, Operands,
    OrderViolation, TaskDesc, TaskTrace, MAX_OPERANDS,
};

// ---------------------------------------------------------------------
// Trace strategy
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct OpSpec {
    obj: u8,
    dir: u8, // 0 = In, 1 = Out, 2 = InOut
}

fn trace_from_specs(specs: &[Vec<OpSpec>], runtimes: &[u32]) -> TaskTrace {
    let mut tr = TaskTrace::new("prop");
    let k = tr.add_kernel("k");
    for (ops, &rt) in specs.iter().zip(runtimes) {
        let mut seen = Vec::new();
        let mut operands = Vec::new();
        for op in ops {
            if seen.contains(&op.obj) {
                continue; // one operand per object per task
            }
            seen.push(op.obj);
            let addr = 0x10_0000 + op.obj as u64 * 0x1_0000;
            let dir = match op.dir {
                0 => Direction::In,
                1 => Direction::Out,
                _ => Direction::InOut,
            };
            operands.push(OperandDesc::memory(addr, 256, dir));
        }
        if operands.is_empty() {
            operands.push(OperandDesc::scalar(8));
        }
        tr.push_task(k, 100 + rt as u64, operands);
    }
    tr
}

fn arb_specs() -> impl Strategy<Value = (Vec<Vec<OpSpec>>, Vec<u32>)> {
    let op = (0u8..10, 0u8..3).prop_map(|(obj, dir)| OpSpec { obj, dir });
    let task = prop::collection::vec(op, 1..5);
    (1usize..60).prop_flat_map(move |n| {
        (prop::collection::vec(task.clone(), n..=n), prop::collection::vec(0u32..20_000, n..=n))
    })
}

// ---------------------------------------------------------------------
// Oracle vs brute force
// ---------------------------------------------------------------------

/// O(n²·ops²) recomputation of the enforced predecessor sets.
fn brute_force_preds(tr: &TaskTrace) -> Vec<Vec<usize>> {
    let n = tr.len();
    let mut preds = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)] // a/b index two task positions
    for b in 0..n {
        'a_loop: for a in 0..b {
            for ob in tr.task(b).operands.iter().filter(|o| o.is_tracked()) {
                for oa in tr.task(a).operands.iter().filter(|o| o.is_tracked()) {
                    if oa.addr != ob.addr {
                        continue;
                    }
                    // RaW: b reads what a wrote, with no intervening
                    // writer between a and b.
                    let intervening_writer = ((a + 1)..b).any(|m| {
                        tr.task(m)
                            .operands
                            .iter()
                            .any(|o| o.is_tracked() && o.addr == ob.addr && o.dir.writes())
                    });
                    if ob.dir.reads() && oa.dir.writes() && !intervening_writer {
                        preds[b].push(a);
                        continue 'a_loop;
                    }
                    // InoutAnti: b is an inout writer; a read the version
                    // b supersedes (a's read not invalidated by a writer
                    // in between).
                    if ob.dir == Direction::InOut && oa.dir.reads() && !intervening_writer {
                        preds[b].push(a);
                        continue 'a_loop;
                    }
                }
            }
        }
    }
    for p in &mut preds {
        p.sort_unstable();
        p.dedup();
    }
    preds
}

// ---------------------------------------------------------------------
// Streaming order check vs the graph oracle
// ---------------------------------------------------------------------

/// Unlike [`trace_from_specs`]: scalars mixed in (`dir` 3) and an object
/// may appear in several operands of one task.
fn loose_trace(specs: &[Vec<OpSpec>]) -> TaskTrace {
    let mut tr = TaskTrace::new("loose");
    let k = tr.add_kernel("k");
    for ops in specs {
        let operands: Operands = ops
            .iter()
            .map(|op| {
                let addr = 0x10_0000 + op.obj as u64 * 0x1_0000;
                match op.dir {
                    0 => OperandDesc::input(addr, 256),
                    1 => OperandDesc::output(addr, 256),
                    2 => OperandDesc::inout(addr, 256),
                    _ => OperandDesc::scalar(8),
                }
            })
            .collect();
        tr.push_task(k, 100, operands);
    }
    tr
}

/// A linearization of `g` chosen by `picks` (Kahn's algorithm, taking
/// the `picks[i] % ready`-th ready task at step i).
fn linearize(g: &DepGraph, picks: &[usize]) -> Vec<usize> {
    let mut waiting: Vec<usize> = (0..g.len()).map(|t| g.preds(t).len()).collect();
    let mut ready: Vec<usize> = g.roots().collect();
    let mut order = Vec::with_capacity(g.len());
    while !ready.is_empty() {
        let t = ready.swap_remove(picks[order.len()] % ready.len());
        order.push(t);
        for &s in g.succs(t) {
            waiting[s] -= 1;
            if waiting[s] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

fn index_of(order: &[usize], t: usize) -> usize {
    order.iter().position(|&x| x == t).expect("order names the task")
}

/// Task specs, Kahn picks, random swaps, and `(malformation, index)`.
type OrderCase = (Vec<Vec<OpSpec>>, Vec<usize>, Vec<(usize, usize)>, (u8, usize));

fn arb_order_case() -> impl Strategy<Value = OrderCase> {
    let op = (0u8..6, 0u8..4).prop_map(|(obj, dir)| OpSpec { obj, dir });
    let task = prop::collection::vec(op, 1..5);
    (2usize..40).prop_flat_map(move |n| {
        (
            prop::collection::vec(task.clone(), n..=n),
            prop::collection::vec(0usize..1 << 16, n..=n),
            prop::collection::vec((0usize..n, 0usize..n), 0..4),
            (0u8..5, 0usize..n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_order_check_matches_the_graph_oracle(
        (specs, picks, swaps, (malform, at)) in arb_order_case(),
    ) {
        let tr = loose_trace(&specs);
        let g = DepGraph::from_trace(&tr);
        let mut order = linearize(&g, &picks);
        prop_assert_eq!(g.validate_order(&order), Ok(()));
        prop_assert_eq!(check_order(&tr, &order), Ok(()), "valid linearization rejected");
        for &(a, b) in &swaps {
            order.swap(a, b);
        }
        match malform {
            0 => order[at] = order[(at + 1) % order.len()], // a duplicated id (and a missing one)
            1 => drop(order.remove(at)),                    // a dropped id
            2 => order[at] = tr.len() + at,                 // an out-of-range id
            3 if !g.edges().is_empty() => {
                // One classified edge inverted, whatever its kind: a
                // renamed WaR/WaW may pass, a RaW/InoutAnti may not.
                let e = g.edges()[picks[at] % g.edges().len()];
                let (from, to) = (index_of(&order, e.from_id()), index_of(&order, e.to_id()));
                order.swap(from, to);
            }
            _ => {} // the random swaps only
        }
        let streamed = check_order(&tr, &order);
        let oracle = g.validate_order(&order);
        match (streamed, oracle) {
            (Ok(()), Ok(())) => {}
            // With several inverted dependencies the two name different
            // ones (first in program order vs first in completion
            // order); both must name a real enforced edge that `order`
            // inverts.
            (
                Err(OrderViolation::ProducerAfterConsumer { producer, consumer }),
                Err(OrderViolation::ProducerAfterConsumer { .. }),
            ) => {
                prop_assert!(g.preds(consumer).contains(&producer), "not an enforced edge");
                prop_assert!(
                    index_of(&order, producer) > index_of(&order, consumer),
                    "edge is not inverted"
                );
            }
            // Unknown / duplicate / missing: identical, down to the id.
            (s, o) => prop_assert_eq!(s, o, "verdicts differ on {:?}", order),
        }
    }
}

// ---------------------------------------------------------------------
// Inline operand storage vs a `Vec` model
// ---------------------------------------------------------------------

fn arb_operand() -> impl Strategy<Value = OperandDesc> {
    (0u8..4, 0usize..1 << 40, 0u32..1 << 20).prop_map(|(dir, addr, size)| {
        let addr = addr as u64;
        match dir {
            0 => OperandDesc::input(addr, size),
            1 => OperandDesc::output(addr, size),
            2 => OperandDesc::inout(addr, size),
            _ => OperandDesc::scalar(size),
        }
    })
}

/// `Operands::from` an array of exactly `model.len()` operands.
fn from_array(model: &[OperandDesc]) -> Operands {
    macro_rules! by_len {
        ($($n:literal)*) => {
            match model.len() {
                $($n => Operands::from(<[OperandDesc; $n]>::try_from(model).expect("length matched")),)*
                n => unreachable!("{n} operands"),
            }
        };
    }
    by_len!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn operands_are_the_vec_they_were_built_from(
        pool in prop::collection::vec(arb_operand(), MAX_OPERANDS..=MAX_OPERANDS),
        other in arb_operand(),
        at in 0usize..MAX_OPERANDS,
    ) {
        // Every length on both sides of the inline/spill boundary.
        for n in 0..=MAX_OPERANDS {
            let model: Vec<OperandDesc> = pool[..n].to_vec();
            let built = [
                Operands::from(model.clone()),
                Operands::from(&model[..]),
                from_array(&model),
                model.iter().copied().collect::<Operands>(),
                Operands::try_from_slice(&model).expect("within both operand rules"),
            ];
            for ops in &built {
                prop_assert_eq!(&ops[..], &model[..], "deref, {} operands", n);
                prop_assert_eq!(ops.len(), n);
                prop_assert_eq!(ops.iter().collect::<Vec<_>>(), model.iter().collect::<Vec<_>>());
                prop_assert_eq!(ops, &built[0], "constructors disagree at {} operands", n);
                prop_assert_eq!(&ops.clone(), ops);
                prop_assert_eq!(format!("{ops:?}"), format!("{model:?}"));
            }
            // `==` is the model's: a changed operand, a shorter list.
            let mut changed = model.clone();
            if let Some(slot) = changed.get_mut(at % n.max(1)) {
                *slot = other;
            }
            prop_assert_eq!(Operands::from(&changed[..]) == built[0], changed == model);
            if n > 0 {
                prop_assert!(Operands::from(&model[..n - 1]) != built[0]);
            }
            // The task record inherits all of it.
            let task = TaskDesc::new(KernelId(3), 77, &model[..]);
            prop_assert_eq!(&task.clone(), &task);
            prop_assert_eq!(&task.operands[..], &model[..]);
            prop_assert_eq!(task == TaskDesc::new(KernelId(3), 77, changed.clone()), changed == model);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oracle_matches_brute_force((specs, rts) in arb_specs()) {
        let tr = trace_from_specs(&specs, &rts);
        let g = DepGraph::from_trace(&tr);
        let brute = brute_force_preds(&tr);
        for (t, expected) in brute.iter().enumerate() {
            prop_assert_eq!(g.preds(t), &expected[..], "task {} preds mismatch", t);
        }
        // Edge kinds are consistent: enforced edges are RaW/InoutAnti.
        for e in g.edges() {
            prop_assert_eq!(
                e.kind.enforced(),
                matches!(e.kind, DepKind::RaW | DepKind::InoutAnti)
            );
        }
    }

    #[test]
    fn pipeline_schedules_always_satisfy_the_oracle(
        (specs, rts) in arb_specs(),
        num_trs in 1usize..4,
        num_ort in 1usize..3,
    ) {
        let tr = trace_from_specs(&specs, &rts);
        let cfg = FrontendConfig {
            num_trs,
            num_ort,
            trs_total_bytes: 32 << 10,
            ort_total_bytes: 8 << 10,
            ovt_total_bytes: 8 << 10,
            ..FrontendConfig::default()
        };
        let trace = Arc::new(tr);
        let mut sim = Simulation::<Msg>::new();
        let topo = build_frontend(&mut sim, trace.clone(), &cfg, instant_backend);
        sim.run();
        let backend = sim.component::<InstantBackend>(topo.backend);
        prop_assert_eq!(backend.completed() as usize, trace.len(), "deadlock");
        let g = DepGraph::from_trace(&trace);
        prop_assert!(validate_schedule(&g, backend.schedule()).is_ok());
        let stats = frontend_stats(&sim, &topo, &cfg);
        prop_assert_eq!(stats.leaked_tasks, 0, "leaked frontend state");
        prop_assert_eq!(stats.tasks_decoded as usize, trace.len());
    }

    #[test]
    fn block_store_conserves_blocks(
        sizes in prop::collection::vec(0usize..20, 1..40),
        total in 16u32..256,
    ) {
        let mut store = BlockStore::new(total, 22);
        let mut live: Vec<Vec<u32>> = Vec::new();
        let mut allocated = 0u32;
        for (i, &ops) in sizes.iter().enumerate() {
            let need = blocks_for_operands(ops.min(19));
            match store.alloc(need) {
                Some(a) => {
                    prop_assert_eq!(a.blocks.len() as u32, need);
                    allocated += need;
                    live.push(a.blocks);
                }
                None => {
                    prop_assert!(allocated + need > total, "spurious rejection");
                }
            }
            // Free every other allocation eagerly.
            if i % 2 == 0 {
                if let Some(blocks) = live.pop() {
                    allocated -= blocks.len() as u32;
                    store.free(&blocks);
                }
            }
        }
        for blocks in live.drain(..) {
            store.free(&blocks);
        }
        prop_assert_eq!(store.free_count(), total);
        prop_assert_eq!(store.allocated_count(), 0);
    }

    #[test]
    fn parallel_makespan_never_beats_critical_path(
        (specs, rts) in arb_specs(),
    ) {
        let tr = trace_from_specs(&specs, &rts);
        let g = DepGraph::from_trace(&tr);
        let profile = task_superscalar::trace::parallelism_profile(&tr, &g);
        let trace = Arc::new(tr);
        let mut sim = Simulation::<Msg>::new();
        let cfg = FrontendConfig::default();
        let topo = build_frontend(&mut sim, trace.clone(), &cfg, instant_backend);
        sim.run();
        let backend = sim.component::<InstantBackend>(topo.backend);
        let makespan = backend.schedule().iter().map(|r| r.end).max().unwrap_or(0);
        prop_assert!(
            makespan >= profile.critical_path,
            "makespan {} < critical path {}", makespan, profile.critical_path
        );
    }
}
