//! What the streamed order check (`TaskTrace::check_order` on a trace
//! with no memoized graph — every served graph's check, DESIGN.md
//! §14.3) asks of the allocator: a completion position per task and a
//! table that grows with the trace's *objects*. Bytes, not timings: a
//! table sized to tasks again, or per-version reader lists, fails this
//! on any host.
//!
//! Its own test binary because of the `#[global_allocator]` (the
//! allocator and the trace are `common`'s).

mod common;

use common::{cholesky, measure, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The committed budget: `4 B × tasks` of completion positions plus
/// `PER_OBJECT` bytes a tile for the summary table at every size it
/// grows through (16-byte buckets at ≤ 7/8 load, doubling from empty:
/// about 44 B an object requested in all at 1,596 objects): 193,148 B
/// against a 225,568 B budget at the commit that added it. The
/// edge-walking check before it requested 5,756,464 B for this trace: a
/// 65,536-bucket index and a 112-byte reader-list state sized to
/// *tasks*, and spilled reader lists on top.
const PER_OBJECT: u64 = 64;

#[test]
fn a_streamed_check_requests_a_position_per_task_and_a_constant_per_object() {
    let nb = 56;
    let trace = cholesky(nb);
    let (tasks, objects) = (trace.len() as u64, nb * (nb + 1) / 2);
    assert_eq!((tasks, objects), (30_856, 1_596), "Cholesky-paper's shape");
    // Program order is always a valid completion order.
    let order: Vec<usize> = (0..trace.len()).collect();
    let (verdict, bytes, _) = measure(|| trace.check_order(&order));
    assert_eq!(verdict, Ok(()));
    let budget = 4 * tasks + PER_OBJECT * objects;
    assert!(
        bytes <= budget,
        "{bytes} B requested for {tasks} tasks, {objects} objects > {budget} B"
    );
    // At most 25% slack: a budget nothing can fail is no gate.
    assert!(bytes * 5 >= budget * 4, "{bytes} B leaves the {budget} B budget slack");
}
