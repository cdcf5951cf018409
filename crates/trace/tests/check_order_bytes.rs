//! What the streamed order check (`TaskTrace::check_order` on a trace
//! with no memoized graph — every served graph's check, DESIGN.md
//! §14.3) asks of the allocator: a completion position per task and a
//! table that grows with the trace's *objects*. Bytes, not timings: a
//! table sized to tasks again, or per-version reader lists, fails this
//! on any host.
//!
//! Its own test binary because of the `#[global_allocator]`; the counter
//! is process-wide, so it is one `#[test]`, and CI runs it with
//! `--test-threads=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tss_trace::{OperandDesc, TaskTrace};

static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a static
// atomic, so bumping it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` reaches `System.alloc` as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: a statistic, read on the thread that allocated
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator with this
    // `layout`, as the caller guarantees.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // relaxed: as in `alloc`
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: as `dealloc`; `new_size` is passed through. A grown
    // block counts at its new size: that is what was asked for.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed: as in `alloc`
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocked right-looking Cholesky over an `nb × nb` lower triangle of
/// tiles: `potrf` on the diagonal tile, `trsm` down the column, `syrk`
/// and `gemm` on the trailing matrix. `nb = 56` gives Cholesky-paper's
/// counts (30,856 tasks over 1,596 tiles) without depending on the
/// workload generator.
fn cholesky(nb: u64) -> TaskTrace {
    const TILE: u32 = 64 * 64 * 8;
    let tile = |i: u64, j: u64| 0x1000_0000 + (i * nb + j) * u64::from(TILE);
    let mut tr = TaskTrace::new("cholesky-shape");
    let (potrf, trsm) = (tr.add_kernel("potrf"), tr.add_kernel("trsm"));
    let (syrk, gemm) = (tr.add_kernel("syrk"), tr.add_kernel("gemm"));
    for k in 0..nb {
        tr.push_task(potrf, 1, vec![OperandDesc::inout(tile(k, k), TILE)]);
        for i in k + 1..nb {
            let ops =
                vec![OperandDesc::input(tile(k, k), TILE), OperandDesc::inout(tile(i, k), TILE)];
            tr.push_task(trsm, 1, ops);
        }
        for i in k + 1..nb {
            let ops =
                vec![OperandDesc::input(tile(i, k), TILE), OperandDesc::inout(tile(i, i), TILE)];
            tr.push_task(syrk, 1, ops);
            for j in k + 1..i {
                let ops = vec![
                    OperandDesc::input(tile(i, k), TILE),
                    OperandDesc::input(tile(j, k), TILE),
                    OperandDesc::inout(tile(i, j), TILE),
                ];
                tr.push_task(gemm, 1, ops);
            }
        }
    }
    tr
}

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
    // relaxed: one thread allocates and reads
    let before = REQUESTED.load(Ordering::Relaxed);
    let verdict = trace.check_order(&order);
    // relaxed: as above
    let bytes = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(verdict, Ok(()));
    let budget = 4 * tasks + PER_OBJECT * objects;
    assert!(
        bytes <= budget,
        "{bytes} B requested for {tasks} tasks, {objects} objects > {budget} B"
    );
    // At most 25% slack: a budget nothing can fail is no gate.
    assert!(bytes * 5 >= budget * 4, "{bytes} B leaves the {budget} B budget slack");
}
