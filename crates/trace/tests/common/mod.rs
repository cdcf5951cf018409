//! What the allocation-budget binaries share: a counting allocator and
//! a Cholesky-shaped trace. Each binary installs the allocator as its
//! `#[global_allocator]`; it counts only what the thread inside
//! [`measure`] allocates, so the test harness's own threads do not
//! leak into a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use tss_trace::{OperandDesc, TaskTrace};

/// Bytes asked of the allocator: every `alloc`, and every `realloc` at
/// its new size.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Whether this thread is inside [`measure`]. Const-initialized
    /// and without a destructor, so reading it never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    MEASURING.try_with(Cell::get).unwrap_or(false)
}

/// Runs `f` and returns its result with the bytes it requested and the
/// bytes it left allocated (negative if it freed more than it kept).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    // relaxed: the counters are read and written by this thread only
    let (requested, live) = (REQUESTED.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    // relaxed: as above
    let requested = REQUESTED.load(Ordering::Relaxed) - requested;
    // relaxed: as above
    (out, requested, LIVE.load(Ordering::Relaxed) - live)
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are static
// atomics and the flag a const thread-local, so neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` reaches `System.alloc` as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            // relaxed: a statistic, read on the thread that allocated
            REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // relaxed: as above
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator with this
    // `layout`, as the caller guarantees.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            // relaxed: as in `alloc`
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted() {
            // relaxed: as in `alloc`
            REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // relaxed: as in `alloc`
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    // SAFETY: as `dealloc`; `new_size` is passed through. A resized
    // block counts at its new size: that is what was asked for.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            // relaxed: as in `alloc`
            REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
            // relaxed: as in `alloc`
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Blocked right-looking Cholesky over an `nb × nb` lower triangle of
/// tiles: `potrf` on the diagonal tile, `trsm` down the column, `syrk`
/// and `gemm` on the trailing matrix. `nb = 56` gives Cholesky-paper's
/// counts (30,856 tasks over 1,596 tiles) without depending on the
/// workload generator.
pub fn cholesky(nb: u64) -> TaskTrace {
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
