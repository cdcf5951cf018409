//! What one `Executor::run` asks of the allocator (ISSUE 20, DESIGN.md
//! §7): a run's tables are sized to what it commits, so the bytes it
//! requests are a small constant plus a few dozen per operand. Bytes,
//! not timings: a slab back at the `3 × operands` bound, or an arena
//! and destination buffers allocated for a payload that never copies
//! (256 KB a run, whatever the graph), fails this on any host.
//!
//! Its own test binary because of the `#[global_allocator]`. A run's
//! allocations happen on the resident crew's threads as well as the
//! caller's, so the counter is process-wide — hence one `#[test]`, and
//! CI runs it with `--test-threads=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tss_exec::{ExecConfig, Executor};
use tss_workloads::{Benchmark, Scale};

static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a static
// atomic, so bumping it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` reaches `System.alloc` as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: a statistic, read after the run's threads are done
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

/// The committed budget of one warm no-op run, `C0 + C1 × operands`
/// bytes. Requested at the commit that added it (2 workers, default
/// window, one decode shard, validation on; a block that grows counts
/// at every size it is grown to): Cholesky-small 44,092 B for 550
/// operands, H.264-small 441,756 B for 7,558 — 12.9 KB + 56.7 B per
/// operand, of which the release slab is 10 B. The parent commit asked
/// for 315,564 B and 898,988 B: a slab of 24 B per operand, and 256 KB
/// of arena and copy buffers no no-op task reads.
const C0: u64 = 16 * 1024;
const C1: u64 = 64;

#[test]
fn a_warm_noop_run_requests_a_constant_plus_bytes_per_operand() {
    if tss_exec::obs_enabled() {
        // A recording build also allocates event rings and histograms
        // per worker: the budget is the default (NoopSink) build's.
        return;
    }
    let exec = Executor::new(ExecConfig { threads: 2, ..ExecConfig::default() });
    for b in [Benchmark::Cholesky, Benchmark::H264] {
        let trace = b.trace(Scale::Small, 42);
        let operands: u64 = trace.iter().map(|t| t.operands.len() as u64).sum();
        // Warm: the crew's threads exist and the trace's oracle is
        // memoized, as from a service's second graph on.
        exec.run(&trace).expect("warm-up run failed");
        // relaxed: the run's roles are done when `run` returns
        let before = REQUESTED.load(Ordering::Relaxed);
        let report = exec.run(&trace).expect("measured run failed");
        // relaxed: as above
        let bytes = REQUESTED.load(Ordering::Relaxed) - before;
        assert!(report.validated && report.tasks == trace.len());
        let budget = C0 + C1 * operands;
        assert!(bytes <= budget, "{b}: {bytes} B requested for {operands} operands > {budget} B");
        // At most 25% slack: a budget nothing can fail is no gate.
        assert!(bytes * 5 >= budget * 4, "{b}: {bytes} B leaves the {budget} B budget slack");
    }
}
