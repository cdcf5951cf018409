//! What one `Executor::run` asks of the allocator (ISSUE 20, DESIGN.md
//! §7): a run's tables are sized to what it commits, so the bytes it
//! requests are a small constant plus a few dozen per operand, and a
//! streamed run's decode reuses its buffers window after window, so
//! those bytes do not depend on the window size (§8.2). Bytes, not
//! timings: a slab back at the `3 × operands` bound, an arena and
//! destination buffers allocated for a payload that never copies (256 KB
//! a run, whatever the graph), or a pair buffer per window fails this
//! on any host.
//!
//! Its own test binary because of the `#[global_allocator]`. A run's
//! allocations happen on the resident crew's threads as well as the
//! caller's, so the counter is process-wide — hence one `#[test]` (a
//! second one's teardown, running beside it, would land in its counts),
//! and CI runs it with `--test-threads=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tss_exec::{ExecConfig, Executor};
use tss_trace::TaskTrace;
use tss_workloads::{Benchmark, Scale};

static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// Bytes requested by one run of `trace` on `exec` after `warm_ups`
/// others. Two warm the crew's threads and the trace's memoized oracle
/// (a trace's first check streams, its second builds the graph), as a
/// caller that runs a trace again finds them.
fn run_bytes(exec: &Executor, trace: &TaskTrace, warm_ups: usize) -> u64 {
    for _ in 0..warm_ups {
        exec.run(trace).expect("warm-up run failed");
    }
    // relaxed: the run's roles are done when `run` returns
    let before = REQUESTED.load(Ordering::Relaxed);
    let report = exec.run(trace).expect("measured run failed");
    assert!(report.validated && report.tasks == trace.len());
    // relaxed: as above
    REQUESTED.load(Ordering::Relaxed) - before
}

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
/// window, validation on; a block that grows counts
/// at every size it is grown to): Cholesky-small 44,092 B for 550
/// operands, H.264-small 441,756 B for 7,558 — 12.9 KB + 56.7 B per
/// operand, of which the release slab is 10 B. The parent commit asked
/// for 315,564 B and 898,988 B: a slab of 24 B per operand, and 256 KB
/// of arena and copy buffers no no-op task reads.
const C0: u64 = 16 * 1024;
const C1: u64 = 64;

#[test]
fn a_warm_noop_run_requests_what_it_commits_at_any_window() {
    if tss_exec::obs_enabled() {
        // A recording build also allocates event rings and histograms
        // per worker: the budgets are the default (NoopSink) build's.
        return;
    }
    a_constant_plus_bytes_per_operand();
    the_same_bytes_at_any_window();
}

fn a_constant_plus_bytes_per_operand() {
    let exec = Executor::new(ExecConfig { threads: 2, ..ExecConfig::default() });
    for b in [Benchmark::Cholesky, Benchmark::H264] {
        let trace = b.trace(Scale::Small, 42);
        let operands: u64 = trace.iter().map(|t| t.operands.len() as u64).sum();
        let bytes = run_bytes(&exec, &trace, 2);
        let budget = C0 + C1 * operands;
        assert!(bytes <= budget, "{b}: {bytes} B requested for {operands} operands > {budget} B");
        // At most 25% slack: a budget nothing can fail is no gate.
        assert!(bytes * 5 >= budget * 4, "{b}: {bytes} B leaves the {budget} B budget slack");
        // A served graph's case, reported and not gated: a fresh trace on
        // the warm crew, whose one check is the streamed one.
        let fresh = run_bytes(&exec, &b.trace(Scale::Small, 42), 0);
        println!("{b}: warm run {bytes} B, of a fresh trace {fresh} B ({operands} operands)");
    }
}

/// What a larger window may ask for beyond a smaller one: the decoder's
/// one pair buffer and the commit's per-task scratch, grown through
/// every size to fit one 1,024-task window of Cholesky-paper (~3.5 k
/// pairs): 2 × 4 k × 8 B + 2 × 2 × 1,024 × 4 B = 80 KB. Requested when
/// the bound was set (one worker, so the counts repeat exactly): windows
/// 1, 64 and 1,024 spread 75,648 B. A pair buffer per window spreads
/// 2,487,576 B, which is what this catches.
const WINDOW_SPREAD: u64 = 96 * 1024;

/// A streamed run allocates nothing per window (DESIGN.md §8.2): the
/// decoder keeps one pair buffer, whose capacity persists, so the same
/// trace asks for the same bytes at any window size, up to the larger
/// window's buffers.
fn the_same_bytes_at_any_window() {
    let trace = Benchmark::Cholesky.trace(Scale::Paper, 42);
    let bytes: Vec<(usize, u64)> = [1, 64, 1024]
        .into_iter()
        .map(|window| {
            let cfg = ExecConfig { threads: 1, window, ..ExecConfig::default() };
            (window, run_bytes(&Executor::new(cfg), &trace, 2))
        })
        .collect();
    let (lo, hi) = bytes.iter().fold((u64::MAX, 0), |(lo, hi), &(_, b)| (lo.min(b), hi.max(b)));
    assert!(hi - lo <= WINDOW_SPREAD, "{bytes:?} spread over {WINDOW_SPREAD} B");
}
