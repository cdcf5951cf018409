//! Allocation counts on the wire → trace path (ISSUE 16, DESIGN.md
//! §16): a task of at most `INLINE_OPERANDS` operands owns no heap, so
//! decoding, assembling, cloning and dropping such tasks costs the
//! allocator per *frame*, not per task. Counts, not timings: a
//! per-task `Vec` anywhere on this path fails them on any host.
//!
//! Its own test binary because of the `#[global_allocator]`; the
//! counters are per thread, so the harness running tests side by side
//! does not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tss_proto::{
    decode_frame_bytes, encode_frame, graph_frames, AssemblerLimits, Frame, GraphAssembler,
};
use tss_trace::{TaskTrace, INLINE_OPERANDS};
use tss_workloads::{Benchmark, Scale};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local `Cell`s with constant initialisers and no destructor, so
// touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` reaches `System.alloc` as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator with this
    // `layout`, as the caller guarantees.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    // SAFETY: as `dealloc`; `new_size` is passed through. A growing
    // `Vec` counts as an allocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the `(allocations, frees)` this
/// thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - a0, FREES.with(Cell::get) - f0)
}

/// `trace` as encoded wire frames, `chunk` tasks to a `Tasks` frame.
fn wire_of(trace: &TaskTrace, chunk: usize) -> Vec<Vec<u8>> {
    graph_frames(1, 0, trace, chunk).iter().map(encode_frame).collect()
}

/// What a session does with a graph's frames: decode each, feed the
/// assembler, seal.
fn decode_and_assemble(wire: &[Vec<u8>]) -> TaskTrace {
    let mut asm = None;
    for bytes in wire {
        match decode_frame_bytes(bytes).expect("valid frame").0 {
            Frame::OpenGraph { deadline_ms, name, kernels, .. } => {
                let limits = AssemblerLimits::default();
                asm = Some(GraphAssembler::open(&name, &kernels, deadline_ms, limits));
            }
            Frame::Tasks { tasks, .. } => {
                asm.as_mut().expect("open first").push_tasks(tasks).expect("valid batch")
            }
            Frame::Seal { tasks_total, .. } => {
                return asm.take().expect("open first").seal(tasks_total).expect("seals");
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    panic!("no Seal frame")
}

fn spilled(trace: &TaskTrace) -> u64 {
    trace.iter().filter(|t| t.operands.len() > INLINE_OPERANDS).count() as u64
}

/// The allocator budget of a graph of `frames` frames: one allocation
/// per frame, `OpenGraph`'s strings (the graph name, the kernel table
/// and each kernel name — once decoded, once in the trace), and the
/// doublings of one growing `Vec`. Linear in frames, constant in tasks.
fn budget(frames: u64, trace: &TaskTrace) -> u64 {
    frames + 2 * (trace.kernel_count() as u64 + 2) + 8
}

#[test]
fn cholesky_costs_the_allocator_per_frame_not_per_task() {
    let trace = Benchmark::Cholesky.trace(Scale::Small, 42);
    assert_eq!(spilled(&trace), 0, "every Cholesky task fits the inline slots");
    // 16 tasks a frame: 14 `Tasks` frames for 220 tasks, so a per-task
    // allocation cannot hide inside the per-frame budget.
    let wire = wire_of(&trace, 16);
    let frames = wire.len() as u64;
    assert!(trace.len() as u64 > 4 * frames);

    let (back, allocs, _) = counted(|| decode_and_assemble(&wire));
    assert_eq!(back.tasks(), trace.tasks());
    // One `Vec<TaskDesc>` per `Tasks` frame; the trace adopts the first
    // and grows by doubling under the rest.
    let budget = budget(frames, &trace);
    assert!(allocs <= budget, "{allocs} allocations for {frames} frames (budget {budget})");

    let (copy, allocs, _) = counted(|| back.tasks().to_vec());
    assert_eq!(allocs, 1, "cloning {} inline tasks is one flat copy", copy.len());

    let (frames_again, allocs, _) = counted(|| graph_frames(1, 0, &trace, 16));
    // One `Vec` per `Tasks` frame, under the same budget.
    assert!(allocs <= budget, "graph_frames: {allocs} allocations (budget {budget})");
    drop(frames_again);

    let kernels = back.kernel_count() as u64;
    let ((), _, frees) = counted(|| drop(back));
    // The task vector, the kernel table and its names, the trace name.
    assert!(frees <= kernels + 3, "dropping the trace freed {frees} blocks");
}

#[test]
fn a_spilled_task_costs_exactly_one_allocation() {
    let trace = Benchmark::H264.trace(Scale::Small, 42);
    let spilled = spilled(&trace);
    assert!(spilled > 0 && spilled < trace.len() as u64, "H.264 has both kinds of task");

    let (copy, allocs, _) = counted(|| trace.tasks().to_vec());
    assert_eq!(allocs, 1 + spilled);
    let ((), _, frees) = counted(|| drop(copy));
    assert_eq!(frees, 1 + spilled);

    // One `Tasks` frame holding the whole trace: its `Vec`, and one
    // boxed slice per task that spills.
    let wire = wire_of(&trace, trace.len());
    let (decoded, allocs, _) = counted(|| decode_frame_bytes(&wire[1]).expect("valid frame"));
    assert_eq!(allocs, 1 + spilled);
    drop(decoded);
}
