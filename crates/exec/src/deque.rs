//! Per-worker work-stealing deques: a lock-free **Chase-Lev** deque.
//!
//! PR 3 shipped a `Mutex<VecDeque>` ring here, with a module doc
//! calling it a placeholder for Chase-Lev; that ring survives below as
//! `tests::MutexDeque`, the differential-test oracle (the same
//! discipline PR 2 used when the calendar queue replaced the seed's
//! `BinaryHeap`). The live implementation is now the real thing:
//! atomic `bottom`/`top` indices over a growable circular buffer,
//! owner-LIFO `push`/`pop`, thief-FIFO [`steal`](ChaseLev::steal), and
//! [`steal_batch_into`](ChaseLev::steal_batch_into) which relieves a
//! victim of half its queue per visit (Cilk-style steal-half: a thief
//! that found work once is likely to need more, and batching amortizes
//! the victim scan), claiming each item through the full validated
//! steal protocol — see its doc for why a single multi-item CAS would
//! race the owner's pop fast path.
//!
//! Discipline (unchanged from PR 3): the owner pushes and pops at the
//! *bottom* (LIFO: newest task is cache-hottest and depth-first order
//! bounds the live set, as in Cilk); thieves steal from the *top*
//! (FIFO: the oldest task is the likeliest root of a large untouched
//! subtree).
//!
//! # Memory-ordering argument
//!
//! The protocol is the C11 formulation of Lê, Pop, Cocke & Pottier's
//! "Correct and Efficient Work-Stealing for Weakly Ordered Memory
//! Models" (PPoPP 2013); DESIGN.md §8 carries the full argument. The
//! short form:
//!
//! - **Cells are `AtomicU32`s** written `Relaxed`; they are published
//!   not by their own ordering but by the release/acquire edge on
//!   `bottom` (owner push → thief read) or on the buffer pointer
//!   (grow → thief read). A stale cell read is harmless: every steal
//!   validates with a CAS on `top` before the value is used.
//! - **`push`** stores the cell, then `bottom` with `Release` — a thief
//!   that observes the new `bottom` observes the cell.
//! - **`pop`** decrements `bottom` (`Relaxed`), issues a `SeqCst`
//!   fence, then reads `top`. The fence pairs with the one in `steal`:
//!   either the thief sees the decremented `bottom` (and gives up) or
//!   the owner sees the thief's `top` (and falls into the one-item CAS
//!   race). Without `SeqCst` here both could read stale values and pop
//!   the same item.
//! - **`steal`** reads `top` (`Acquire`), fences (`SeqCst`), reads
//!   `bottom` (`Acquire`), copies the cell(s), then CASes `top`
//!   (`SeqCst` on success). The CAS is the linearization point: cells
//!   are copied *before* it, so the owner reusing the slots *after* it
//!   cannot corrupt a successful steal.
//! - **Grow** copies live cells into a buffer of twice the capacity and
//!   publishes it with a `Release` store of the buffer pointer. The old
//!   buffer is retired to a graveyard, not freed: a thief that loaded
//!   the old pointer may still be reading it, and the old cells keep
//!   their pre-grow values forever (the owner writes only through the
//!   new buffer), so a stale reader stays *correct*, not just safe.
//!   Doubling growth bounds graveyard memory by the live buffer's size.
//!
//! `steal_batch_into` targets `k = ceil(avail/2)` items but claims them
//! one validated `steal` at a time. A single `top` CAS over the whole
//! range is tempting and **wrong**: the owner's CAS-free `pop` fast
//! path takes `bottom - 1` whenever it reads `top < bottom - 1`, and
//! `bottom` keeps falling after the thief snapshots it — the owner can
//! take an index strictly inside `(t, t+k)` without ever touching
//! `top`, and the thief's wide CAS (top still `t`) would then
//! double-claim it. Only index `top` itself is CAS-arbitrated, so only
//! one-index claims are sound.
//!
//! # The injector is a different type
//!
//! That argument is about an owner that pops. The run's global ready
//! queue has none — the window committer pushes roots, workers take
//! them — so it is not a `ChaseLev` but an [`Injector`]: the same
//! storage with `push` and a batch claim and, by type, no `pop`. With
//! nobody popping, `bottom` only grows, an index at or above `top`
//! leaves the queue by a `top` CAS and no other way, and one CAS from
//! `t` to `t + k` claims the whole range — no fence, no per-item
//! protocol ([`Injector::claim_batch_into`] has the access-by-access
//! argument, DESIGN.md §8.1 the table).

use crate::sync::atomic::{fence, AtomicIsize, AtomicPtr, AtomicU32, Ordering};
use crate::sync::Mutex;

use tss_sim::CachePadded;

mod injector;
pub use injector::Injector;

/// Largest number of tasks one `steal_batch_into` moves (the stack
/// staging buffer's size). Victims longer than `2 * BATCH_MAX` are
/// relieved of `BATCH_MAX` tasks per steal.
pub const BATCH_MAX: usize = 32;

/// Ordering of the grown-buffer publish in [`ChaseLev::push`]'s grow
/// path (DESIGN.md §10.3). The seeded-bug build weakens it to Relaxed —
/// CI's negative gate compiles with `--cfg tss_bug_publish_relaxed` and
/// expects `model_steal_batch_vs_grow` to fail with a replayable trace,
/// proving the model checker actually discriminates the ordering.
#[cfg(not(tss_bug_publish_relaxed))]
const BUF_PUBLISH: Ordering = Ordering::Release;
#[cfg(tss_bug_publish_relaxed)]
// relaxed: deliberately-weak seeded-bug arm, compiled only under --cfg
// tss_bug_publish_relaxed; model_steal_batch_vs_grow fails when active
const BUF_PUBLISH: Ordering = Ordering::Relaxed;

/// The growable circular cell array. Capacity is always a power of two;
/// logical index `i` lives in cell `i & mask`. Cells are atomics so a
/// deliberately-racy stale read (always discarded by a failed `top`
/// CAS) is defined behavior rather than UB.
struct Buffer {
    mask: usize,
    cells: Box<[AtomicU32]>,
}

impl Buffer {
    fn alloc(cap: usize) -> *mut Buffer {
        debug_assert!(cap.is_power_of_two());
        let cells: Box<[AtomicU32]> = (0..cap).map(|_| AtomicU32::new(0)).collect();
        Box::into_raw(Box::new(Buffer { mask: cap - 1, cells }))
    }

    #[inline]
    fn cap(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn read(&self, i: isize) -> u32 {
        // relaxed: cell read; a stolen value is used only after winning the
        // SeqCst top CAS, an owner pop is validated against top
        self.cells[i as usize & self.mask].load(Ordering::Relaxed)
    }

    #[inline]
    fn write(&self, i: isize, v: u32) {
        // relaxed: cell write; published to thieves by push's Release store
        // of bottom
        self.cells[i as usize & self.mask].store(v, Ordering::Relaxed);
    }
}

/// One worker's lock-free Chase-Lev deque, shared with thieves.
///
/// # Ownership contract
///
/// [`push`](ChaseLev::push) and [`pop`](ChaseLev::pop) may be called by
/// **one thread at a time** (the owner). Ownership may migrate between
/// threads only through a happens-before edge (the executor hands the
/// [`Injector`]'s pusher role along its window-commit turn, which is
/// such an edge). [`steal`](ChaseLev::steal) and
/// [`steal_batch_into`](ChaseLev::steal_batch_into) are safe from any
/// number of threads concurrently. Violating the owner contract cannot
/// corrupt memory (cells are atomics) but can lose or duplicate tasks —
/// the executor would fail its oracle check, not segfault.
///
/// `bottom`, `top`, and the buffer pointer each sit on their own padded
/// cache line: `top` is hammered by thieves' CASes and must not evict
/// the owner's `bottom` line on every attempt (the false-sharing half
/// of this PR's hot-path work).
pub struct ChaseLev {
    /// Owner end. Written only by the owner; read by thieves.
    bottom: CachePadded<AtomicIsize>,
    /// Thief end. CASed by thieves (and by the owner's last-item race).
    top: CachePadded<AtomicIsize>,
    /// Current cell array; replaced (never mutated in place) on grow.
    buf: CachePadded<AtomicPtr<Buffer>>,
    /// Retired buffers, freed on drop. Grow is rare (doubling), so a
    /// mutex here is off every hot path.
    graveyard: Mutex<Vec<*mut Buffer>>,
}

// SAFETY: all shared state is atomics; the raw buffer pointers are
// created by `Box::into_raw`, published with Release, read with
// Acquire, and freed only under `&mut self` (drop), after every thread
// with a stale pointer is gone (threads borrow the deque, so the borrow
// checker forces joins before drop).
unsafe impl Send for ChaseLev {}
unsafe impl Sync for ChaseLev {}

impl Default for ChaseLev {
    fn default() -> Self {
        ChaseLev::with_capacity(64)
    }
}

impl ChaseLev {
    /// An empty deque with the default initial capacity.
    pub fn new() -> Self {
        ChaseLev::default()
    }

    /// An empty deque whose buffer starts at `cap` rounded up to a
    /// power of two (≥ 8). Sizing to the expected live set skips the
    /// grow path entirely on the replay hot loop.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(8);
        ChaseLev {
            bottom: CachePadded::new(AtomicIsize::new(0)),
            top: CachePadded::new(AtomicIsize::new(0)),
            buf: CachePadded::new(AtomicPtr::new(Buffer::alloc(cap))),
            graveyard: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of the queue length (exact when quiescent; a hint
    /// under concurrency). Used by wake heuristics, never correctness.
    pub fn len(&self) -> usize {
        // relaxed: len() snapshot; advisory size estimate, never a
        // correctness input
        let b = self.bottom.load(Ordering::Relaxed);
        // relaxed: len() snapshot; advisory size estimate, never a
        // correctness input
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }

    /// Whether the queue appears empty (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn buffer(&self, order: Ordering) -> &Buffer {
        // SAFETY: the pointer was produced by `Buffer::alloc`
        // (`Box::into_raw`) and is freed only in `drop`/graveyard
        // teardown, which requires `&mut self`.
        unsafe { &*self.buf.load(order) }
    }

    /// Owner push (bottom / LIFO end).
    pub fn push(&self, task: u32) {
        // relaxed: push: bottom is owner-private between its own Release
        // stores
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        // relaxed: push: owner is the only buffer mutator; grow happens on
        // this thread
        let mut buf = self.buffer(Ordering::Relaxed);
        if b - t >= buf.cap() as isize {
            buf = self.grow(t, b);
        }
        buf.write(b, task);
        // Release publishes the cell to any thief that acquires the new
        // bottom.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner pop (bottom): newest task first.
    pub fn pop(&self) -> Option<u32> {
        // relaxed: pop: owner-private bottom read; the SeqCst fence below
        // orders the speculation
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        // relaxed: pop: owner reads its own buffer; grow is owner-only
        let buf = self.buffer(Ordering::Relaxed);
        // relaxed: pop: speculative bottom store ordered by the SeqCst
        // fence below (model: pop_vs_steal_last_element)
        self.bottom.store(b, Ordering::Relaxed);
        // Pairs with the fence in `steal`: one of the two sides must
        // see the other's index write (Dekker store-load).
        fence(Ordering::SeqCst);
        // relaxed: pop: top read ordered by the preceding SeqCst fence (the
        // Dekker edge, DESIGN.md §8.1)
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: undo the reservation.
            // relaxed: pop: bottom restore on empty; owner-private,
            // republished by next push
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let v = buf.read(b);
        if t == b {
            // Last item: arbitrate with thieves via the top CAS.
            // relaxed: CAS failure ordering; nothing is read from a lost
            // final-element race
            let won =
                self.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok();
            // relaxed: pop: bottom reset after contested final element;
            // owner-private
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(v);
        }
        Some(v)
    }

    /// Thief steal (top): oldest task first. Retries internally on CAS
    /// contention, so `None` means the deque was observed empty.
    pub fn steal(&self) -> Option<u32> {
        loop {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            let v = self.buffer(Ordering::Acquire).read(t);
            // The cell was copied above; on success the slot is ours.
            // relaxed: steal CAS failure ordering; the thief retries from
            // fresh loads, no data depends on failure
            if self.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok() {
                return Some(v);
            }
        }
    }

    /// Steals up to half of this deque (capped at [`BATCH_MAX`] and
    /// `max`): the oldest task is returned to run now and the rest land
    /// in `dest` — the **thief's own** deque — ordered so that
    /// `dest.pop()` yields them oldest-first, preserving the
    /// program-order bias of FIFO stealing.
    ///
    /// The batch target (`ceil(avail/2)`, snapshotted on entry) is
    /// claimed **one validated [`steal`](Self::steal) at a time**, not
    /// by a single multi-item `top` CAS. A single CAS over `[t, t+k)`
    /// would race the owner: `bottom` keeps falling as the owner pops,
    /// and its CAS-free fast path only arbitrates index `top` itself —
    /// it can legally take `t+1..t+k-1` while `top` still reads `t`, so
    /// the thief's wide CAS would then double-claim them. Re-running
    /// the full `steal` protocol (fence, fresh `bottom` read, CAS) per
    /// item makes every claim individually sound; the batch still
    /// amortizes the victim scan and relieves the victim of half its
    /// load in one visit.
    ///
    /// `dest` must be owned by the calling thread (owner contract).
    pub fn steal_batch_into(&self, dest: &ChaseLev, max: usize) -> Option<u32> {
        let max = max.clamp(1, BATCH_MAX);
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        let avail = b - t;
        if avail <= 0 {
            return None;
        }
        // Take-half target from the entry snapshot; each item is still
        // individually validated below, so a stale snapshot only ends
        // the batch early.
        let target = (((avail + 1) / 2) as usize).min(max);
        let mut tmp = [0u32; BATCH_MAX];
        let mut got = 0usize;
        while got < target {
            match self.steal() {
                Some(v) => {
                    tmp[got] = v;
                    got += 1;
                }
                None => break,
            }
        }
        if got == 0 {
            return None;
        }
        // Push the surplus newest-first so the thief pops (LIFO)
        // oldest-first.
        for &task in tmp[1..got].iter().rev() {
            dest.push(task);
        }
        Some(tmp[0])
    }

    /// Cold path: double the buffer, copy live cells, publish, retire.
    #[cold]
    fn grow(&self, t: isize, b: isize) -> &Buffer {
        // relaxed: grow: old buffer pointer read by the owner, the only buf
        // writer
        let old_ptr = self.buf.load(Ordering::Relaxed);
        // SAFETY: same lifetime argument as `buffer`.
        let old = unsafe { &*old_ptr };
        let new_ptr = Buffer::alloc(old.cap() * 2);
        // SAFETY: freshly allocated above, not yet shared.
        let new = unsafe { &*new_ptr };
        for i in t..b {
            new.write(i, old.read(i));
        }
        // Release: a thief acquiring the new pointer sees the copies
        // (weakened by the seeded-bug cfg; see `BUF_PUBLISH`).
        self.buf.store(new_ptr, BUF_PUBLISH);
        self.graveyard.lock().expect("deque graveyard poisoned").push(old_ptr);
        new
    }
}

/// The steal-victim rotation (DESIGN.md §13): fills `buf` with every
/// worker index except `me` (out of `n` workers), rotated so the scan
/// starts at a rotation-offset derived from `r`. This is exactly the
/// rotation the pre-§13 executor inlined — `others` ascending, scan
/// from `r % (n-1)` — and what the worker loop's one victim scan
/// (`sched::victims`) fills its buffer with.
pub fn rotate_victims(me: usize, n: usize, r: u64, buf: &mut Vec<usize>) {
    buf.clear();
    if n <= 1 {
        return;
    }
    let len = n - 1;
    let start = (r as usize) % len;
    for i in 0..len {
        let idx = (start + i) % len;
        // The ascending all-but-`me` list, materialized lazily:
        // element `idx` is `idx` below `me` and `idx + 1` at or above.
        buf.push(if idx < me { idx } else { idx + 1 });
    }
}

impl Drop for ChaseLev {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees no thread still reads these;
        // every pointer came from `Box::into_raw` exactly once.
        unsafe {
            // relaxed: Drop has &mut self; no concurrent access remains
            drop(Box::from_raw(self.buf.load(Ordering::Relaxed)));
            for p in self.graveyard.get_mut().expect("deque graveyard poisoned").drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

impl std::fmt::Debug for ChaseLev {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // relaxed: Debug snapshot; diagnostic only
        f.debug_struct("ChaseLev")
            .field("len", &self.len())
            .field("cap", &self.buffer(Ordering::Relaxed).cap())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicUsize;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn rotate_victims_is_the_baseline_rotation() {
        // Must reproduce the pre-§13 inline scan: `others` ascending
        // (all-but-me), visited from `r % others.len()`.
        let mut buf = Vec::new();
        for n in 1..6usize {
            for me in 0..n {
                let others: Vec<usize> = (0..n).filter(|&v| v != me).collect();
                for r in 0..8u64 {
                    rotate_victims(me, n, r, &mut buf);
                    if others.is_empty() {
                        assert!(buf.is_empty());
                        continue;
                    }
                    let start = (r as usize) % others.len();
                    let want: Vec<usize> =
                        (0..others.len()).map(|i| others[(start + i) % others.len()]).collect();
                    assert_eq!(buf, want, "n={n} me={me} r={r}");
                }
            }
        }
    }

    /// PR 3's mutexed ring, demoted to differential-test oracle: under
    /// a lock, owner-LIFO/thief-FIFO semantics are trivially correct,
    /// so any sequential divergence from `ChaseLev` is a `ChaseLev`
    /// bug.
    #[derive(Debug, Default)]
    pub struct MutexDeque {
        ring: Mutex<VecDeque<u32>>,
    }

    impl MutexDeque {
        pub fn new() -> Self {
            MutexDeque::default()
        }

        pub fn push(&self, task: u32) {
            self.ring.lock().expect("deque poisoned").push_back(task);
        }

        pub fn pop(&self) -> Option<u32> {
            self.ring.lock().expect("deque poisoned").pop_back()
        }

        pub fn steal(&self) -> Option<u32> {
            self.ring.lock().expect("deque poisoned").pop_front()
        }

        /// Oracle twin of [`ChaseLev::steal_batch_into`].
        pub fn steal_batch_into(&self, dest: &MutexDeque, max: usize) -> Option<u32> {
            let max = max.clamp(1, BATCH_MAX);
            let mut g = self.ring.lock().expect("deque poisoned");
            let avail = g.len();
            if avail == 0 {
                return None;
            }
            let n = avail.div_ceil(2).min(max);
            let taken: Vec<u32> = g.drain(..n).collect();
            drop(g);
            // Newest-first pushes so LIFO pops run the batch
            // oldest-first, exactly as the lock-free implementation
            // arranges — and without touching whatever `dest` already
            // held.
            for &t in taken[1..].iter().rev() {
                dest.push(t);
            }
            Some(taken[0])
        }
    }

    #[test]
    fn owner_order_is_lifo() {
        let d = ChaseLev::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn thieves_take_the_oldest() {
        let d = ChaseLev::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), Some(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), Some(2));
        assert_eq!(d.steal(), None, "drained");
    }

    #[test]
    fn steal_on_empty_returns_none() {
        let d = ChaseLev::new();
        assert_eq!(d.steal(), None);
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal_batch_into(&ChaseLev::new(), 8), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let d = ChaseLev::with_capacity(8);
        for i in 0..1000 {
            d.push(i);
        }
        assert_eq!(d.len(), 1000);
        for i in (0..1000).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn steal_batch_takes_half_oldest_first() {
        let v = ChaseLev::new();
        let mine = ChaseLev::new();
        for i in 0..8 {
            v.push(i);
        }
        // 8 available: batch takes ceil(8/2) = 4 → runs 0, banks 1,2,3.
        assert_eq!(v.steal_batch_into(&mine, BATCH_MAX), Some(0));
        assert_eq!(mine.len(), 3);
        assert_eq!(mine.pop(), Some(1), "banked tasks pop oldest-first");
        assert_eq!(mine.pop(), Some(2));
        assert_eq!(mine.pop(), Some(3));
        assert_eq!(v.len(), 4, "victim keeps its newest half");
        assert_eq!(v.pop(), Some(7));
    }

    /// One interpreted op for the sequential differential test.
    fn apply_ops(ops: &[(u8, u8)]) -> (Vec<Option<u32>>, Vec<Option<u32>>) {
        let cl = ChaseLev::with_capacity(8);
        let cl_dest = ChaseLev::with_capacity(8);
        let mx = MutexDeque::new();
        let mx_dest = MutexDeque::new();
        let mut next = 0u32;
        let mut cl_out = Vec::new();
        let mut mx_out = Vec::new();
        for &(op, arg) in ops {
            match op % 4 {
                0 => {
                    cl.push(next);
                    mx.push(next);
                    next += 1;
                }
                1 => {
                    cl_out.push(cl.pop());
                    mx_out.push(mx.pop());
                }
                2 => {
                    cl_out.push(cl.steal());
                    mx_out.push(mx.steal());
                }
                _ => {
                    let max = (arg as usize % BATCH_MAX) + 1;
                    cl_out.push(cl.steal_batch_into(&cl_dest, max));
                    mx_out.push(mx.steal_batch_into(&mx_dest, max));
                    // The banked halves must agree too: drain both.
                    loop {
                        let (a, b) = (cl_dest.pop(), mx_dest.pop());
                        cl_out.push(a);
                        mx_out.push(b);
                        if a.is_none() && b.is_none() {
                            break;
                        }
                    }
                }
            }
        }
        // Drain what's left through alternating ends.
        loop {
            let (a, b) = (cl.pop(), mx.pop());
            cl_out.push(a);
            mx_out.push(b);
            if a.is_none() && b.is_none() {
                break;
            }
        }
        (cl_out, mx_out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sequential differential test: every interleaving of owner
        /// ops and (single-threaded) thief ops must match the mutexed
        /// oracle exactly, including batch sizes and banked order.
        #[test]
        fn chase_lev_matches_mutex_oracle(
            ops in prop::collection::vec((0u8..8, 0u8..32), 1..120),
        ) {
            let (cl, mx) = apply_ops(&ops);
            prop_assert_eq!(cl, mx);
        }
    }

    /// Concurrent stress: one owner pushes/pops, `thieves` thieves
    /// steal (mixing single and batch), with seeded yield points
    /// injected between operations to vary the interleaving on
    /// single-core CI machines. Every pushed value must be consumed
    /// exactly once across all consumers.
    fn stress(seed: u64, thieves: usize, items: u32, batch: bool) {
        let deque = ChaseLev::with_capacity(8);
        let consumed = AtomicUsize::new(0);
        let seen_cells: Vec<AtomicU32> = (0..items).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|scope| {
            for th in 0..thieves {
                let deque = &deque;
                let consumed = &consumed;
                let seen_cells = &seen_cells;
                scope.spawn(move || {
                    let mine = ChaseLev::with_capacity(8);
                    let mut rng = seed ^ (th as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    while consumed.load(Ordering::SeqCst) < items as usize {
                        rng =
                            rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        if rng & 3 == 0 {
                            std::thread::yield_now();
                        }
                        let got = if batch && rng & 4 != 0 {
                            deque.steal_batch_into(&mine, BATCH_MAX)
                        } else {
                            deque.steal()
                        };
                        if let Some(v) = got {
                            seen_cells[v as usize].fetch_add(1, Ordering::SeqCst);
                            consumed.fetch_add(1, Ordering::SeqCst);
                        }
                        while let Some(v) = mine.pop() {
                            seen_cells[v as usize].fetch_add(1, Ordering::SeqCst);
                            consumed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
            // Owner: push all items, popping a few along the way.
            let mut rng = seed;
            for v in 0..items {
                deque.push(v);
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if rng & 7 == 0 {
                    std::thread::yield_now();
                }
                if rng & 3 == 0 {
                    if let Some(p) = deque.pop() {
                        seen_cells[p as usize].fetch_add(1, Ordering::SeqCst);
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            // Owner drains the rest so the thieves can terminate.
            while let Some(p) = deque.pop() {
                seen_cells[p as usize].fetch_add(1, Ordering::SeqCst);
                consumed.fetch_add(1, Ordering::SeqCst);
            }
        });
        for (i, c) in seen_cells.iter().enumerate() {
            let n = c.load(Ordering::SeqCst);
            assert_eq!(n, 1, "item {i} consumed {n} times (seed {seed})");
        }
    }

    #[test]
    fn concurrent_steal_loses_nothing() {
        for seed in [1u64, 7, 42] {
            stress(seed, 2, 4_000, false);
        }
    }

    #[test]
    fn concurrent_batch_steal_loses_nothing() {
        for seed in [3u64, 11, 99] {
            stress(seed, 3, 4_000, true);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Seeds × thief counts × batch modes: the interleaving-varied
        /// stress above, driven by proptest.
        #[test]
        fn concurrent_stress_over_seeds(
            seed in 1u32..1_000_000,
            thieves in 1usize..4,
            batch in 0u8..2,
        ) {
            stress(seed as u64, thieves, 1_500, batch == 1);
        }
    }
}

/// Model-checked interleaving tests (DESIGN.md §10.3). Compiled only
/// under `RUSTFLAGS="--cfg tss_model_check"`, where the sync facade
/// swaps every atomic for shuttle's scheduler-instrumented double; CI's
/// `verify` job runs them with bounded budgets.
#[cfg(all(test, tss_model_check))]
mod model_tests;
