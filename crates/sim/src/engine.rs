//! The discrete-event engine: components, messages, and the event queue.
//!
//! A [`Simulation`] owns a set of components addressed by
//! [`ComponentId`], held in a [`ComponentStore`]. Events are
//! `(deliver_at, destination, message)` triples; the queue is ordered by
//! delivery cycle and, within a cycle, by insertion order (FIFO-stable),
//! which makes every run deterministic.
//!
//! Components react to messages via [`Component::on_message`] and use the
//! provided [`Context`] to send further messages with a non-negative
//! delay. There is no "zero-time visibility" hazard: a message sent with
//! delay 0 is delivered after all messages already enqueued for the
//! current cycle.
//!
//! # Dispatch
//!
//! The store decides how a delivery reaches its handler. [`DynStore`]
//! (the default) boxes heterogeneous components behind `dyn Component`
//! and is what ad-hoc test benches use. Monomorphized stores — an enum
//! over the concrete module types, like `tss-core`'s `SystemStore` —
//! turn every delivery into a direct match arm instead of a vtable hop,
//! and post-run extraction into a field access instead of an `Any`
//! downcast (DESIGN.md §9.1).
//!
//! # Event core
//!
//! The queue is a hierarchical **calendar queue** (timing wheel + spill
//! level), not a comparison heap — see `DESIGN.md` §6 and §9.2. Frontend
//! delays are small bounded constants (Table II: 16-cycle packet
//! processing, 22-cycle eDRAM, single-cycle ring hops), so almost every
//! send lands within the wheel's horizon and costs O(1) with no
//! comparisons; only far-future events (task completions, congested ring
//! arrivals) take the sorted spill path. Event nodes are recycled
//! through a slab whose LIFO free list keeps the hottest node in cache,
//! steady-state scheduling performs no allocation, and a queued message
//! never moves in memory between `schedule` and delivery. Sends that
//! land on the **current** cycle take a dedicated fast lane that skips
//! the wheel entirely (§9.2).

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

use crate::time::Cycle;

/// Name of the event-queue implementation backing [`Simulation`], for
/// benchmark provenance (`perf` records it in `BENCH_pipeline.json`).
pub const EVENT_CORE: &str = "calendar-wheel/fastlane";

/// Identifies a component registered with a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// Returns the raw index of this component.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index.
    ///
    /// Ids are assigned sequentially by [`Simulation::add`]; this is for
    /// assemblers that lay out a topology before creating the components
    /// (they assert the returned ids match).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub fn from_index(index: usize) -> Self {
        ComponentId(u32::try_from(index).expect("component index overflow"))
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A simulated entity that reacts to messages of type `M`.
pub trait Component<M>: 'static {
    /// Handles one message delivered at `ctx.now()`.
    fn on_message(&mut self, msg: M, ctx: &mut Context<'_, M>);
}

/// Holds a simulation's components and routes deliveries to them.
///
/// Implementations choose the dispatch mechanism: [`DynStore`] pays a
/// virtual call per delivery; a concrete enum store (see `tss-core`'s
/// `SystemStore`) dispatches through a match and lets the handlers
/// inline into the event loop.
pub trait ComponentStore<M>: 'static {
    /// Delivers `msg` to component `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a registered component.
    fn deliver(&mut self, dst: ComponentId, msg: M, ctx: &mut Context<'_, M>);

    /// Number of registered components.
    fn len(&self) -> usize;

    /// Whether the store holds no components.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A store that can register components of type `T`.
///
/// [`DynStore`] implements this for every `T: Component<M>`; enum stores
/// implement it once per variant type.
pub trait Insert<T> {
    /// Appends `c`, returning its raw index.
    fn insert(&mut self, c: T) -> usize;
}

/// A store that can hand back components of concrete type `T` after a
/// run (statistics extraction).
///
/// [`DynStore`] implements this via an `Any` downcast; enum stores match
/// on the variant — no `Any` in sight.
pub trait Extract<T> {
    /// The component at `index` if it exists *and* is a `T`.
    fn get(&self, index: usize) -> Option<&T>;

    /// Mutable variant of [`Extract::get`].
    fn get_mut(&mut self, index: usize) -> Option<&mut T>;
}

/// Internal upcast shim so [`DynStore`] can downcast its boxes without
/// forcing `as_any` boilerplate onto every [`Component`] implementation
/// (the blanket impl below writes it once, for all of them).
trait AnyComponent<M>: Component<M> {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M, T: Component<M>> AnyComponent<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The default component store: boxed trait objects, one virtual call
/// per delivery, extraction by `Any` downcast. Maximally flexible (any
/// mix of component types, no wiring); the pipeline's hot path uses a
/// monomorphized enum store instead.
pub struct DynStore<M> {
    items: Vec<Box<dyn AnyComponent<M>>>,
}

impl<M> Default for DynStore<M> {
    fn default() -> Self {
        DynStore { items: Vec::new() }
    }
}

impl<M: 'static> ComponentStore<M> for DynStore<M> {
    #[inline]
    fn deliver(&mut self, dst: ComponentId, msg: M, ctx: &mut Context<'_, M>) {
        self.items[dst.index()].on_message(msg, ctx);
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

impl<M: 'static, T: Component<M>> Insert<T> for DynStore<M> {
    fn insert(&mut self, c: T) -> usize {
        self.items.push(Box::new(c));
        self.items.len() - 1
    }
}

impl<M: 'static, T: Component<M>> Extract<T> for DynStore<M> {
    fn get(&self, index: usize) -> Option<&T> {
        self.items.get(index)?.as_any().downcast_ref()
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.items.get_mut(index)?.as_any_mut().downcast_mut()
    }
}

/// Per-delivery view handed to [`Component::on_message`].
///
/// Sends go straight into the event queue (no intermediate outbox — the
/// queue and the component store are disjoint borrows of the
/// simulation), so a handler's messages are enqueued in the order it
/// sends them.
pub struct Context<'a, M> {
    now: Cycle,
    self_id: ComponentId,
    queue: &'a mut CalendarQueue<M>,
    /// Registered component count, for the send-path destination check.
    ///
    /// Invariant: handlers only address ids handed out by
    /// [`Simulation::add`], so the check is a `debug_assert` here (the
    /// public `Simulation::schedule` keeps its release-mode check; a
    /// bad id would also fault at delivery, just less legibly).
    component_count: usize,
    stop: &'a mut bool,
}

impl<'a, M> Context<'a, M> {
    /// The current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The id of the component currently handling a message.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Sends `msg` to `dst`, to be delivered `delay` cycles from now.
    ///
    /// A zero-delay send takes the fast lane: it is delivered within the
    /// current cycle, after everything already enqueued for it.
    pub fn send(&mut self, dst: ComponentId, delay: Cycle, msg: M) {
        debug_assert!(dst.index() < self.component_count, "message sent to unknown {dst}");
        self.queue.push(self.now + delay, dst, msg);
    }

    /// Sends `msg` to `dst` at absolute cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past.
    pub fn send_at(&mut self, dst: ComponentId, at: Cycle, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        debug_assert!(dst.index() < self.component_count, "message sent to unknown {dst}");
        self.queue.push(at, dst, msg);
    }

    /// Requests that the simulation stop once the current handler returns.
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }
}

// ---------------------------------------------------------------------
// Calendar queue (fast lane + timing wheel + spill level)
// ---------------------------------------------------------------------

/// Sentinel slab index for "no node".
const NIL: u32 = u32::MAX;

/// Cycles per level-0 bucket span: level 0 resolves single cycles over
/// one 4096-cycle *segment*; level 1 resolves segments.
const L0_BITS: u32 = 12;
/// Level-0 buckets (one simulated cycle each) — one segment's worth.
const L0_SIZE: usize = 1 << L0_BITS;
const L0_MASK: u64 = (L0_SIZE - 1) as u64;
const L0_WORDS: usize = L0_SIZE / 64;
/// Level-1 buckets (one segment each): the two wheels together cover
/// `L0_SIZE * L1_SIZE` = 16.7M cycles ahead of `base`, which exceeds
/// every delay the pipeline generates (task runtimes are ≤ ~320k
/// cycles); the sorted spill level exists only for pathological sends.
const L1_SIZE: usize = 4096;
const L1_WORDS: usize = L1_SIZE / 64;

/// One event node in the slab. Freed nodes are chained through `next`.
///
/// The slab's LIFO free list is deliberate cache policy, not just
/// allocation hygiene: the most recently delivered node is reused for
/// the next send, so sparse traffic (a software-runtime decode tick
/// every ~2240 cycles, a ping-pong) keeps rewriting the same hot lines.
/// A per-bucket ring-buffer layout was tried for ISSUE 5 and *lost* on
/// exactly those patterns (§9.2): 4096 cold per-bucket buffers scatter
/// what the slab concentrates.
struct Node<M> {
    when: Cycle,
    dst: ComponentId,
    next: u32,
    msg: Option<M>,
}

/// FIFO list of a bucket (or spill segment): slab head/tail indices.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket { head: NIL, tail: NIL };

/// The hierarchical calendar queue (fast lane + two timing-wheel levels
/// + spill).
///
/// - **Fast lane**: sends landing on the *current* cycle (`when ==
///   base`; in handler terms, delay 0). They skip the wheel — no node
///   allocation, no bucket indexing, no occupancy bitmaps — one
///   ring-buffer append, drained in send order after the current
///   cycle's bucket empties.
/// - **Level 0**: per-cycle FIFO buckets for the current segment
///   (`seg(base)`), with an occupancy bitmap for "next non-empty cycle".
/// - **Level 1**: per-*segment* FIFO buckets for the next 4096 segments;
///   when `base` enters a segment, its list is redistributed into level
///   0 in insertion order.
/// - **Spill**: segments beyond the level-1 horizon, as FIFO lists in a
///   sorted map; they refill level 1 as the window advances.
///
/// Determinism argument (DESIGN.md §6, §9.2): all bucket entries for
/// cycle `c` are pushed while `base < c` (once `base == c`, same-cycle
/// sends are routed to the fast lane instead), so every bucket entry
/// globally precedes every fast-lane entry of its cycle, and draining
/// bucket-then-fast-lane is exactly global insertion order. An event is
/// pushed directly to level 0 only when its cycle lies in the current
/// segment, which is strictly after that segment's level-1 list was
/// redistributed (and any spill list migrated), so every per-cycle list
/// is always in global insertion order — FIFO-within-cycle without a
/// sequence counter. All three wheel levels share one node slab;
/// steady-state scheduling allocates nothing and a queued message never
/// moves in memory between `schedule` and delivery.
struct CalendarQueue<M> {
    /// Current wheel floor. Invariant: `base` equals the delivery time
    /// of the last popped event (or 0), so it never exceeds the
    /// simulation's `now` and every `push` satisfies `when >= base`.
    base: Cycle,
    len: usize,
    peak: usize,
    /// Same-cycle sends (`when == base`), in send order.
    fast: VecDeque<(ComponentId, M)>,
    nodes: Vec<Node<M>>,
    free_head: u32,
    l0: Vec<Bucket>,
    /// Occupancy bitmaps, cache-line-aligned: each is scanned as a unit
    /// on every segment advance, so neither may straddle into the
    /// other's (or the header fields') lines (ISSUE 4 padding
    /// satellite).
    occ0: crate::stats::CachePadded<[u64; L0_WORDS]>,
    l1: Vec<Bucket>,
    occ1: crate::stats::CachePadded<[u64; L1_WORDS]>,
    /// Ultra-far events: segment index -> FIFO list, sorted.
    spill: BTreeMap<u64, Bucket>,
    /// Cached first spill segment, `u64::MAX` when empty.
    spill_min_seg: u64,
}

/// Segment of a cycle.
fn seg(when: Cycle) -> u64 {
    when >> L0_BITS
}

impl<M> CalendarQueue<M> {
    fn new() -> Self {
        CalendarQueue {
            base: 0,
            len: 0,
            peak: 0,
            fast: VecDeque::with_capacity(16),
            nodes: Vec::with_capacity(1024),
            free_head: NIL,
            l0: vec![EMPTY_BUCKET; L0_SIZE],
            occ0: crate::stats::CachePadded::new([0; L0_WORDS]),
            l1: vec![EMPTY_BUCKET; L1_SIZE],
            occ1: crate::stats::CachePadded::new([0; L1_WORDS]),
            spill: BTreeMap::new(),
            spill_min_seg: u64::MAX,
        }
    }

    fn alloc_node(&mut self, when: Cycle, dst: ComponentId, msg: M) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let n = &mut self.nodes[idx as usize];
            self.free_head = n.next;
            n.when = when;
            n.dst = dst;
            n.next = NIL;
            n.msg = Some(msg);
            idx
        } else {
            let idx = self.nodes.len();
            assert!(idx < NIL as usize, "event slab exhausted 32-bit indices");
            self.nodes.push(Node { when, dst, next: NIL, msg: Some(msg) });
            idx as u32
        }
    }

    /// Enqueues an event. Precondition (upheld by `Simulation`):
    /// `when >= self.base`.
    fn push(&mut self, when: Cycle, dst: ComponentId, msg: M) {
        debug_assert!(when >= self.base, "push below the wheel base");
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
        if when == self.base {
            // Fast lane: the send lands on the cycle being drained (or,
            // between runs, on the resume cycle). Everything already
            // queued for this cycle was pushed earlier, so appending
            // here preserves global FIFO order.
            self.fast.push_back((dst, msg));
            return;
        }
        let idx = self.alloc_node(when, dst, msg);
        let s = seg(when);
        let delta = s - seg(self.base);
        if delta == 0 {
            let b = (when & L0_MASK) as usize;
            Self::append(&mut self.l0[b], &mut self.nodes, idx);
            self.occ0[b >> 6] |= 1u64 << (b & 63);
        } else if delta < L1_SIZE as u64 {
            let b = (s & (L1_SIZE as u64 - 1)) as usize;
            Self::append(&mut self.l1[b], &mut self.nodes, idx);
            self.occ1[b >> 6] |= 1u64 << (b & 63);
        } else {
            let list = self.spill.entry(s).or_insert(EMPTY_BUCKET);
            if list.head == NIL {
                list.head = idx;
            } else {
                nodes_link(&mut self.nodes, list.tail, idx);
            }
            list.tail = idx;
            self.spill_min_seg = self.spill_min_seg.min(s);
        }
    }

    fn append(bucket: &mut Bucket, nodes: &mut [Node<M>], idx: u32) {
        if bucket.head == NIL {
            bucket.head = idx;
        } else {
            nodes_link(nodes, bucket.tail, idx);
        }
        bucket.tail = idx;
    }

    /// First occupied level-0 bit at or after `from` (no wrap: level 0
    /// only holds cycles of the current segment at positions `>= base`).
    fn scan_l0(&self, from: usize) -> Option<usize> {
        let mut word_idx = from >> 6;
        let mut w = self.occ0[word_idx] & (u64::MAX << (from & 63));
        loop {
            if w != 0 {
                return Some((word_idx << 6) | w.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx == L0_WORDS {
                return None;
            }
            w = self.occ0[word_idx];
        }
    }

    /// Offset (in segments, `1..L1_SIZE`) of the next occupied level-1
    /// bucket strictly after ring position `cur`, or `None`.
    fn scan_l1(&self, cur: usize) -> Option<usize> {
        let mut word_idx = cur >> 6;
        let mut w = self.occ1[word_idx] & !(u64::MAX >> (63 - (cur & 63)));
        let mut visited = 0;
        loop {
            if w != 0 {
                let b = (word_idx << 6) | w.trailing_zeros() as usize;
                let offset = (b + L1_SIZE - cur) & (L1_SIZE - 1);
                debug_assert!(offset != 0, "current segment cannot sit in level 1");
                return Some(offset);
            }
            visited += 1;
            if visited > L1_WORDS {
                return None;
            }
            word_idx = (word_idx + 1) & (L1_WORDS - 1);
            w = self.occ1[word_idx];
        }
    }

    /// Earliest event cycle in a segment list (O(list length); runs once
    /// per segment advance, only to honor `deadline` without mutating).
    fn list_min_when(&self, mut idx: u32) -> Cycle {
        let mut min = Cycle::MAX;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            min = min.min(n.when);
            idx = n.next;
        }
        min
    }

    /// Pops the earliest event if its delivery time is `<= deadline`.
    ///
    /// Advances `base` (redistributing wheel levels) only when committing
    /// to a delivery, so a deadline miss leaves the queue untouched and
    /// `base` never outruns the simulation clock.
    fn pop_at_or_before(&mut self, deadline: Cycle) -> Option<(Cycle, ComponentId, M)> {
        if self.len == 0 || self.base > deadline {
            // Every queued event satisfies `when >= base`, so a floor
            // past the deadline rules them all out at once.
            return None;
        }
        let bit = (self.base & L0_MASK) as usize;
        // 1. Current cycle, queued-before-entry events first: they were
        //    pushed while `base` was still behind this cycle, so they
        //    precede every fast-lane entry in insertion order. (A
        //    non-empty bucket at this ring position always holds cycle
        //    `base` exactly: same-cycle pushes are diverted to the fast
        //    lane the moment `base` reaches a cycle, and ring positions
        //    are unique within a segment.)
        // 2. Fast lane, in send order.
        // 3. Advance the wheel to the next occupied cycle.
        let head = self.l0[bit].head;
        if head != NIL && self.nodes[head as usize].when == self.base {
            return Some(self.pop_bucket_head(bit));
        }
        if !self.fast.is_empty() {
            let (dst, msg) = self.fast.pop_front().expect("checked non-empty");
            self.len -= 1;
            return Some((self.base, dst, msg));
        }
        let found = match self.scan_l0(bit) {
            Some(p) => p,
            None => {
                // Current segment exhausted: locate the next source
                // segment in level 1 (or the spill), peek its earliest
                // cycle, and only then commit.
                // Level-1 segments always precede spill segments (the
                // spill starts past the level-1 horizon), so level 1
                // wins whenever it is non-empty.
                let bs = seg(self.base);
                let (next_seg, head) = match self.scan_l1((bs & (L1_SIZE as u64 - 1)) as usize) {
                    Some(off) => {
                        let s = bs + off as u64;
                        (s, self.l1[(s & (L1_SIZE as u64 - 1)) as usize].head)
                    }
                    None => {
                        let s = self.spill_min_seg;
                        debug_assert!(s != u64::MAX, "events lost: len > 0 but queues empty");
                        (s, self.spill.get(&s).expect("cached spill segment").head)
                    }
                };
                let m = self.list_min_when(head);
                debug_assert_eq!(seg(m), next_seg, "segment list holds a foreign cycle");
                if m > deadline {
                    return None;
                }
                self.advance_to(m);
                (m & L0_MASK) as usize
            }
        };
        let c = (self.base & !L0_MASK) | found as Cycle;
        if c > deadline {
            return None;
        }
        self.base = c;
        Some(self.pop_bucket_head(found))
    }

    /// Unlinks and recycles the head node of level-0 bucket `b` (which
    /// the caller has verified holds the current cycle).
    fn pop_bucket_head(&mut self, b: usize) -> (Cycle, ComponentId, M) {
        let bucket = &mut self.l0[b];
        let idx = bucket.head;
        let node = &mut self.nodes[idx as usize];
        debug_assert_eq!(node.when, self.base, "bucket holds a foreign cycle");
        let msg = node.msg.take().expect("queued node lost its message");
        let when = node.when;
        let dst = node.dst;
        bucket.head = node.next;
        node.next = self.free_head;
        self.free_head = idx;
        if bucket.head == NIL {
            bucket.tail = NIL;
            self.occ0[b >> 6] &= !(1u64 << (b & 63));
        }
        self.len -= 1;
        (when, dst, msg)
    }

    /// Commits a segment advance to the segment of `m` (the next event):
    /// migrates spill segments that entered the level-1 window, then
    /// redistributes the new current segment's list into level 0.
    fn advance_to(&mut self, m: Cycle) {
        debug_assert!(self.fast.is_empty(), "advancing with fast-lane events pending");
        self.base = m & !L0_MASK; // provisional: start of the new segment
        let bs = seg(m);
        // Spill segments now within [bs, bs + L1_SIZE) move to level 1.
        // Their ring slots are empty: the previous tenant segment lies
        // behind `bs` (redistributed long ago), the next one is still
        // beyond the horizon.
        while self.spill_min_seg != u64::MAX && self.spill_min_seg - bs < L1_SIZE as u64 {
            let (s, list) = self.spill.pop_first().expect("cached spill segment");
            let b = (s & (L1_SIZE as u64 - 1)) as usize;
            debug_assert_eq!(self.l1[b].head, NIL, "spill migration hit a live segment");
            self.l1[b] = list;
            self.occ1[b >> 6] |= 1u64 << (b & 63);
            self.spill_min_seg = self.spill.first_key_value().map(|(&k, _)| k).unwrap_or(u64::MAX);
        }
        // Redistribute the new current segment into level 0, preserving
        // insertion order (the list is walked head to tail).
        let b1 = (bs & (L1_SIZE as u64 - 1)) as usize;
        let mut idx = self.l1[b1].head;
        self.l1[b1] = EMPTY_BUCKET;
        self.occ1[b1 >> 6] &= !(1u64 << (b1 & 63));
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.nodes[idx as usize].next = NIL;
            let b = (self.nodes[idx as usize].when & L0_MASK) as usize;
            Self::append(&mut self.l0[b], &mut self.nodes, idx);
            self.occ0[b >> 6] |= 1u64 << (b & 63);
            idx = next;
        }
    }

    /// Slab nodes currently allocated (test hook: steady-state
    /// scheduling must recycle, not grow).
    #[cfg(test)]
    fn slab_len(&self) -> usize {
        self.nodes.len()
    }
}

/// Links `tail -> idx` in the slab (free function so bucket borrows and
/// node borrows stay disjoint).
fn nodes_link<M>(nodes: &mut [Node<M>], tail: u32, idx: u32) {
    nodes[tail as usize].next = idx;
}

// ---------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------

/// A deterministic discrete-event simulation over component store `S`.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Simulation<M, S: ComponentStore<M> = DynStore<M>> {
    now: Cycle,
    queue: CalendarQueue<M>,
    store: S,
    stop: bool,
    events_processed: u64,
}

impl<M: 'static> Default for Simulation<M, DynStore<M>> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: 'static> Simulation<M, DynStore<M>> {
    /// Creates an empty simulation at cycle 0 with the default
    /// dyn-dispatch store.
    pub fn new() -> Self {
        Self::with_store(DynStore::default())
    }
}

impl<M: 'static, S: ComponentStore<M>> Simulation<M, S> {
    /// Creates an empty simulation at cycle 0 over `store` (usually an
    /// empty monomorphized store; components are added through
    /// [`Simulation::add`]).
    pub fn with_store(store: S) -> Self {
        Simulation { now: 0, queue: CalendarQueue::new(), store, stop: false, events_processed: 0 }
    }

    /// Registers a component and returns its id.
    pub fn add<T>(&mut self, c: T) -> ComponentId
    where
        S: Insert<T>,
    {
        let idx = self.store.insert(c);
        ComponentId(u32::try_from(idx).expect("too many components"))
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.store.len()
    }

    /// Enqueues `msg` for delivery to `dst` at absolute cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past or `dst` is not registered.
    pub fn schedule(&mut self, at: Cycle, dst: ComponentId, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        assert!(dst.index() < self.store.len(), "unknown component {dst}");
        self.queue.push(at, dst, msg);
    }

    /// The current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total messages delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Peak number of simultaneously pending events observed so far.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak
    }

    /// Whether a stop was requested by a component.
    pub fn stop_requested(&self) -> bool {
        self.stop
    }

    /// Runs until the event queue drains or a component requests a stop.
    /// Returns the final simulation time.
    pub fn run(&mut self) -> Cycle {
        self.run_until(Cycle::MAX)
    }

    /// Runs until the queue drains, a stop is requested, or the next event
    /// would be delivered after `deadline`. Returns the final time.
    pub fn run_until(&mut self, deadline: Cycle) -> Cycle {
        let component_count = self.store.len();
        while !self.stop {
            let Some((when, dst, msg)) = self.queue.pop_at_or_before(deadline) else { break };
            debug_assert!(when >= self.now, "event queue went backwards");
            self.now = when;
            self.events_processed += 1;
            let mut ctx = Context {
                now: self.now,
                self_id: dst,
                queue: &mut self.queue,
                component_count,
                stop: &mut self.stop,
            };
            self.store.deliver(dst, msg, &mut ctx);
        }
        self.now
    }

    /// Borrows a component of concrete type `T`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the component is not a `T`.
    pub fn component<T: 'static>(&self, id: ComponentId) -> &T
    where
        S: Extract<T>,
    {
        self.store
            .get(id.index())
            .unwrap_or_else(|| panic!("component {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutably borrows a component of concrete type `T`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the component is not a `T`.
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> &mut T
    where
        S: Extract<T>,
    {
        self.store
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("component {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Borrows the component store (e.g. to read counters off a
    /// delegating instrumentation store; see `examples/msg_profile.rs`).
    pub fn store(&self) -> &S {
        &self.store
    }
}

// ---------------------------------------------------------------------
// Reference queue (tests only)
// ---------------------------------------------------------------------

/// The seed engine's `(when, seq)` binary-heap queue, kept as the
/// ordering oracle for the calendar queue's property tests.
#[cfg(test)]
mod reference {
    use super::{ComponentId, Cycle};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Scheduled<M> {
        when: Cycle,
        seq: u64,
        dst: ComponentId,
        msg: M,
    }

    impl<M> PartialEq for Scheduled<M> {
        fn eq(&self, other: &Self) -> bool {
            self.when == other.when && self.seq == other.seq
        }
    }
    impl<M> Eq for Scheduled<M> {}
    impl<M> PartialOrd for Scheduled<M> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<M> Ord for Scheduled<M> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap inverted so the earliest (when, seq) pops first;
            // seq breaks ties FIFO.
            (other.when, other.seq).cmp(&(self.when, self.seq))
        }
    }

    /// Totally ordered `(when, seq)` event queue.
    pub struct HeapQueue<M> {
        seq: u64,
        heap: BinaryHeap<Scheduled<M>>,
    }

    impl<M> HeapQueue<M> {
        pub fn new() -> Self {
            HeapQueue { seq: 0, heap: BinaryHeap::new() }
        }

        pub fn push(&mut self, when: Cycle, dst: ComponentId, msg: M) {
            self.heap.push(Scheduled { when, seq: self.seq, dst, msg });
            self.seq += 1;
        }

        pub fn pop(&mut self) -> Option<(Cycle, ComponentId, M)> {
            self.heap.pop().map(|s| (s.when, s.dst, s.msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Log,
    }

    struct Recorder {
        seen: Vec<(Cycle, u32)>,
    }

    impl Component<Msg> for Recorder {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Ping(v) = msg {
                self.seen.push((ctx.now(), v));
            }
        }
    }

    #[test]
    fn delivers_in_time_order_fifo_within_cycle() {
        let mut sim = Simulation::new();
        let r = sim.add(Recorder { seen: vec![] });
        sim.schedule(5, r, Msg::Ping(1));
        sim.schedule(3, r, Msg::Ping(2));
        sim.schedule(5, r, Msg::Ping(3));
        sim.schedule(0, r, Msg::Ping(4));
        sim.run();
        let rec = sim.component::<Recorder>(r);
        assert_eq!(rec.seen, vec![(0, 4), (3, 2), (5, 1), (5, 3)]);
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.peak_queue_depth(), 4);
    }

    struct Chain {
        next: Option<ComponentId>,
        fired: bool,
    }

    impl Component<Msg> for Chain {
        fn on_message(&mut self, _msg: Msg, ctx: &mut Context<'_, Msg>) {
            self.fired = true;
            if let Some(n) = self.next {
                ctx.send(n, 7, Msg::Ping(0));
            } else {
                ctx.request_stop();
            }
        }
    }

    #[test]
    fn chained_sends_accumulate_latency_and_stop_works() {
        let mut sim = Simulation::new();
        let c2 = sim.add(Chain { next: None, fired: false });
        let c1 = sim.add(Chain { next: Some(c2), fired: false });
        let c0 = sim.add(Chain { next: Some(c1), fired: false });
        sim.schedule(0, c0, Msg::Log);
        // Events beyond the stop are dropped on the floor.
        sim.schedule(1_000, c0, Msg::Log);
        let end = sim.run();
        assert_eq!(end, 14);
        assert!(sim.stop_requested());
        assert!(sim.component::<Chain>(c2).fired);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new();
        let r = sim.add(Recorder { seen: vec![] });
        sim.schedule(10, r, Msg::Ping(1));
        sim.schedule(20, r, Msg::Ping(2));
        sim.run_until(15);
        assert_eq!(sim.component::<Recorder>(r).seen.len(), 1);
        sim.run_until(25);
        assert_eq!(sim.component::<Recorder>(r).seen.len(), 2);
    }

    #[test]
    fn scheduling_between_deadline_runs_stays_ordered() {
        // A deadline miss must not advance the wheel past `now`: events
        // scheduled afterwards, before the far-future one, still win.
        let mut sim = Simulation::new();
        let r = sim.add(Recorder { seen: vec![] });
        sim.schedule(10, r, Msg::Ping(1));
        sim.schedule(200_000, r, Msg::Ping(2)); // beyond the wheel horizon
        sim.run_until(15);
        sim.schedule(17, r, Msg::Ping(3));
        sim.run();
        assert_eq!(sim.component::<Recorder>(r).seen, vec![(10, 1), (17, 3), (200_000, 2)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new();
        let r = sim.add(Recorder { seen: vec![] });
        sim.schedule(10, r, Msg::Ping(1));
        sim.run();
        sim.schedule(5, r, Msg::Ping(2));
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn wrong_downcast_panics() {
        let mut sim: Simulation<Msg> = Simulation::new();
        let r = sim.add(Recorder { seen: vec![] });
        let _ = sim.component::<Chain>(r);
    }

    #[test]
    fn zero_delay_is_delivered_after_already_queued_same_cycle_events() {
        struct Replier {
            target: Option<ComponentId>,
        }
        impl Component<Msg> for Replier {
            fn on_message(&mut self, _m: Msg, ctx: &mut Context<'_, Msg>) {
                if let Some(t) = self.target.take() {
                    ctx.send(t, 0, Msg::Ping(99));
                }
            }
        }
        let mut sim = Simulation::new();
        let rec = sim.add(Recorder { seen: vec![] });
        let rep = sim.add(Replier { target: Some(rec) });
        sim.schedule(4, rep, Msg::Log);
        sim.schedule(4, rec, Msg::Ping(1));
        sim.run();
        // Ping(1) was enqueued first, so it is seen before the zero-delay reply.
        assert_eq!(sim.component::<Recorder>(rec).seen, vec![(4, 1), (4, 99)]);
    }

    #[test]
    fn fast_lane_chains_preserve_send_order() {
        // A handler emitting several zero-delay sends, some of which
        // trigger further zero-delay sends, must deliver everything in
        // global send order within the cycle.
        struct Burster {
            sink: ComponentId,
            relay: Option<ComponentId>,
        }
        impl Component<Msg> for Burster {
            fn on_message(&mut self, _m: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.send(self.sink, 0, Msg::Ping(1));
                if let Some(r) = self.relay {
                    ctx.send(r, 0, Msg::Log);
                }
                ctx.send(self.sink, 0, Msg::Ping(2));
            }
        }
        struct Relay {
            sink: ComponentId,
        }
        impl Component<Msg> for Relay {
            fn on_message(&mut self, _m: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.send(self.sink, 0, Msg::Ping(10));
            }
        }
        let mut sim = Simulation::new();
        let sink = sim.add(Recorder { seen: vec![] });
        let relay = sim.add(Relay { sink });
        let burst = sim.add(Burster { sink, relay: Some(relay) });
        sim.schedule(7, burst, Msg::Log);
        sim.schedule(7, sink, Msg::Ping(0));
        sim.run();
        // Queued-before-entry Ping(0) first; then the burst in send
        // order; the relay's own send lands after the burst finished.
        assert_eq!(sim.component::<Recorder>(sink).seen, vec![(7, 0), (7, 1), (7, 2), (7, 10)]);
    }

    #[test]
    fn far_future_events_cross_the_spill_level() {
        // Several wheel revolutions apart, interleaved with near events.
        let mut sim = Simulation::new();
        let r = sim.add(Recorder { seen: vec![] });
        let horizon = (L0_SIZE * L1_SIZE) as Cycle;
        let ats = [1_000_000_000u64, 3, 123_456, 9_000_000_000, horizon - 1, horizon, 2 * horizon];
        for (i, at) in ats.iter().enumerate() {
            sim.schedule(*at, r, Msg::Ping(i as u32));
        }
        sim.run();
        let mut expected: Vec<(Cycle, u32)> =
            ats.iter().enumerate().map(|(i, &at)| (at, i as u32)).collect();
        expected.sort_unstable();
        assert_eq!(&sim.component::<Recorder>(r).seen, &expected);
    }

    #[test]
    fn slab_recycles_nodes_across_a_long_run() {
        // A two-component ping-pong delivers 10_000 events through a
        // queue that never holds more than one: the slab must keep
        // reusing its single (hot) node instead of growing.
        struct Pong {
            peer: Option<ComponentId>,
            left: u32,
        }
        impl Component<Msg> for Pong {
            fn on_message(&mut self, _m: Msg, ctx: &mut Context<'_, Msg>) {
                if self.left == 0 {
                    ctx.request_stop();
                    return;
                }
                self.left -= 1;
                let to = self.peer.unwrap_or(ctx.self_id());
                ctx.send(to, 3, Msg::Log);
            }
        }
        let mut sim = Simulation::new();
        let a = sim.add(Pong { peer: None, left: 10_000 });
        let b = sim.add(Pong { peer: Some(a), left: 10_000 });
        sim.component_mut::<Pong>(a).peer = Some(b);
        sim.schedule(0, a, Msg::Log);
        sim.run();
        assert!(sim.events_processed() > 10_000);
        assert_eq!(sim.peak_queue_depth(), 1, "ping-pong keeps exactly one event in flight");
        assert_eq!(sim.queue.slab_len(), 1, "slab must recycle its single node");
    }

    // -----------------------------------------------------------------
    // Property tests: calendar queue == reference heap, event for event
    // -----------------------------------------------------------------

    /// Delay classes covering the interesting regimes: same-cycle
    /// (zero-delay fast-lane sends from handlers), in-segment constants,
    /// the exact segment and level-1 horizons, and far-future spills.
    const DELAY_MENU: [Cycle; 8] = [
        0,
        1,
        16,
        L0_SIZE as Cycle - 1,
        L0_SIZE as Cycle,
        (L0_SIZE * L1_SIZE) as Cycle - 1,
        (L0_SIZE * L1_SIZE) as Cycle,
        3 * (L0_SIZE * L1_SIZE) as Cycle + 12_345,
    ];

    /// Fast-lane-heavy delay menu: mostly zero-delay sends, with just
    /// enough segment-crossing delays that fast-lane drains interleave
    /// with wheel advances and redistributions.
    const FAST_MENU: [Cycle; 8] =
        [0, 0, 0, 1, 0, L0_SIZE as Cycle, 0, (L0_SIZE * L1_SIZE) as Cycle + 7];

    /// Drains `cal` and `heap` in lockstep, asserting identical
    /// `(when, dst, payload)` streams; each delivery triggers the next
    /// batch of "handler" sends from `followups`, whose delays are drawn
    /// from `menu` relative to the delivered cycle (delay 0 exercises
    /// the fast lane: the calendar's `base` equals the delivered cycle).
    fn lockstep_drain(
        cal: &mut CalendarQueue<u32>,
        heap: &mut reference::HeapQueue<u32>,
        followups: &[Vec<(u8, u8)>],
        menu: &[Cycle],
        payload: &mut u32,
    ) -> Result<(), TestCaseError> {
        let mut delivered = 0usize;
        loop {
            let a = cal.pop_at_or_before(Cycle::MAX);
            let b = heap.pop();
            match (a, b) {
                (None, None) => break,
                (Some((wa, da, pa)), Some((wb, db, pb))) => {
                    prop_assert_eq!(wa, wb, "delivery cycle diverged");
                    prop_assert_eq!(da, db, "destination diverged");
                    prop_assert_eq!(pa, pb, "payload (insertion order) diverged");
                    if let Some(sends) = followups.get(delivered) {
                        for &(delay_ix, dst) in sends {
                            let when = wa + menu[delay_ix as usize % menu.len()];
                            let dst = ComponentId(dst as u32);
                            cal.push(when, dst, *payload);
                            heap.push(when, dst, *payload);
                            *payload += 1;
                        }
                    }
                    delivered += 1;
                }
                (a, b) => prop_assert!(false, "queue lengths diverged: {a:?} vs {b:?}"),
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn calendar_matches_reference_heap(
            initial in prop::collection::vec((0u8..8, 0u8..16), 1..40),
            followups in prop::collection::vec(
                prop::collection::vec((0u8..8, 0u8..16), 0..3),
                0..400
            ),
        ) {
            let mut cal = CalendarQueue::<u32>::new();
            let mut heap = reference::HeapQueue::<u32>::new();
            let mut payload = 0u32;

            // Initial schedule: bursts share cycles via the small delay
            // menu, exercising FIFO-within-cycle from the first pop.
            for &(delay_ix, dst) in &initial {
                let when = DELAY_MENU[delay_ix as usize];
                let dst = ComponentId(dst as u32);
                cal.push(when, dst, payload);
                heap.push(when, dst, payload);
                payload += 1;
            }
            lockstep_drain(&mut cal, &mut heap, &followups, &DELAY_MENU, &mut payload)?;
            prop_assert_eq!(cal.len, 0);
        }

        /// The ISSUE 5 fast-lane oracle: random handlers mix zero-delay
        /// fast-lane sends with queued sends across segment boundaries;
        /// delivery order must be bit-identical to the `(when, seq)`
        /// heap. Larger follow-up bursts than the base property so
        /// fast-lane chains (a delay-0 delivery spawning further delay-0
        /// sends) actually form.
        #[test]
        fn fast_lane_interleavings_match_reference_heap(
            initial in prop::collection::vec((0u8..8, 0u8..16), 1..30),
            followups in prop::collection::vec(
                prop::collection::vec((0u8..8, 0u8..16), 0..5),
                0..600
            ),
        ) {
            let mut cal = CalendarQueue::<u32>::new();
            let mut heap = reference::HeapQueue::<u32>::new();
            let mut payload = 0u32;
            for &(delay_ix, dst) in &initial {
                let when = FAST_MENU[delay_ix as usize];
                let dst = ComponentId(dst as u32);
                cal.push(when, dst, payload);
                heap.push(when, dst, payload);
                payload += 1;
            }
            lockstep_drain(&mut cal, &mut heap, &followups, &FAST_MENU, &mut payload)?;
            prop_assert_eq!(cal.len, 0);
            prop_assert!(cal.fast.is_empty(), "fast lane drained");
        }
    }
}
