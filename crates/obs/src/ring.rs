//! Fixed-capacity per-worker event rings (DESIGN.md §12.1).
//!
//! Each worker owns one [`Ring`] exclusively —
//! no sharing, no atomics, no locks. The ring allocates once at
//! construction; recording overwrites the oldest event when full and
//! counts the loss, so the hot path never allocates and never blocks.
//! Rings are drained only at join, after the owning thread has
//! finished.

/// What a ring event describes. Slice kinds carry a duration; instant
/// kinds have `dur_ns == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A worker's whole run (one per worker; slice).
    Worker,
    /// One own-deque or post-steal drain burst; `arg` = tasks executed
    /// (slice).
    Burst,
    /// One sampled task's execution; `arg` = task id (slice).
    Task,
    /// A worker slept in the parker (slice).
    Park,
    /// A decode step scanned a window; `arg` = window index (slice).
    Scan,
    /// A sampled task became ready and was pushed; `arg` = task id.
    Spawn,
    /// A successful steal; `arg` = victim worker.
    Steal,
    /// This worker woke sleepers after publishing work.
    Wake,
    /// A task failed or was poisoned; `arg` = task id.
    Poison,
    /// A window committed; `arg` = window index.
    Commit,
}

/// One recorded event; timestamps are nanoseconds since the run origin.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (task id, victim, window...).
    pub arg: u32,
    /// Start, ns since the run origin.
    pub start_ns: u64,
    /// Duration in ns; 0 for instant kinds.
    pub dur_ns: u64,
}

/// Default ring capacity (events). 4 Ki events ≈ 96 KiB per worker —
/// enough for a paper-scale run's sampled spawns/tasks plus decimated
/// edge events; when exceeded the oldest events are overwritten (and
/// counted in `dropped`). Deliberately under glibc's 128 KiB mmap
/// threshold: rings are allocated inside the worker threads at run
/// start, and per-run mmap/munmap churn showed up as measurable run
/// overhead (EXPERIMENTS.md) where free-list reuse does not.
pub const RING_CAP: usize = 1 << 12;

/// A single-owner overwrite-oldest event ring.
#[derive(Debug, Clone)]
pub struct Ring {
    buf: Vec<Event>,
    /// Next write slot once the buffer has filled.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl Default for Ring {
    fn default() -> Self {
        Ring::new(RING_CAP)
    }
}

impl Ring {
    /// A ring holding at most `cap` events (single allocation, here).
    pub fn new(cap: usize) -> Ring {
        assert!(cap > 0, "ring capacity must be positive");
        Ring { buf: Vec::with_capacity(cap), head: 0, cap, dropped: 0 }
    }

    /// Records an event, overwriting the oldest if full. O(1), never
    /// allocates beyond the constructor's reservation.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events recorded and still held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the ring: events in chronological (record) order plus
    /// the count of events lost to overwrite.
    pub fn drain(mut self) -> (Vec<Event>, u64) {
        // After wrap, `head` points at the oldest event; rotate it to
        // the front so the drain is chronological.
        self.buf.rotate_left(self.head);
        (self.buf, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> Event {
        Event { kind: EventKind::Spawn, arg: n as u32, start_ns: n, dur_ns: 0 }
    }

    #[test]
    fn drain_is_chronological_without_wrap() {
        let mut r = Ring::new(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 0);
        assert_eq!(evs.iter().map(|e| e.start_ns).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wrap_keeps_the_newest_and_counts_drops() {
        let mut r = Ring::new(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 6);
        assert_eq!(evs.iter().map(|e| e.start_ns).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn capacity_is_fixed_after_construction() {
        let mut r = Ring::new(16);
        let cap0 = r.buf.capacity();
        for i in 0..1000 {
            r.push(ev(i));
        }
        assert_eq!(r.buf.capacity(), cap0, "ring reallocated on the hot path");
    }
}
