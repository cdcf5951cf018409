//! The compile-time-selected sink pair (DESIGN.md §12.1).
//!
//! One API, two bodies: with the `ring` feature off every type here is
//! zero-sized and every method is an empty `#[inline]` body — the
//! *NoopSink*, which the optimizer deletes entirely (the fig16 sha gate
//! proves the default build byte-identical). With `ring` on, the
//! *RingSink* records into single-owner [`Ring`]s and [`Histogram`]s
//! plus a few Relaxed shared gauges.
//!
//! The executor threads a `&mut WorkerObs` down its worker loop and a
//! `&SharedObs` through `Shared`, so the same call sites compile in
//! both configurations — no `#[cfg]` in the executor itself beyond
//! what the call sites fold away.

#[cfg(feature = "ring")]
use crate::clock::Stamp;
#[cfg(feature = "ring")]
use crate::hist::Histogram;
#[cfg(feature = "ring")]
use crate::ring::{Event, EventKind, Ring};
#[cfg(feature = "ring")]
use crate::{Gauges, ObsReport, RoleCpu, Track};
#[cfg(feature = "ring")]
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::CpuStamp;
use crate::Role;
#[cfg(not(feature = "ring"))]
use crate::{clock::Stamp, ObsReport};

/// Run-wide observability state, shared read-only across workers (the
/// gauges are atomic). Deliberately holds no per-task table: an eager
/// `n_tasks`-sized ready-time array streamed hundreds of KiB of writes
/// through the cache right before the timed region and cost several
/// percent of replay wall by itself (EXPERIMENTS.md) — queue wait is
/// instead reconstructed at drain time by pairing each sampled task's
/// Spawn and Task ring events ([`SharedObs::finish`]).
#[cfg(feature = "ring")]
#[derive(Debug)]
pub struct SharedObs {
    /// All event timestamps are ns since this stamp.
    origin: Stamp,
    deque_depth_max: AtomicU64,
    pending_drain_max: AtomicU64,
    commit_lag_max: AtomicU64,
}

/// NoopSink build: zero-sized, every method folds to nothing.
#[cfg(not(feature = "ring"))]
#[derive(Debug, Default)]
pub struct SharedObs;

#[cfg(feature = "ring")]
impl Default for SharedObs {
    fn default() -> SharedObs {
        SharedObs::new()
    }
}

#[cfg(feature = "ring")]
impl SharedObs {
    /// Observability state for one run, starting now.
    pub fn new() -> SharedObs {
        SharedObs {
            origin: Stamp::now(),
            deque_depth_max: AtomicU64::new(0),
            pending_drain_max: AtomicU64::new(0),
            commit_lag_max: AtomicU64::new(0),
        }
    }

    /// Current time as ns since the run origin.
    #[inline]
    fn now_ns(&self) -> u64 {
        Stamp::now().ns_since(self.origin)
    }

    /// Deque-depth high-water mark, sampled when pushing a ready task.
    #[inline]
    pub fn note_deque_depth(&self, depth: usize) {
        // relaxed: deque-depth gauge fetch_max; advisory high-water mark,
        // never a correctness input (DESIGN.md §12.3)
        self.deque_depth_max.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Pending-release drain-length high-water mark.
    #[inline]
    pub fn note_pending_drain(&self, len: usize) {
        // relaxed: pending-drain gauge fetch_max; advisory high-water mark,
        // never a correctness input (DESIGN.md §12.3)
        self.pending_drain_max.fetch_max(len as u64, Ordering::Relaxed);
    }

    /// Window-commit lag (committed high task id minus completion
    /// tickets issued) high-water mark.
    #[inline]
    pub fn note_commit_lag(&self, lag: u64) {
        // relaxed: commit-lag gauge fetch_max; advisory high-water mark,
        // never a correctness input (DESIGN.md §12.3)
        self.commit_lag_max.fetch_max(lag, Ordering::Relaxed);
    }

    /// Builds the run's [`ObsReport`] from the joined workers' sinks.
    /// Called after every worker has joined, so the Relaxed gauge loads
    /// race nothing.
    ///
    /// Queue wait is reconstructed here, off the hot path: the Spawn
    /// event a completer recorded when a sampled task became ready is
    /// paired (by task id, across all tracks) with the Task slice the
    /// executing worker recorded. A task whose Spawn was overwritten by
    /// ring wrap just goes unmeasured, and root tasks pushed before the
    /// workers exist have no Spawn at all — both are sampling loss, not
    /// bias against any particular worker.
    pub fn finish(&self, workers: Vec<WorkerObs>) -> Option<ObsReport> {
        let mut exec_latency = Histogram::new();
        let mut role_cpu = RoleCpu::default();
        let mut tracks = Vec::with_capacity(workers.len());
        for (i, w) in workers.into_iter().enumerate() {
            exec_latency.merge(&w.exec);
            role_cpu.merge(&w.roles);
            let (events, dropped) = w.ring.drain();
            tracks.push(Track { name: format!("worker-{i}"), events, dropped });
        }
        let mut ready = std::collections::HashMap::new();
        for tr in &tracks {
            for ev in &tr.events {
                if ev.kind == EventKind::Spawn {
                    ready.insert(ev.arg, ev.start_ns);
                }
            }
        }
        let mut queue_wait = Histogram::new();
        for tr in &tracks {
            for ev in &tr.events {
                if ev.kind == EventKind::Task {
                    if let Some(&r) = ready.get(&ev.arg) {
                        if ev.start_ns >= r {
                            queue_wait.record(ev.start_ns - r);
                        }
                    }
                }
            }
        }
        Some(ObsReport {
            exec_latency,
            queue_wait,
            tracks,
            gauges: Gauges {
                // relaxed: gauge read in finish(), after every worker
                // joined
                deque_depth_max: self.deque_depth_max.load(Ordering::Relaxed),
                pending_drain_max: self.pending_drain_max.load(Ordering::Relaxed),
                commit_lag_max: self.commit_lag_max.load(Ordering::Relaxed),
            },
            role_cpu,
            sample_every: crate::SAMPLE_EVERY,
        })
    }
}

#[cfg(not(feature = "ring"))]
impl SharedObs {
    /// NoopSink: holds nothing.
    #[inline]
    pub fn new() -> SharedObs {
        SharedObs
    }

    /// NoopSink: no-op.
    #[inline]
    pub fn note_deque_depth(&self, _depth: usize) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn note_pending_drain(&self, _len: usize) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn note_commit_lag(&self, _lag: u64) {}

    /// NoopSink: there is nothing to report.
    #[inline]
    pub fn finish(&self, _workers: Vec<WorkerObs>) -> Option<ObsReport> {
        None
    }
}

/// The opening stamp of a *sampled* span — a task execution
/// ([`WorkerObs::task_begin`] → [`WorkerObs::task_end`]) or a park
/// ([`WorkerObs::park_begin`] → [`WorkerObs::park`]). `None` means the
/// span was not sampled and the close is a no-op. Zero-sized in the
/// NoopSink build.
#[derive(Debug, Clone, Copy)]
pub struct TaskStamp(#[cfg(feature = "ring")] Option<Stamp>);

/// An opaque span start for park/scan/worker spans. Zero-sized in the
/// NoopSink build.
#[derive(Debug, Clone, Copy)]
pub struct SpanStamp(#[cfg(feature = "ring")] Stamp);

impl SpanStamp {
    /// Opens a span (one clock read when recording; nothing when off).
    #[cfg(feature = "ring")]
    #[inline]
    pub fn begin() -> SpanStamp {
        SpanStamp(Stamp::now())
    }

    /// NoopSink: no clock read.
    #[cfg(not(feature = "ring"))]
    #[inline]
    pub fn begin() -> SpanStamp {
        SpanStamp()
    }
}

/// Per-worker sink: one event ring plus the execution-latency
/// histogram and the edge-decimation counters. Owned exclusively by
/// its worker thread; returned at join and merged by
/// [`SharedObs::finish`]. Zero-sized in the NoopSink build.
#[cfg(feature = "ring")]
#[derive(Debug, Default)]
pub struct WorkerObs {
    ring: Ring,
    exec: Histogram,
    /// Parks/wakes/bursts seen so far; every [`crate::EDGE_EVERY`]-th
    /// records (and only then reads the clock).
    parks: u32,
    wakes: u32,
    bursts: u32,
    /// Thread CPU this sink's thread spent per role ([`WorkerObs::role_cpu`]).
    roles: RoleCpu,
}

/// NoopSink build: zero-sized, every method folds to nothing.
#[cfg(not(feature = "ring"))]
#[derive(Debug, Default)]
pub struct WorkerObs;

#[cfg(feature = "ring")]
impl WorkerObs {
    /// A fresh sink (allocates its fixed ring + histograms, once).
    pub fn new() -> WorkerObs {
        WorkerObs::default()
    }

    #[inline]
    fn instant(&mut self, kind: EventKind, arg: u32, start_ns: u64) {
        self.ring.push(Event { kind, arg, start_ns, dur_ns: 0 });
    }

    /// Opens a task execution span if `t` is sampled (one clock read).
    #[inline]
    pub fn task_begin(&mut self, t: u32) -> TaskStamp {
        TaskStamp(if crate::sampled(t) { Some(Stamp::now()) } else { None })
    }

    /// Closes a sampled task span: records the Task slice and the
    /// execution latency. Queue wait is derived later, at drain, by
    /// pairing this slice with the task's Spawn event
    /// ([`SharedObs::finish`]) — nothing shared is touched here.
    #[inline]
    pub fn task_end(&mut self, t: u32, begin: TaskStamp, shared: &SharedObs) {
        let Some(b) = begin.0 else { return };
        let start_ns = b.ns_since(shared.origin);
        let dur_ns = Stamp::now().ns_since(shared.origin).saturating_sub(start_ns);
        self.exec.record(dur_ns);
        self.ring.push(Event { kind: EventKind::Task, arg: t, start_ns, dur_ns });
    }

    /// A task was poisoned or failed on this worker.
    #[inline]
    pub fn task_poisoned(&mut self, t: u32, shared: &SharedObs) {
        let now = shared.now_ns();
        self.instant(EventKind::Poison, t, now);
    }

    /// A successful steal from `victim`.
    #[inline]
    pub fn steal(&mut self, victim: u32, shared: &SharedObs) {
        let now = shared.now_ns();
        self.instant(EventKind::Steal, victim, now);
    }

    /// This worker woke sleepers after publishing work. Wakes happen on
    /// nearly every completion in chain-limited graphs, so only every
    /// [`crate::EDGE_EVERY`]-th reads the clock and records (`arg` =
    /// total wakes so far, so the decimated trace still shows the
    /// running count).
    #[inline]
    pub fn wake(&mut self, shared: &SharedObs) {
        self.wakes = self.wakes.wrapping_add(1);
        if self.wakes % crate::EDGE_EVERY == 0 {
            let now = shared.now_ns();
            self.instant(EventKind::Wake, self.wakes, now);
        }
    }

    /// Sampled task `t` became ready on this worker (one clock read —
    /// the timestamp is the queue-wait anchor [`SharedObs::finish`]
    /// pairs with the Task slice).
    #[inline]
    pub fn spawn(&mut self, t: u32, shared: &SharedObs) {
        let now = shared.now_ns();
        self.instant(EventKind::Spawn, t, now);
    }

    /// This worker committed window `window`.
    #[inline]
    pub fn commit(&mut self, window: u32, shared: &SharedObs) {
        let now = shared.now_ns();
        self.instant(EventKind::Commit, window, now);
    }

    /// Opens a park span if this is one of the 1-in-
    /// [`crate::EDGE_EVERY`] parks this worker records (chain-limited
    /// graphs park on nearly every task; the decision is made *before*
    /// the pre-sleep clock read so skipped parks cost nothing).
    #[inline]
    pub fn park_begin(&mut self) -> TaskStamp {
        self.parks = self.parks.wrapping_add(1);
        TaskStamp(if self.parks % crate::EDGE_EVERY == 0 { Some(Stamp::now()) } else { None })
    }

    /// Closes a sampled park span (no-op for skipped parks).
    #[inline]
    pub fn park(&mut self, begin: TaskStamp, shared: &SharedObs) {
        if let Some(b) = begin.0 {
            self.slice(EventKind::Park, 0, b, Stamp::now(), shared);
        }
    }

    /// Closes a decode step's window-scan span.
    #[inline]
    pub fn scan(&mut self, window: u32, begin: SpanStamp, shared: &SharedObs) {
        self.slice(EventKind::Scan, window, begin.0, Stamp::now(), shared);
    }

    /// Closes the whole-worker span (guarantees ≥1 event per track).
    #[inline]
    pub fn worker_span(&mut self, w: u32, begin: SpanStamp, shared: &SharedObs) {
        self.slice(EventKind::Worker, w, begin.0, Stamp::now(), shared);
    }

    /// Records one execution burst, reusing the two stamps the worker
    /// loop already takes for `WorkerStats::busy` — zero extra clock
    /// reads on the burst path. Bursts shrink to a single task in
    /// chain-limited graphs, so only every [`crate::EDGE_EVERY`]-th
    /// burst pushes (the stats stay exact; only the trace is thinned).
    #[inline]
    pub fn burst(&mut self, begin: Stamp, end: Stamp, tasks: u64, shared: &SharedObs) {
        self.bursts = self.bursts.wrapping_add(1);
        if self.bursts % crate::EDGE_EVERY == 0 {
            self.slice(EventKind::Burst, tasks.min(u32::MAX as u64) as u32, begin, end, shared);
        }
    }

    /// Closes a per-role CPU span opened on this thread (DESIGN.md
    /// §12.6): one thread-clock read.
    #[inline]
    pub fn role_cpu(&mut self, role: Role, begin: CpuStamp) {
        self.roles.charge(role, begin);
    }

    /// Closes a per-role CPU span that encloses every span this sink
    /// has charged so far: `role` gets the thread CPU since `begin`
    /// less theirs — a worker loop's figure, net of the decode steps it
    /// took (DESIGN.md §12.6).
    #[inline]
    pub fn role_cpu_net(&mut self, role: Role, begin: CpuStamp) {
        self.roles.charge_net(role, begin);
    }

    #[inline]
    fn slice(&mut self, kind: EventKind, arg: u32, begin: Stamp, end: Stamp, shared: &SharedObs) {
        let start_ns = begin.ns_since(shared.origin);
        let dur_ns = end.ns_since(shared.origin).saturating_sub(start_ns);
        self.ring.push(Event { kind, arg, start_ns, dur_ns });
    }
}

#[cfg(not(feature = "ring"))]
impl WorkerObs {
    /// NoopSink: holds nothing.
    #[inline]
    pub fn new() -> WorkerObs {
        WorkerObs
    }

    /// NoopSink: no clock read.
    #[inline]
    pub fn task_begin(&mut self, _t: u32) -> TaskStamp {
        TaskStamp()
    }

    /// NoopSink: no-op.
    #[inline]
    pub fn task_end(&mut self, _t: u32, _begin: TaskStamp, _shared: &SharedObs) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn task_poisoned(&mut self, _t: u32, _shared: &SharedObs) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn steal(&mut self, _victim: u32, _shared: &SharedObs) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn wake(&mut self, _shared: &SharedObs) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn spawn(&mut self, _t: u32, _shared: &SharedObs) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn commit(&mut self, _window: u32, _shared: &SharedObs) {}

    /// NoopSink: no clock read.
    #[inline]
    pub fn park_begin(&mut self) -> TaskStamp {
        TaskStamp()
    }

    /// NoopSink: no-op.
    #[inline]
    pub fn park(&mut self, _begin: TaskStamp, _shared: &SharedObs) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn scan(&mut self, _window: u32, _begin: SpanStamp, _shared: &SharedObs) {}

    /// NoopSink: no-op.
    #[inline]
    pub fn worker_span(&mut self, _w: u32, _begin: SpanStamp, _shared: &SharedObs) {}

    /// NoopSink: no-op (the stamps were taken for `busy` regardless).
    #[inline]
    pub fn burst(&mut self, _begin: Stamp, _end: Stamp, _tasks: u64, _shared: &SharedObs) {}

    /// NoopSink: no clock read.
    #[inline]
    pub fn role_cpu(&mut self, _role: Role, _begin: CpuStamp) {}

    /// NoopSink: no clock read.
    #[inline]
    pub fn role_cpu_net(&mut self, _role: Role, _begin: CpuStamp) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_reflects_the_feature() {
        let shared = SharedObs::new();
        let report = shared.finish(vec![WorkerObs::new()]);
        assert_eq!(report.is_some(), crate::ENABLED);
    }

    #[cfg(feature = "ring")]
    #[test]
    fn sampled_task_flows_into_histograms_and_ring() {
        // Find a sampled id so the begin/end pair records.
        let t = (0..1000u32).find(|&t| crate::sampled(t)).expect("no sampled id in 1000");
        let shared = SharedObs::new();
        let mut w = WorkerObs::new();
        w.spawn(t, &shared);
        let begin = w.task_begin(t);
        std::thread::sleep(std::time::Duration::from_millis(1));
        w.task_end(t, begin, &shared);
        shared.note_deque_depth(3);
        shared.note_pending_drain(7);
        shared.note_commit_lag(11);
        let report = shared.finish(vec![w]).expect("ring build reports");
        assert_eq!(report.exec_latency.count(), 1);
        assert!(report.exec_latency.max() >= 1_000_000, "slept a millisecond");
        assert_eq!(report.queue_wait.count(), 1, "Spawn/Task paired at drain");
        assert_eq!(report.tracks.len(), 1);
        assert_eq!(report.tracks[0].name, "worker-0");
        let kinds: Vec<_> = report.tracks[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::Spawn, EventKind::Task]);
        assert_eq!(report.gauges.deque_depth_max, 3);
        assert_eq!(report.gauges.pending_drain_max, 7);
        assert_eq!(report.gauges.commit_lag_max, 11);
    }

    #[cfg(feature = "ring")]
    #[test]
    fn queue_wait_pairs_across_tracks() {
        // Spawn recorded by the completing worker, Task slice by the
        // stealing worker: the drain-time pairing must join them.
        let t = (0..1000u32).find(|&t| crate::sampled(t)).expect("no sampled id in 1000");
        let shared = SharedObs::new();
        let mut a = WorkerObs::new();
        let mut b = WorkerObs::new();
        a.spawn(t, &shared);
        let begin = b.task_begin(t);
        b.task_end(t, begin, &shared);
        let report = shared.finish(vec![a, b]).expect("ring build reports");
        assert_eq!(report.queue_wait.count(), 1, "cross-track Spawn/Task pair");
    }

    /// Burns ~5 ms of this thread's CPU.
    #[cfg(feature = "ring")]
    fn burn() {
        let wall = Stamp::now();
        let mut x = 1u64;
        while wall.elapsed() < std::time::Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
    }

    /// Role CPU spans closed on different sinks — three workers', two
    /// of them having scanned and one committed — meet in the report,
    /// summed per role.
    #[cfg(feature = "ring")]
    #[test]
    fn role_cpu_spans_are_summed_per_role_across_sinks() {
        let charge = |sink: &mut WorkerObs, role: Role| {
            let span = CpuStamp::now();
            burn();
            sink.role_cpu(role, span);
        };
        let (mut w, mut d0, mut d1) = (WorkerObs::new(), WorkerObs::new(), WorkerObs::new());
        charge(&mut w, Role::Workers);
        charge(&mut d0, Role::Scan);
        charge(&mut d1, Role::Scan);
        charge(&mut d1, Role::Commit);
        let scans = d0.roles.ns(Role::Scan) + d1.roles.ns(Role::Scan);
        let report = SharedObs::new().finish(vec![w, d0, d1]).expect("ring build reports");
        assert_eq!(report.role_cpu.ns(Role::Scan), scans);
        assert_eq!(report.role_cpu.ns(Role::Setup), 0, "nobody charged set-up");
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            for role in [Role::Scan, Role::Commit, Role::Workers] {
                assert!(report.role_cpu.ns(role) > 0, "{} read no CPU", role.name());
            }
        }
    }

    /// A span closed net of the spans nested in it is charged only the
    /// CPU they did not claim: the enclosing span and the nested ones
    /// add up to what the thread used, never to more.
    #[cfg(feature = "ring")]
    #[test]
    fn a_net_span_leaves_out_the_spans_it_encloses() {
        let mut w = WorkerObs::new();
        let outer = CpuStamp::now();
        burn();
        let scan = CpuStamp::now();
        burn();
        w.role_cpu(Role::Scan, scan);
        burn();
        w.role_cpu_net(Role::Workers, outer);
        let used = outer.elapsed_ns();
        let (scanned, worked) = (w.roles.ns(Role::Scan), w.roles.ns(Role::Workers));
        assert!(scanned + worked <= used, "{scanned} + {worked} ns of {used}");
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(scanned > 0 && worked > 0, "{scanned} and {worked} ns");
        }
    }

    #[cfg(feature = "ring")]
    #[test]
    fn unsampled_task_records_nothing() {
        let t = (0..1000u32).find(|&t| !crate::sampled(t)).expect("unsampled id");
        let shared = SharedObs::new();
        let mut w = WorkerObs::new();
        let begin = w.task_begin(t);
        w.task_end(t, begin, &shared);
        let report = shared.finish(vec![w]).expect("ring build reports");
        assert!(report.exec_latency.is_empty());
        assert!(report.tracks[0].events.is_empty());
    }

    #[cfg(feature = "ring")]
    #[test]
    fn edge_events_are_decimated() {
        let shared = SharedObs::new();
        let mut w = WorkerObs::new();
        let mut armed = 0;
        for _ in 0..(crate::EDGE_EVERY * 3) {
            let p = w.park_begin();
            if p.0.is_some() {
                armed += 1;
            }
            w.park(p, &shared);
            w.wake(&shared);
        }
        assert_eq!(armed, 3, "1-in-EDGE_EVERY parks are armed");
        let report = shared.finish(vec![w]).expect("ring build reports");
        let evs = &report.tracks[0].events;
        let parks = evs.iter().filter(|e| e.kind == EventKind::Park).count();
        let wakes = evs.iter().filter(|e| e.kind == EventKind::Wake).count();
        assert_eq!((parks, wakes), (3, 3), "decimated edge event counts");
    }
}
