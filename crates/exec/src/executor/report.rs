//! What a run hands back: [`ExecReport`] and the per-worker counters
//! inside it.

use std::time::Duration;

use tss_obs::ObsReport;
use tss_trace::TaskId;

use crate::fault::FaultReport;
use crate::payload::PayloadMode;
use crate::renamer::RenameStats;

/// Per-worker counters. Each worker accumulates its own copy on its own
/// stack (the strongest form of false-sharing avoidance — nothing is
/// shared until the run's roles are done) and hands it back then.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Steal *events* (a batch steal of k tasks counts once).
    pub steals: u64,
    /// Wall time spent executing tasks, measured per work *burst* (the
    /// span from acquiring work to going idle), not per task: noop
    /// payloads pay two clock reads per burst instead of two per task,
    /// so `noop` throughput still measures scheduling, yet `busy_frac`
    /// is real for every payload (the ISSUE 5 regression was `busy`
    /// never accumulating on noop runs, printing 0.0000 for a worker
    /// that executed every task).
    pub busy: Duration,
}

/// Everything measured in one native replay.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Benchmark name (from the trace).
    pub benchmark: String,
    /// Tasks replayed.
    pub tasks: usize,
    /// Worker threads.
    pub threads: usize,
    /// Payload mode.
    pub payload: PayloadMode,
    /// Decode span. One-shot runs: the serial decode phase. Streaming
    /// runs: from the crew's start to the last window commit — a *span*
    /// that shares the host with execution, not a pure-work figure.
    pub decode_wall: Duration,
    /// Replay span. One-shot runs: the threaded replay, decode
    /// excluded. Streaming runs: the whole pipelined run — decode
    /// happens *inside* this span, which is the point.
    pub exec_wall: Duration,
    /// Share (percent) of `exec_wall` during which decode was still
    /// streaming. Zero for one-shot runs (decode is a serial phase
    /// before the replay); near 100 means the frontend streamed for the
    /// whole run and was never a standalone latency.
    pub decode_overlap_pct: f64,
    /// Whether this run streamed decode into execution.
    pub streaming: bool,
    /// The completion log: task ids in global completion-ticket order.
    pub order: Vec<TaskId>,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Renamer decode statistics.
    pub rename: RenameStats,
    /// Whether the completion log was checked against the oracle:
    /// always `true`, since every run checks its own log. Kept for the
    /// readers that still assert it (ROADMAP item 1(d)).
    pub validated: bool,
    /// Failure accounting (all-zero for a clean run).
    pub fault: FaultReport,
    /// RingSink observability data (latency histograms, per-worker
    /// event tracks, gauges) — `Some` exactly when the crate was built
    /// with the `obs` feature (DESIGN.md §12), `None` in the NoopSink
    /// default build.
    pub obs: Option<ObsReport>,
}

impl ExecReport {
    /// Decode throughput in nanoseconds per task (the native number the
    /// paper's ~700 ns/task software-decoder ceiling is compared to).
    /// For streaming runs this is a span over a shared host — see
    /// [`ExecReport::decode_wall`].
    pub fn decode_ns_per_task(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        self.decode_wall.as_nanos() as f64 / self.tasks as f64
    }

    /// Replay throughput in tasks per second (for streaming runs this
    /// is end-to-end: decode is inside the denominator).
    pub fn tasks_per_sec(&self) -> f64 {
        let s = self.exec_wall.as_secs_f64();
        if s > 0.0 {
            self.tasks as f64 / s
        } else {
            0.0
        }
    }

    /// Total steal events across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// A worker's busy fraction of the replay wall time (burst-timed;
    /// see [`WorkerStats::busy`]).
    pub fn utilization(&self, worker: usize) -> f64 {
        let wall = self.exec_wall.as_secs_f64();
        if wall > 0.0 {
            self.workers[worker].busy.as_secs_f64() / wall
        } else {
            0.0
        }
    }

    /// Tasks that completed (payload ran to success), from the workers'
    /// own counters — independent of the status-array scan that feeds
    /// [`ExecReport::fault`], which is what makes reconciliation a real
    /// cross-check.
    pub fn completed(&self) -> usize {
        self.workers.iter().map(|w| w.executed as usize).sum()
    }

    /// The §11 accounting identity: `completed + failed + poisoned =
    /// tasks`, with `completed` counted by the workers and `failed +
    /// poisoned` by the final status scan. A report that does not
    /// reconcile is an executor bug; the harness gates on this.
    pub fn accounting_reconciles(&self) -> bool {
        self.completed() + self.fault.failed.len() + self.fault.poisoned.len() == self.tasks
    }
}
