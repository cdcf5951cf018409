//! `tss-server`: a fault-isolating task-graph execution service over
//! the `tss-proto` wire protocol (DESIGN.md §14).
//!
//! Layering, outermost in:
//!
//! - **Accept loop** — a nonblocking listener polled so drain can stop
//!   admissions without a self-connect trick.
//! - **Sessions** (DESIGN.md §14.2) — one thread per client; decode
//!   failures kill only that session, semantic failures only the
//!   offending graph, and a vanished client never touches anyone
//!   else's graphs.
//! - **Admission** (DESIGN.md §14.2) — a per-session inflight-graph
//!   quota, then the one cross-session structure that counts and queues
//!   every admitted graph and sheds past its watermarks with a
//!   structured `Overloaded{retry_after_ms}`.
//! - **Runners** (DESIGN.md §14.3) — threads taking graphs from it and
//!   driving `tss-exec` with quarantine failure policy, the client's
//!   deadline on the run-deadline watchdog, one server-lifetime
//!   [`tss_exec::CancelToken`], and `catch_unwind` containment.
//! - **Drain** (DESIGN.md §14.4) — stop admissions, finish what the
//!   drain deadline allows, cancel the rest, deliver every outcome,
//!   then close. The invariant throughout: every *accepted* graph
//!   produces exactly one recorded [`GraphRecord`] and one attempted
//!   `Done` frame — nothing silently vanishes.

#![forbid(unsafe_code)]

mod admission;
mod runner;
mod session;
mod writer;

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tss_exec::PayloadMode;
use tss_proto::{GraphOutcome, RejectReason};

use admission::Admission;
use runner::Job;

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor worker threads per graph run.
    pub exec_threads: usize,
    /// Concurrent graph runs (runner threads).
    pub runners: usize,
    /// Per-session inflight-graph quota (open + queued + running).
    pub quota: u32,
    /// Admission watermark: admitted-but-unfinished graphs.
    pub max_queued_graphs: u64,
    /// Admission watermark: summed tasks of admitted-but-unfinished
    /// graphs (the memory proxy — queued traces are held resident).
    pub max_queued_tasks: u64,
    /// Per-graph task ceiling (assembly-time reject).
    pub max_graph_tasks: u64,
    /// Base backoff hint for `Overloaded` rejects; scaled by depth.
    pub retry_after_ms: u32,
    /// How long drain lets admitted graphs finish before cancelling.
    pub drain_deadline: Duration,
    /// Per-read socket timeout (slow-loris bound: a session that
    /// sends *nothing* for this long is closed with a structured
    /// error; a slow-but-moving writer resets it on every read).
    pub read_timeout: Duration,
    /// What each task execution does (see [`PayloadMode`]).
    pub payload: PayloadMode,
    /// Base seed; each graph runs with `seed ^ graph_id`.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            exec_threads: 2,
            runners: 2,
            quota: 8,
            max_queued_graphs: 16,
            max_queued_tasks: 250_000,
            max_graph_tasks: 1 << 20,
            retry_after_ms: 25,
            drain_deadline: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            payload: PayloadMode::Noop,
            seed: 1,
        }
    }
}

/// One accepted graph's terminal record — kept server-side even when
/// the client is gone, so drain can still account for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphRecord {
    /// Server-assigned session id the graph arrived on.
    pub session: u64,
    /// Client-chosen graph id.
    pub graph: u64,
    /// How the graph ended.
    pub outcome: GraphOutcome,
    /// Whether the `Done` frame reached the client.
    pub delivered: bool,
}

/// How many of the newest [`GraphRecord`]s the server retains for
/// [`DrainSummary::outcomes`]. The per-outcome *counts* are exact
/// whatever this is; it only bounds what a resident server keeps per
/// graph it has ever completed.
pub const OUTCOMES_KEPT: usize = 4096;

/// The outcome ledger: an exact count per terminal outcome plus the
/// newest [`OUTCOMES_KEPT`] records. The reconciliation invariant
/// (accepted = completed + cancelled + deadline-expired + failed) is
/// on the counts, so nothing needs to be retained to check it.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    completed: u64,
    cancelled: u64,
    deadline_expired: u64,
    failed: u64,
    recent: VecDeque<GraphRecord>,
}

impl Ledger {
    /// Records entered so far — the next record's sequence number.
    fn recorded(&self) -> u64 {
        self.completed + self.cancelled + self.deadline_expired + self.failed
    }

    /// Counts `record`'s outcome and keeps it, evicting the oldest
    /// record once [`OUTCOMES_KEPT`] are held. Returns its sequence
    /// number, for [`Ledger::mark_undelivered`].
    pub(crate) fn record(&mut self, record: GraphRecord) -> u64 {
        let seq = self.recorded();
        *match record.outcome {
            GraphOutcome::Completed { .. } => &mut self.completed,
            GraphOutcome::Cancelled { .. } => &mut self.cancelled,
            GraphOutcome::DeadlineExpired { .. } => &mut self.deadline_expired,
            GraphOutcome::Failed { .. } => &mut self.failed,
        } += 1;
        if self.recent.len() == OUTCOMES_KEPT {
            self.recent.pop_front();
        }
        self.recent.push_back(record);
        seq
    }

    /// Corrects record `seq` after its `Done` could not be sent, if it
    /// is still retained (the count of such misses is a counter).
    pub(crate) fn mark_undelivered(&mut self, seq: u64) {
        let oldest = self.recorded() - self.recent.len() as u64;
        if let Some(record) = seq.checked_sub(oldest).and_then(|i| self.recent.get_mut(i as usize))
        {
            record.delivered = false;
        }
    }
}

/// Monotonic service counters (all sessions, whole lifetime).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub sessions: AtomicU64,
    pub accepted: AtomicU64,
    pub rejected_overloaded: AtomicU64,
    pub rejected_quota: AtomicU64,
    pub rejected_malformed: AtomicU64,
    pub rejected_draining: AtomicU64,
    /// Unknown / duplicate graph-id rejects (session-state errors).
    pub rejected_graph_state: AtomicU64,
    /// Sessions closed with a `SessionError` frame.
    pub session_errors: AtomicU64,
    /// `Done` frames that could not be delivered (client vanished).
    pub undelivered_done: AtomicU64,
}

impl Counters {
    /// The reject counter a `Reject` frame carrying `reason` bumps.
    pub(crate) fn rejected(&self, reason: &RejectReason) -> &AtomicU64 {
        match reason {
            RejectReason::Overloaded { .. } => &self.rejected_overloaded,
            RejectReason::QuotaExceeded { .. } => &self.rejected_quota,
            RejectReason::Malformed { .. } | RejectReason::TooLarge { .. } => {
                &self.rejected_malformed
            }
            RejectReason::Draining => &self.rejected_draining,
            RejectReason::UnknownGraph | RejectReason::DuplicateGraph => &self.rejected_graph_state,
        }
    }
}

/// What drain hands back: the outcome ledger plus counters.
#[derive(Debug)]
pub struct DrainSummary {
    /// The newest [`OUTCOMES_KEPT`] accepted graphs' terminal records,
    /// in completion order — every one of them on a server that
    /// accepted no more than that. The four outcome counts below are
    /// exact over the whole lifetime regardless.
    pub outcomes: Vec<GraphRecord>,
    /// Graphs admitted over the server's lifetime.
    pub accepted: u64,
    /// Graphs that drained to completion (quarantined faults included).
    pub completed: u64,
    /// Graphs cancelled by drain.
    pub cancelled: u64,
    /// Graphs whose propagated deadline expired.
    pub deadline_expired: u64,
    /// Graphs whose run failed outright.
    pub failed: u64,
    /// Admission sheds (`Overloaded`).
    pub rejected_overloaded: u64,
    /// Per-session quota rejects.
    pub rejected_quota: u64,
    /// Semantic rejects (kernel range, count mismatch, ceilings).
    pub rejected_malformed: u64,
    /// Rejects because the server was draining.
    pub rejected_draining: u64,
    /// Unknown / duplicate graph-id rejects.
    pub rejected_graph_state: u64,
    /// Sessions accepted over the lifetime.
    pub sessions: u64,
    /// Sessions closed with a structured `SessionError`.
    pub session_errors: u64,
    /// `Done` frames whose delivery failed (vanished clients).
    pub undelivered_done: u64,
    /// Wall time of the drain itself.
    pub drain_wall: Duration,
    /// Whether the drain deadline fired (some graphs were cancelled).
    pub drain_deadline_hit: bool,
}

/// State shared between the accept loop, sessions, runners and drain.
pub(crate) struct ServerShared {
    pub cfg: ServerConfig,
    pub admission: Admission<Job>,
    pub counters: Counters,
    pub ledger: Mutex<Ledger>,
    /// Socket clones per live session, for drain-time shutdown.
    pub sessions: Mutex<HashMap<u64, TcpStream>>,
    /// Handles of the session threads still running (finished ones
    /// are reaped on accept), joined at drain.
    pub handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A cloneable handle that can trigger drain from outside `wait` —
/// e.g. a signal-watcher thread in the serve binary.
#[derive(Clone)]
pub struct DrainHandle(Arc<ServerShared>);

impl DrainHandle {
    /// Requests drain (idempotent, callable from any thread).
    pub fn request_drain(&self) {
        self.0.admission.set_draining();
    }

    /// Whether drain has been requested.
    pub fn draining(&self) -> bool {
        self.0.admission.draining()
    }
}

/// A running server. Call [`Server::wait`] to block until drain is
/// requested and collect the final [`DrainSummary`].
pub struct Server {
    shared: Arc<ServerShared>,
    local: SocketAddr,
    accept: JoinHandle<()>,
    runners: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn start(cfg: ServerConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking accept, polled: drain must be able to stop the
        // loop without a wake-up connection.
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let shared = Arc::new(ServerShared {
            admission: Admission::new(
                cfg.max_queued_graphs,
                cfg.max_queued_tasks,
                cfg.retry_after_ms,
            ),
            counters: Counters::default(),
            ledger: Mutex::new(Ledger::default()),
            sessions: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            cfg,
        });

        let runners = (0..shared.cfg.runners.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tss-runner-{i}"))
                    .spawn(move || runner::runner_loop(shared))
                    .expect("spawn runner thread")
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("tss-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;

        Ok(Server { shared, local, accept, runners })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle for requesting drain from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle(Arc::clone(&self.shared))
    }

    /// Requests drain directly (tests; binaries use the handle).
    pub fn request_drain(&self) {
        self.shared.admission.set_draining();
    }

    /// Blocks until drain is requested (a `Shutdown` frame, a
    /// [`DrainHandle`], or [`Server::request_drain`]), performs it,
    /// and reports. Drain order (DESIGN.md §14.4):
    ///
    /// 1. Admissions stop (`draining` set at request time).
    /// 2. The accept loop exits; no new sessions.
    /// 3. Admitted graphs get [`ServerConfig::drain_deadline`] to
    ///    finish; past it the cancel token every run carries fires:
    ///    running graphs stop, queued ones are reported
    ///    `Cancelled{0, tasks}` without running.
    /// 4. Every outcome is delivered (or its delivery failure
    ///    counted), *then* sessions are closed.
    pub fn wait(self) -> DrainSummary {
        let admission = &self.shared.admission;
        admission.wait_draining();
        let t0 = Instant::now();

        let _ = self.accept.join();
        admission.close();

        let deadline_hit = !admission.wait_empty(self.shared.cfg.drain_deadline);
        if deadline_hit {
            admission.cancel.cancel();
            // Cancellation latency is bounded (one watchdog tick to
            // notice the token plus one in-flight payload), so this
            // second wait is a formality with a generous cap, not a
            // second deadline.
            let _ = admission.wait_empty(Duration::from_secs(60));
        }
        for h in self.runners {
            // A panicked runner already had its job contained; losing
            // the thread at join time is not worth tearing drain down.
            let _ = h.join();
        }

        // Done frames are all delivered (or accounted); now close.
        for (_, s) in self.shared.sessions.lock().expect("session registry poisoned").drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
        // The accept loop is gone: nobody else takes this lock again.
        for h in self.shared.handles.lock().expect("session handles poisoned").drain(..) {
            let _ = h.join();
        }

        // Every runner and session is joined: the ledger is final.
        let ledger =
            std::mem::take(&mut *self.shared.ledger.lock().expect("outcome ledger poisoned"));
        let c = &self.shared.counters;
        DrainSummary {
            accepted: c.accepted.load(Ordering::Acquire),
            completed: ledger.completed,
            cancelled: ledger.cancelled,
            deadline_expired: ledger.deadline_expired,
            failed: ledger.failed,
            rejected_overloaded: c.rejected_overloaded.load(Ordering::Acquire),
            rejected_quota: c.rejected_quota.load(Ordering::Acquire),
            rejected_malformed: c.rejected_malformed.load(Ordering::Acquire),
            rejected_draining: c.rejected_draining.load(Ordering::Acquire),
            rejected_graph_state: c.rejected_graph_state.load(Ordering::Acquire),
            sessions: c.sessions.load(Ordering::Acquire),
            session_errors: c.session_errors.load(Ordering::Acquire),
            undelivered_done: c.undelivered_done.load(Ordering::Acquire),
            drain_wall: t0.elapsed(),
            drain_deadline_hit: deadline_hit,
            outcomes: ledger.recent.into(),
        }
    }
}

/// Polls the nonblocking listener, spawning a session thread per
/// connection, until drain is requested.
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    let mut next_id: u64 = 1;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.counters.sessions.fetch_add(1, Ordering::AcqRel);
                let id = next_id;
                next_id += 1;
                let _ = stream.set_nonblocking(false);
                if let Ok(clone) = stream.try_clone() {
                    shared.sessions.lock().expect("session registry poisoned").insert(id, clone);
                }
                let session_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("tss-session-{id}"))
                    .spawn(move || session::run_session(session_shared, id, stream));
                match spawned {
                    Ok(h) => {
                        // Reap on accept: a finished thread keeps its
                        // stack mapped until its handle is joined or
                        // dropped, and drain may be days away.
                        let mut handles = shared.handles.lock().expect("session handles poisoned");
                        handles.retain(|h| !h.is_finished());
                        handles.push(h);
                    }
                    Err(_) => {
                        // Could not spawn (resource exhaustion): the
                        // stream drops, the client sees a close, the
                        // server itself stays up.
                        shared.sessions.lock().expect("session registry poisoned").remove(&id);
                    }
                }
            }
            Err(e) => {
                if shared.admission.draining() {
                    return;
                }
                // Nothing pending: poll again. Anything else is a
                // transient accept failure (e.g. EMFILE): back off and
                // keep serving existing sessions.
                let idle = e.kind() == io::ErrorKind::WouldBlock;
                std::thread::sleep(Duration::from_millis(if idle { 2 } else { 10 }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_delivery_is_patched_by_sequence_number_while_retained() {
        let mut ledger = Ledger::default();
        let seqs: Vec<u64> = (0..OUTCOMES_KEPT as u64 + 3)
            .map(|graph| {
                let outcome = GraphOutcome::Cancelled { completed: 0, tasks: 1 };
                ledger.record(GraphRecord { session: 1, graph, outcome, delivered: true })
            })
            .collect();
        assert_eq!(seqs, (0..OUTCOMES_KEPT as u64 + 3).collect::<Vec<_>>());
        ledger.mark_undelivered(2); // evicted: nothing to patch, nothing hit by mistake
        ledger.mark_undelivered(3); // the oldest retained
        ledger.mark_undelivered(OUTCOMES_KEPT as u64 + 2); // the newest
        let missed: Vec<u64> =
            ledger.recent.iter().filter(|r| !r.delivered).map(|r| r.graph).collect();
        assert_eq!(missed, vec![3, OUTCOMES_KEPT as u64 + 2]);
        assert_eq!((ledger.cancelled, ledger.recent.len()), (seqs.len() as u64, OUTCOMES_KEPT));
    }
}
