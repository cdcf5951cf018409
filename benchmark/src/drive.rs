//! The three closed loops that drive the stack from outside — replay
//! (`Executor::run`), serve (`Client` against a loopback `Server`) and
//! sim (`SystemBuilder`) — and the correctness gate every graph they
//! run passes through. Each loop serves the warm-up (a fixed number of
//! passes), the timed untraced pass and the traced pass alike: the
//! calls are the same, only the [`Tracer`] differs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tss_client::{Client, ClientError, Submission};
use tss_core::{RunReport, SystemBuilder};
use tss_exec::{Executor, PayloadMode, RenameStats};
use tss_proto::{graph_frames, GraphOutcome, RejectReason};
use tss_server::{DrainSummary, Server, ServerConfig};
use tss_trace::TaskTrace;

use crate::spans::Tracer;
use crate::spec::{Workload, CHUNK, CLIENTS, EXEC_THREADS, SIM_PROCESSORS};

/// How many times a shed graph is resubmitted before it is given up.
const RESUBMIT_MAX: u32 = 8;

/// Tally of what was attempted and what failed a correctness check.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// The first few violations, for the error report.
    pub notes: Vec<String>,
}

impl Check {
    /// One attempted graph (or engine run); `what` names the violation.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.require(ok, what);
    }

    /// An invariant that is not one graph's (a ledger, a round trip).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 16usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// When a loop ends: after a fixed amount of work (warm-up), or once a
/// duration has passed (the timed phase). Either way at least one pass
/// over the pattern runs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Passes(usize),
    After(Duration),
}

impl Stop {
    fn reached(self, passes: usize, since: Instant) -> bool {
        match self {
            Stop::Passes(n) => passes >= n.max(1),
            Stop::After(d) => passes >= 1 && since.elapsed() >= d,
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What one replay loop measured. One iteration is one pass over the
/// graphs.
#[derive(Debug, Default)]
pub struct ReplayOut {
    pub iter_s: Vec<f64>,
    /// Per graph: the `Executor::run` call, submit to completion.
    pub graph_us: Vec<f64>,
    /// Per iteration: steal events summed over its graphs.
    pub steals: Vec<f64>,
    /// Per iteration: worker busy time over `threads x exec_wall`.
    pub busy_frac: Vec<f64>,
    /// Per graph: share of the run during which decode still streamed.
    pub overlap_pct: Vec<f64>,
    /// Renamer counts summed over one pass (exact for a seed).
    pub rename: RenameStats,
}

/// Runs `exec` over each graph in turn until `stop`.
pub fn replay(
    graphs: &[Arc<TaskTrace>],
    exec: &Executor,
    stop: Stop,
    tracer: &mut Tracer,
    check: &mut Check,
) -> ReplayOut {
    let mut out = ReplayOut::default();
    let threads = exec.config().threads as f64;
    let t0 = Instant::now();
    let mut passes = 0usize;
    while !stop.reached(passes, t0) {
        tracer.alternate(passes);
        let iter_t0 = Instant::now();
        let (mut steals, mut busy, mut wall) = (0u64, 0.0f64, 0.0f64);
        let mut rename = RenameStats::default();
        for (g, trace) in graphs.iter().enumerate() {
            let gid = (passes * graphs.len() + g) as u64;
            let span = tracer.enter("exec.run", gid);
            let run_t0 = Instant::now();
            let result = exec.run(trace);
            let dt = run_t0.elapsed();
            tracer.exit(span);
            out.graph_us.push(us(dt));
            match result {
                Ok(r) => {
                    let ok = r.validated
                        && r.accounting_reconciles()
                        && r.tasks == trace.len()
                        && r.order.len() == trace.len()
                        && !r.fault.any();
                    check.attempt(ok, || {
                        format!(
                            "exec: {} run not clean (validated {}, reconciles {}, {} of {} tasks)",
                            trace.name(),
                            r.validated,
                            r.accounting_reconciles(),
                            r.order.len(),
                            trace.len()
                        )
                    });
                    steals += r.total_steals();
                    busy += r.workers.iter().map(|w| w.busy.as_secs_f64()).sum::<f64>();
                    wall += r.exec_wall.as_secs_f64();
                    out.overlap_pct.push(r.decode_overlap_pct);
                    rename.objects += r.rename.objects;
                    rename.tracked_operands += r.rename.tracked_operands;
                    rename.enforced_edges += r.rename.enforced_edges;
                    rename.removed_by_renaming += r.rename.removed_by_renaming;
                }
                Err(e) => check.attempt(false, || format!("exec: {} failed: {e}", trace.name())),
            }
        }
        out.iter_s.push(iter_t0.elapsed().as_secs_f64());
        out.steals.push(steals as f64);
        out.busy_frac.push(if wall > 0.0 { busy / (threads * wall) } else { 0.0 });
        out.rename = rename;
        passes += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------

/// What the clients of one serve loop measured. Per-graph samples
/// cover the latency class only (every graph when the workload names
/// none).
#[derive(Debug, Default)]
pub struct ServeOut {
    /// Per client: wall time of each complete batch of `batch` graphs.
    pub batch_s: Vec<Vec<f64>>,
    /// First frame encoded to `Done` read.
    pub latency_us: Vec<f64>,
    /// Frames built, encoded and written.
    pub write_us: Vec<f64>,
    /// Last frame written to `Accepted`.
    pub admission_us: Vec<f64>,
    /// `Accepted` to `Done`.
    pub run_wait_us: Vec<f64>,
    /// `GraphOutcome::Completed::exec_wall_us`, the server's own figure.
    pub exec_wall_us: Vec<f64>,
    /// `run_wait - exec_wall`: pool queue, spawn hand-off, `Done` write.
    /// Negative when the run began before this client had read
    /// `Accepted` (the runner can win that race on a busy host).
    pub queue_and_done_us: Vec<f64>,
    /// All classes.
    pub seen: Seen,
}

/// What the clients saw happen to their graphs, to reconcile with the
/// server's ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct Seen {
    /// Graphs the server accepted (whatever their outcome).
    pub accepted: u64,
    /// Graphs completed and valid.
    pub completed: u64,
    pub rejected_overloaded: u64,
    pub rejected_quota: u64,
    pub resubmits: u64,
}

impl Seen {
    fn add(&mut self, o: Seen) {
        self.accepted += o.accepted;
        self.completed += o.completed;
        self.rejected_overloaded += o.rejected_overloaded;
        self.rejected_quota += o.rejected_quota;
        self.resubmits += o.resubmits;
    }
}

impl ServeOut {
    fn absorb(&mut self, c: ServeOut) {
        self.batch_s.extend(c.batch_s);
        self.latency_us.extend(c.latency_us);
        self.write_us.extend(c.write_us);
        self.admission_us.extend(c.admission_us);
        self.run_wait_us.extend(c.run_wait_us);
        self.exec_wall_us.extend(c.exec_wall_us);
        self.queue_and_done_us.extend(c.queue_and_done_us);
        self.seen.add(c.seen);
    }
}

/// A running loopback server and its handshaken clients.
pub struct ServeSession {
    server: Server,
    clients: Vec<Client>,
    sent: Vec<u64>,
    /// Wall time of `Server::start`.
    pub start_ms: f64,
    /// Client-side tallies over the whole session.
    totals: Seen,
}

impl ServeSession {
    /// `Server::start` on an ephemeral loopback port (2 executor
    /// workers, 2 runners, otherwise defaults) plus one handshaken
    /// connection per client.
    pub fn start(payload: PayloadMode, seed: u64) -> Result<ServeSession, String> {
        let cfg = ServerConfig {
            exec_threads: EXEC_THREADS,
            runners: 2,
            payload,
            seed,
            ..ServerConfig::default()
        };
        let t0 = Instant::now();
        let server =
            Server::start(cfg, "127.0.0.1:0").map_err(|e| format!("Server::start: {e}"))?;
        let start_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            clients.push(
                Client::connect(server.local_addr())
                    .map_err(|e| format!("client {c} connect: {e}"))?,
            );
        }
        Ok(ServeSession {
            server,
            clients,
            sent: vec![0; CLIENTS],
            start_ms,
            totals: Seen::default(),
        })
    }

    /// Runs every client's closed loop over `w`'s pattern until `stop`
    /// (`Stop::Passes` counts passes over the pattern per client). The
    /// clients start together on a barrier.
    pub fn run(
        &mut self,
        w: &Workload,
        graphs: &[Arc<TaskTrace>],
        stop: Stop,
        tracers: &mut [Tracer],
        check: &mut Check,
    ) -> ServeOut {
        assert_eq!(tracers.len(), self.clients.len(), "one tracer per client");
        let barrier = Barrier::new(self.clients.len());
        let mut out = ServeOut::default();
        let results: Vec<(ServeOut, Check)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.sent.iter_mut())
                .zip(tracers.iter_mut())
                .enumerate()
                .map(|(c, ((client, sent), tracer))| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        client_loop(c, client, sent, w, graphs, stop, barrier, tracer)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        for (c, ck) in results {
            self.totals.add(c.seen);
            out.absorb(c);
            check.merge(ck);
        }
        out
    }

    /// Says `Bye`, drains the server and checks its ledger against
    /// what the clients saw. Returns the summary and the wall time
    /// from the drain request to `wait` returning.
    pub fn finish(self, check: &mut Check) -> (DrainSummary, f64) {
        for c in self.clients {
            c.bye();
        }
        let t0 = Instant::now();
        self.server.request_drain();
        let s = self.server.wait();
        let drain_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t = &self.totals;
        check.require(
            s.accepted == s.completed + s.cancelled + s.deadline_expired + s.failed,
            || {
                format!(
                    "server: ledger does not reconcile: {} accepted != {} completed + {} cancelled + {} expired + {} failed",
                    s.accepted, s.completed, s.cancelled, s.deadline_expired, s.failed
                )
            },
        );
        check.require(s.accepted == t.accepted && s.completed == t.completed, || {
            format!(
                "server: {} accepted / {} completed, clients saw {} / {}",
                s.accepted, s.completed, t.accepted, t.completed
            )
        });
        check.require(
            s.rejected_overloaded == t.rejected_overloaded && s.rejected_quota == t.rejected_quota,
            || {
                format!(
                    "server: {} overloaded / {} quota rejects, clients saw {} / {}",
                    s.rejected_overloaded,
                    s.rejected_quota,
                    t.rejected_overloaded,
                    t.rejected_quota
                )
            },
        );
        check.require(s.undelivered_done == 0 && s.session_errors == 0, || {
            format!(
                "server: {} undelivered Done, {} session errors",
                s.undelivered_done, s.session_errors
            )
        });
        (s, drain_ms)
    }
}

/// One client's closed loop: build and write the graph's frames, wait
/// for admission, wait for `Done`, repeat.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    c: usize,
    client: &mut Client,
    sent: &mut u64,
    w: &Workload,
    graphs: &[Arc<TaskTrace>],
    stop: Stop,
    barrier: &Barrier,
    tracer: &mut Tracer,
) -> (ServeOut, Check) {
    let mut out = ServeOut::default();
    let mut check = Check::default();
    let mut batches = Vec::new();
    let start_at = if c == 0 { 0 } else { w.offset };
    tracer.alternate(0);
    barrier.wait();
    let t0 = Instant::now();
    let mut batch_t0 = t0;
    let mut n = 0usize;
    'graphs: while !stop.reached(n / w.pattern.len(), t0) || !n.is_multiple_of(w.pattern.len()) {
        let g = w.pattern[(start_at + n) % w.pattern.len()];
        let trace = &graphs[g];
        let in_class = w.latency_class.is_none_or(|class| class == g);
        let gid = ((c as u64 + 1) << 40) | *sent;
        *sent += 1;
        n += 1;

        let graph_span = tracer.enter("graph", gid);
        let submit_t0 = Instant::now();
        let mut rejects = 0u32;
        let (written_at, accepted_at) = loop {
            let span = tracer.enter("client.write", gid);
            let wrote = graph_frames(gid, 0, trace, CHUNK).iter().try_for_each(|f| client.send(f));
            tracer.exit(span);
            let written_at = Instant::now();
            let span = tracer.enter("client.admission_wait", gid);
            let answer = wrote.and_then(|()| client.await_admission(gid));
            tracer.exit(span);
            match answer {
                Ok(Submission::Accepted) => break (written_at, Instant::now()),
                Ok(Submission::Rejected(reason)) => {
                    check.attempt(false, || {
                        format!("client {c}: graph {gid:#x} rejected: {reason}")
                    });
                    let backoff = match reason {
                        RejectReason::Overloaded { retry_after_ms } => {
                            out.seen.rejected_overloaded += 1;
                            Duration::from_millis(u64::from(retry_after_ms.max(1)))
                        }
                        RejectReason::QuotaExceeded { .. } => {
                            out.seen.rejected_quota += 1;
                            Duration::from_millis(5)
                        }
                        // Malformed, too large, draining: resubmitting
                        // the same bytes cannot succeed.
                        _ => {
                            tracer.exit(graph_span);
                            continue 'graphs;
                        }
                    };
                    rejects += 1;
                    if rejects >= RESUBMIT_MAX {
                        tracer.exit(graph_span);
                        continue 'graphs;
                    }
                    out.seen.resubmits += 1;
                    std::thread::sleep(backoff);
                }
                Err(e) => {
                    tracer.exit(graph_span);
                    return client_died(c, gid, &e, out, check, batches);
                }
            }
        };
        out.seen.accepted += 1;
        let span = tracer.enter("client.run_wait", gid);
        let outcome = client.wait_done(gid);
        tracer.exit(span);
        let done_at = Instant::now();
        tracer.exit(graph_span);

        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => return client_died(c, gid, &e, out, check, batches),
        };
        let clean = matches!(
            outcome,
            GraphOutcome::Completed { tasks, failed: 0, poisoned: 0, .. } if tasks == trace.len() as u64
        );
        check.attempt(clean, || {
            format!("client {c}: graph {gid:#x} ({} tasks) ended {outcome:?}", trace.len())
        });
        if let (true, GraphOutcome::Completed { exec_wall_us, .. }) = (clean, &outcome) {
            out.seen.completed += 1;
            if in_class {
                let run_wait = us(done_at - accepted_at);
                out.latency_us.push(us(done_at - submit_t0));
                out.write_us.push(us(written_at - submit_t0));
                out.admission_us.push(us(accepted_at - written_at));
                out.run_wait_us.push(run_wait);
                out.exec_wall_us.push(*exec_wall_us as f64);
                out.queue_and_done_us.push(run_wait - *exec_wall_us as f64);
            }
        }
        if n.is_multiple_of(w.batch) {
            batches.push((done_at - batch_t0).as_secs_f64());
            batch_t0 = done_at;
            tracer.alternate(batches.len());
        }
    }
    out.batch_s.push(batches);
    (out, check)
}

fn client_died(
    c: usize,
    gid: u64,
    e: &ClientError,
    mut out: ServeOut,
    mut check: Check,
    batches: Vec<f64>,
) -> (ServeOut, Check) {
    check.attempt(false, || format!("client {c}: graph {gid:#x}: {e}"));
    out.batch_s.push(batches);
    (out, check)
}

// ---------------------------------------------------------------------
// Sim
// ---------------------------------------------------------------------

/// What one simulator loop measured. One iteration runs both engines
/// over every graph; each engine run is one "graph" sample.
#[derive(Debug, Default)]
pub struct SimOut {
    pub iter_s: Vec<f64>,
    pub run_us: Vec<f64>,
    /// Per iteration: host seconds in the hardware / software engine.
    pub hw_s: Vec<f64>,
    pub sw_s: Vec<f64>,
    /// Per pass, exact: events delivered by each engine, the summed
    /// makespans and the deepest event queue.
    pub hw_events: u64,
    pub sw_events: u64,
    pub makespan_cycles: u64,
    pub peak_event_queue: u64,
}

/// Simulates every graph on the hardware pipeline and the software
/// runtime until `stop`. Simulated statistics must repeat exactly from
/// pass to pass; `validate` also checks each schedule against the
/// dependency oracle (set-up does, the timed loop does not).
pub fn sim(
    graphs: &[Arc<TaskTrace>],
    validate: bool,
    stop: Stop,
    tracer: &mut Tracer,
    check: &mut Check,
) -> SimOut {
    let mut builder = SystemBuilder::new().processors(SIM_PROCESSORS);
    if !validate {
        builder = builder.skip_validation();
    }
    let mut out = SimOut::default();
    let mut first: Option<(u64, u64, u64)> = None;
    let t0 = Instant::now();
    let mut passes = 0usize;
    while !stop.reached(passes, t0) {
        tracer.alternate(passes);
        let iter_t0 = Instant::now();
        let (mut hw_s, mut sw_s) = (0.0, 0.0);
        let (mut hw_events, mut sw_events, mut makespan, mut peak) = (0u64, 0u64, 0u64, 0u64);
        for (g, trace) in graphs.iter().enumerate() {
            let gid = (passes * graphs.len() + g) as u64;
            for hardware in [true, false] {
                let span = tracer.enter(if hardware { "sim.hw" } else { "sim.sw" }, gid);
                let run_t0 = Instant::now();
                // An incomplete or oracle-violating run panics inside
                // the simulator; here it is one failed attempt.
                let run: Result<RunReport, _> = catch_unwind(AssertUnwindSafe(|| {
                    if hardware {
                        builder.run_hardware_arc(trace)
                    } else {
                        builder.run_software_arc(trace)
                    }
                }));
                let dt = run_t0.elapsed();
                tracer.exit(span);
                out.run_us.push(us(dt));
                let engine = if hardware { "hardware" } else { "software" };
                match run {
                    Ok(r) => {
                        check.attempt(r.tasks == trace.len() && r.makespan > 0, || {
                            format!("sim: {} {engine} run incomplete", trace.name())
                        });
                        if hardware {
                            hw_s += dt.as_secs_f64();
                            hw_events += r.events;
                        } else {
                            sw_s += dt.as_secs_f64();
                            sw_events += r.events;
                        }
                        makespan += r.makespan;
                        peak = peak.max(r.event_queue_peak as u64);
                    }
                    Err(_) => check
                        .attempt(false, || format!("sim: {} {engine} run panicked", trace.name())),
                }
            }
        }
        out.iter_s.push(iter_t0.elapsed().as_secs_f64());
        out.hw_s.push(hw_s);
        out.sw_s.push(sw_s);
        let stats = (hw_events + sw_events, makespan, peak);
        let expect = *first.get_or_insert(stats);
        check.require(stats == expect, || {
            format!(
                "sim: sim.events / sim.makespan_cycles / sim.peak_event_queue changed between passes: {expect:?} then {stats:?}"
            )
        });
        (out.hw_events, out.sw_events) = (hw_events, sw_events);
        (out.makespan_cycles, out.peak_event_queue) = (makespan, peak);
        passes += 1;
    }
    out
}
