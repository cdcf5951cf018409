//! One client connection (DESIGN.md §14.2), in two halves: [`Session`],
//! the protocol as a socket-free step function over this session's open
//! (not yet sealed) graphs, and [`run_session`], the thread that feeds
//! it frames and carries out what it answers — the only code here that
//! touches the socket, the admission state or a counter.
//!
//! Fault-isolation rules, in rough order of hostility:
//!
//! - A frame that fails to *decode* kills only this session: the
//!   server answers with a structured [`Frame::SessionError`] and
//!   closes — framing can no longer be trusted, but no other session
//!   and no admitted graph is touched.
//! - A frame that decodes but breaks *semantics* (unknown graph id,
//!   kernel out of range, count mismatch) costs only the offending
//!   graph: a [`Frame::Reject`] names the reason and the session
//!   lives on.
//! - A client that vanishes (EOF, reset, read timeout) takes its
//!   unsealed graphs with it — they were never accepted, so nothing is
//!   owed. Its *admitted* graphs keep running: outcomes are recorded
//!   server-side and the failed `Done` delivery is counted, never lost.

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tss_proto::{
    read_frame, AssemblerLimits, Frame, GraphAssembler, RejectReason, SessionErrorKind, WireError,
    VERSION,
};
use tss_trace::TaskTrace;

use crate::runner::Job;
use crate::writer::SharedWriter;
use crate::ServerShared;

/// Bytes a session reads ahead of the frame it decodes.
const READ_BUFFER: usize = 64 << 10;

/// What one [`Session::step`] asks of its driver.
#[derive(Debug)]
pub(crate) enum Action {
    /// Nothing to answer: a graph opened, a batch taken.
    Nothing,
    /// Send this frame.
    Reply(Frame),
    /// A graph sealed clean: ask admission for it, answer `Accepted`
    /// or the `Reject` admission gives.
    Admit { graph: u64, trace: TaskTrace, deadline_ms: u32 },
    /// `Shutdown`: acknowledge, then request drain.
    Drain,
    /// Close the connection, after a `SessionError` if one is given.
    Close(Option<(SessionErrorKind, String)>),
}

/// One session's protocol state: whether it has said `Hello`, and the
/// graphs it has opened and not yet sealed.
pub(crate) struct Session {
    quota: u32,
    limits: AssemblerLimits,
    greeted: bool,
    open: HashMap<u64, GraphAssembler>,
}

impl Session {
    pub(crate) fn new(quota: u32, max_graph_tasks: u64) -> Session {
        Session {
            quota,
            limits: AssemblerLimits { max_tasks: max_graph_tasks },
            greeted: false,
            open: HashMap::new(),
        }
    }

    /// Advances by one read: a frame or the failure to get one.
    /// `draining` is whether the server has stopped admitting and
    /// `inflight` how many of this session's admitted graphs are
    /// unfinished — the two facts outside the session its answers
    /// depend on.
    pub(crate) fn step(
        &mut self,
        read: Result<Frame, WireError>,
        draining: bool,
        inflight: u64,
    ) -> Action {
        let fatal = |kind, detail: &str| Action::Close(Some((kind, detail.to_string())));
        let reject = |graph, reason| Action::Reply(Frame::Reject { graph, reason });

        let frame = match read {
            Ok(frame) => frame,
            // Clean close between frames: the client left (or
            // vanished); nothing to answer.
            Err(WireError::Closed) => return Action::Close(None),
            Err(WireError::Decode(e)) => return fatal(SessionErrorKind::Decode, &e.to_string()),
            Err(WireError::Io(e)) => {
                return match e.kind() {
                    ErrorKind::UnexpectedEof => {
                        fatal(SessionErrorKind::Decode, "stream truncated mid-frame")
                    }
                    ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                        fatal(SessionErrorKind::Protocol, "session read timed out")
                    }
                    // Reset / broken pipe: the peer is gone, nobody is
                    // listening for an error frame.
                    _ => Action::Close(None),
                };
            }
        };

        match frame {
            Frame::Hello { .. } if self.greeted => {
                fatal(SessionErrorKind::Protocol, "duplicate Hello")
            }
            Frame::Hello { version } if version == VERSION => {
                self.greeted = true;
                Action::Reply(Frame::HelloAck { version: VERSION })
            }
            Frame::Hello { version } => fatal(
                SessionErrorKind::Protocol,
                &format!("unsupported protocol version {version} (server speaks {VERSION})"),
            ),
            _ if !self.greeted => fatal(SessionErrorKind::Protocol, "first frame must be Hello"),

            Frame::OpenGraph { graph, deadline_ms, name, kernels } => {
                // Quota counts open + admitted-unfinished graphs, so a
                // client can neither hoard assembler memory nor flood
                // the queue by pipelining.
                let held = self.open.len() as u64 + inflight;
                if draining {
                    reject(graph, RejectReason::Draining)
                } else if held >= u64::from(self.quota) {
                    let (inflight, quota) = (held as u32, self.quota);
                    reject(graph, RejectReason::QuotaExceeded { inflight, quota })
                } else if self.open.contains_key(&graph) {
                    reject(graph, RejectReason::DuplicateGraph)
                } else {
                    let asm = GraphAssembler::open(&name, &kernels, deadline_ms, self.limits);
                    self.open.insert(graph, asm);
                    Action::Nothing
                }
            }

            Frame::Tasks { graph, tasks } => match self.open.get_mut(&graph) {
                None => reject(graph, RejectReason::UnknownGraph),
                Some(asm) => match asm.push_tasks(tasks) {
                    Ok(()) => Action::Nothing,
                    Err(e) => {
                        // The graph is unsalvageable; discard it so
                        // later Tasks frames get UnknownGraph instead
                        // of repeated semantic errors.
                        self.open.remove(&graph);
                        reject(graph, e.reject_reason(self.limits))
                    }
                },
            },

            Frame::Seal { graph, tasks_total } => match self.open.remove(&graph) {
                None => reject(graph, RejectReason::UnknownGraph),
                Some(asm) => {
                    let deadline_ms = asm.deadline_ms();
                    match asm.seal(tasks_total) {
                        Ok(trace) => Action::Admit { graph, trace, deadline_ms },
                        Err(e) => reject(graph, e.reject_reason(self.limits)),
                    }
                }
            },

            Frame::Shutdown => Action::Drain,

            Frame::Bye => Action::Close(None),

            // Server-to-client frames arriving from a client are a
            // protocol violation, not a decode failure.
            Frame::HelloAck { .. }
            | Frame::Accepted { .. }
            | Frame::Reject { .. }
            | Frame::Done { .. }
            | Frame::SessionError { .. }
            | Frame::ShutdownAck => {
                fatal(SessionErrorKind::Protocol, "server-to-client frame from client")
            }
        }
    }
}

/// Runs one session to completion. Never panics on peer behavior.
pub(crate) fn run_session(shared: Arc<ServerShared>, id: u64, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    // Cannot split the socket: nothing can be answered, so there is
    // nothing useful to do but close.
    if let Ok(w) = stream.try_clone() {
        drive(&shared, id, stream, &SharedWriter::new(w));
    }
    shared.sessions.lock().expect("session registry poisoned").remove(&id);
    // Open (unsealed) graphs die with the session: never accepted,
    // no outcome owed. Admitted graphs run on via their own Job state.
}

/// The driver: read, step, carry out the action. Returning closes the
/// connection.
fn drive(shared: &ServerShared, id: u64, stream: TcpStream, writer: &SharedWriter) {
    // One `read` system call fetches as many frames as have arrived,
    // where an unbuffered `read_frame` makes three a frame. The socket's
    // read timeout still bounds every call that blocks.
    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
    let (admission, counters) = (&shared.admission, &shared.counters);
    let mut session = Session::new(shared.cfg.quota, shared.cfg.max_graph_tasks);
    // Graphs admitted for this session and not yet finished; a runner
    // decrements it before it writes `Done`.
    let inflight = Arc::new(AtomicU64::new(0));

    loop {
        let read = read_frame(&mut reader);
        let action = session.step(read, admission.draining(), inflight.load(Ordering::Acquire));
        let (mut admitted, mut drain) = (None, false);
        let reply = match action {
            Action::Nothing => continue,
            Action::Reply(frame) => frame,
            Action::Drain => {
                drain = true;
                Frame::ShutdownAck
            }
            Action::Admit { graph, trace, deadline_ms } => {
                match admission.reserve(trace.len() as u64) {
                    Ok(()) => {
                        admitted = Some(Job {
                            session: id,
                            graph,
                            trace,
                            deadline_ms,
                            admitted: Instant::now(),
                            writer: writer.clone(),
                            inflight: Arc::clone(&inflight),
                        });
                        Frame::Accepted { graph }
                    }
                    Err(reason) => Frame::Reject { graph, reason },
                }
            }
            Action::Close(error) => {
                if let Some((kind, detail)) = error {
                    counters.session_errors.fetch_add(1, Ordering::AcqRel);
                    let _ = writer.send(&Frame::SessionError { kind, detail });
                }
                return;
            }
        };
        if let Frame::Reject { reason, .. } = &reply {
            counters.rejected(reason).fetch_add(1, Ordering::AcqRel);
        }
        let sent = writer.send(&reply);
        // What a reply promises happens whether or not it arrived, and
        // after it was written: an admitted graph runs and is accounted
        // for even if its client raced away, its `Done` can never
        // precede its `Accepted`, and drain cannot close this socket
        // under a `ShutdownAck`.
        if let Some(job) = admitted {
            inflight.fetch_add(1, Ordering::AcqRel);
            counters.accepted.fetch_add(1, Ordering::AcqRel);
            admission.enqueue(job);
        }
        if drain {
            // The session keeps reading: its `Done` frames still flow
            // through the shared writer, and drain closes the socket
            // once every outcome is delivered.
            admission.set_draining();
        }
        if !sent {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;
    use tss_proto::DecodeError;
    use tss_trace::{KernelId, OperandDesc, TaskDesc};

    /// A session past `Hello`, with a quota of 3 and a 5-task ceiling.
    fn greeted() -> Session {
        let mut s = Session::new(3, 5);
        let ack = s.step(Ok(Frame::Hello { version: VERSION }), false, 0);
        assert!(matches!(ack, Action::Reply(Frame::HelloAck { version: VERSION })));
        s
    }

    fn open(graph: u64) -> Result<Frame, WireError> {
        Ok(Frame::OpenGraph { graph, deadline_ms: 70, name: "g".into(), kernels: vec!["k".into()] })
    }

    fn tasks(graph: u64, kernel: u16, n: usize) -> Result<Frame, WireError> {
        let task = TaskDesc::new(KernelId(kernel), 10, vec![OperandDesc::output(0xA0, 64)]);
        Ok(Frame::Tasks { graph, tasks: vec![task; n] })
    }

    fn seal(graph: u64, tasks_total: u64) -> Result<Frame, WireError> {
        Ok(Frame::Seal { graph, tasks_total })
    }

    /// The reason of the `Reject` for `graph` that `action` must be.
    fn rejected(action: Action, graph: u64) -> RejectReason {
        match action {
            Action::Reply(Frame::Reject { graph: g, reason }) if g == graph => reason,
            other => panic!("expected a Reject for graph {graph}, got {other:?}"),
        }
    }

    /// The `SessionError` that `action` must close the session with.
    fn fatal(action: Action) -> (SessionErrorKind, String) {
        match action {
            Action::Close(Some(error)) => error,
            other => panic!("expected a close with a SessionError, got {other:?}"),
        }
    }

    #[test]
    fn hello_comes_first_once_and_in_this_version() {
        let (kind, detail) = fatal(Session::new(3, 5).step(open(1), false, 0));
        assert_eq!(
            (kind, detail.as_str()),
            (SessionErrorKind::Protocol, "first frame must be Hello")
        );

        let stale = Frame::Hello { version: VERSION + 1 };
        let (kind, detail) = fatal(Session::new(3, 5).step(Ok(stale), false, 0));
        assert_eq!(kind, SessionErrorKind::Protocol);
        assert!(detail.contains("unsupported protocol version"), "{detail}");

        let again = greeted().step(Ok(Frame::Hello { version: VERSION }), false, 0);
        assert_eq!(fatal(again), (SessionErrorKind::Protocol, "duplicate Hello".to_string()));
    }

    #[test]
    fn a_draining_server_opens_nothing() {
        let mut s = greeted();
        assert_eq!(rejected(s.step(open(1), true, 0), 1), RejectReason::Draining);
        // Refused, not opened: the id is still unknown.
        assert_eq!(rejected(s.step(tasks(1, 0, 1), true, 0), 1), RejectReason::UnknownGraph);
    }

    #[test]
    fn quota_counts_open_plus_inflight() {
        let mut s = greeted();
        assert!(matches!(s.step(open(1), false, 1), Action::Nothing), "1 inflight + 0 open < 3");
        assert!(matches!(s.step(open(2), false, 1), Action::Nothing), "1 inflight + 1 open < 3");
        let full = RejectReason::QuotaExceeded { inflight: 3, quota: 3 };
        assert_eq!(rejected(s.step(open(3), false, 1), 3), full, "1 inflight + 2 open");
        assert!(matches!(s.step(open(3), false, 0), Action::Nothing), "a finished graph frees it");
        let over = RejectReason::QuotaExceeded { inflight: 5, quota: 3 };
        assert_eq!(rejected(s.step(open(4), false, 2), 4), over, "2 inflight + 3 open");
    }

    #[test]
    fn graph_ids_must_be_open_exactly_once() {
        let mut s = greeted();
        assert_eq!(rejected(s.step(tasks(7, 0, 1), false, 0), 7), RejectReason::UnknownGraph);
        assert_eq!(rejected(s.step(seal(7, 0), false, 0), 7), RejectReason::UnknownGraph);
        assert!(matches!(s.step(open(7), false, 0), Action::Nothing));
        assert_eq!(rejected(s.step(open(7), false, 0), 7), RejectReason::DuplicateGraph);
    }

    #[test]
    fn a_malformed_push_or_seal_drops_the_graph() {
        let mut s = greeted();
        assert!(matches!(s.step(open(1), false, 0), Action::Nothing));
        let rogue = rejected(s.step(tasks(1, 9, 1), false, 0), 1); // kernel 9 of 1 declared
        assert!(matches!(rogue, RejectReason::Malformed { .. }), "{rogue:?}");
        assert_eq!(rejected(s.step(tasks(1, 0, 1), false, 0), 1), RejectReason::UnknownGraph);

        assert!(matches!(s.step(open(2), false, 0), Action::Nothing));
        assert!(matches!(s.step(tasks(2, 0, 2), false, 0), Action::Nothing));
        let short = rejected(s.step(seal(2, 99), false, 0), 2);
        assert!(matches!(&short, RejectReason::Malformed { detail } if detail.contains("99")));
        assert_eq!(rejected(s.step(seal(2, 2), false, 0), 2), RejectReason::UnknownGraph);

        assert!(matches!(s.step(open(3), false, 0), Action::Nothing));
        let big = rejected(s.step(tasks(3, 0, 6), false, 0), 3);
        assert_eq!(big, RejectReason::TooLarge { tasks: 6, limit: 5 });
        assert_eq!(rejected(s.step(seal(3, 6), false, 0), 3), RejectReason::UnknownGraph);
    }

    #[test]
    fn a_clean_seal_asks_for_admission_and_closes_the_id() {
        let mut s = greeted();
        assert!(matches!(s.step(open(1), false, 0), Action::Nothing));
        assert!(matches!(s.step(tasks(1, 0, 2), false, 0), Action::Nothing));
        assert!(matches!(s.step(tasks(1, 0, 1), false, 0), Action::Nothing));
        // Sealing is the session's business even while draining;
        // refusing it then is admission's.
        match s.step(seal(1, 3), true, 0) {
            Action::Admit { graph: 1, trace, deadline_ms: 70 } => assert_eq!(trace.len(), 3),
            other => panic!("expected Admit, got {other:?}"),
        }
        assert_eq!(rejected(s.step(seal(1, 3), false, 0), 1), RejectReason::UnknownGraph);
    }

    #[test]
    fn shutdown_drains_bye_closes_and_server_frames_are_fatal() {
        let mut s = greeted();
        assert!(matches!(s.step(Ok(Frame::Shutdown), false, 0), Action::Drain));
        assert!(matches!(s.step(Ok(Frame::Bye), false, 0), Action::Close(None)));
        let outcome = tss_proto::GraphOutcome::Cancelled { completed: 0, tasks: 1 };
        for frame in [
            Frame::HelloAck { version: VERSION },
            Frame::Accepted { graph: 1 },
            Frame::Reject { graph: 1, reason: RejectReason::Draining },
            Frame::Done { graph: 1, outcome },
            Frame::SessionError { kind: SessionErrorKind::Decode, detail: String::new() },
            Frame::ShutdownAck,
        ] {
            let (kind, detail) = fatal(greeted().step(Ok(frame), false, 0));
            assert_eq!(kind, SessionErrorKind::Protocol);
            assert_eq!(detail, "server-to-client frame from client");
        }
    }

    #[test]
    fn each_read_failure_closes_as_documented() {
        let io = |kind: io::ErrorKind| Err(WireError::Io(io::Error::from(kind)));
        assert!(matches!(greeted().step(Err(WireError::Closed), false, 0), Action::Close(None)));
        for gone in [io::ErrorKind::ConnectionReset, io::ErrorKind::BrokenPipe] {
            assert!(matches!(greeted().step(io(gone), false, 0), Action::Close(None)), "{gone}");
        }
        for silent in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            let (kind, detail) = fatal(greeted().step(io(silent), false, 0));
            assert_eq!(
                (kind, detail.as_str()),
                (SessionErrorKind::Protocol, "session read timed out")
            );
        }
        let cut = fatal(greeted().step(io(io::ErrorKind::UnexpectedEof), false, 0));
        assert_eq!(cut, (SessionErrorKind::Decode, "stream truncated mid-frame".to_string()));
        let garbage = DecodeError::UnknownKind { kind: 0xEE };
        let (kind, detail) =
            fatal(greeted().step(Err(WireError::Decode(garbage.clone())), false, 0));
        assert_eq!((kind, detail), (SessionErrorKind::Decode, garbage.to_string()));
        // A failed read before `Hello` is no different.
        assert!(matches!(
            Session::new(3, 5).step(Err(WireError::Closed), false, 0),
            Action::Close(None)
        ));
    }
}
