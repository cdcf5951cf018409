//! `tss-client`: a blocking client for the `tss-server` gateway
//! (DESIGN.md §14), plus the seeded wire-chaos machinery the loadgen
//! and the server's chaos suite share (DESIGN.md §14.5).
//!
//! The client is deliberately dumb: one thread, one socket, explicit
//! frame-level operations. Graph submission pipelines (a quota's worth
//! of graphs can be in flight), so `Done` frames for earlier graphs
//! may interleave with the `Accepted`/`Reject` answer to a later seal;
//! [`Client::submit`] and [`Client::wait_done`] park stray outcomes in
//! a pending map instead of losing them.
//!
//! Both directions are buffered (DESIGN.md §14.1). [`Client::send`]
//! encodes into a write buffer, and only `OpenGraph` and `Tasks` wait
//! there: every other frame flushes it, as does reaching 64 KiB, any
//! read, [`Client::send_raw`], [`Client::shutdown_write`] and drop. The
//! server answers neither of those two frames unless it refuses one,
//! so no reply can be owed for a frame still in the buffer, and a small
//! graph leaves in one `write`. Replies are read through a buffer, so
//! each costs at most one `read`, and none when it arrived with the
//! one before.

#![forbid(unsafe_code)]

pub mod chaos;

use std::collections::HashMap;
use std::io;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use tss_proto::{
    encode_frame_into, graph_frames, read_frame, Frame, GraphOutcome, RejectReason,
    SessionErrorKind, WireError, VERSION,
};
use tss_trace::TaskTrace;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, close).
    Wire(WireError),
    /// The server closed the session with a structured error frame.
    SessionError {
        /// What class of error the server reported.
        kind: SessionErrorKind,
        /// The server's human-readable detail.
        detail: String,
    },
    /// The server answered with a frame the protocol does not allow
    /// at this point (a server bug, or a non-TSS peer).
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "transport error: {e}"),
            ClientError::SessionError { kind, detail } => {
                write!(f, "server closed the session ({kind:?}): {detail}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected server frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Wire(WireError::Io(e))
    }
}

/// How the server answered a sealed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// Admitted and queued; a `Done` frame will follow eventually.
    Accepted,
    /// Refused; the graph was discarded server-side.
    Rejected(RejectReason),
}

/// Queued bytes at which `send` writes without waiting for a frame that
/// owes a reply: a paper-scale Cholesky graph (1.5 MB) leaves in 21
/// writes of about this size instead of being held whole.
const WRITE_BUFFER: usize = 64 << 10;

/// A connected, handshaken session.
pub struct Client {
    /// The write half; frames reach it through `out`.
    stream: TcpStream,
    /// Encoded frames not yet written (see the module doc).
    out: Vec<u8>,
    /// The read half, a clone of `stream`'s socket.
    reader: BufReader<TcpStream>,
    /// `Done` outcomes that arrived while waiting for something else.
    pending: HashMap<u64, GraphOutcome>,
}

impl Client {
    /// Connects and performs the `Hello`/`HelloAck` handshake.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client { stream, out: Vec::new(), reader, pending: HashMap::new() };
        client.send(&Frame::Hello { version: VERSION })?;
        match client.recv()? {
            Frame::HelloAck { .. } => Ok(client),
            other => Err(unexpected(&other)),
        }
    }

    /// Queues one frame, and writes the queue unless `frame` is an
    /// `OpenGraph` or `Tasks` under 64 KiB of queued bytes. A dead
    /// socket is therefore reported by the call that writes, which may
    /// be a later `send` or read than the one whose frame it lost.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        encode_frame_into(&mut self.out, frame);
        let unanswered = matches!(frame, Frame::OpenGraph { .. } | Frame::Tasks { .. });
        if !unanswered || self.out.len() >= WRITE_BUFFER {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every queued frame.
    fn flush(&mut self) -> Result<(), ClientError> {
        if self.out.is_empty() {
            return Ok(());
        }
        // After a failed write the stream position is unknown: nothing
        // queued may be written again.
        let wrote = self.stream.write_all(&self.out);
        self.out.clear();
        Ok(wrote?)
    }

    /// Writes the queued frames, then raw bytes (the chaos submitter's
    /// corruption path), so the bytes follow the frames sent before.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.flush()?;
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Writes the queued frames and reads the next frame, turning a
    /// `SessionError` into the structured [`ClientError::SessionError`].
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        self.flush()?;
        match read_frame(&mut self.reader)? {
            Frame::SessionError { kind, detail } => Err(ClientError::SessionError { kind, detail }),
            frame => Ok(frame),
        }
    }

    /// Writes the queued frames, then shuts down the write half so the
    /// server sees EOF while this side can still read (the truncation
    /// chaos shape).
    pub fn shutdown_write(&mut self) -> Result<(), ClientError> {
        self.flush()?;
        self.stream.shutdown(std::net::Shutdown::Write)?;
        Ok(())
    }

    /// Streams a whole graph (`OpenGraph` → `Tasks`* → `Seal`), which
    /// leaves in one `write` unless it passes 64 KiB, and waits for the
    /// admission answer, parking any interleaved `Done` frames for
    /// earlier graphs.
    pub fn submit(
        &mut self,
        graph: u64,
        deadline_ms: u32,
        trace: &TaskTrace,
        chunk: usize,
    ) -> Result<Submission, ClientError> {
        for frame in graph_frames(graph, deadline_ms, trace, chunk) {
            self.send(&frame)?;
        }
        self.await_admission(graph)
    }

    /// Waits for the `Accepted`/`Reject` answer to `graph`'s seal,
    /// parking interleaved `Done` frames (used directly by submitters
    /// that wrote the frames themselves, e.g. the chaos slow path).
    pub fn await_admission(&mut self, graph: u64) -> Result<Submission, ClientError> {
        loop {
            match self.recv()? {
                Frame::Accepted { graph: g } if g == graph => return Ok(Submission::Accepted),
                Frame::Reject { graph: g, reason } if g == graph => {
                    return Ok(Submission::Rejected(reason))
                }
                Frame::Done { graph: g, outcome } => {
                    self.pending.insert(g, outcome);
                }
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Blocks until `graph`'s `Done` frame arrives (or was already
    /// parked), parking other graphs' outcomes on the way.
    pub fn wait_done(&mut self, graph: u64) -> Result<GraphOutcome, ClientError> {
        if let Some(outcome) = self.pending.remove(&graph) {
            return Ok(outcome);
        }
        loop {
            match self.recv()? {
                Frame::Done { graph: g, outcome } if g == graph => return Ok(outcome),
                Frame::Done { graph: g, outcome } => {
                    self.pending.insert(g, outcome);
                }
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    /// `Done` frames racing the ack are parked as usual.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Shutdown)?;
        loop {
            match self.recv()? {
                Frame::ShutdownAck => return Ok(()),
                Frame::Done { graph, outcome } => {
                    self.pending.insert(graph, outcome);
                }
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Clean close: best-effort `Bye`, then drop the socket.
    pub fn bye(mut self) {
        let _ = self.send(&Frame::Bye);
    }
}

impl Drop for Client {
    /// Best-effort: frames of a graph left unsealed still reach the
    /// server, which drops the open graph with the session.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn unexpected(frame: &Frame) -> ClientError {
    ClientError::Unexpected(format!("{frame:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn one_read_takes_every_reply_that_has_arrived() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            assert!(matches!(read_frame(&mut s), Ok(Frame::Hello { .. })));
            // The handshake answer and two replies in one segment.
            let mut bytes = Vec::new();
            for f in [
                Frame::HelloAck { version: VERSION },
                Frame::Accepted { graph: 1 },
                Frame::Done { graph: 1, outcome: GraphOutcome::Failed { detail: "x".into() } },
            ] {
                encode_frame_into(&mut bytes, &f);
            }
            s.write_all(&bytes).expect("replies");
            s
        });
        let mut client = Client::connect(addr).expect("connect");
        let _peer = peer.join().expect("peer thread");
        // The read that brought `HelloAck` took the other two frames
        // with it: the socket has nothing left to read.
        client.stream.set_nonblocking(true).expect("nonblocking");
        let left = client.stream.peek(&mut [0u8; 1]);
        client.stream.set_nonblocking(false).expect("blocking");
        assert_eq!(left.expect_err("nothing left").kind(), io::ErrorKind::WouldBlock);
        assert_eq!(client.await_admission(1).expect("accepted"), Submission::Accepted);
        assert!(matches!(client.wait_done(1), Ok(GraphOutcome::Failed { .. })));
    }
}
