//! Frame model and codec (DESIGN.md §14.1).
//!
//! Encoding is little-endian fixed-width throughout; strings are
//! `u16` length + UTF-8 bytes; operand flags pack direction (2 bits)
//! and kind (1 bit) into one byte. Decoding is a single forward pass
//! over a bounds-checked cursor: no recursion, no seeking, no
//! allocation sized by an unvalidated length field.

use crate::{MAGIC, MAX_FRAME, MAX_KERNELS, MAX_NAME};
use std::io::{Read, Write};
use tss_trace::{
    Direction, KernelId, OperandBuf, OperandDesc, OperandKind, OperandsError, TaskDesc,
    MAX_OPERANDS,
};

/// Why a server refused a graph (DESIGN.md §14.2). Every variant is a
/// protocol-level answer, not a transport failure: the session stays
/// usable after a reject (the peer may retry or move on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission control shed the graph: executor queue depth or the
    /// queued-task memory watermark tripped. Retry after the hint.
    Overloaded {
        /// Server's backoff hint, milliseconds.
        retry_after_ms: u32,
    },
    /// The session holds too many inflight (open + queued + running)
    /// graphs.
    QuotaExceeded {
        /// Graphs this session currently holds.
        inflight: u32,
        /// The per-session ceiling.
        quota: u32,
    },
    /// The graph broke a semantic rule (kernel id out of range, task
    /// count mismatch, ...). The offending graph is discarded.
    Malformed {
        /// Human-readable detail.
        detail: String,
    },
    /// The server is draining (DESIGN.md §14.4): no new admissions.
    Draining,
    /// The graph exceeds the per-graph task ceiling.
    TooLarge {
        /// Tasks the graph declared or accumulated.
        tasks: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// A `Tasks`/`Seal` frame referenced a graph id this session never
    /// opened (or already sealed).
    UnknownGraph,
    /// An `OpenGraph` reused a graph id that is still open.
    DuplicateGraph,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Overloaded { retry_after_ms } => {
                write!(f, "overloaded; retry after {retry_after_ms} ms")
            }
            RejectReason::QuotaExceeded { inflight, quota } => {
                write!(f, "quota exceeded ({inflight}/{quota} inflight graphs)")
            }
            RejectReason::Malformed { detail } => write!(f, "malformed graph: {detail}"),
            RejectReason::Draining => write!(f, "server is draining"),
            RejectReason::TooLarge { tasks, limit } => {
                write!(f, "graph too large ({tasks} tasks, limit {limit})")
            }
            RejectReason::UnknownGraph => write!(f, "unknown graph id"),
            RejectReason::DuplicateGraph => write!(f, "graph id already open"),
        }
    }
}

/// Terminal outcome of an *accepted* graph (DESIGN.md §14.4): every
/// accepted graph produces exactly one `Done` frame carrying one of
/// these, drain included — the no-silent-loss invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphOutcome {
    /// The graph drained. `failed`/`poisoned` report quarantined tasks
    /// (DESIGN.md §11); a fault-free run has both at 0.
    Completed {
        /// Tasks executed (incl. failed/poisoned).
        tasks: u64,
        /// Tasks whose payload failed terminally.
        failed: u32,
        /// Tasks poisoned by a failed producer.
        poisoned: u32,
        /// Executor wall time, microseconds.
        exec_wall_us: u64,
    },
    /// Cancelled by drain (or an explicit cancellation) before the
    /// graph drained.
    Cancelled {
        /// Tasks that had completed at the abort.
        completed: u64,
        /// Total tasks in the graph.
        tasks: u64,
    },
    /// The graph's propagated deadline expired mid-run.
    DeadlineExpired {
        /// Tasks that had completed at expiry.
        completed: u64,
        /// Total tasks in the graph.
        tasks: u64,
    },
    /// The run failed outright (fail-fast task failure, worker panic,
    /// oracle violation).
    Failed {
        /// Stringified `tss_exec::ExecError`-style cause.
        detail: String,
    },
}

impl GraphOutcome {
    /// Short machine-readable tag (used in reports and tests).
    pub fn tag(&self) -> &'static str {
        match self {
            GraphOutcome::Completed { .. } => "completed",
            GraphOutcome::Cancelled { .. } => "cancelled",
            GraphOutcome::DeadlineExpired { .. } => "deadline",
            GraphOutcome::Failed { .. } => "failed",
        }
    }
}

/// What kind of session-fatal error a [`Frame::SessionError`] reports.
/// After sending one the server closes the connection; framing can no
/// longer be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionErrorKind {
    /// The byte stream failed to decode (truncation, bad magic, ...).
    Decode,
    /// Frames decoded but broke the session state machine (e.g. a
    /// frame before `Hello`).
    Protocol,
    /// The server is closing the session as part of drain completion.
    Draining,
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake: magic + proposed version.
    Hello {
        /// Highest protocol version the client speaks.
        version: u16,
    },
    /// Server handshake answer: the version the session will use.
    HelloAck {
        /// Accepted protocol version.
        version: u16,
    },
    /// Opens a graph for streaming submission.
    OpenGraph {
        /// Client-chosen graph id, unique among this session's open
        /// graphs.
        graph: u64,
        /// Completion deadline propagated into the executor's run
        /// deadline (0 = none), milliseconds from admission.
        deadline_ms: u32,
        /// Graph (trace) name.
        name: String,
        /// Kernel name table; task frames reference it by index.
        kernels: Vec<String>,
    },
    /// Streams a batch of tasks into an open graph.
    Tasks {
        /// Target open graph.
        graph: u64,
        /// The batch, in program order.
        tasks: Vec<TaskDesc>,
    },
    /// Ends a graph's stream and requests admission.
    Seal {
        /// Target open graph.
        graph: u64,
        /// Declared total task count; must match what was streamed.
        tasks_total: u64,
    },
    /// Asks the server to drain and exit (DESIGN.md §14.4).
    Shutdown,
    /// Clean session close.
    Bye,
    /// The sealed graph was admitted and queued for execution.
    Accepted {
        /// The graph id echoed back.
        graph: u64,
    },
    /// The graph was refused; see [`RejectReason`].
    Reject {
        /// The graph id echoed back (0 for session-level rejects).
        graph: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Terminal report for an accepted graph.
    Done {
        /// The graph id echoed back.
        graph: u64,
        /// How it ended.
        outcome: GraphOutcome,
    },
    /// Session-fatal structured error; the server closes after this.
    SessionError {
        /// Failure class.
        kind: SessionErrorKind,
        /// Human-readable detail.
        detail: String,
    },
    /// Acknowledges a `Shutdown` frame; `Done` frames for inflight
    /// graphs follow before the close.
    ShutdownAck,
}

// Frame kind bytes. Client-originated kinds sit below 0x80.
const K_HELLO: u8 = 0x01;
const K_OPEN: u8 = 0x02;
const K_TASKS: u8 = 0x03;
const K_SEAL: u8 = 0x04;
const K_SHUTDOWN: u8 = 0x05;
const K_BYE: u8 = 0x06;
const K_HELLO_ACK: u8 = 0x81;
const K_ACCEPTED: u8 = 0x82;
const K_REJECT: u8 = 0x83;
const K_DONE: u8 = 0x84;
const K_SESSION_ERROR: u8 = 0x85;
const K_SHUTDOWN_ACK: u8 = 0x86;

/// A structured decode failure. Always an `Err`, never a panic: the
/// fuzz suite feeds this codec arbitrarily corrupted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// `Hello` carried the wrong magic — the peer is not speaking this
    /// protocol at all.
    BadMagic {
        /// What arrived instead of [`MAGIC`].
        got: u32,
    },
    /// The `len` prefix exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// The offending length.
        len: u32,
    },
    /// A frame with `len == 0` (no kind byte).
    EmptyFrame,
    /// Unknown frame kind byte.
    UnknownKind {
        /// The offending kind.
        kind: u8,
    },
    /// The body ended before a field did.
    Truncated {
        /// Which field was being read.
        field: &'static str,
        /// Bytes the field needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The body is longer than the frame's fields.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// A string field was not UTF-8.
    BadUtf8 {
        /// Which field.
        field: &'static str,
    },
    /// A name exceeded [`MAX_NAME`] or a kernel table [`MAX_KERNELS`].
    TooLong {
        /// Which field.
        field: &'static str,
        /// Declared length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// An enum discriminant byte was out of range.
    BadEnum {
        /// Which field.
        field: &'static str,
        /// The offending byte.
        got: u8,
    },
    /// A task declared more than [`MAX_OPERANDS`] operands (the TRS
    /// inode layout limit — `TaskDesc::new` would panic on this).
    TooManyOperands {
        /// Operand count declared.
        count: usize,
    },
    /// A scalar operand was not an input (`TaskDesc::new` would panic).
    ScalarNotInput,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic { got } => write!(f, "bad magic 0x{got:08x}"),
            DecodeError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            DecodeError::EmptyFrame => write!(f, "zero-length frame"),
            DecodeError::UnknownKind { kind } => write!(f, "unknown frame kind 0x{kind:02x}"),
            DecodeError::Truncated { field, need, have } => {
                write!(f, "truncated at {field}: need {need} bytes, have {have}")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
            DecodeError::BadUtf8 { field } => write!(f, "{field} is not UTF-8"),
            DecodeError::TooLong { field, len, max } => {
                write!(f, "{field} length {len} exceeds cap {max}")
            }
            DecodeError::BadEnum { field, got } => {
                write!(f, "bad {field} discriminant 0x{got:02x}")
            }
            DecodeError::TooManyOperands { count } => {
                write!(f, "task declares {count} operands; the TRS layout caps at {MAX_OPERANDS}")
            }
            DecodeError::ScalarNotInput => write!(f, "scalar operand is not an input"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<OperandsError> for DecodeError {
    fn from(e: OperandsError) -> Self {
        match e {
            OperandsError::TooMany { count } => DecodeError::TooManyOperands { count },
            OperandsError::ScalarNotInput => DecodeError::ScalarNotInput,
        }
    }
}

/// Transport-level failure reading a frame off a stream.
#[derive(Debug)]
pub enum WireError {
    /// Clean EOF on a frame boundary (the peer closed).
    Closed,
    /// The stream died mid-frame or the socket failed. An
    /// `UnexpectedEof` here *is* the truncated-frame signal.
    Io(std::io::Error),
    /// The bytes arrived but failed to decode.
    Decode(DecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_operand(out: &mut Vec<u8>, o: &OperandDesc) {
    let dir = match o.dir {
        Direction::In => 0u8,
        Direction::Out => 1,
        Direction::InOut => 2,
    };
    let kind = match o.kind {
        OperandKind::Memory => 0u8,
        OperandKind::Scalar => 1,
    };
    out.push(dir | (kind << 2));
    out.extend_from_slice(&o.addr.to_le_bytes());
    out.extend_from_slice(&o.size.to_le_bytes());
}

fn put_task(out: &mut Vec<u8>, t: &TaskDesc) {
    out.extend_from_slice(&t.kernel.0.to_le_bytes());
    out.extend_from_slice(&t.runtime.to_le_bytes());
    debug_assert!(t.operands.len() <= MAX_OPERANDS);
    out.push(t.operands.len() as u8);
    for o in &t.operands {
        put_operand(out, o);
    }
}

fn put_reject(out: &mut Vec<u8>, r: &RejectReason) {
    match r {
        RejectReason::Overloaded { retry_after_ms } => {
            out.push(0);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        RejectReason::QuotaExceeded { inflight, quota } => {
            out.push(1);
            out.extend_from_slice(&inflight.to_le_bytes());
            out.extend_from_slice(&quota.to_le_bytes());
        }
        RejectReason::Malformed { detail } => {
            out.push(2);
            put_str(out, detail);
        }
        RejectReason::Draining => out.push(3),
        RejectReason::TooLarge { tasks, limit } => {
            out.push(4);
            out.extend_from_slice(&tasks.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        RejectReason::UnknownGraph => out.push(5),
        RejectReason::DuplicateGraph => out.push(6),
    }
}

fn put_outcome(out: &mut Vec<u8>, o: &GraphOutcome) {
    match o {
        GraphOutcome::Completed { tasks, failed, poisoned, exec_wall_us } => {
            out.push(0);
            out.extend_from_slice(&tasks.to_le_bytes());
            out.extend_from_slice(&failed.to_le_bytes());
            out.extend_from_slice(&poisoned.to_le_bytes());
            out.extend_from_slice(&exec_wall_us.to_le_bytes());
        }
        GraphOutcome::Cancelled { completed, tasks } => {
            out.push(1);
            out.extend_from_slice(&completed.to_le_bytes());
            out.extend_from_slice(&tasks.to_le_bytes());
        }
        GraphOutcome::DeadlineExpired { completed, tasks } => {
            out.push(2);
            out.extend_from_slice(&completed.to_le_bytes());
            out.extend_from_slice(&tasks.to_le_bytes());
        }
        GraphOutcome::Failed { detail } => {
            out.push(3);
            put_str(out, detail);
        }
    }
}

/// Encodes `frame` as one length-prefixed wire frame.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, frame);
    out
}

/// Appends `frame` as one length-prefixed wire frame after whatever
/// `out` already holds, so a connection can gather several frames in
/// one buffer and send them with one `write`.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    // A `Tasks` frame is the only big one (~12 KB at the default batch)
    // and its size is known exactly: 4 length + 1 kind + 8 graph + 4
    // count, then 11 bytes per task and 13 per operand. Reserving it
    // replaces ~10 doublings of a small `Vec`.
    let exact = match frame {
        Frame::Tasks { tasks, .. } => {
            17 + tasks.iter().map(|t| 11 + 13 * t.operands.len()).sum::<usize>()
        }
        _ => 4,
    };
    out.reserve(exact);
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // length backpatched below
    match frame {
        Frame::Hello { version } => {
            out.push(K_HELLO);
            out.extend_from_slice(&MAGIC.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
        }
        Frame::HelloAck { version } => {
            out.push(K_HELLO_ACK);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Frame::OpenGraph { graph, deadline_ms, name, kernels } => {
            out.push(K_OPEN);
            out.extend_from_slice(&graph.to_le_bytes());
            out.extend_from_slice(&deadline_ms.to_le_bytes());
            put_str(out, name);
            debug_assert!(kernels.len() <= MAX_KERNELS);
            out.extend_from_slice(&(kernels.len() as u16).to_le_bytes());
            for k in kernels {
                put_str(out, k);
            }
        }
        Frame::Tasks { graph, tasks } => {
            out.push(K_TASKS);
            out.extend_from_slice(&graph.to_le_bytes());
            out.extend_from_slice(&(tasks.len() as u32).to_le_bytes());
            for t in tasks {
                put_task(out, t);
            }
        }
        Frame::Seal { graph, tasks_total } => {
            out.push(K_SEAL);
            out.extend_from_slice(&graph.to_le_bytes());
            out.extend_from_slice(&tasks_total.to_le_bytes());
        }
        Frame::Shutdown => out.push(K_SHUTDOWN),
        Frame::Bye => out.push(K_BYE),
        Frame::Accepted { graph } => {
            out.push(K_ACCEPTED);
            out.extend_from_slice(&graph.to_le_bytes());
        }
        Frame::Reject { graph, reason } => {
            out.push(K_REJECT);
            out.extend_from_slice(&graph.to_le_bytes());
            put_reject(out, reason);
        }
        Frame::Done { graph, outcome } => {
            out.push(K_DONE);
            out.extend_from_slice(&graph.to_le_bytes());
            put_outcome(out, outcome);
        }
        Frame::SessionError { kind, detail } => {
            out.push(K_SESSION_ERROR);
            out.push(match kind {
                SessionErrorKind::Decode => 0,
                SessionErrorKind::Protocol => 1,
                SessionErrorKind::Draining => 2,
            });
            put_str(out, detail);
        }
        Frame::ShutdownAck => out.push(K_SHUTDOWN_ACK),
    }
    debug_assert!(exact == 4 || out.len() - start == exact, "Tasks frame size formula is off");
    let len = (out.len() - start - 4) as u32;
    debug_assert!(len <= MAX_FRAME, "encoded frame exceeds MAX_FRAME");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked forward cursor over one frame body.
struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn bytes(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { field, need: n, have: self.remaining() });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        Ok(self.bytes(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, DecodeError> {
        let b = self.bytes(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        let b = self.bytes(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        let b = self.bytes(8, field)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self, field: &'static str, max: usize) -> Result<String, DecodeError> {
        let len = self.u16(field)? as usize;
        if len > max {
            return Err(DecodeError::TooLong { field, len, max });
        }
        let bytes = self.bytes(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8 { field })
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes { extra: self.remaining() });
        }
        Ok(())
    }
}

fn get_operand(c: &mut Cur<'_>) -> Result<OperandDesc, DecodeError> {
    let flags = c.u8("operand flags")?;
    let dir = match flags & 0b11 {
        0 => Direction::In,
        1 => Direction::Out,
        2 => Direction::InOut,
        _ => return Err(DecodeError::BadEnum { field: "operand direction", got: flags }),
    };
    let kind = match (flags >> 2) & 0b1 {
        0 => OperandKind::Memory,
        _ => OperandKind::Scalar,
    };
    if flags >> 3 != 0 {
        return Err(DecodeError::BadEnum { field: "operand flags", got: flags });
    }
    if !OperandDesc::allows(kind, dir) {
        return Err(DecodeError::ScalarNotInput);
    }
    let addr = c.u64("operand addr")?;
    let size = c.u32("operand size")?;
    Ok(OperandDesc { addr, size, dir, kind })
}

/// Decodes one task through `operands`, the frame's stack buffer: a
/// task whose operands fit inline costs no allocation (DESIGN.md §16).
fn get_task(c: &mut Cur<'_>, operands: &mut OperandBuf) -> Result<TaskDesc, DecodeError> {
    let kernel = KernelId(c.u16("task kernel")?);
    let runtime = c.u64("task runtime")?; // Cycle = u64 on the wire
    let nops = c.u8("operand count")? as usize;
    // `Operands` would refuse this count and a writing scalar by
    // itself; checking each where its byte is read reports the declared
    // count and names the first broken field of a doubly broken frame.
    if nops > MAX_OPERANDS {
        return Err(DecodeError::TooManyOperands { count: nops });
    }
    operands.clear();
    for _ in 0..nops {
        operands.push(get_operand(c)?);
    }
    Ok(TaskDesc { kernel, runtime, operands: operands.finish()? })
}

/// Decodes one frame from `kind` + `body` (the bytes after the length
/// prefix). The entire body must be consumed.
pub fn decode_frame(kind: u8, body: &[u8]) -> Result<Frame, DecodeError> {
    let mut c = Cur::new(body);
    let frame = match kind {
        K_HELLO => {
            let magic = c.u32("hello magic")?;
            if magic != MAGIC {
                return Err(DecodeError::BadMagic { got: magic });
            }
            Frame::Hello { version: c.u16("hello version")? }
        }
        K_HELLO_ACK => Frame::HelloAck { version: c.u16("helloack version")? },
        K_OPEN => {
            let graph = c.u64("open graph id")?;
            let deadline_ms = c.u32("open deadline")?;
            let name = c.str("graph name", MAX_NAME)?;
            let nkernels = c.u16("kernel count")? as usize;
            if nkernels > MAX_KERNELS {
                return Err(DecodeError::TooLong {
                    field: "kernel table",
                    len: nkernels,
                    max: MAX_KERNELS,
                });
            }
            // Worst-case valid kernel entry is 2 bytes (empty name);
            // cap the preallocation by what the body can actually hold.
            let mut kernels = Vec::with_capacity(nkernels.min(c.remaining() / 2 + 1));
            for _ in 0..nkernels {
                kernels.push(c.str("kernel name", MAX_NAME)?);
            }
            Frame::OpenGraph { graph, deadline_ms, name, kernels }
        }
        K_TASKS => {
            let graph = c.u64("tasks graph id")?;
            let count = c.u32("task count")? as usize;
            // Minimum encoded task is 11 bytes, so the body bounds the
            // reservation whatever `count` claims — at
            // `size_of::<TaskDesc>()` = 72 resident bytes per 11 wire
            // bytes, up to ~6.5x the frame (27 MB at `MAX_FRAME`).
            let mut tasks = Vec::with_capacity(count.min(c.remaining() / 11 + 1));
            let mut operands = OperandBuf::new();
            for _ in 0..count {
                tasks.push(get_task(&mut c, &mut operands)?);
            }
            Frame::Tasks { graph, tasks }
        }
        K_SEAL => {
            Frame::Seal { graph: c.u64("seal graph id")?, tasks_total: c.u64("seal task total")? }
        }
        K_SHUTDOWN => Frame::Shutdown,
        K_BYE => Frame::Bye,
        K_ACCEPTED => Frame::Accepted { graph: c.u64("accepted graph id")? },
        K_REJECT => {
            let graph = c.u64("reject graph id")?;
            let reason = match c.u8("reject reason")? {
                0 => RejectReason::Overloaded { retry_after_ms: c.u32("retry_after_ms")? },
                1 => RejectReason::QuotaExceeded {
                    inflight: c.u32("quota inflight")?,
                    quota: c.u32("quota limit")?,
                },
                2 => RejectReason::Malformed { detail: c.str("reject detail", MAX_NAME)? },
                3 => RejectReason::Draining,
                4 => RejectReason::TooLarge {
                    tasks: c.u64("toolarge tasks")?,
                    limit: c.u64("toolarge limit")?,
                },
                5 => RejectReason::UnknownGraph,
                6 => RejectReason::DuplicateGraph,
                got => return Err(DecodeError::BadEnum { field: "reject reason", got }),
            };
            Frame::Reject { graph, reason }
        }
        K_DONE => {
            let graph = c.u64("done graph id")?;
            let outcome = match c.u8("done outcome")? {
                0 => GraphOutcome::Completed {
                    tasks: c.u64("done tasks")?,
                    failed: c.u32("done failed")?,
                    poisoned: c.u32("done poisoned")?,
                    exec_wall_us: c.u64("done wall")?,
                },
                1 => GraphOutcome::Cancelled {
                    completed: c.u64("done completed")?,
                    tasks: c.u64("done tasks")?,
                },
                2 => GraphOutcome::DeadlineExpired {
                    completed: c.u64("done completed")?,
                    tasks: c.u64("done tasks")?,
                },
                3 => GraphOutcome::Failed { detail: c.str("done detail", MAX_NAME)? },
                got => return Err(DecodeError::BadEnum { field: "done outcome", got }),
            };
            Frame::Done { graph, outcome }
        }
        K_SESSION_ERROR => {
            let kind = match c.u8("session error kind")? {
                0 => SessionErrorKind::Decode,
                1 => SessionErrorKind::Protocol,
                2 => SessionErrorKind::Draining,
                got => return Err(DecodeError::BadEnum { field: "session error kind", got }),
            };
            Frame::SessionError { kind, detail: c.str("session error detail", MAX_NAME)? }
        }
        K_SHUTDOWN_ACK => Frame::ShutdownAck,
        kind => return Err(DecodeError::UnknownKind { kind }),
    };
    c.finish()?;
    Ok(frame)
}

/// Decodes one frame from a contiguous buffer holding `[len][kind][body]`.
/// Returns the frame and the bytes consumed. Used by tests/fuzzing; the
/// stream path is [`read_frame`].
pub fn decode_frame_bytes(buf: &[u8]) -> Result<(Frame, usize), DecodeError> {
    let mut c = Cur::new(buf);
    let len = c.u32("frame length")?;
    if len > MAX_FRAME {
        return Err(DecodeError::FrameTooLarge { len });
    }
    if len == 0 {
        return Err(DecodeError::EmptyFrame);
    }
    let body = c.bytes(len as usize, "frame body")?;
    let frame = decode_frame(body[0], &body[1..])?;
    Ok((frame, 4 + len as usize))
}

// ---------------------------------------------------------------------
// Stream transport
// ---------------------------------------------------------------------

/// Writes one frame. Callers must treat an `Err` as session-fatal (the
/// stream position is unknown) — and per the repo lint, must never
/// `.unwrap()` it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// Reads one frame. Distinguishes a clean close on a frame boundary
/// ([`WireError::Closed`]) from death mid-frame (`Io` with
/// `UnexpectedEof` — the truncated-frame signal) and from junk bytes
/// ([`WireError::Decode`]). Blocking behavior (and thus slow-loris
/// tolerance) is governed by the socket's read timeout, set by the
/// caller. It takes exactly one frame's bytes from `r` and holds none
/// back; buffering, if any, is `r`'s — the server and the client hand
/// it a `BufReader`, so the bytes of the next frame may already sit
/// there, read by the same system call as this one's.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut len_buf = [0u8; 4];
    // First byte by hand so a close *between* frames is `Closed`, not
    // a spurious truncation error.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(WireError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    len_buf[0] = first[0];
    r.read_exact(&mut len_buf[1..]).map_err(WireError::Io)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(WireError::Decode(DecodeError::FrameTooLarge { len }));
    }
    if len == 0 {
        return Err(WireError::Decode(DecodeError::EmptyFrame));
    }
    // Zero-filled, then read over: filling an uninitialised body through
    // `take(len).read_to_end` measured slower than the memset it saves.
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(WireError::Io)?;
    decode_frame(body[0], &body[1..]).map_err(WireError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = encode_frame(&f);
        let (back, used) = decode_frame_bytes(&bytes).expect("decode");
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
        // Appended after bytes already in the buffer (a frame held back
        // by a client's write buffer), the frame is the same bytes and
        // the prefix is untouched.
        let prefix = encode_frame(&Frame::Seal { graph: 3, tasks_total: 9 });
        let mut out = prefix.clone();
        encode_frame_into(&mut out, &f);
        assert_eq!(out[..prefix.len()], prefix[..]);
        assert_eq!(out[prefix.len()..], bytes[..]);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::Hello { version: 1 });
        roundtrip(Frame::HelloAck { version: 1 });
        roundtrip(Frame::OpenGraph {
            graph: 7,
            deadline_ms: 250,
            name: "cholesky".into(),
            kernels: vec!["potrf".into(), "trsm".into()],
        });
        roundtrip(Frame::Tasks {
            graph: 7,
            tasks: vec![
                TaskDesc::new(KernelId(0), 123, vec![]),
                TaskDesc::new(
                    KernelId(1),
                    9_999,
                    vec![
                        OperandDesc::input(0x1000, 64),
                        OperandDesc::output(0x2000, 128),
                        OperandDesc::inout(0x3000, 8),
                        OperandDesc::scalar(4),
                    ],
                ),
            ],
        });
        roundtrip(Frame::Seal { graph: 7, tasks_total: 2 });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Bye);
        roundtrip(Frame::Accepted { graph: 7 });
        for reason in [
            RejectReason::Overloaded { retry_after_ms: 120 },
            RejectReason::QuotaExceeded { inflight: 8, quota: 8 },
            RejectReason::Malformed { detail: "kernel 9 out of range".into() },
            RejectReason::Draining,
            RejectReason::TooLarge { tasks: 1 << 24, limit: 1 << 20 },
            RejectReason::UnknownGraph,
            RejectReason::DuplicateGraph,
        ] {
            roundtrip(Frame::Reject { graph: 7, reason });
        }
        for outcome in [
            GraphOutcome::Completed { tasks: 100, failed: 1, poisoned: 3, exec_wall_us: 4242 },
            GraphOutcome::Cancelled { completed: 10, tasks: 100 },
            GraphOutcome::DeadlineExpired { completed: 99, tasks: 100 },
            GraphOutcome::Failed { detail: "worker thread panicked".into() },
        ] {
            roundtrip(Frame::Done { graph: 7, outcome });
        }
        roundtrip(Frame::SessionError {
            kind: SessionErrorKind::Decode,
            detail: "truncated at task kernel".into(),
        });
        roundtrip(Frame::ShutdownAck);
    }

    #[test]
    fn every_operand_count_round_trips() {
        // 0..=19: inline, the inline/spill boundary, and the TRS limit.
        let operand = |i: usize| match i % 4 {
            0 => OperandDesc::input(0x1000 * i as u64, 64),
            1 => OperandDesc::output(0x1000 * i as u64, 128),
            2 => OperandDesc::inout(0x1000 * i as u64, 8),
            _ => OperandDesc::scalar(4),
        };
        let tasks: Vec<TaskDesc> = (0..=MAX_OPERANDS)
            .map(|n| {
                TaskDesc::new(KernelId(n as u16), n as u64, (0..n).map(operand).collect::<Vec<_>>())
            })
            .collect();
        for (n, t) in tasks.iter().enumerate() {
            assert_eq!(t.operands.len(), n);
            roundtrip(Frame::Tasks { graph: 1, tasks: vec![t.clone()] });
        }
        roundtrip(Frame::Tasks { graph: 1, tasks });
    }

    #[test]
    fn bad_magic_is_structured() {
        let mut bytes = encode_frame(&Frame::Hello { version: 1 });
        bytes[5] ^= 0xFF; // first magic byte
        match decode_frame_bytes(&bytes) {
            Err(DecodeError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let bytes = (MAX_FRAME + 1).to_le_bytes();
        match decode_frame_bytes(&bytes) {
            Err(DecodeError::FrameTooLarge { len }) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn huge_task_count_with_tiny_body_is_truncation_not_oom() {
        // A Tasks frame declaring u32::MAX tasks but carrying none:
        // the decoder must fail fast without allocating for the claim.
        let mut out = vec![0u8; 4];
        out.push(super::K_TASKS);
        out.extend_from_slice(&7u64.to_le_bytes());
        out.extend_from_slice(&u32::MAX.to_le_bytes());
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        match decode_frame_bytes(&out) {
            Err(DecodeError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn twenty_operands_is_a_structured_error() {
        let mut out = vec![0u8; 4];
        out.push(super::K_TASKS);
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // kernel
        out.extend_from_slice(&1u64.to_le_bytes()); // runtime
        out.push(20); // operand count over MAX_OPERANDS
        for _ in 0..20 {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
        }
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        match decode_frame_bytes(&out) {
            Err(DecodeError::TooManyOperands { count: 20 }) => {}
            other => panic!("expected TooManyOperands, got {other:?}"),
        }
    }

    #[test]
    fn scalar_output_is_a_structured_error() {
        let mut out = vec![0u8; 4];
        out.push(super::K_TASKS);
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&1u64.to_le_bytes());
        out.push(1);
        out.push(0b101); // scalar + Out: TaskDesc::new would panic
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&4u32.to_le_bytes());
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        match decode_frame_bytes(&out) {
            Err(DecodeError::ScalarNotInput) => {}
            other => panic!("expected ScalarNotInput, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_frame(&Frame::Bye);
        bytes.push(0xAA);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        match decode_frame_bytes(&bytes) {
            Err(DecodeError::TrailingBytes { extra: 1 }) => {}
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }

    #[test]
    fn stream_close_between_frames_is_closed_not_truncated() {
        let empty: &[u8] = &[];
        match read_frame(&mut std::io::Cursor::new(empty)) {
            Err(WireError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        let half = &encode_frame(&Frame::Shutdown)[..3];
        match read_frame(&mut std::io::Cursor::new(half)) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected mid-frame Io error, got {other:?}"),
        }
        // Cut inside the body, the length prefix intact: the same signal.
        let hello = encode_frame(&Frame::Hello { version: 1 });
        match read_frame(&mut std::io::Cursor::new(&hello[..hello.len() - 1])) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected mid-body Io error, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_takes_one_frame_from_a_buffered_stream() {
        let frames = [Frame::Hello { version: 1 }, Frame::Shutdown, Frame::Bye];
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        // One buffer fill holds all three frames; each read takes one.
        let mut r = std::io::BufReader::with_capacity(64 << 10, &bytes[..]);
        for f in &frames {
            assert_eq!(&read_frame(&mut r).expect("a whole frame"), f);
        }
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }
}
