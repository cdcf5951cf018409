//! `tss-proto`: the typed, versioned, length-prefixed wire protocol
//! for submitting task graphs to a `tss-server` gateway
//! (DESIGN.md §14.1).
//!
//! Design constraints, in order:
//!
//! 1. **Decode never panics and never hangs.** Every frame arrives
//!    from an untrusted peer. All parsing is bounds-checked through
//!    `wire::Cur`, every length field is capped *before* any
//!    allocation sizes off it, and the two operand rules (count,
//!    scalar directionality) are invariants of [`tss_trace::Operands`]
//!    whose fallible constructor the decoder goes through, so a
//!    hostile frame becomes a [`DecodeError`], never an abort. The
//!    fuzz suite (`tests/fuzz.rs`) pins this: arbitrary truncation or
//!    corruption of valid frames must yield `Err`, never a panic.
//! 2. **The graph IR is typed**, mirroring the ormdb compiled-query
//!    model (ROADMAP item 1): kernels are a declared table, operands
//!    carry the paper's *(type, base pointer, size, directionality)*
//!    tuple, and a graph streams as `OpenGraph` → `Tasks`* → `Seal`
//!    so a producer can submit into an open graph without holding the
//!    whole trace (the Pipeflow streaming-ingestion shape).
//! 3. **Every failure is a structured frame.** Servers answer broken
//!    input with [`Frame::SessionError`] / [`Frame::Reject`] carrying
//!    machine-readable reasons (`Overloaded{retry_after_ms}` included),
//!    so clients can distinguish "back off" from "your frame is junk".
//!
//! Frame layout: `[len: u32 LE][kind: u8][body]`, `len` covering kind
//! plus body and capped at [`MAX_FRAME`]. Only [`Frame::Hello`]
//! carries the magic, so a non-TSS peer is rejected on its first
//! frame with [`DecodeError::BadMagic`].

#![forbid(unsafe_code)]

pub mod graph;
pub mod wire;

pub use graph::{graph_frames, AssembleError, AssemblerLimits, GraphAssembler};
pub use wire::{
    decode_frame, decode_frame_bytes, encode_frame, encode_frame_into, read_frame, write_frame,
    DecodeError, Frame, GraphOutcome, RejectReason, SessionErrorKind, WireError,
};

/// Protocol magic, carried by `Hello` only: `"TSSP"` as LE bytes.
pub const MAGIC: u32 = u32::from_le_bytes(*b"TSSP");

/// Protocol version negotiated in `Hello`/`HelloAck`.
pub const VERSION: u16 = 1;

/// Hard ceiling on one frame's `len` field (kind + body). Anything
/// larger is rejected before any allocation: 4 MiB holds ~300k encoded
/// zero-operand tasks, far beyond the per-frame chunking clients use.
pub const MAX_FRAME: u32 = 4 << 20;

/// Byte cap for graph and kernel names.
pub const MAX_NAME: usize = 256;

/// Cap on kernels per graph (the wire carries kernel ids as `u16`).
pub const MAX_KERNELS: usize = u16::MAX as usize;
