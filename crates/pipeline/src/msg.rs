//! The asynchronous point-to-point protocol (paper, Figures 6–9), plus
//! the backend messages (ready queue / cores) and the software-runtime
//! decoder messages, so every simulator in the workspace shares one
//! message type.

use crate::ids::{OperandRef, TaskRef, VersionRef};
use tss_trace::{Direction, TaskId};

/// Which of an inout operand's two required readies a `DataReady`
/// message satisfies (paper, Figure 9: "the operand needs to receive two
/// data ready messages").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyKind {
    /// The input data is in place (producer finished, or data already in
    /// memory).
    Input,
    /// The output buffer is free (previous version drained, or a fresh
    /// rename buffer was allocated).
    Output,
}

/// All messages exchanged between simulation components.
#[derive(Debug, Clone)]
pub enum Msg {
    // ------------------------------------------------------------------
    // Task-generating thread <-> gateway
    // ------------------------------------------------------------------
    /// The generating thread wrote one packed task into the gateway's
    /// incoming buffer.
    SubmitTask {
        /// Index in the shared trace.
        trace_id: TaskId,
    },
    /// Gateway -> generator: buffer space freed; submit more.
    GatewayCredit {
        /// Bytes now free in the incoming buffer.
        free_bytes: u64,
    },
    /// Self-message: the generating thread finished packing its next task.
    GeneratorTick,

    // ------------------------------------------------------------------
    // Gateway internals
    // ------------------------------------------------------------------
    /// Self-message: process the next buffered task / pending work.
    GatewayWork,

    // ------------------------------------------------------------------
    // Gateway <-> TRS (allocation, Figure 6)
    // ------------------------------------------------------------------
    /// "alloc task with N operands" — includes the gateway-buffer address
    /// so the reply avoids an associative lookup (Section IV.B.1).
    AllocTask {
        /// Trace task to allocate.
        trace_id: TaskId,
        /// Number of operands (determines block count).
        operand_count: u8,
        /// Gateway-internal buffer address, echoed in the reply.
        gw_buf: u32,
    },
    /// "use slot S" or a rejection when the TRS is out of blocks.
    AllocReply {
        /// The allocated task id, if space was available.
        task: Option<TaskRef>,
        /// Echoed trace id.
        trace_id: TaskId,
        /// Echoed gateway buffer address.
        gw_buf: u32,
        /// Which TRS answered.
        trs: u8,
    },
    /// TRS -> gateway: blocks were freed; the TRS can take allocations
    /// again.
    TrsHasSpace {
        /// Which TRS has space.
        trs: u8,
    },

    // ------------------------------------------------------------------
    // Gateway -> ORT (operand distribution)
    // ------------------------------------------------------------------
    /// Decode one memory operand (Figures 7–9).
    DecodeOperand {
        /// The operand's id.
        op: OperandRef,
        /// Base address of the memory object.
        addr: u64,
        /// Object size in bytes.
        size: u32,
        /// Directionality.
        dir: Direction,
    },
    /// Self-message: ORT/OVT pair processes the next queued packet.
    OrtWork,
    /// ORT -> gateway: the module blocked (full set / OVT exhausted);
    /// stop issuing new tasks.
    OrtStalled {
        /// Which ORT stalled.
        ort: u8,
    },
    /// ORT -> gateway: unblocked.
    OrtResumed {
        /// Which ORT resumed.
        ort: u8,
    },

    // ------------------------------------------------------------------
    // Gateway -> TRS (scalars bypass the ORTs)
    // ------------------------------------------------------------------
    /// A scalar operand: no dependency tracking, immediately ready.
    ScalarOperand {
        /// The operand's id.
        op: OperandRef,
    },

    // ------------------------------------------------------------------
    // ORT -> TRS
    // ------------------------------------------------------------------
    /// Basic operand information: "operand `<1,17,0>` is 512B `[@283]`";
    /// carries the data producer to register with, if any.
    OperandInfo {
        /// The operand this describes.
        op: OperandRef,
        /// Object size in bytes.
        size: u32,
        /// Previous user of the object (consumer-chaining target); `None`
        /// when the object has no in-flight user.
        producer: Option<OperandRef>,
        /// The version this operand uses (for release on task finish).
        version: VersionRef,
        /// How many `DataReady`s this operand needs (1, or 2 for inout).
        readies_needed: u8,
    },

    // ------------------------------------------------------------------
    // OVT/TRS -> TRS (data readiness)
    // ------------------------------------------------------------------
    /// "data ready for `<op>` @buffer".
    DataReady {
        /// The operand that becomes (half-)ready.
        op: OperandRef,
        /// Where the data lives (rename buffer or original address).
        buffer: u64,
        /// Input-side or output-side readiness.
        kind: ReadyKind,
    },

    // ------------------------------------------------------------------
    // TRS <-> TRS (consumer chaining, Figures 8 and 10)
    // ------------------------------------------------------------------
    /// "register consumer of `<producer op>`".
    RegisterConsumer {
        /// The operand whose data is consumed (chain predecessor).
        producer: OperandRef,
        /// The consuming operand to notify.
        consumer: OperandRef,
    },

    // ------------------------------------------------------------------
    // TRS -> OVT (on task finish)
    // ------------------------------------------------------------------
    /// Decrement the usage count of a version.
    ReleaseUse {
        /// The version one of the finished task's operands used.
        version: VersionRef,
    },

    // ------------------------------------------------------------------
    // TRS -> backend, backend -> TRS
    // ------------------------------------------------------------------
    /// All operands ready: push the task into the ready queue.
    TaskReady {
        /// In-flight id (so completion can be routed back).
        task: TaskRef,
        /// Trace id (for the runtime to look up).
        trace_id: TaskId,
    },
    /// A core finished executing the task.
    TaskFinished {
        /// The in-flight task that completed.
        task: TaskRef,
    },

    // ------------------------------------------------------------------
    // Backend internals
    // ------------------------------------------------------------------
    /// Self-message: a core completes its current task.
    CoreDone {
        /// Which core.
        core: usize,
        /// In-flight id (meaningful for the hardware pipeline).
        task: Option<TaskRef>,
        /// Trace id.
        trace_id: TaskId,
    },

    // ------------------------------------------------------------------
    // Software-runtime decoder (tss-runtime)
    // ------------------------------------------------------------------
    /// Self-message: the software decoder finished decoding one task.
    SoftDecoded {
        /// Trace id of the decoded task.
        trace_id: TaskId,
    },
    /// Backend -> software decoder: a task finished on a core.
    SoftTaskFinished {
        /// Trace id of the finished task.
        trace_id: TaskId,
    },
}
