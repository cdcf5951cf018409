//! Graph assembly: turning a validated `OpenGraph` → `Tasks`* → `Seal`
//! frame sequence back into a [`TaskTrace`], and the inverse chunking
//! helper clients use (DESIGN.md §14.1).
//!
//! The assembler owns the semantic checks the codec cannot do alone
//! (kernel ids against the declared table, cumulative task ceilings,
//! declared-vs-streamed count agreement), so by the time a trace
//! reaches the executor every invariant `tss-exec` assumes holds by
//! construction. All failures are structured [`AssembleError`]s that a
//! server maps onto [`RejectReason::Malformed`] /
//! [`RejectReason::TooLarge`] — never panics.

use crate::wire::{Frame, RejectReason};
use tss_trace::{TaskDesc, TaskTrace};

/// Server-side resource caps applied during assembly.
#[derive(Debug, Clone, Copy)]
pub struct AssemblerLimits {
    /// Per-graph task ceiling.
    pub max_tasks: u64,
}

impl Default for AssemblerLimits {
    fn default() -> Self {
        // 1M tasks pin 72 MB of task records (`size_of::<TaskDesc>()` =
        // 72, DESIGN.md §16) plus 16 B per operand of every task with
        // more than three — at most ~380 MB with every task at
        // `MAX_OPERANDS`, which takes 258 MB of wire to ask for: far
        // above any benchmark trace, low enough that one hostile graph
        // cannot take the host down.
        AssemblerLimits { max_tasks: 1 << 20 }
    }
}

/// Why a graph failed assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// A task referenced a kernel index past the declared table.
    KernelOutOfRange {
        /// Index of the offending task within the graph.
        task: u64,
        /// The out-of-range kernel id.
        kernel: u16,
        /// Declared kernel-table size.
        kernels: usize,
    },
    /// The graph grew past [`AssemblerLimits::max_tasks`].
    TooManyTasks {
        /// Tasks accumulated (including the offending batch).
        tasks: u64,
        /// The ceiling.
        limit: u64,
    },
    /// `Seal` declared a total that disagrees with what was streamed.
    CountMismatch {
        /// Declared total.
        declared: u64,
        /// Tasks actually streamed.
        streamed: u64,
    },
    /// `Seal` on a graph with zero tasks.
    EmptyGraph,
}

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssembleError::KernelOutOfRange { task, kernel, kernels } => {
                write!(f, "task {task} references kernel {kernel}, table has {kernels}")
            }
            AssembleError::TooManyTasks { tasks, limit } => {
                write!(f, "graph reached {tasks} tasks, limit {limit}")
            }
            AssembleError::CountMismatch { declared, streamed } => {
                write!(f, "seal declared {declared} tasks, {streamed} were streamed")
            }
            AssembleError::EmptyGraph => write!(f, "sealed graph has no tasks"),
        }
    }
}

impl std::error::Error for AssembleError {}

impl AssembleError {
    /// The reject a server answers this failure with.
    pub fn reject_reason(&self, limits: AssemblerLimits) -> RejectReason {
        match self {
            AssembleError::TooManyTasks { tasks, .. } => {
                RejectReason::TooLarge { tasks: *tasks, limit: limits.max_tasks }
            }
            other => RejectReason::Malformed { detail: other.to_string() },
        }
    }
}

/// Accumulates one open graph's streamed frames into a [`TaskTrace`].
#[derive(Debug)]
pub struct GraphAssembler {
    trace: TaskTrace,
    kernels: usize,
    tasks: u64,
    limits: AssemblerLimits,
    deadline_ms: u32,
}

impl GraphAssembler {
    /// Starts assembly from a validated `OpenGraph` frame's fields.
    pub fn open(name: &str, kernels: &[String], deadline_ms: u32, limits: AssemblerLimits) -> Self {
        let mut trace = TaskTrace::new(name);
        for k in kernels {
            trace.add_kernel(k.clone());
        }
        GraphAssembler { trace, kernels: kernels.len(), tasks: 0, limits, deadline_ms }
    }

    /// The graph's propagated completion deadline (0 = none).
    pub fn deadline_ms(&self) -> u32 {
        self.deadline_ms
    }

    /// Tasks streamed so far.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Appends one `Tasks` batch: its kernel ids are checked first, then
    /// the whole `Vec` goes into the trace at once. A refused batch
    /// appends nothing.
    pub fn push_tasks(&mut self, tasks: Vec<TaskDesc>) -> Result<(), AssembleError> {
        let grown = self.tasks + tasks.len() as u64;
        if grown > self.limits.max_tasks {
            return Err(AssembleError::TooManyTasks { tasks: grown, limit: self.limits.max_tasks });
        }
        if let Some(at) = tasks.iter().position(|t| t.kernel.0 as usize >= self.kernels) {
            return Err(AssembleError::KernelOutOfRange {
                task: self.tasks + at as u64,
                kernel: tasks[at].kernel.0,
                kernels: self.kernels,
            });
        }
        self.tasks = grown;
        self.trace.extend_tasks(tasks);
        Ok(())
    }

    /// Seals the graph: checks the declared total and yields the trace.
    pub fn seal(self, declared_total: u64) -> Result<TaskTrace, AssembleError> {
        if declared_total != self.tasks {
            return Err(AssembleError::CountMismatch {
                declared: declared_total,
                streamed: self.tasks,
            });
        }
        if self.tasks == 0 {
            return Err(AssembleError::EmptyGraph);
        }
        Ok(self.trace)
    }
}

/// Client-side inverse: chunks `trace` into the frame sequence that
/// reassembles it (`OpenGraph`, `Tasks` batches of `chunk`, `Seal`).
/// Each batch is one allocation plus one more per task whose operands
/// spill (DESIGN.md §16).
pub fn graph_frames(graph: u64, deadline_ms: u32, trace: &TaskTrace, chunk: usize) -> Vec<Frame> {
    let chunk = chunk.max(1);
    let kernels: Vec<String> = (0..trace.kernel_count())
        .map(|k| trace.kernel_name(tss_trace::KernelId(k as u16)).to_string())
        .collect();
    let mut frames =
        vec![Frame::OpenGraph { graph, deadline_ms, name: trace.name().to_string(), kernels }];
    for batch in trace.tasks().chunks(chunk) {
        frames.push(Frame::Tasks { graph, tasks: batch.to_vec() });
    }
    frames.push(Frame::Seal { graph, tasks_total: trace.len() as u64 });
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::KernelId;

    fn assemble(frames: &[Frame]) -> Result<TaskTrace, AssembleError> {
        let mut asm = None;
        for f in frames {
            match f {
                Frame::OpenGraph { deadline_ms, name, kernels, .. } => {
                    asm = Some(GraphAssembler::open(
                        name,
                        kernels,
                        *deadline_ms,
                        AssemblerLimits::default(),
                    ));
                }
                Frame::Tasks { tasks, .. } => {
                    asm.as_mut().expect("open first").push_tasks(tasks.clone())?
                }
                Frame::Seal { tasks_total, .. } => {
                    return asm.take().expect("open first").seal(*tasks_total)
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        panic!("no seal frame")
    }

    fn sample_trace() -> TaskTrace {
        let mut tr = TaskTrace::new("sample");
        let k = tr.add_kernel("k0");
        let j = tr.add_kernel("k1");
        for i in 0..10u64 {
            tr.push_task(k, 100 + i, vec![tss_trace::OperandDesc::output(i * 64, 64)]);
            tr.push_task(j, 200, vec![tss_trace::OperandDesc::input(i * 64, 64)]);
        }
        tr
    }

    #[test]
    fn chunked_frames_reassemble_the_trace() {
        let tr = sample_trace();
        for chunk in [1, 3, 7, 1000] {
            let frames = graph_frames(42, 0, &tr, chunk);
            let back = assemble(&frames).expect("assembles");
            assert_eq!(back.name(), tr.name());
            assert_eq!(back.kernel_count(), tr.kernel_count());
            assert_eq!(back.tasks(), tr.tasks());
        }
    }

    #[test]
    fn kernel_out_of_range_is_structured() {
        let mut asm = GraphAssembler::open("g", &["k".into()], 0, AssemblerLimits::default());
        let err =
            asm.push_tasks(vec![TaskDesc::new(KernelId(5), 1, vec![])]).expect_err("must reject");
        assert_eq!(err, AssembleError::KernelOutOfRange { task: 0, kernel: 5, kernels: 1 });
    }

    #[test]
    fn kernel_out_of_range_names_the_task_by_its_index_in_the_graph() {
        let mut asm = GraphAssembler::open("g", &["k".into()], 0, AssemblerLimits::default());
        let good = || TaskDesc::new(KernelId(0), 1, []);
        asm.push_tasks(vec![good(), good(), good()]).expect("a valid batch");
        let err = asm
            .push_tasks(vec![good(), TaskDesc::new(KernelId(9), 1, []), good()])
            .expect_err("must reject");
        assert_eq!(err, AssembleError::KernelOutOfRange { task: 4, kernel: 9, kernels: 1 });
        assert_eq!(asm.tasks(), 3, "a refused batch appends nothing");
    }

    #[test]
    fn count_mismatch_and_empty_graph_are_structured() {
        let asm = GraphAssembler::open("g", &["k".into()], 0, AssemblerLimits::default());
        let err = asm.seal(3).map(|_| ()).expect_err("mismatch must reject");
        assert_eq!(err, AssembleError::CountMismatch { declared: 3, streamed: 0 });
        let asm = GraphAssembler::open("g", &["k".into()], 0, AssemblerLimits::default());
        let err = asm.seal(0).map(|_| ()).expect_err("empty must reject");
        assert_eq!(err, AssembleError::EmptyGraph);
    }

    #[test]
    fn task_ceiling_is_enforced_cumulatively() {
        let limits = AssemblerLimits { max_tasks: 5 };
        let mut asm = GraphAssembler::open("g", &["k".into()], 0, limits);
        let batch: Vec<TaskDesc> = (0..3).map(|_| TaskDesc::new(KernelId(0), 1, vec![])).collect();
        asm.push_tasks(batch.clone()).expect("first batch fits");
        let err = asm.push_tasks(batch).expect_err("second batch must trip the ceiling");
        assert_eq!(err, AssembleError::TooManyTasks { tasks: 6, limit: 5 });
        assert!(matches!(err.reject_reason(limits), RejectReason::TooLarge { .. }));
    }
}
