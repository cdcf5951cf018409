//! Core task and operand types.
//!
//! A *task* is a dynamic instance of an annotated kernel function
//! (paper, Section I footnote 1). Its interactions with shared state are
//! fully exposed as operands: memory objects (base address + size) with
//! explicit directionality, or scalar values (inputs only) — Section
//! III.A.

use crate::operands::Operands;
use tss_sim::Cycle;

/// Maximum operands per task supported by the TRS inode layout: one main
/// block holds 4 operands, up to three indirect blocks hold 5 each
/// (paper, Figure 11). [`Operands`] holds every list to it.
pub const MAX_OPERANDS: usize = 19;

/// Index of a task within its [`TaskTrace`] (program/creation order).
pub type TaskId = usize;

/// Identifies a kernel function within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u16);

/// Operand directionality, as annotated in the programming model
/// (`input` / `output` / `inout` in StarSs pragmas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Read-only (`input`): a data consumer.
    In,
    /// Write-only (`output`): a data producer; renamable.
    Out,
    /// Read-write (`inout`): a true dependency; never renamed.
    InOut,
}

impl Direction {
    /// Whether the operand reads the object.
    pub fn reads(self) -> bool {
        matches!(self, Direction::In | Direction::InOut)
    }

    /// Whether the operand writes the object.
    pub fn writes(self) -> bool {
        matches!(self, Direction::Out | Direction::InOut)
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Direction::In => "in",
            Direction::Out => "out",
            Direction::InOut => "inout",
        })
    }
}

/// Operand type: a consecutive memory object or an immediate scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// A consecutive memory object, tracked for dependencies.
    Memory,
    /// An immediate value; never tracked (always ready).
    Scalar,
}

/// One task operand: the paper's *(type, base pointer, size,
/// directionality)* tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandDesc {
    /// Base address of the memory object (or an opaque id for scalars).
    pub addr: u64,
    /// Object size in bytes (scalar payload size for scalars).
    pub size: u32,
    /// Directionality annotation.
    pub dir: Direction,
    /// Memory object vs. immediate scalar.
    pub kind: OperandKind,
}

impl OperandDesc {
    /// A memory operand.
    pub fn memory(addr: u64, size: u32, dir: Direction) -> Self {
        OperandDesc { addr, size, dir, kind: OperandKind::Memory }
    }

    /// An input memory operand.
    pub fn input(addr: u64, size: u32) -> Self {
        Self::memory(addr, size, Direction::In)
    }

    /// An output memory operand.
    pub fn output(addr: u64, size: u32) -> Self {
        Self::memory(addr, size, Direction::Out)
    }

    /// An inout memory operand.
    pub fn inout(addr: u64, size: u32) -> Self {
        Self::memory(addr, size, Direction::InOut)
    }

    /// A scalar (immediate) operand; scalars are always inputs
    /// (Section III.A).
    pub const fn scalar(size: u32) -> Self {
        OperandDesc { addr: 0, size, dir: Direction::In, kind: OperandKind::Scalar }
    }

    /// Whether the programming model has an operand of this kind and
    /// direction: scalars are always inputs (Section III.A). The fields
    /// are public, so this is a rule of [`Operands`], not of this type.
    pub fn allows(kind: OperandKind, dir: Direction) -> bool {
        kind == OperandKind::Memory || dir == Direction::In
    }

    /// Whether this operand participates in dependency tracking.
    pub fn is_tracked(&self) -> bool {
        self.kind == OperandKind::Memory
    }
}

/// One task: a kernel instance with a measured runtime and its operands.
/// A 72-byte record that owns no heap while its operands fit inline
/// (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDesc {
    /// Which kernel this task executes.
    pub kernel: KernelId,
    /// Core-occupancy time when executed (trace-driven, like TaskSim).
    pub runtime: Cycle,
    /// The task's operands, in kernel-signature order.
    pub operands: Operands,
}

impl TaskDesc {
    /// Creates a task. `operands` is an array, a slice, a `Vec` or an
    /// already-built [`Operands`].
    ///
    /// # Panics
    ///
    /// Panics if `operands` exceeds [`MAX_OPERANDS`] (the TRS inode
    /// layout limit) or if a scalar operand is not an input.
    pub fn new(kernel: KernelId, runtime: Cycle, operands: impl Into<Operands>) -> Self {
        TaskDesc { kernel, runtime, operands: operands.into() }
    }

    /// Total bytes of memory operands (the "data size" of Table I).
    pub fn data_bytes(&self) -> u64 {
        self.operands.iter().filter(|o| o.is_tracked()).map(|o| o.size as u64).sum()
    }

    /// Number of memory (dependency-tracked) operands.
    pub fn memory_operand_count(&self) -> usize {
        self.operands.iter().filter(|o| o.is_tracked()).count()
    }
}

/// A sequential stream of tasks, as emitted by the task-generating
/// thread. Order is program order: the in-order decode requirement
/// (Section III.B) applies to this sequence.
#[derive(Debug, Clone, Default)]
pub struct TaskTrace {
    name: String,
    kernel_names: Vec<String>,
    tasks: Vec<TaskDesc>,
    /// Memoized dependency oracle: sweeps and repeated validations over
    /// one shared trace build the graph once. Cloning a trace shares the
    /// cached `Arc`; pushing a task invalidates it.
    graph_cache: std::sync::OnceLock<std::sync::Arc<crate::graph::DepGraph>>,
    /// Set by the first [`TaskTrace::check_order`] since the last push,
    /// which streams: the next one builds `graph_cache`.
    checked: std::sync::OnceLock<()>,
}

impl TaskTrace {
    /// An empty trace with a benchmark name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskTrace {
            name: name.into(),
            kernel_names: Vec::new(),
            tasks: Vec::new(),
            graph_cache: std::sync::OnceLock::new(),
            checked: std::sync::OnceLock::new(),
        }
    }

    /// The benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a kernel and returns its id.
    pub fn add_kernel(&mut self, name: impl Into<String>) -> KernelId {
        let id = KernelId(u16::try_from(self.kernel_names.len()).expect("too many kernels"));
        self.kernel_names.push(name.into());
        id
    }

    /// Name of a kernel.
    ///
    /// # Panics
    ///
    /// Panics if `k` was not issued by [`TaskTrace::add_kernel`].
    pub fn kernel_name(&self, k: KernelId) -> &str {
        &self.kernel_names[k.0 as usize]
    }

    /// Number of registered kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernel_names.len()
    }

    /// Appends a task (program order) and returns its id.
    pub fn push(&mut self, task: TaskDesc) -> TaskId {
        // Deps changed: drop the memoized graph, and count checks anew.
        self.graph_cache.take();
        self.checked.take();
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    /// Appends a batch of tasks (program order) — a `Tasks` frame off
    /// the wire. The first batch of an empty trace is adopted as is;
    /// later ones are one flat copy each, no per-task work.
    pub fn extend_tasks(&mut self, mut tasks: Vec<TaskDesc>) {
        // Deps changed: drop the memoized graph, and count checks anew.
        self.graph_cache.take();
        self.checked.take();
        if self.tasks.is_empty() {
            self.tasks = tasks;
        } else {
            self.tasks.append(&mut tasks);
        }
    }

    /// The memoized dependency oracle of this trace (built on first use
    /// by [`crate::graph::DepGraph::from_trace`]; shared by clones,
    /// invalidated by [`TaskTrace::push`]). For what needs the graph
    /// itself — the simulators' schedule checks, sweeps, poison cones:
    /// the build is paid once and every later use is an `Arc` clone. A
    /// completion order is checked through [`TaskTrace::check_order`],
    /// which builds this only for a trace checked more than once.
    pub fn dep_graph(&self) -> std::sync::Arc<crate::graph::DepGraph> {
        self.graph_cache
            .get_or_init(|| std::sync::Arc::new(crate::graph::DepGraph::from_trace(self)))
            .clone()
    }

    /// Checks a completion order against the enforced dependencies —
    /// the predicate of [`DepGraph::validate_order`](crate::graph::DepGraph::validate_order)
    /// — by one rule, with no knob (DESIGN.md §14.3). A trace with its
    /// memoized graph uses it. Otherwise the first check since the last
    /// push streams ([`crate::graph::check_order`]: the trace read once
    /// in program order, 4 bytes a task plus a table that grows with
    /// objects, nothing memoized), and every later one builds and
    /// memoizes the graph ([`TaskTrace::dep_graph`]) and checks against
    /// it. On the nine paper-scale traces the streamed check costs
    /// 48–55 ns a task, the build 263–334 and a check against the built
    /// graph 9 (one pinned CPU, DESIGN.md §14.3): a trace checked once —
    /// every served graph — never pays for the build, and one run again
    /// pays for it once. Sound from several threads at once: one caller
    /// streams, the others share one build.
    ///
    /// # Errors
    ///
    /// An [`OrderViolation`](crate::graph::OrderViolation): the same
    /// accept/reject decision and violation kind on either path. Of
    /// several inverted dependencies the streamed path names the first
    /// consumer in program order and, on its first failing operand, the
    /// producer that finished last; the graph path names the first
    /// consumer in completion order.
    pub fn check_order(&self, order: &[TaskId]) -> Result<(), crate::graph::OrderViolation> {
        if self.graph_cache.get().is_none() && self.checked.set(()).is_ok() {
            return crate::graph::check_order(self, order);
        }
        self.dep_graph().validate_order(order)
    }

    /// Convenience: create and append a task.
    pub fn push_task(
        &mut self,
        kernel: KernelId,
        runtime: Cycle,
        operands: impl Into<Operands>,
    ) -> TaskId {
        self.push(TaskDesc::new(kernel, runtime, operands))
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the trace has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Borrow a task by id.
    pub fn task(&self, id: TaskId) -> &TaskDesc {
        &self.tasks[id]
    }

    /// Iterates tasks in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, TaskDesc> {
        self.tasks.iter()
    }

    /// All tasks as a slice.
    pub fn tasks(&self) -> &[TaskDesc] {
        &self.tasks
    }

    /// Sum of all task runtimes: the sequential execution time that
    /// speedups are measured against (Figure 16).
    pub fn total_runtime(&self) -> Cycle {
        self.tasks.iter().map(|t| t.runtime).sum()
    }

    /// Mean memory-operand bytes per task (Table I "Data Sz. Avg").
    pub fn avg_data_bytes(&self) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.tasks.iter().map(|t| t.data_bytes()).sum::<u64>() as f64 / self.tasks.len() as f64
    }

    /// Minimum task runtime (Table I "Runtime Min"), if non-empty.
    pub fn min_runtime(&self) -> Option<Cycle> {
        self.tasks.iter().map(|t| t.runtime).min()
    }

    /// Median task runtime (Table I "Runtime Med"), if non-empty.
    pub fn median_runtime(&self) -> Option<Cycle> {
        if self.tasks.is_empty() {
            return None;
        }
        let mut rts: Vec<Cycle> = self.tasks.iter().map(|t| t.runtime).collect();
        rts.sort_unstable();
        Some(rts[rts.len() / 2])
    }

    /// Mean task runtime (Table I "Runtime Avg"); 0 if empty.
    pub fn avg_runtime(&self) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.total_runtime() as f64 / self.tasks.len() as f64
    }

    /// The Section-II decode-rate target `R = T/P` in cycles/task for a
    /// `processors`-way CMP, where `T` is the *shortest* task runtime —
    /// "the target decode rate is ... the runtime of the shortest tasks"
    /// (the paper's Table I "Decode Rate" column uses exactly this).
    ///
    /// Returns `None` for an empty trace.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0`.
    pub fn decode_rate_limit(&self, processors: usize) -> Option<f64> {
        assert!(processors > 0, "a CMP needs at least one processor");
        self.min_runtime().map(|t| t as f64 / processors as f64)
    }
}

impl<'a> IntoIterator for &'a TaskTrace {
    type Item = &'a TaskDesc;
    type IntoIter = std::slice::Iter<'a, TaskDesc>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_sim::us_to_cycles;

    #[test]
    fn direction_read_write_flags() {
        assert!(Direction::In.reads() && !Direction::In.writes());
        assert!(!Direction::Out.reads() && Direction::Out.writes());
        assert!(Direction::InOut.reads() && Direction::InOut.writes());
    }

    #[test]
    fn operand_constructors() {
        let o = OperandDesc::input(0x1000, 512);
        assert_eq!(o.dir, Direction::In);
        assert!(o.is_tracked());
        let s = OperandDesc::scalar(8);
        assert!(!s.is_tracked());
        assert_eq!(s.dir, Direction::In);
    }

    #[test]
    #[should_panic(expected = "at most 19")]
    fn too_many_operands_rejected() {
        let ops = vec![OperandDesc::input(0, 64); 20];
        let _ = TaskDesc::new(KernelId(0), 100, ops);
    }

    #[test]
    #[should_panic(expected = "scalar operands can only be inputs")]
    fn scalar_output_rejected() {
        let mut s = OperandDesc::scalar(8);
        s.dir = Direction::Out;
        let _ = TaskDesc::new(KernelId(0), 100, vec![s]);
    }

    #[test]
    fn data_bytes_excludes_scalars() {
        let t = TaskDesc::new(
            KernelId(0),
            10,
            vec![
                OperandDesc::input(0x0, 1000),
                OperandDesc::scalar(8),
                OperandDesc::output(0x1000, 24),
            ],
        );
        assert_eq!(t.data_bytes(), 1024);
        assert_eq!(t.memory_operand_count(), 2);
    }

    #[test]
    fn trace_stats() {
        let mut tr = TaskTrace::new("test");
        let k = tr.add_kernel("k");
        tr.push_task(k, 100, vec![OperandDesc::output(0, 64)]);
        tr.push_task(k, 300, vec![OperandDesc::input(0, 64)]);
        tr.push_task(k, 200, vec![OperandDesc::inout(0, 128)]);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.total_runtime(), 600);
        assert_eq!(tr.min_runtime(), Some(100));
        assert_eq!(tr.median_runtime(), Some(200));
        assert!((tr.avg_runtime() - 200.0).abs() < 1e-12);
        assert!((tr.avg_data_bytes() - (64.0 + 64.0 + 128.0) / 3.0).abs() < 1e-12);
        assert_eq!(tr.kernel_name(k), "k");
    }

    #[test]
    fn the_first_check_streams_the_second_builds_the_graph_and_later_ones_use_it() {
        use crate::graph::OrderViolation::ProducerAfterConsumer as Inverted;
        let mut tr = TaskTrace::new("two-pairs");
        let k = tr.add_kernel("k");
        tr.push_task(k, 1, vec![OperandDesc::output(0xA0, 64)]);
        tr.push_task(k, 1, vec![OperandDesc::input(0xA0, 64)]);
        tr.push_task(k, 1, vec![OperandDesc::output(0xB0, 64)]);
        tr.push_task(k, 1, vec![OperandDesc::input(0xB0, 64)]);
        // Both dependencies inverted. The streamed path meets 0→1 first
        // (program order), the graph path 2→3 (completion order): which
        // one is named tells the two paths apart.
        let streamed = Err(Inverted { producer: 0, consumer: 1 });
        let by_graph = Err(Inverted { producer: 2, consumer: 3 });
        let backwards = [3, 2, 1, 0];
        assert_eq!(tr.check_order(&backwards), streamed);
        assert!(tr.graph_cache.get().is_none(), "the first check must not memoize");
        assert_eq!(tr.check_order(&backwards), by_graph);
        let graph = tr.graph_cache.get().cloned().expect("the second check memoizes");
        assert_eq!(tr.check_order(&backwards), by_graph);
        assert!(std::sync::Arc::ptr_eq(&graph, &tr.dep_graph()), "the third reuses it");
        // A push starts the count over. Of two first checks at once, one
        // wins the count and streams, the other builds the graph.
        tr.push_task(k, 1, vec![]);
        let backwards = [3, 2, 1, 0, 4];
        let both = std::sync::Barrier::new(2);
        let verdicts = std::thread::scope(|s| {
            let check = || {
                both.wait();
                tr.check_order(&backwards)
            };
            let checks = [(); 2].map(|()| s.spawn(check));
            checks.map(|c| c.join().expect("check panicked"))
        });
        assert!(verdicts.contains(&streamed) && verdicts.contains(&by_graph), "{verdicts:?}");
        // A graph that is there is used, first check or not.
        tr.push_task(k, 1, vec![]);
        tr.dep_graph();
        assert_eq!(tr.check_order(&[3, 2, 1, 0, 4, 5]), by_graph);
    }

    /// The check every served graph gets — a fresh trace's first, the
    /// streamed one — refuses each doctored log: an inverted RaW, an
    /// inverted InoutAnti (an inout before the reader of the version it
    /// overwrites, Figure 9), a log short of a task and a padded one.
    #[test]
    fn a_fresh_traces_first_check_refuses_every_doctored_log() {
        use crate::graph::OrderViolation::*;
        for (order, violation) in [
            (&[1, 0, 2][..], ProducerAfterConsumer { producer: 0, consumer: 1 }),
            (&[0, 2, 1], ProducerAfterConsumer { producer: 1, consumer: 2 }),
            (&[0, 1], MissingTask(2)),
            (&[0, 1, 0], DuplicateTask(0)),
        ] {
            let mut tr = TaskTrace::new("anti");
            let k = tr.add_kernel("k");
            tr.push_task(k, 1, vec![OperandDesc::output(0xA0, 64)]);
            tr.push_task(k, 1, vec![OperandDesc::input(0xA0, 64)]);
            tr.push_task(k, 1, vec![OperandDesc::inout(0xA0, 64)]);
            assert_eq!(tr.check_order(order), Err(violation), "{order:?}");
            assert!(tr.graph_cache.get().is_none(), "{order:?}: checked through a graph");
        }
    }

    #[test]
    fn decode_rate_limit_matches_table_one() {
        // MatMul: min runtime 23 us; for 256 processors Table I reports
        // 90 ns/task.
        let mut tr = TaskTrace::new("MatMul");
        let k = tr.add_kernel("sgemm");
        tr.push_task(k, us_to_cycles(23.0), vec![]);
        let limit_cycles = tr.decode_rate_limit(256).unwrap();
        let limit_ns = tss_sim::cycles_to_ns(limit_cycles as u64);
        assert!((limit_ns - 90.0).abs() < 1.0, "{limit_ns} ns");
    }

    #[test]
    fn empty_trace_stats_are_none_or_zero() {
        let tr = TaskTrace::new("empty");
        assert!(tr.is_empty());
        assert_eq!(tr.min_runtime(), None);
        assert_eq!(tr.median_runtime(), None);
        assert_eq!(tr.avg_runtime(), 0.0);
        assert_eq!(tr.decode_rate_limit(256), None);
    }
}
