//! Schedule records and the correctness validator.
//!
//! Every simulator in this workspace (hardware pipeline, software
//! runtime) emits one [`ScheduleRecord`] per executed task. The validator
//! checks the schedule against the [`DepGraph`] oracle:
//!
//! 1. every task executed exactly once, with `start ≤ end`;
//! 2. every *enforced* dependency respected (`pred.end ≤ succ.start`);
//! 3. no core runs two tasks at once.
//!
//! A parallel execution passing these checks is equivalent to the
//! sequential program per the dataflow-execution argument of Section III
//! (renamed WaR/WaW orderings are intentionally *not* required).

use crate::graph::DepGraph;
use crate::task::TaskId;
use std::collections::HashMap;
use tss_sim::Cycle;

/// When and where one task executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleRecord {
    /// The task (index in the trace).
    pub task: TaskId,
    /// Cycle execution began on the core.
    pub start: Cycle,
    /// Cycle execution finished.
    pub end: Cycle,
    /// Which worker core ran it.
    pub core: usize,
}

/// Why a schedule is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A task appears more than once.
    DuplicateTask(TaskId),
    /// A task never executed.
    MissingTask(TaskId),
    /// `end < start`.
    NegativeDuration(TaskId),
    /// An enforced dependency was violated.
    DependencyViolated {
        /// Producer task.
        from: TaskId,
        /// Consumer task that started too early.
        to: TaskId,
        /// Producer completion cycle.
        from_end: Cycle,
        /// Consumer start cycle.
        to_start: Cycle,
    },
    /// Two tasks overlapped on one core.
    CoreOverlap {
        /// The core in question.
        core: usize,
        /// First task.
        a: TaskId,
        /// Second (overlapping) task.
        b: TaskId,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::DuplicateTask(t) => write!(f, "task {t} executed more than once"),
            ScheduleError::MissingTask(t) => write!(f, "task {t} never executed"),
            ScheduleError::NegativeDuration(t) => write!(f, "task {t} ends before it starts"),
            ScheduleError::DependencyViolated { from, to, from_end, to_start } => write!(
                f,
                "dependency {from} -> {to} violated: producer ends at {from_end}, \
                 consumer starts at {to_start}"
            ),
            ScheduleError::CoreOverlap { core, a, b } => {
                write!(f, "tasks {a} and {b} overlap on core {core}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Validates `schedule` against the oracle `graph`.
///
/// # Errors
///
/// Returns the first [`ScheduleError`] found (checks run in the order
/// documented on the module).
pub fn validate_schedule(
    graph: &DepGraph,
    schedule: &[ScheduleRecord],
) -> Result<(), ScheduleError> {
    let n = graph.len();
    let mut by_task: Vec<Option<&ScheduleRecord>> = vec![None; n];
    for rec in schedule {
        if rec.task >= n {
            return Err(ScheduleError::MissingTask(rec.task)); // unknown id
        }
        if by_task[rec.task].is_some() {
            return Err(ScheduleError::DuplicateTask(rec.task));
        }
        if rec.end < rec.start {
            return Err(ScheduleError::NegativeDuration(rec.task));
        }
        by_task[rec.task] = Some(rec);
    }
    if let Some(t) = (0..n).find(|&t| by_task[t].is_none()) {
        return Err(ScheduleError::MissingTask(t));
    }

    for t in 0..n {
        let rec = by_task[t].expect("checked above");
        for &p in graph.preds(t) {
            let p = p as TaskId;
            let pr = by_task[p].expect("checked above");
            if pr.end > rec.start {
                return Err(ScheduleError::DependencyViolated {
                    from: p,
                    to: t,
                    from_end: pr.end,
                    to_start: rec.start,
                });
            }
        }
    }

    let mut per_core: HashMap<usize, Vec<&ScheduleRecord>> = HashMap::new();
    for rec in schedule {
        per_core.entry(rec.core).or_default().push(rec);
    }
    for (&core, recs) in per_core.iter_mut() {
        recs.sort_by_key(|r| (r.start, r.end));
        for w in recs.windows(2) {
            // Zero-length tasks may abut; strict overlap means the next
            // starts before the previous ends.
            if w[1].start < w[0].end {
                return Err(ScheduleError::CoreOverlap { core, a: w[0].task, b: w[1].task });
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepGraph;
    use crate::task::{OperandDesc, TaskDesc, TaskTrace};

    fn producer_consumer() -> DepGraph {
        let mut tr = TaskTrace::new("pc");
        let k = tr.add_kernel("k");
        tr.push(TaskDesc::new(k, 10, vec![OperandDesc::output(0xA, 64)]));
        tr.push(TaskDesc::new(k, 10, vec![OperandDesc::input(0xA, 64)]));
        DepGraph::from_trace(&tr)
    }

    #[test]
    fn valid_schedule_passes() {
        let g = producer_consumer();
        let s = vec![
            ScheduleRecord { task: 0, start: 0, end: 10, core: 0 },
            ScheduleRecord { task: 1, start: 10, end: 20, core: 0 },
        ];
        assert_eq!(validate_schedule(&g, &s), Ok(()));
    }

    #[test]
    fn dependency_violation_detected() {
        let g = producer_consumer();
        let s = vec![
            ScheduleRecord { task: 0, start: 0, end: 10, core: 0 },
            ScheduleRecord { task: 1, start: 5, end: 15, core: 1 },
        ];
        assert!(matches!(
            validate_schedule(&g, &s),
            Err(ScheduleError::DependencyViolated { from: 0, to: 1, .. })
        ));
    }

    #[test]
    fn missing_and_duplicate_tasks_detected() {
        let g = producer_consumer();
        let missing = vec![ScheduleRecord { task: 0, start: 0, end: 10, core: 0 }];
        assert_eq!(validate_schedule(&g, &missing), Err(ScheduleError::MissingTask(1)));

        let dup = vec![
            ScheduleRecord { task: 0, start: 0, end: 10, core: 0 },
            ScheduleRecord { task: 0, start: 20, end: 30, core: 0 },
            ScheduleRecord { task: 1, start: 10, end: 20, core: 1 },
        ];
        assert_eq!(validate_schedule(&g, &dup), Err(ScheduleError::DuplicateTask(0)));
    }

    fn independent_pair() -> DepGraph {
        let mut tr = TaskTrace::new("ii");
        let k = tr.add_kernel("k");
        tr.push(TaskDesc::new(k, 10, vec![OperandDesc::output(0xA, 64)]));
        tr.push(TaskDesc::new(k, 10, vec![OperandDesc::output(0xB, 64)]));
        DepGraph::from_trace(&tr)
    }

    #[test]
    fn core_overlap_detected() {
        let g = independent_pair();
        let s = vec![
            ScheduleRecord { task: 0, start: 0, end: 10, core: 3 },
            ScheduleRecord { task: 1, start: 9, end: 19, core: 3 },
        ];
        assert!(matches!(
            validate_schedule(&g, &s),
            Err(ScheduleError::CoreOverlap { core: 3, .. })
        ));
    }

    #[test]
    fn abutting_tasks_on_one_core_are_fine() {
        let g = producer_consumer();
        let s = vec![
            ScheduleRecord { task: 0, start: 0, end: 10, core: 0 },
            ScheduleRecord { task: 1, start: 10, end: 20, core: 0 },
        ];
        assert!(validate_schedule(&g, &s).is_ok());
    }

    #[test]
    fn negative_duration_detected() {
        let g = producer_consumer();
        let s = vec![
            ScheduleRecord { task: 0, start: 10, end: 5, core: 0 },
            ScheduleRecord { task: 1, start: 10, end: 20, core: 0 },
        ];
        assert_eq!(validate_schedule(&g, &s), Err(ScheduleError::NegativeDuration(0)));
    }

    #[test]
    fn renamed_waw_not_required() {
        // Two writers to the same object: renaming lets them run in any
        // order / in parallel.
        let mut tr = TaskTrace::new("ww");
        let k = tr.add_kernel("k");
        tr.push(TaskDesc::new(k, 10, vec![OperandDesc::output(0xA, 64)]));
        tr.push(TaskDesc::new(k, 10, vec![OperandDesc::output(0xA, 64)]));
        let g = DepGraph::from_trace(&tr);
        let s = vec![
            ScheduleRecord { task: 1, start: 0, end: 10, core: 0 },
            ScheduleRecord { task: 0, start: 0, end: 10, core: 1 },
        ];
        assert!(validate_schedule(&g, &s).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ScheduleError::DependencyViolated { from: 1, to: 2, from_end: 30, to_start: 20 };
        let s = e.to_string();
        assert!(s.contains("1 -> 2"));
        assert!(s.contains("30"));
    }
}
