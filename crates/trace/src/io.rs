//! Plain-text trace serialization.
//!
//! A `TaskTrace` round-trips through a simple line-oriented format so
//! traces can be archived, diffed, and exchanged (the paper's workflow —
//! trace-driven simulation — lives and dies by reproducible traces):
//!
//! ```text
//! # task-superscalar trace v1
//! trace Cholesky
//! kernel 0 sgemm
//! task 0 102400 in:1000:16384 in:5000:16384 inout:9000:16384
//! task 0 52800 scalar:8 out:a000:4096
//! ```
//!
//! Addresses and sizes are hexadecimal/decimal as shown; one `task` line
//! per task in program order.

use crate::operands::OperandBuf;
use crate::task::{Direction, KernelId, OperandDesc, OperandKind, TaskDesc, TaskTrace};

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes a trace to the text format.
pub fn to_text(trace: &TaskTrace) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# task-superscalar trace v1\n");
    let _ = writeln!(out, "trace {}", trace.name());
    for k in 0..trace.kernel_count() {
        let _ = writeln!(out, "kernel {k} {}", trace.kernel_name(KernelId(k as u16)));
    }
    for t in trace.iter() {
        let _ = write!(out, "task {} {}", t.kernel.0, t.runtime);
        for o in &t.operands {
            match o.kind {
                OperandKind::Scalar => {
                    let _ = write!(out, " scalar:{}", o.size);
                }
                OperandKind::Memory => {
                    let _ = write!(out, " {}:{:x}:{}", o.dir, o.addr, o.size);
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parses a trace from the text format.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] naming the offending line for any
/// malformed input (unknown directive, bad kernel id, bad operand
/// syntax, too many operands, ...).
pub fn from_text(text: &str) -> Result<TaskTrace, ParseTraceError> {
    let err = |line: usize, message: String| ParseTraceError { line, message };
    let mut trace = TaskTrace::new("unnamed");
    let mut named = false;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        // Tolerant of hand-edited and foreign-platform files: leading /
        // trailing whitespace (including the `\r` of CRLF line endings,
        // which `lines()` leaves in place) never changes meaning.
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("trace") => {
                let name = parts.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return Err(err(lineno, "trace needs a name".into()));
                }
                if named {
                    return Err(err(
                        lineno,
                        format!(
                            "duplicate 'trace' directive: this trace is already named \
                             '{}' (a trace file declares exactly one header)",
                            trace.name()
                        ),
                    ));
                }
                if trace.kernel_count() > 0 || !trace.is_empty() {
                    return Err(err(lineno, "'trace' must be the first directive".into()));
                }
                let mut t = TaskTrace::new(name);
                std::mem::swap(&mut trace, &mut t);
                named = true;
            }
            Some("kernel") => {
                let idx: usize = parts
                    .next()
                    .ok_or_else(|| err(lineno, "kernel needs an index".into()))?
                    .parse()
                    .map_err(|e| err(lineno, format!("bad kernel index: {e}")))?;
                if idx != trace.kernel_count() {
                    return Err(err(lineno, format!("kernel {idx} out of order")));
                }
                let name = parts.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return Err(err(lineno, "kernel needs a name".into()));
                }
                trace.add_kernel(name);
            }
            Some("task") => {
                let kid: u16 = parts
                    .next()
                    .ok_or_else(|| err(lineno, "task needs a kernel id".into()))?
                    .parse()
                    .map_err(|e| err(lineno, format!("bad kernel id: {e}")))?;
                if (kid as usize) >= trace.kernel_count() {
                    return Err(err(lineno, format!("unknown kernel {kid}")));
                }
                let runtime: u64 = parts
                    .next()
                    .ok_or_else(|| err(lineno, "task needs a runtime".into()))?
                    .parse()
                    .map_err(|e| err(lineno, format!("bad runtime: {e}")))?;
                let mut operands = OperandBuf::new();
                for op in parts {
                    let fields: Vec<&str> = op.split(':').collect();
                    let operand = match fields.as_slice() {
                        ["scalar", size] => OperandDesc::scalar(
                            size.parse()
                                .map_err(|e| err(lineno, format!("bad scalar size: {e}")))?,
                        ),
                        [dir, addr, size] => {
                            let dir = match *dir {
                                "in" => Direction::In,
                                "out" => Direction::Out,
                                "inout" => Direction::InOut,
                                other => {
                                    return Err(err(lineno, format!("bad direction '{other}'")))
                                }
                            };
                            let addr = u64::from_str_radix(addr, 16)
                                .map_err(|e| err(lineno, format!("bad address: {e}")))?;
                            let size =
                                size.parse().map_err(|e| err(lineno, format!("bad size: {e}")))?;
                            OperandDesc::memory(addr, size, dir)
                        }
                        _ => return Err(err(lineno, format!("bad operand '{op}'"))),
                    };
                    operands.push(operand);
                }
                let operands = operands.finish().map_err(|e| err(lineno, e.to_string()))?;
                trace.push(TaskDesc::new(KernelId(kid), runtime, operands));
            }
            Some(other) => return Err(err(lineno, format!("unknown directive '{other}'"))),
            None => unreachable!("empty lines are skipped"),
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaskTrace {
        let mut tr = TaskTrace::new("sample trace");
        let a = tr.add_kernel("alpha");
        let b = tr.add_kernel("beta kernel");
        tr.push_task(a, 1000, vec![OperandDesc::output(0x1000, 512), OperandDesc::scalar(8)]);
        tr.push_task(
            b,
            2000,
            vec![OperandDesc::input(0x1000, 512), OperandDesc::inout(0x2000, 64)],
        );
        tr
    }

    #[test]
    fn round_trip_preserves_everything() {
        let tr = sample();
        let text = to_text(&tr);
        let back = from_text(&text).expect("parse");
        assert_eq!(back.name(), tr.name());
        assert_eq!(back.kernel_count(), 2);
        assert_eq!(back.kernel_name(KernelId(1)), "beta kernel");
        assert_eq!(back.tasks(), tr.tasks());
    }

    #[test]
    fn round_trip_a_generated_benchmark() {
        // Exercise every operand kind at scale.
        let mut tr = TaskTrace::new("gen");
        let k = tr.add_kernel("k");
        for i in 0..200u64 {
            tr.push_task(
                k,
                100 + i,
                vec![OperandDesc::input(0x1_0000 + i * 64, 64), OperandDesc::inout(0x9_0000, 128)],
            );
        }
        let back = from_text(&to_text(&tr)).expect("parse");
        assert_eq!(back.tasks(), tr.tasks());
        assert_eq!(back.total_runtime(), tr.total_runtime());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "# c\ntrace t\nkernel 0 k\ntask 0 nope in:10:64\n";
        let e = from_text(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("bad runtime"));
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = from_text("bogus 1 2\n").unwrap_err();
        assert!(e.message.contains("unknown directive"));
    }

    #[test]
    fn unknown_kernel_rejected() {
        let e = from_text("trace t\ntask 3 100\n").unwrap_err();
        assert!(e.message.contains("unknown kernel"));
    }

    #[test]
    fn bad_direction_rejected() {
        let e = from_text("trace t\nkernel 0 k\ntask 0 5 sideways:10:64\n").unwrap_err();
        assert!(e.message.contains("bad direction"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# hello\ntrace t\n\nkernel 0 k\n# mid\ntask 0 7\n";
        let tr = from_text(text).expect("parse");
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.task(0).runtime, 7);
    }

    #[test]
    fn trailing_whitespace_and_crlf_tolerated() {
        let text = "trace t  \r\nkernel 0 k\t\r\n\r\n   \ntask 0 7 in:10:64   \r\n";
        let tr = from_text(text).expect("CRLF + trailing whitespace must parse");
        assert_eq!(tr.name(), "t");
        assert_eq!(tr.kernel_name(KernelId(0)), "k");
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.task(0).operands[0], OperandDesc::input(0x10, 64));
    }

    #[test]
    fn duplicate_trace_header_rejected_with_a_clear_error() {
        let e = from_text("trace alpha\ntrace beta\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate 'trace'"), "{}", e.message);
        assert!(e.message.contains("alpha"), "names the existing trace: {}", e.message);
    }

    #[test]
    fn late_trace_header_still_rejected() {
        // A first-but-late header (after a kernel) is an ordering error,
        // not a duplicate.
        let e = from_text("kernel 0 k\ntrace t\n").unwrap_err();
        assert!(e.message.contains("first directive"), "{}", e.message);
    }
}
