//! Chrome `trace_event` JSON export (DESIGN.md §12.4).
//!
//! Serializes drained [`ObsReport`]s into the JSON Array Format that
//! `chrome://tracing` and Perfetto open directly: one *process* per
//! benchmark run, one *thread* (track) per worker,
//! complete (`"ph":"X"`) events for slices and thread-scoped instants
//! (`"ph":"i"`) for edges. Retry and poison events carry reserved
//! Chrome color names (`bad` / `terrible`) so chaos runs read at a
//! glance. Timestamps are microseconds (the format's unit) with ns
//! precision kept in the fraction. No JSON library — the event grammar
//! is flat and every name is generated, so escaping never arises.

use crate::ring::EventKind;
use crate::ObsReport;
use std::fmt::Write as _;

/// One `ts`/`dur` value: ns rendered as fractional µs.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// The display name + category (+ optional color) for an event.
fn style(kind: EventKind, arg: u32) -> (String, &'static str, Option<&'static str>) {
    match kind {
        EventKind::Worker => ("worker".into(), "exec", None),
        EventKind::Burst => (format!("burst ({arg} tasks)"), "exec", None),
        EventKind::Task => (format!("task {arg}"), "task", None),
        EventKind::Park => ("park".into(), "idle", None),
        EventKind::Scan => (format!("scan w{arg}"), "decode", None),
        EventKind::Spawn => (format!("spawn {arg}"), "sched", None),
        EventKind::Steal => (format!("steal w{arg}"), "sched", None),
        EventKind::Wake => ("wake".into(), "sched", None),
        EventKind::Commit => (format!("commit w{arg}"), "decode", None),
        EventKind::Retry => (format!("retry {arg}"), "chaos", Some("bad")),
        EventKind::Poison => (format!("poison {arg}"), "chaos", Some("terrible")),
    }
}

/// Renders one or more runs (`(benchmark name, report)`) as a Chrome
/// trace_event JSON document. Each run becomes a process (pid = index
/// + 1) named after its benchmark; each track a thread within it.
pub fn chrome_trace(runs: &[(String, &ObsReport)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&body);
    };
    for (run_idx, (bench, report)) in runs.iter().enumerate() {
        let pid = run_idx + 1;
        // Benchmark names come from tss-workloads identifiers
        // ([a-z0-9_-]); keep the quote guard anyway.
        let pname: String = bench.chars().filter(|c| *c != '"' && *c != '\\').collect();
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            ),
        );
        for (track_idx, track) in report.tracks.iter().enumerate() {
            let tid = track_idx + 1;
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    track.name
                ),
            );
            for ev in &track.events {
                let (name, cat, cname) = style(ev.kind, ev.arg);
                let mut body = format!(
                    "{{\"ph\":\"{}\",\"name\":\"{name}\",\"cat\":\"{cat}\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{}",
                    if ev.dur_ns > 0 { 'X' } else { 'i' },
                    us(ev.start_ns),
                );
                if ev.dur_ns > 0 {
                    let _ = write!(body, ",\"dur\":{}", us(ev.dur_ns));
                } else {
                    body.push_str(",\"s\":\"t\"");
                }
                if let Some(c) = cname {
                    let _ = write!(body, ",\"cname\":\"{c}\"");
                }
                body.push('}');
                push(&mut out, body);
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Event;
    use crate::{Gauges, Histogram, Track};

    fn tiny_report() -> ObsReport {
        ObsReport {
            exec_latency: Histogram::new(),
            queue_wait: Histogram::new(),
            tracks: vec![Track {
                name: "worker-0".into(),
                events: vec![
                    Event { kind: EventKind::Burst, arg: 2, start_ns: 1_500, dur_ns: 2_000 },
                    Event { kind: EventKind::Retry, arg: 7, start_ns: 4_000, dur_ns: 0 },
                    Event { kind: EventKind::Poison, arg: 7, start_ns: 5_000, dur_ns: 0 },
                ],
                dropped: 0,
            }],
            gauges: Gauges::default(),
            role_cpu: crate::RoleCpu::default(),
            sample_every: crate::SAMPLE_EVERY,
        }
    }

    #[test]
    fn export_has_metadata_slices_instants_and_colors() {
        let r = tiny_report();
        let json = chrome_trace(&[("cholesky".into(), &r)]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"process_name\"") && json.contains("\"cholesky\""));
        assert!(json.contains("\"thread_name\"") && json.contains("\"worker-0\""));
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"dur\":2.000"));
        assert!(json.contains("\"ts\":1.500"), "ns kept as fractional µs");
        assert!(json.contains("\"cname\":\"bad\"") && json.contains("\"cname\":\"terrible\""));
        assert!(json.contains("\"s\":\"t\""), "instants are thread-scoped");
        // Structural sanity without a parser: balanced braces/brackets.
        let bal = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(bal('{', '}') && bal('[', ']'));
        assert!(!json.contains(",\n,"), "no empty array elements");
    }

    #[test]
    fn multiple_runs_get_distinct_pids() {
        let r = tiny_report();
        let json = chrome_trace(&[("a".into(), &r), ("b".into(), &r)]);
        assert!(json.contains("\"pid\":1") && json.contains("\"pid\":2"));
    }

    #[test]
    fn empty_input_is_still_valid() {
        let json = chrome_trace(&[]);
        assert!(json.contains("\"traceEvents\":[\n\n]"));
    }
}
