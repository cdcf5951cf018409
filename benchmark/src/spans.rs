//! In-memory spans around the calls into each layer (the traced pass).
//!
//! A [`Tracer`] is per thread and either off — `enter`/`exit` do
//! nothing, which is the untraced pass — or on, recording one
//! [`Span`] per enter/exit pair: name, start, end, the span that was
//! open when it started, and the graph it belongs to. Spans stay in
//! memory until the run ends; then they are folded into per-name self
//! times and written as Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, times in nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same tracer) of the span this one is nested in.
    pub parent: Option<u32>,
    /// Graph id shared by every span of one request.
    pub graph: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: Option<Recording>,
}

#[derive(Debug)]
struct Recording {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    paused: bool,
}

impl Tracer {
    /// The untraced pass: records nothing, reads no clock.
    pub fn off() -> Tracer {
        Tracer { on: None }
    }

    /// A recording tracer for thread `tid`; all tracers of one run
    /// share `epoch`.
    pub fn on(epoch: Instant, tid: u32) -> Tracer {
        let rec = Recording { epoch, tid, spans: Vec::new(), open: Vec::new(), paused: false };
        Tracer { on: Some(rec) }
    }

    /// Traces iteration `i` of a loop only when `i` is odd, so that a
    /// traced loop interleaves traced and untraced iterations and
    /// [`overhead_pct`] can compare them. Call between iterations,
    /// with no span open. A tracer that is off stays off.
    pub fn alternate(&mut self, i: usize) {
        if let Some(r) = &mut self.on {
            debug_assert!(r.open.is_empty(), "alternate() with a span open");
            r.paused = i.is_multiple_of(2);
        }
    }

    /// Opens a span nested in whatever span is open on this thread.
    #[inline]
    pub fn enter(&mut self, name: &'static str, graph: u64) -> Open {
        let Some(r) = self.on.as_mut().filter(|r| !r.paused) else { return Open(None) };
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied();
        r.open.push(id);
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span { name, start_ns: now, end_ns: now, parent, graph });
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close in the
    /// reverse of the order they opened.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let (Some(r), Some(id)) = (&mut self.on, open.0) else { return };
        let now = r.epoch.elapsed().as_nanos() as u64;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        r.spans[id as usize].end_ns = now;
    }

    /// The recorded spans and this tracer's thread id (empty when off).
    pub fn finish(self) -> (u32, Vec<Span>) {
        match self.on {
            Some(r) => (r.tid, r.spans),
            None => (0, Vec::new()),
        }
    }
}

/// Tracing overhead in percent, from the iteration times of a loop
/// traced with [`Tracer::alternate`]: the median traced (odd)
/// iteration over the median untraced (even) one, minus one.
pub fn overhead_pct(iter_s: &[f64]) -> f64 {
    let pick = |parity| -> Vec<f64> {
        iter_s.iter().enumerate().filter(|(i, _)| i % 2 == parity).map(|(_, &t)| t).collect()
    };
    let (untraced, traced) = (crate::stats::median(&pick(0)), crate::stats::median(&pick(1)));
    if untraced > 0.0 && traced > 0.0 {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    }
}

/// Self time of every span of one thread: its duration minus the part
/// of it that its direct children cover. Children of one parent on one
/// thread never overlap each other, so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p as usize] += hi.saturating_sub(lo);
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Per-name totals over one or more threads' spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds spans into per-name counts, total time and self time.
pub fn totals_by_name(threads: &[(u32, Vec<Span>)]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (_, spans) in threads {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// Chrome `trace_event` JSON ("X" complete events, microseconds) for
/// `chrome://tracing` / Perfetto. One track per tracer thread.
pub fn chrome_json(threads: &[(u32, Vec<Span>)]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, spans) in threads {
        for (i, sp) in spans.iter().enumerate() {
            if !first {
                s.push(',');
            }
            first = false;
            let parent = sp.parent.map_or(String::from("null"), |p| p.to_string());
            s.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"graph\":{}}}}}",
                sp.name,
                tid,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                i,
                parent,
                sp.graph,
            ));
        }
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, graph: 7 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // graph [0,100) ⊃ write [0,30), wait [30,90) ⊃ inner [40,60)
        let spans = vec![
            span("graph", 0, 100, None),
            span("write", 0, 30, Some(0)),
            span("wait", 30, 90, Some(0)),
            span("inner", 40, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10, 30, 40, 20]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn totals_fold_threads_by_name() {
        let a = vec![span("g", 0, 10, None), span("w", 2, 6, Some(0))];
        let b = vec![span("g", 0, 20, None)];
        let t = totals_by_name(&[(0, a), (1, b)]);
        assert_eq!(t["g"], NameTotal { count: 2, total_ns: 30, self_ns: 26 });
        assert_eq!(t["w"], NameTotal { count: 1, total_ns: 4, self_ns: 4 });
    }

    #[test]
    fn tracer_records_nesting_and_off_records_nothing() {
        let mut t = Tracer::on(Instant::now(), 3);
        let g = t.enter("graph", 9);
        let w = t.enter("write", 9);
        t.exit(w);
        let r = t.enter("wait", 9);
        t.exit(r);
        t.exit(g);
        let (tid, spans) = t.finish();
        assert_eq!(tid, 3);
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.graph)).collect();
        assert_eq!(shape, vec![("graph", None, 9), ("write", Some(0), 9), ("wait", Some(0), 9)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        off.alternate(1);
        let o = off.enter("graph", 1);
        off.exit(o);
        assert!(off.finish().1.is_empty());
    }

    #[test]
    fn alternate_traces_odd_iterations_and_overhead_compares_the_two() {
        let mut t = Tracer::on(Instant::now(), 0);
        for i in 0..6 {
            t.alternate(i);
            let s = t.enter("iter", i as u64);
            t.exit(s);
        }
        let graphs: Vec<u64> = t.finish().1.iter().map(|s| s.graph).collect();
        assert_eq!(graphs, vec![1, 3, 5]);

        // Even iterations take 10, odd (traced) ones 11: 10% overhead.
        let iters = [10.0, 11.0, 10.0, 11.0, 10.0, 50.0, 10.0, 11.0];
        assert!((overhead_pct(&iters) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[10.0]), 0.0);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let spans = vec![span("graph", 1_000, 3_500, None), span("write", 1_000, 2_000, Some(0))];
        let json = chrome_json(&[(2, spans)]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains(
            "\"name\":\"graph\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1.000,\"dur\":2.500"
        ));
        assert!(json.contains("\"parent\":0,\"graph\":7"));
        crate::json::parse(&json).expect("chrome trace must be valid JSON");
    }
}
