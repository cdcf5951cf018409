//! Standalone probes: one layer's public functions timed on their own,
//! on the workload's graphs, for the per-layer figures the closed
//! loops cannot separate from outside. Each probe repeats until its
//! share of the run's time is spent and reports the median repetition.
//! Machinery probes (wire, renamer, deques, prebuilt replay, oracle)
//! run without a payload, so they read the same on `payload_mixed` as
//! on `replay_large`; the payload probe measures the payload alone.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tss_exec::executor::check_order;
use tss_exec::payload::{build_arena, PayloadScratch};
use tss_exec::{
    CancelToken, ChaseLev, ExecConfig, Executor, FailurePolicy, PayloadMode, RenameStats, Renamer,
    StreamingRenamer, TaskGraphBuilder,
};
use tss_proto::{
    decode_frame_bytes, encode_frame, graph_frames, AssemblerLimits, Frame, GraphAssembler,
};
use tss_trace::TaskTrace;

use crate::drive::Check;
use crate::spans::Tracer;
use crate::spec::{CHUNK, EXEC_THREADS};
use crate::stats::median;

/// Calls `rep` until `budget` is spent (at least once).
fn repeat(budget: Duration, mut rep: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        rep();
        if t0.elapsed() >= budget {
            return;
        }
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn total_tasks(graphs: &[Arc<TaskTrace>]) -> f64 {
    graphs.iter().map(|g| g.len()).sum::<usize>() as f64
}

/// The executor configuration every in-process run uses.
pub fn exec_config(payload: PayloadMode, seed: u64) -> ExecConfig {
    ExecConfig { threads: EXEC_THREADS, payload, seed, ..ExecConfig::default() }
}

// ---------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
pub struct ProtoProbe {
    pub frames_ns_per_task: f64,
    pub encode_ns_per_task: f64,
    pub decode_ns_per_task: f64,
    pub assemble_ns_per_task: f64,
    pub bytes_per_task: f64,
    pub frames_per_graph: f64,
    /// Per graph: median decode + assemble time, microseconds — what
    /// the session thread must spend before it can answer `Accepted`.
    pub decode_assemble_us: Vec<f64>,
}

/// Replays a decoded frame sequence into the trace it carries.
fn assemble(frames: Vec<Frame>) -> Result<TaskTrace, String> {
    let mut asm: Option<GraphAssembler> = None;
    for f in frames {
        match f {
            Frame::OpenGraph { deadline_ms, name, kernels, .. } => {
                asm = Some(GraphAssembler::open(
                    &name,
                    &kernels,
                    deadline_ms,
                    AssemblerLimits::default(),
                ));
            }
            Frame::Tasks { tasks, .. } => asm
                .as_mut()
                .ok_or("Tasks before OpenGraph")?
                .push_tasks(tasks)
                .map_err(|e| e.to_string())?,
            Frame::Seal { tasks_total, .. } => {
                return asm
                    .take()
                    .ok_or("Seal before OpenGraph")?
                    .seal(tasks_total)
                    .map_err(|e| e.to_string());
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    Err("no Seal frame".into())
}

/// `graph_frames` → `encode_frame` → `decode_frame_bytes` →
/// `GraphAssembler`, each stage timed on its own; the first repetition
/// also checks that the bytes decode to the frames that were encoded
/// and that the assembled trace is the original.
pub fn proto(graphs: &[Arc<TaskTrace>], budget: Duration, check: &mut Check) -> ProtoProbe {
    let tasks = total_tasks(graphs);
    let (mut frames_ns, mut encode_ns, mut decode_ns, mut assemble_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut per_graph: Vec<Vec<f64>> = vec![Vec::new(); graphs.len()];
    let (mut bytes_total, mut frames_total) = (0usize, 0usize);
    let mut first = true;
    repeat(budget, || {
        let (mut f_ns, mut e_ns, mut d_ns, mut a_ns) = (0.0, 0.0, 0.0, 0.0);
        (bytes_total, frames_total) = (0, 0);
        for (g, trace) in graphs.iter().enumerate() {
            let t = Instant::now();
            let frames = graph_frames(g as u64, 0, trace, CHUNK);
            f_ns += ns(t.elapsed());

            let t = Instant::now();
            let wire: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
            e_ns += ns(t.elapsed());
            bytes_total += wire.iter().map(Vec::len).sum::<usize>();
            frames_total += frames.len();

            let t = Instant::now();
            let decoded: Result<Vec<Frame>, _> =
                wire.iter().map(|b| decode_frame_bytes(b).map(|(f, _)| f)).collect();
            let d = ns(t.elapsed());
            d_ns += d;
            let Ok(decoded) = decoded else {
                check.require(false, || format!("proto: {} frames do not decode", trace.name()));
                continue;
            };
            if first {
                check.require(decoded == frames, || {
                    format!(
                        "proto: decode(encode(frames)) differs from the frames of {}",
                        trace.name()
                    )
                });
            }

            let t = Instant::now();
            let back = assemble(black_box(decoded));
            let a = ns(t.elapsed());
            a_ns += a;
            per_graph[g].push((d + a) / 1e3);
            if first {
                let same = back.as_ref().is_ok_and(|b| {
                    b.name() == trace.name()
                        && b.kernel_count() == trace.kernel_count()
                        && b.tasks() == trace.tasks()
                });
                check.require(same, || {
                    format!("proto: assembled trace differs from the original {}", trace.name())
                });
            }
            black_box(back.is_ok());
        }
        first = false;
        frames_ns.push(f_ns / tasks);
        encode_ns.push(e_ns / tasks);
        decode_ns.push(d_ns / tasks);
        assemble_ns.push(a_ns / tasks);
    });
    ProtoProbe {
        frames_ns_per_task: median(&frames_ns),
        encode_ns_per_task: median(&encode_ns),
        decode_ns_per_task: median(&decode_ns),
        assemble_ns_per_task: median(&assemble_ns),
        bytes_per_task: bytes_total as f64 / tasks,
        frames_per_graph: frames_total as f64 / graphs.len() as f64,
        decode_assemble_us: per_graph.iter().map(|v| median(v)).collect(),
    }
}

// ---------------------------------------------------------------------
// Renamer
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
pub struct RenamerProbe {
    pub decode_ns_per_task: f64,
    pub stream_decode_ns_per_task: f64,
    /// Summed over the graphs; exact for a seed.
    pub stats: RenameStats,
}

/// `Renamer::decode` and `StreamingRenamer::decode_graph`, which must
/// produce the same graph.
pub fn renamer(graphs: &[Arc<TaskTrace>], budget: Duration, check: &mut Check) -> RenamerProbe {
    let tasks = total_tasks(graphs);
    let (mut oneshot_ns, mut stream_ns) = (Vec::new(), Vec::new());
    let mut stats = RenameStats::default();
    let mut first = true;
    repeat(budget, || {
        let (mut o_ns, mut s_ns) = (0.0, 0.0);
        for trace in graphs {
            let t = Instant::now();
            let oneshot = Renamer::new().decode(trace);
            o_ns += ns(t.elapsed());
            let t = Instant::now();
            let streamed = StreamingRenamer::new().decode_graph(trace);
            s_ns += ns(t.elapsed());
            if first {
                check.require(oneshot == streamed, || {
                    format!("renamer: streamed graph of {} differs from one-shot", trace.name())
                });
                let s = oneshot.stats();
                stats.objects += s.objects;
                stats.tracked_operands += s.tracked_operands;
                stats.enforced_edges += s.enforced_edges;
                stats.removed_by_renaming += s.removed_by_renaming;
            }
            black_box((oneshot.len(), streamed.len()));
        }
        first = false;
        oneshot_ns.push(o_ns / tasks);
        stream_ns.push(s_ns / tasks);
    });
    RenamerProbe {
        decode_ns_per_task: median(&oneshot_ns),
        stream_decode_ns_per_task: median(&stream_ns),
        stats,
    }
}

// ---------------------------------------------------------------------
// Deques
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
pub struct DequeProbe {
    pub push_pop_ns_per_op: f64,
    pub steal_ns_per_op: f64,
    pub steal_batch_ns_per_item: f64,
}

/// Uncontended `ChaseLev` operation costs from one thread: the floor
/// every ready task pays (push + pop) and every migrated task pays
/// (steal), independent of the workload's graphs.
pub fn deque(budget: Duration) -> DequeProbe {
    const N: u32 = 4096;
    let (mut push_pop, mut steal, mut batch) = (Vec::new(), Vec::new(), Vec::new());
    let q = ChaseLev::new();
    let dest = ChaseLev::new();
    repeat(budget, || {
        let t = Instant::now();
        for i in 0..N {
            q.push(black_box(i));
        }
        for _ in 0..N {
            black_box(q.pop());
        }
        push_pop.push(ns(t.elapsed()) / f64::from(2 * N));

        for i in 0..N {
            q.push(i);
        }
        let t = Instant::now();
        while let Some(v) = q.steal() {
            black_box(v);
        }
        steal.push(ns(t.elapsed()) / f64::from(N));

        for i in 0..N {
            q.push(i);
        }
        let t = Instant::now();
        while let Some(v) = q.steal_batch_into(&dest, 32) {
            black_box(v);
            while let Some(v) = dest.pop() {
                black_box(v);
            }
        }
        batch.push(ns(t.elapsed()) / f64::from(N));
    });
    DequeProbe {
        push_pop_ns_per_op: median(&push_pop),
        steal_ns_per_op: median(&steal),
        steal_batch_ns_per_item: median(&batch),
    }
}

// ---------------------------------------------------------------------
// Payload
// ---------------------------------------------------------------------

/// The payload alone, run serially through `PayloadScratch` over an
/// evenly strided sample of the graphs' tasks: nanoseconds per task.
pub fn payload(graphs: &[Arc<TaskTrace>], mode: PayloadMode, budget: Duration) -> f64 {
    const SAMPLE: usize = 2048;
    let all: Vec<&tss_trace::TaskDesc> = graphs.iter().flat_map(|g| g.iter()).collect();
    let stride = all.len().div_ceil(SAMPLE).max(1);
    let sample: Vec<&tss_trace::TaskDesc> = all.into_iter().step_by(stride).collect();
    let arena = build_arena();
    let mut scratch = PayloadScratch::new(&arena);
    let mut per_task = Vec::new();
    repeat(budget, || {
        let t = Instant::now();
        for task in &sample {
            black_box(scratch.run(mode, black_box(task)));
        }
        per_task.push(ns(t.elapsed()) / sample.len() as f64);
    });
    median(&per_task)
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// Per-run fixed cost: `Executor::run` on a one-task graph, in
/// microseconds — thread spawn/join, `Shared`, deques, decode shard.
/// `armed` uses the server's configuration (quarantine policy plus an
/// armed `CancelToken`, which also arms the watchdog thread).
pub fn exec_fixed(armed: bool, seed: u64, budget: Duration, check: &mut Check) -> f64 {
    let mut b = TaskGraphBuilder::new("one");
    let k = b.kernel("k");
    b.task(k).output(0x1000, 64).spawn();
    let trace = b.build();
    let mut cfg = exec_config(PayloadMode::Noop, seed);
    if armed {
        cfg.policy = FailurePolicy::Quarantine;
        cfg.cancel = Some(CancelToken::new());
    }
    let exec = Executor::new(cfg);
    let mut run_us = Vec::new();
    repeat(budget, || {
        let t = Instant::now();
        let r = exec.run(&trace);
        run_us.push(ns(t.elapsed()) / 1e3);
        check.attempt(r.is_ok_and(|r| r.validated && r.tasks == 1), || {
            format!("exec: one-task run (armed {armed}) failed")
        });
    });
    median(&run_us)
}

/// `Executor::replay` over graphs decoded once beforehand: the worker
/// loop, deques and release path without the renamer. Nanoseconds per
/// task.
pub fn replay_prebuilt(
    graphs: &[Arc<TaskTrace>],
    seed: u64,
    budget: Duration,
    check: &mut Check,
) -> f64 {
    let exec = Executor::new(exec_config(PayloadMode::Noop, seed));
    let decoded: Vec<_> = graphs.iter().map(|t| Renamer::new().decode(t)).collect();
    let tasks = total_tasks(graphs);
    let mut per_task = Vec::new();
    repeat(budget, || {
        let t = Instant::now();
        for (trace, graph) in graphs.iter().zip(&decoded) {
            let r = exec.replay(trace, graph, Duration::ZERO);
            check.attempt(
                r.is_ok_and(|r| r.validated && r.accounting_reconciles() && r.tasks == trace.len()),
                || format!("exec: prebuilt replay of {} failed", trace.name()),
            );
        }
        per_task.push(ns(t.elapsed()) / tasks);
    });
    median(&per_task)
}

/// `check_order` on a completion log, with the dependency oracle built
/// fresh each time — what every served graph pays, since the server
/// assembles a new trace per graph (an in-process caller that reuses
/// its trace pays for the oracle once). Nanoseconds per task.
pub fn validate(graphs: &[Arc<TaskTrace>], seed: u64, budget: Duration, check: &mut Check) -> f64 {
    let exec = Executor::new(exec_config(PayloadMode::Noop, seed));
    let orders: Vec<Vec<usize>> =
        graphs.iter().map(|t| exec.run(t).map(|r| r.order).unwrap_or_default()).collect();
    let tasks = total_tasks(graphs);
    let mut per_task = Vec::new();
    repeat(budget, || {
        let mut spent = 0.0;
        for (trace, order) in graphs.iter().zip(&orders) {
            // A rebuilt trace has no memoized oracle.
            let mut fresh = TaskTrace::new(trace.name());
            for k in 0..trace.kernel_count() {
                fresh.add_kernel(trace.kernel_name(tss_trace::KernelId(k as u16)));
            }
            for task in trace.iter() {
                fresh.push(task.clone());
            }
            let t = Instant::now();
            let ok = check_order(&fresh, order).is_ok();
            spent += ns(t.elapsed());
            check.attempt(ok, || {
                format!("exec: completion log of {} violates the oracle", trace.name())
            });
        }
        per_task.push(spent / tasks);
    });
    median(&per_task)
}

// ---------------------------------------------------------------------
// The benchmark's own cost
// ---------------------------------------------------------------------

/// Cost of one recorded span (an enter/exit pair), nanoseconds.
pub fn timer_ns_per_span() -> f64 {
    const N: u32 = 100_000;
    let mut tracer = Tracer::on(Instant::now(), 0);
    let t = Instant::now();
    for i in 0..N {
        let s = tracer.enter("probe", u64::from(i));
        tracer.exit(s);
    }
    let spent = ns(t.elapsed());
    black_box(tracer.finish().1.len());
    spent / f64::from(N)
}
