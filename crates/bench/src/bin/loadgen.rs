//! Closed-loop load generator for the execution service (DESIGN.md
//! §14): N client threads each submit M graphs of one Table-I workload
//! against a running `serve` instance and collect per-graph completion
//! outcomes, writing `BENCH_serve.json` (throughput, p50/p99/p999
//! completion latency, rejects, shed counts).
//!
//! Two modes:
//!
//! - **Healthy** (default): submit, wait for `Done`, repeat. An
//!   `Overloaded` shed is honored — the client sleeps the server's
//!   `retry_after_ms` hint and resubmits, up to `--retry-max` times —
//!   so the artifact records how often backpressure actually bit.
//! - **Wire chaos** (`--chaos-seed N`): every `(client, graph)` pair's
//!   behaviour comes from the pure chaos plan (DESIGN.md §14.5) —
//!   slow-loris writers, truncated and corrupt frames, vanishing
//!   clients — and the outcome counts are exactly reproducible for a
//!   fixed seed, which is what the CI baseline gate pins.
//!
//! Flags: `--addr HOST:PORT` (required; `serve --port-file` emits it),
//! `--clients N`, `--graphs N` (per client), `--bench NAME`, `--scale
//! small|paper|large`, `--seed N`, `--chunk N` (tasks per frame),
//! `--deadline-ms N` (0 = none), `--retry-max N`, `--chaos-seed N`,
//! `--shutdown` (drain the server afterwards), `--json`, `--out PATH`.
//! Bad values and combinations exit 2 naming the offending flag.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tss_bench::cli::{fail, Flags, Parsed};
use tss_bench::hw_threads;
use tss_bench::json::{self, Fields};
use tss_bench::ratio;
use tss_client::chaos::{plan, run_graph, ChaosMode, ChaosOutcome};
use tss_client::{Client, Submission};
use tss_core::report::fmt_f;
use tss_core::Table;
use tss_obs::hist::Histogram;
use tss_proto::{GraphOutcome, RejectReason};
use tss_trace::TaskTrace;
use tss_workloads::{Benchmark, Scale};

struct Args {
    addr: SocketAddr,
    clients: u64,
    graphs: u64,
    bench: Benchmark,
    scale: Scale,
    seed: u64,
    chunk: usize,
    deadline_ms: u32,
    retry_max: u32,
    chaos_seed: Option<u64>,
    shutdown: bool,
    json: bool,
    out: String,
}

fn parse_args() -> Parsed<Args> {
    let mut addr: Option<String> = None;
    let mut out = Args {
        addr: "127.0.0.1:0".parse().expect("literal addr"),
        clients: 2,
        graphs: 8,
        bench: Benchmark::Cholesky,
        scale: Scale::Small,
        seed: 42,
        chunk: 256,
        deadline_ms: 0,
        retry_max: 8,
        chaos_seed: None,
        shutdown: false,
        json: false,
        out: "BENCH_serve.json".into(),
    };
    let mut retry_max_flag: Option<u32> = None;
    let mut flags = Flags::from_env(
        "loadgen --addr HOST:PORT [--clients N] [--graphs N] \
         [--bench NAME] [--scale small|paper|large] [--seed N] [--chunk N] \
         [--deadline-ms N] [--retry-max N] [--chaos-seed N] [--shutdown] \
         [--json] [--out PATH]",
    );
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => addr = Some(flags.value()?),
            "--clients" => out.clients = flags.positive()?,
            "--graphs" => out.graphs = flags.positive()?,
            "--bench" => {
                let v = flags.value()?;
                out.bench = Benchmark::parse(&v).ok_or_else(|| {
                    let menu: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
                    format!("unknown benchmark '{v}' ({})", menu.join("|"))
                })?;
            }
            "--scale" => out.scale = flags.scale()?,
            "--seed" => out.seed = flags.num()?,
            "--chunk" => out.chunk = flags.positive()?,
            "--deadline-ms" => out.deadline_ms = flags.num()?,
            "--retry-max" => retry_max_flag = Some(flags.positive()?),
            "--chaos-seed" => out.chaos_seed = Some(flags.num()?),
            "--shutdown" => out.shutdown = true,
            "--json" => out.json = true,
            "--out" => out.out = flags.value()?,
            _ => return Err(flags.unknown()),
        }
    }
    // Chaos outcomes are plan-determined; a resubmit loop underneath
    // them would make the "exact" baseline a lie.
    if retry_max_flag.is_some() && out.chaos_seed.is_some() {
        return Err(
            "--retry-max is the closed-loop resubmit bound; it does not apply with --chaos-seed"
                .into(),
        );
    }
    out.retry_max = retry_max_flag.unwrap_or(out.retry_max);
    let addr = addr.ok_or("--addr is required (serve --port-file emits it)")?;
    out.addr = addr.parse().map_err(|_| format!("--addr must be HOST:PORT, got '{addr}'"))?;
    Ok(out)
}

/// One client thread's tally. The chaos-mode counts (`slow_ok`,
/// `killed`, `vanished`) and the reject counts are exact for a fixed
/// chaos seed; latency and wall are the noisy part.
#[derive(Default)]
struct Row {
    graphs: u64,
    tasks: u64,
    completed: u64,
    slow_ok: u64,
    killed: u64,
    vanished: u64,
    cancelled: u64,
    deadline_expired: u64,
    failed: u64,
    rejected_overloaded: u64,
    rejected_quota: u64,
    rejected_malformed: u64,
    wall: Duration,
    latency: Histogram,
}

impl Row {
    fn tally_done(&mut self, outcome: &GraphOutcome, started: Instant) {
        match outcome {
            GraphOutcome::Completed { tasks, .. } => {
                self.completed += 1;
                self.tasks += tasks;
                self.latency.record(started.elapsed().as_nanos() as u64);
            }
            GraphOutcome::Cancelled { .. } => self.cancelled += 1,
            GraphOutcome::DeadlineExpired { .. } => self.deadline_expired += 1,
            GraphOutcome::Failed { .. } => self.failed += 1,
        }
    }
}

/// Healthy closed loop: submit, honor shed hints, wait for `Done`.
fn run_healthy(args: &Args, client_idx: u64, trace: &TaskTrace) -> Result<Row, String> {
    let mut row = Row::default();
    let mut client = Client::connect(args.addr)
        .map_err(|e| format!("client {client_idx}: connect {}: {e}", args.addr))?;
    for g in 0..args.graphs {
        let gid = client_idx * 1_000_000 + g;
        row.graphs += 1;
        let started = Instant::now();
        let mut attempts = 0u32;
        loop {
            let sub = client
                .submit(gid, args.deadline_ms, trace, args.chunk)
                .map_err(|e| format!("client {client_idx} graph {gid}: submit: {e}"))?;
            match sub {
                Submission::Accepted => break,
                Submission::Rejected(RejectReason::Overloaded { retry_after_ms }) => {
                    row.rejected_overloaded += 1;
                    attempts += 1;
                    if attempts >= args.retry_max {
                        return Err(format!(
                            "client {client_idx} graph {gid}: still shed after {attempts} \
                             submits (raise --retry-max or shrink the load)"
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                }
                Submission::Rejected(RejectReason::QuotaExceeded { .. }) => {
                    row.rejected_quota += 1;
                    attempts += 1;
                    if attempts >= args.retry_max {
                        return Err(format!(
                            "client {client_idx} graph {gid}: quota-rejected {attempts} times"
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Submission::Rejected(
                    r @ (RejectReason::Malformed { .. } | RejectReason::TooLarge { .. }),
                ) => {
                    row.rejected_malformed += 1;
                    return Err(format!("client {client_idx} graph {gid}: rejected: {r}"));
                }
                Submission::Rejected(r) => {
                    return Err(format!("client {client_idx} graph {gid}: rejected: {r}"));
                }
            }
        }
        let outcome = client
            .wait_done(gid)
            .map_err(|e| format!("client {client_idx} graph {gid}: wait_done: {e}"))?;
        row.tally_done(&outcome, started);
    }
    client.bye();
    Ok(row)
}

/// Wire-chaos loop: each pair's behaviour is the pure plan's call.
fn run_chaotic(args: &Args, client_idx: u64, trace: &TaskTrace) -> Result<Row, String> {
    let chaos_seed = args.chaos_seed.expect("chaos mode");
    let mut row = Row::default();
    let mut conn: Option<Client> = None;
    for g in 0..args.graphs {
        let mode = plan(chaos_seed, client_idx, g);
        let gid = client_idx * 1_000_000 + g;
        row.graphs += 1;
        let started = Instant::now();
        let out = run_graph(args.addr, &mut conn, mode, gid, args.deadline_ms, trace, args.chunk)
            .map_err(|e| format!("client {client_idx} graph {gid} ({}): {e}", mode.name()))?;
        match out {
            ChaosOutcome::Done(outcome) => {
                if matches!(mode, ChaosMode::Slow)
                    && matches!(outcome, GraphOutcome::Completed { .. })
                {
                    row.slow_ok += 1;
                }
                row.tally_done(&outcome, started);
            }
            ChaosOutcome::Rejected(RejectReason::Overloaded { .. }) => {
                row.rejected_overloaded += 1;
            }
            ChaosOutcome::Rejected(RejectReason::QuotaExceeded { .. }) => {
                row.rejected_quota += 1;
            }
            ChaosOutcome::Rejected(
                r @ (RejectReason::Malformed { .. } | RejectReason::TooLarge { .. }),
            ) => {
                row.rejected_malformed += 1;
                return Err(format!("client {client_idx} graph {gid}: rejected: {r}"));
            }
            ChaosOutcome::Rejected(r) => {
                return Err(format!("client {client_idx} graph {gid}: rejected: {r}"));
            }
            ChaosOutcome::SessionKilled => row.killed += 1,
            ChaosOutcome::Vanished => row.vanished += 1,
        }
    }
    if let Some(c) = conn {
        c.bye();
    }
    Ok(row)
}

/// Appends what a client row and `totals` share: the exact counts, the
/// completion-latency quantiles, and the (noisy) wall time and rate.
fn row_fields(fields: Fields, r: &Row) -> Fields {
    let wall = r.wall.as_secs_f64();
    fields
        .put("graphs", r.graphs)
        .put("tasks", r.tasks)
        .put("completed", r.completed)
        .put("slow_ok", r.slow_ok)
        .put("killed", r.killed)
        .put("vanished", r.vanished)
        .put("cancelled", r.cancelled)
        .put("deadline_expired", r.deadline_expired)
        .put("failed", r.failed)
        .put("rejected_overloaded", r.rejected_overloaded)
        .put("rejected_quota", r.rejected_quota)
        .put("rejected_malformed", r.rejected_malformed)
        .quantiles("latency", Some(&r.latency))
        .fixed("wall_ms", wall * 1e3, 3)
        .fixed("graphs_per_sec", ratio(r.completed as f64, wall), 1)
}

fn to_json(args: &Args, tasks_per_graph: usize, rows: &[Row]) -> String {
    let header = Fields::new()
        .text("schema", "tss-bench-serve/v1")
        .text("bench", args.bench.name())
        .text("scale", args.scale.name())
        .put("clients", args.clients)
        .put("graphs_per_client", args.graphs)
        .put("tasks_per_graph", tasks_per_graph)
        .put("chunk", args.chunk)
        .put("deadline_ms", args.deadline_ms)
        .put("seed", args.seed)
        .opt("chaos_seed", args.chaos_seed)
        .put("hw_threads", hw_threads());
    let mut total = Row::default();
    let mut results = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        let labels = Fields::new()
            .text("benchmark", args.bench.name())
            .text("engine", &format!("client-{i}"));
        results.push(row_fields(labels, r));
        total.graphs += r.graphs;
        total.tasks += r.tasks;
        total.completed += r.completed;
        total.slow_ok += r.slow_ok;
        total.killed += r.killed;
        total.vanished += r.vanished;
        total.cancelled += r.cancelled;
        total.deadline_expired += r.deadline_expired;
        total.failed += r.failed;
        total.rejected_overloaded += r.rejected_overloaded;
        total.rejected_quota += r.rejected_quota;
        total.rejected_malformed += r.rejected_malformed;
        total.wall = total.wall.max(r.wall);
        total.latency.merge(&r.latency);
    }
    let totals = row_fields(Fields::new(), &total).put("hw_threads", hw_threads());
    json::document(header, &results, totals)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(e));
    let trace = args.bench.trace(args.scale, args.seed);
    let tasks_per_graph = trace.len();
    eprintln!(
        "[loadgen] {} clients x {} graphs of {} {} ({} tasks each) against {}{}",
        args.clients,
        args.graphs,
        args.scale.name(),
        args.bench.name(),
        tasks_per_graph,
        args.addr,
        match args.chaos_seed {
            Some(cs) => format!(", wire chaos seed {cs}"),
            None => String::new(),
        },
    );

    // Scoped, so the client threads borrow the arguments and the one
    // trace instead of each owning a copy.
    let rows: Vec<Row> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..args.clients)
            .map(|client_idx| {
                let (args, trace) = (&args, &trace);
                std::thread::Builder::new()
                    .name(format!("loadgen-{client_idx}"))
                    .spawn_scoped(scope, move || {
                        let started = Instant::now();
                        let mut row = if args.chaos_seed.is_some() {
                            run_chaotic(args, client_idx, trace)?
                        } else {
                            run_healthy(args, client_idx, trace)?
                        };
                        row.wall = started.elapsed();
                        Ok::<Row, String>(row)
                    })
                    .expect("spawn loadgen client")
            })
            .collect();
        clients
            .into_iter()
            .map(|client| match client.join() {
                Ok(Ok(row)) => row,
                Ok(Err(msg)) => {
                    eprintln!("error: {msg}");
                    std::process::exit(1);
                }
                Err(_) => {
                    eprintln!("error: a loadgen client thread panicked");
                    std::process::exit(1);
                }
            })
            .collect()
    });

    if args.shutdown {
        match Client::connect(args.addr) {
            Ok(mut control) => {
                if let Err(e) = control.shutdown_server() {
                    eprintln!("error: shutdown request failed: {e}");
                    std::process::exit(1);
                }
                control.bye();
            }
            Err(e) => {
                eprintln!("error: cannot connect for --shutdown: {e}");
                std::process::exit(1);
            }
        }
    }

    let json = to_json(&args, tasks_per_graph, &rows);
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", args.out)));

    if args.json {
        print!("{json}");
    } else {
        let mut table = Table::new(
            format!(
                "Service load ({} x {} graphs of {} {}, {} tasks/graph{})",
                args.clients,
                args.graphs,
                args.scale.name(),
                args.bench.name(),
                tasks_per_graph,
                match args.chaos_seed {
                    Some(cs) => format!(", chaos seed {cs}"),
                    None => String::new(),
                },
            ),
            &[
                "Client", "graphs", "ok", "slow", "killed", "vanish", "shed", "quota", "p50 ms",
                "p99 ms", "wall ms",
            ],
        );
        for (i, r) in rows.iter().enumerate() {
            table.row(vec![
                format!("client-{i}"),
                r.graphs.to_string(),
                r.completed.to_string(),
                r.slow_ok.to_string(),
                r.killed.to_string(),
                r.vanished.to_string(),
                r.rejected_overloaded.to_string(),
                r.rejected_quota.to_string(),
                fmt_f(r.latency.p50() as f64 / 1e6, 2),
                fmt_f(r.latency.p99() as f64 / 1e6, 2),
                fmt_f(r.wall.as_secs_f64() * 1e3, 1),
            ]);
        }
        println!("{}", table.render());
        println!("(wrote {})", args.out);
    }
}
