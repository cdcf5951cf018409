//! `stack-bench`: the end-to-end and per-layer benchmark of the task
//! superscalar stack, wire frame to `Done` (see `benchmark/README.md`).
//!
//! ```text
//! stack-bench --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//! stack-bench all    [--seed N] [--seconds S]                    every workload, both passes
//! stack-bench repeat --runs N [--seed N] [--seconds S]           gated workloads: run-to-run spread vs the bounds
//! ```
//!
//! A run prints its report and ends with one JSON object on the last
//! line of standard output: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `all` and `repeat` start every run as a
//! fresh child process of this executable, so `peak_rss_mb` is the
//! workload's own. A correctness violation names the workload and what
//! broke, and the exit code is 1; a bad command line exits 2.
//!
//! Every mode first confines the process to one CPU (see
//! [`pin_to_one_cpu`]): what is measured is the CPU time the stack
//! spends per task and per graph, not this host's cross-CPU wake-ups.

mod drive;
mod json;
mod probes;
mod run;
mod spans;
mod spec;
mod stats;

use std::process::{Command, ExitCode};

use run::Options;
use spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: stack-bench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
       stack-bench all [--seed N] [--seconds S] [--quick]
       stack-bench repeat --runs N [--seed N] [--seconds S] [--quick]";

enum Mode {
    One(&'static Workload),
    All,
    Repeat,
}

struct Args {
    mode: Mode,
    opts: Options,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut opts = Options {
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        cpu: 0,
        hw_threads: 0,
    };
    let mut runs = 5usize;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        let bad = |flag: &str, v: &str| format!("{flag}: cannot read '{v}'");
        match a.as_str() {
            "all" => mode = Some(Mode::All),
            "repeat" => mode = Some(Mode::Repeat),
            "--workload" => {
                let v = value("--workload")?;
                let w = spec::workload(v).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{v}' ({})", names.join("|"))
                })?;
                mode = Some(Mode::One(w));
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| bad("--seed", v))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = v.parse().map_err(|_| bad("--seconds", v))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".into());
                }
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("--trace", v)),
                };
            }
            "--runs" => {
                let v = value("--runs")?;
                runs = v.parse().map_err(|_| bad("--runs", v))?;
                if runs < 2 {
                    return Err("--runs must be at least 2 (a spread needs two values)".into());
                }
            }
            "--quick" => opts.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args { mode: mode.unwrap_or(Mode::All), opts, runs })
}

/// Confines this process, and every thread and child process it goes
/// on to start, to one CPU: the last one it may use (device interrupts
/// land on the first). Returns that CPU's number and how many CPUs the
/// process could use before.
///
/// The container's CPUs are virtual. A wake-up that crosses from one
/// to the other is an inter-processor interrupt the hypervisor has to
/// deliver, and what that costs shifts with the host's load by tens of
/// percent for seconds to minutes at a time: on two CPUs the small
/// graph workloads flip between a fast and a slow regime within a run
/// and no run length averages it out (the README has the series). On
/// one CPU every wake-up is local, the same code repeats within a few
/// percent, and throughput reads as the reciprocal of the CPU time the
/// stack spends per task, which is the currency the ROADMAP asks for.
fn pin_to_one_cpu() -> Result<(usize, usize), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let os_error = |call: &str| format!("{call}: {}", std::io::Error::last_os_error());
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of `size` bytes that
    // outlives the call; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(os_error("sched_getaffinity"));
    }
    let cpu = (0..64 * allowed.len())
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity names no CPU")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes. Threads and
    // child processes started after this call inherit the mask.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(os_error("sched_setaffinity"));
    }
    Ok((cpu, allowed.iter().map(|w| w.count_ones() as usize).sum()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists, so that every one of them inherits it.
    (args.opts.cpu, args.opts.hw_threads) = match pin_to_one_cpu() {
        Ok(pinned) => pinned,
        Err(e) => {
            eprintln!("error: cannot confine the benchmark to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ok = match args.mode {
        Mode::One(w) => one(w, &args.opts),
        Mode::All => all(&args.opts),
        Mode::Repeat => repeat(&args.opts, args.runs),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process; the result line goes last.
fn one(w: &Workload, opts: &Options) -> bool {
    match run::run(w, opts) {
        Ok(out) => {
            print!("{}", out.report);
            for v in &out.violations {
                eprintln!("FAILED {v}");
            }
            println!("{}", json::result_line(out.correct, out.attempted, out.failed, &out.metrics));
            out.correct
        }
        Err(e) => {
            eprintln!("error: {}: {e}", w.name);
            false
        }
    }
}

// ---------------------------------------------------------------------
// Child runs
// ---------------------------------------------------------------------

/// What a child run printed on its last line.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Runs one workload in a fresh child process and waits for it. The
/// child's report is echoed when `echo` is set.
fn child(w: &Workload, opts: &Options, echo: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &opts.seed.to_string()]);
    cmd.args([
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        if opts.trace { "1" } else { "0" },
    ]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{}: cannot start the child run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{report}");
    }
    if !stderr.trim().is_empty() {
        eprint!("{stderr}");
    }
    let doc = json::parse(last).map_err(|e| {
        format!("{}: the child run ({}) printed no result line: {e}", w.name, out.status)
    })?;
    let field = |k: &str| doc.get(k).ok_or(format!("{}: result line lacks '{k}'", w.name));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Child {
        correct: field("correct")?.as_bool() == Some(true) && out.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(opts: &Options) {
    println!(
        "stack-bench: hw_threads {}, pinned to cpu {}, {}, git {}, seed {}, {} s timed per run{}",
        opts.hw_threads,
        opts.cpu,
        env!("STACK_BENCH_RUSTC"),
        git_sha(),
        opts.seed,
        opts.seconds,
        if opts.quick { ", quick (small-scale traces)" } else { "" }
    );
    for w in &WORKLOADS {
        println!(
            "  {:<14} {} warm-up {} passes of {} graphs, iteration of {} graphs. {}",
            w.name,
            if w.gated { "gated," } else { "by hand," },
            w.warmup_passes,
            w.pattern.len(),
            w.batch,
            w.why
        );
    }
}

// ---------------------------------------------------------------------
// all
// ---------------------------------------------------------------------

fn table(title: &str, names: &[(&str, &str, &str)], column: impl Fn(usize, &str) -> Option<f64>) {
    println!("\n{title}");
    print!("{:<44}", "");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for (name, unit, better) in names {
        print!("{:<44}", format!("{name} [{unit}, {better}]"));
        for (i, _) in WORKLOADS.iter().enumerate() {
            match column(i, name) {
                Some(v) => print!(" {:>14}", short(v)),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// A figure at the precision a table column can hold.
fn short(v: f64) -> String {
    match v.abs() {
        a if a >= 1e6 => format!("{:.3}M", v / 1e6),
        a if a >= 100.0 || a.fract() == 0.0 => format!("{v:.0}"),
        a if a >= 1.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}

/// Every workload, untraced then traced, each in a fresh child.
fn all(opts: &Options) -> bool {
    stamp(opts);
    let mut ok = true;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            println!();
            let opts = Options { trace, ..*opts };
            let result = child(w, &opts, true).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                Child { correct: false, attempted: 0, failed: 0, metrics: Vec::new() }
            });
            if !result.correct {
                eprintln!(
                    "FAILED {}: {} pass not correct ({} of {} failed)",
                    w.name,
                    if trace { "traced" } else { "untraced" },
                    result.failed,
                    result.attempted
                );
                ok = false;
            }
            if trace { &mut traced } else { &mut untraced }.push(result);
        }
    }

    let e2e: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit, m.better)).collect();
    table("End-to-end metrics (untraced pass)", &e2e, |i, n| untraced[i].metric(n));
    print!("{:<44}", "attempted / failed");
    for c in &untraced {
        print!(" {:>14}", format!("{} / {}", c.attempted, c.failed));
    }
    println!();
    let layers: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect();
    table("Per-layer metrics (traced pass, on each workload's own graphs)", &layers, |i, n| {
        traced[i].metric(n)
    });
    println!("\n{}", if ok { "all workloads correct" } else { "FAILED: see above" });
    ok
}

// ---------------------------------------------------------------------
// repeat
// ---------------------------------------------------------------------

/// Runs the untraced pass `runs` times per gated workload, each run a
/// fresh child with its own seed (as the driver does), and holds every
/// end-to-end metric's quartile spread against its bound. `setup_s` is
/// printed but, as in the acceptance rule, not held to its bound.
fn repeat(opts: &Options, runs: usize) -> bool {
    stamp(opts);
    let mut ok = true;
    // values[workload][metric] = one value per run
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; spec::gated().count()];
    for r in 0..runs {
        for (wi, w) in spec::gated().enumerate() {
            let opts = Options { trace: false, seed: opts.seed + r as u64, ..*opts };
            match child(w, &opts, false) {
                Ok(c) if c.correct => {
                    print!("run {r} seed {} {:<14}", opts.seed, w.name);
                    for (mi, m) in END_TO_END.iter().enumerate() {
                        let v = c.metric(m.name);
                        values[wi][mi].extend(v);
                        print!(" {}={}", m.name, v.map_or("-".into(), short));
                    }
                    println!();
                }
                Ok(c) => {
                    eprintln!(
                        "FAILED {}: run {r} not correct ({} of {} failed)",
                        w.name, c.failed, c.attempted
                    );
                    ok = false;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
        eprintln!("[repeat] run {} of {runs} done", r + 1);
    }

    println!(
        "\n{:<14} {:<22} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (wi, w) in spec::gated().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            if v.len() < 2 {
                println!("{:<14} {:<22} too few correct runs", w.name, m.name);
                ok = false;
                continue;
            }
            let spread = stats::quartile_spread(v);
            let verdict = if m.name == "setup_s" {
                "(not held)"
            } else if spread > m.bound {
                ok = false;
                "OVER BOUND"
            } else if spread > m.bound / 3.0 {
                "ok (above a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<22} {:>12} {:>12} {:>12} {:>7.2}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                short(v.iter().copied().fold(f64::INFINITY, f64::min)),
                short(stats::median(v)),
                short(v.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                100.0 * spread,
                100.0 * m.bound,
            );
        }
    }
    println!("\n{}", if ok { "every spread within its bound" } else { "FAILED: see above" });
    ok
}
