//! `tss` — command-line driver for the task-superscalar simulator.
//!
//! ```text
//! tss list                                  # the nine Table-I benchmarks
//! tss run --bench cholesky --processors 64  # one simulation, full report
//! tss run --bench h264 --engine sw          # software-runtime baseline
//! tss graph --bench cholesky --n 5          # Figure-1 DOT to stdout
//! tss export --bench stap --scale small     # trace text format to stdout
//! ```

use std::process::exit;

use task_superscalar::core::{Engine, SystemBuilder};
use task_superscalar::pipeline::{ConfigError, FrontendConfig};
use task_superscalar::trace::{parallelism_profile, to_text, DepGraph};
use task_superscalar::workloads::{cholesky::CholeskyGen, Benchmark, Scale};
use tss_trace::TraceGenerator;

fn usage() -> ! {
    eprintln!(
        "usage:\n  tss list\n  tss run --bench <name> [--engine hw|sw] [--processors N]\n\
         \x20         [--scale small|paper|large] [--seed N] [--trs N] [--ort N]\n\
         \x20         [--no-renaming] [--no-chaining]\n  tss graph [--bench cholesky] [--n N]\n\
         \x20 tss export --bench <name> [--scale ...] [--seed N]"
    );
    exit(2)
}

/// A bad value is a user error: one `error:` line naming the flag,
/// exit 2, before any work is done.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

/// Parses a numeric flag's value. The TRS/ORT ranges are not restated
/// here: `parse` asks `FrontendConfig::check`, which knows them.
fn num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(format!("{flag} must be a number, got '{value}'")))
}

fn bench_by_name(name: &str) -> Benchmark {
    Benchmark::parse(name).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{name}'; try `tss list`");
        exit(2)
    })
}

struct Opts {
    bench: Benchmark,
    scale: Scale,
    seed: u64,
    engine: Engine,
    processors: usize,
    frontend: FrontendConfig,
    n: usize,
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        bench: Benchmark::Cholesky,
        scale: Scale::Small,
        seed: 42,
        engine: Engine::Hardware,
        processors: 256,
        frontend: FrontendConfig::default(),
        n: 5,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().map(|s| s.to_string()).unwrap_or_else(|| usage());
        match a.as_str() {
            "--bench" => o.bench = bench_by_name(&val()),
            "--scale" => {
                let v = val();
                o.scale = Scale::parse(&v)
                    .unwrap_or_else(|| fail(format!("unknown scale '{v}' (small|paper|large)")));
            }
            "--seed" => o.seed = num("--seed", &val()),
            "--engine" => {
                o.engine = match val().as_str() {
                    "hw" => Engine::Hardware,
                    "sw" => Engine::Software,
                    v => fail(format!("unknown engine '{v}' (hw|sw)")),
                }
            }
            "--processors" | "-p" => {
                o.processors = num("--processors", &val());
                if o.processors == 0 {
                    fail("--processors must be at least 1");
                }
            }
            "--trs" => o.frontend.num_trs = num("--trs", &val()),
            "--ort" => o.frontend.num_ort = num("--ort", &val()),
            "--no-renaming" => o.frontend.renaming = false,
            "--no-chaining" => o.frontend.chaining = false,
            "--n" => o.n = num("--n", &val()),
            _ => usage(),
        }
    }
    // Whatever the subcommand: a frontend the model would only refuse by
    // panicking in a constructor is refused here, in the flag's name.
    if let Err(e) = o.frontend.check() {
        let flag = match e {
            ConfigError::NumTrs => "--trs ",
            ConfigError::NumOrt => "--ort ",
            ConfigError::TooSmall(_) => "",
        };
        fail(format!("{flag}{}", e.must_be()));
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];

    match cmd.as_str() {
        "list" => {
            println!("benchmark  class                 (Table I)");
            for b in Benchmark::all() {
                let (data, min, med, avg, rate) = b.table1_reference();
                println!(
                    "{:<9}  data {:>4.0} KB  runtimes {:>3.0}/{:>3.0}/{:>3.0} us  rate limit {:>3.0} ns",
                    b.name(),
                    data,
                    min,
                    med,
                    avg,
                    rate
                );
            }
        }
        "run" => {
            let o = parse(rest);
            let builder = SystemBuilder::new().processors(o.processors).frontend(o.frontend);
            let trace = o.bench.trace(o.scale, o.seed);
            eprintln!("{}: {} tasks ({:?} scale)", o.bench, trace.len(), o.scale);
            let report = match o.engine {
                Engine::Hardware => builder.run_hardware(&trace),
                Engine::Software => builder.run_software(&trace),
            };
            println!("engine:        {:?}", report.engine);
            println!("processors:    {}", report.processors);
            println!("tasks:         {}", report.tasks);
            println!(
                "makespan:      {} cycles ({:.2} ms)",
                report.makespan,
                task_superscalar::sim::cycles_to_us(report.makespan) / 1000.0
            );
            println!("speedup:       {:.1}x over sequential", report.speedup());
            println!(
                "decode rate:   {:.0} cycles/task ({:.0} ns)",
                report.decode_rate_cycles,
                report.decode_rate_ns()
            );
            println!("window peak:   {} in-flight tasks", report.window_peak);
            println!("core util:     {:.1}%", report.core_utilization * 100.0);
            if let Some(fe) = &report.frontend {
                println!(
                    "frontend:      {} renames, {} copybacks ({} KB), {} chain forwards",
                    fe.ort.renames,
                    fe.ort.copybacks,
                    fe.ort.copyback_bytes >> 10,
                    fe.chain_forwards
                );
                println!("storage waste: {:.1}% (paper: ~20%)", fe.avg_storage_waste * 100.0);
            }
        }
        "graph" => {
            let o = parse(rest);
            if o.bench != Benchmark::Cholesky {
                eprintln!("error: `tss graph` draws only --bench cholesky, got '{}'", o.bench);
                exit(2)
            }
            let trace = CholeskyGen::new(o.n).generate(o.seed);
            let graph = DepGraph::from_trace(&trace);
            let profile = parallelism_profile(&trace, &graph);
            eprintln!(
                "Cholesky {0}x{0}: {1} tasks, avg parallelism {2:.1}",
                o.n,
                trace.len(),
                profile.avg_parallelism
            );
            print!("{}", graph.to_dot(&trace));
        }
        "export" => {
            let o = parse(rest);
            let trace = o.bench.trace(o.scale, o.seed);
            print!("{}", to_text(&trace));
        }
        _ => usage(),
    }
}
