//! Shared plumbing for the table/figure harness binaries.
//!
//! Every binary accepts:
//!
//! - `--scale small|paper|large` — trace size (default `paper`; `small`
//!   for a quick smoke run),
//! - `--csv` — emit CSV instead of the aligned table,
//! - `--seed N` — workload seed (default 42),
//! - `--jobs N` — sweep-fabric worker threads (default: available
//!   parallelism). Points are independent single-threaded simulations
//!   collected in deterministic order, so any `--jobs` value produces
//!   byte-identical stdout (gated in CI; DESIGN.md §9.3).
//!
//! Bad flags and bad values exit 2 with one `error:` line — the
//! contract [`cli`] states once for all 16 binaries.
//!
//! See `DESIGN.md` §4 for the experiment-to-binary index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

#![forbid(unsafe_code)]

pub mod cli;
pub mod json;

use tss_workloads::Scale;

/// Hardware threads actually available to this process. Stamped into
/// every artifact (top level *and* totals) so nobody reads a
/// `--threads 32` sweep row from a 1-core CI container as a scaling
/// result again (EXPERIMENTS.md carries the full mea culpa).
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `num / den`, or 0 when there is nothing to divide by (a span too
/// short to have measured, an empty trace): a rate or per-task column
/// never holds `inf` or `NaN`.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Parsed common command-line options.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Trace scale.
    pub scale: Scale,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// Workload seed.
    pub seed: u64,
    /// Sweep-fabric worker threads.
    pub jobs: usize,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: Scale::Paper,
            csv: false,
            seed: 42,
            jobs: tss_core::fabric::default_jobs(),
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args`; a bad flag or value exits 2
    /// ([`cli::fail`]).
    pub fn parse() -> Self {
        Self::parse_from(cli::Flags::from_env(
            "[--scale small|paper|large] [--csv] [--seed N] [--jobs N]",
        ))
        .unwrap_or_else(|e| cli::fail(e))
    }

    fn parse_from(mut flags: cli::Flags) -> cli::Parsed<Self> {
        let mut out = HarnessArgs::default();
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--scale" => out.scale = flags.scale()?,
                "--csv" => out.csv = true,
                "--seed" => out.seed = flags.num()?,
                "--jobs" => out.jobs = flags.positive()?,
                _ => return Err(flags.unknown()),
            }
        }
        Ok(out)
    }

    /// Prints a table per the `--csv` flag.
    pub fn emit(&self, table: &tss_core::Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else {
            println!("{}", table.render());
        }
    }

    /// Fans one closure per benchmark across the sweep fabric and
    /// returns the results in `Benchmark::all()` order — the standard
    /// shape of the per-benchmark figure binaries. The closure receives
    /// the benchmark and its generated trace.
    pub fn sweep_benchmarks<R: Send>(
        &self,
        f: impl Fn(tss_workloads::Benchmark, tss_trace::TaskTrace) -> R + Sync,
    ) -> Vec<R> {
        let points: Vec<tss_workloads::Benchmark> = tss_workloads::Benchmark::all().to_vec();
        tss_core::fabric::sweep(self.jobs, points, |bench| {
            let trace = bench.trace(self.scale, self.seed);
            f(bench, trace)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_scale() {
        let a = HarnessArgs::default();
        assert_eq!(a.scale, Scale::Paper);
        assert!(!a.csv);
        assert_eq!(a.seed, 42);
        assert!(a.jobs >= 1);
    }
}
