//! The one command-line kit of the harness binaries (DESIGN.md §4).
//!
//! Every binary in this crate shares one bad-flag contract: bad input
//! is a *user error*, not a bug — one `error:` line on stderr naming
//! the flag, exit 2, never a panic (a panic would read as a harness bug
//! in CI logs and dump a backtrace instead of usage help). Parsers
//! build their errors as strings ([`Parsed`]) so the wording is unit
//! tested here, once; `main` hands the first one to [`fail`].

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

use tss_exec::{ExecError, ExecReport};
use tss_workloads::Scale;

/// A parsed value, or the message [`fail`] should print.
pub type Parsed<T> = Result<T, String>;

/// Reports a user error and exits 2.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg} (try --help)");
    std::process::exit(2);
}

/// Unwraps one executor run made with `ExecConfig::validate` on, as the
/// `exec` and `sched` harnesses gate it. An
/// [`ExecError::OracleViolation`] is an executor bug: the `ORACLE
/// VIOLATION` line, exit 1. Any other [`ExecError`] is a structured
/// outcome of the run that was asked for (a fail-fast task failure, a
/// blown run deadline): exit 2, without the `--help` hint of a flag
/// error.
pub fn validated_run(
    harness: &str,
    run: impl Display,
    result: Result<ExecReport, ExecError>,
) -> ExecReport {
    match result {
        Ok(report) => report,
        Err(ExecError::OracleViolation { detail }) => {
            eprintln!("[{harness}] {run}: ORACLE VIOLATION: {detail}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {run}: {e}");
            std::process::exit(2);
        }
    }
}

/// A cursor over the command line that remembers the flag it yielded
/// last: the value readers below consume that flag's argument and name
/// the flag in their errors, so a `match` arm spells its flag once.
pub struct Flags {
    usage: String,
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Flags {
    /// The process's arguments, program name skipped. `usage` is what
    /// `--help` prints after `usage: `.
    pub fn from_env(usage: impl Into<String>) -> Flags {
        Flags::new(usage, std::env::args().skip(1))
    }

    /// A cursor over `args` (what the unit tests drive).
    pub fn new(usage: impl Into<String>, args: impl IntoIterator<Item = String>) -> Flags {
        let args = args.into_iter().collect::<Vec<_>>().into_iter();
        Flags { usage: usage.into(), args, flag: String::new() }
    }

    /// The next flag, or `None` at the end of the line. `--help`/`-h`
    /// ends the process here: usage on stderr, exit 0.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        if matches!(self.flag.as_str(), "--help" | "-h") {
            eprintln!("usage: {}", self.usage);
            std::process::exit(0);
        }
        Some(self.flag.clone())
    }

    /// The current flag's argument, as written.
    pub fn value(&mut self) -> Parsed<String> {
        self.args.next().ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's argument as a number.
    pub fn num<T: FromStr>(&mut self) -> Parsed<T> {
        let raw = self.value()?;
        raw.parse().map_err(|_| format!("{} must be a number, got '{raw}'", self.flag))
    }

    /// The current flag's argument as a count of at least 1 (`Default`
    /// is zero for every integer type a flag is read into).
    pub fn positive<T: FromStr + PartialEq + Default>(&mut self) -> Parsed<T> {
        let n: T = self.num()?;
        if n == T::default() {
            return Err(format!("{} must be at least 1", self.flag));
        }
        Ok(n)
    }

    /// The current flag's argument as a duration of at least 1 ms (0
    /// would expire whatever the flag bounds before it starts).
    pub fn millis(&mut self) -> Parsed<Duration> {
        match self.num()? {
            0 => Err(format!("{} must be at least 1 ms", self.flag)),
            ms => Ok(Duration::from_millis(ms)),
        }
    }

    /// The current flag's argument as a trace scale.
    pub fn scale(&mut self) -> Parsed<Scale> {
        let v = self.value()?;
        Scale::parse(&v).ok_or_else(|| format!("unknown scale '{v}' (small|paper|large)"))
    }

    /// The error for a flag no `match` arm claimed.
    pub fn unknown(&self) -> String {
        format!("unknown flag '{}'", self.flag)
    }
}

/// The flags `exec` and `sched` parse identically, at their shared
/// defaults (`small`, spin scale 1.0, seed 42). `policy` stays as
/// written — the two menus differ (`sched` also takes `all`).
pub struct RunFlags {
    pub scale: Scale,
    pub policy: Option<String>,
    pub spin_scale: f64,
    pub seed: u64,
    /// Print the JSON document to stdout instead of the table.
    pub json: bool,
    /// Where the artifact is written.
    pub out: String,
}

impl RunFlags {
    /// The defaults; `out` is the harness's artifact path.
    pub fn new(out: &str) -> RunFlags {
        RunFlags {
            scale: Scale::Small,
            policy: None,
            spin_scale: 1.0,
            seed: 42,
            json: false,
            out: out.into(),
        }
    }

    /// Reads the current flag of `flags` if it is one of the group;
    /// otherwise it is unknown (a harness matches its own flags first).
    pub fn take(&mut self, flags: &mut Flags) -> Parsed<()> {
        match flags.flag.as_str() {
            "--scale" => self.scale = flags.scale()?,
            "--policy" => self.policy = Some(flags.value()?),
            "--spin-scale" => self.spin_scale = flags.num()?,
            "--seed" => self.seed = flags.num()?,
            "--json" => self.json = true,
            "--out" => self.out = flags.value()?,
            _ => return Err(flags.unknown()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        let mut f = Flags::new("", args.iter().map(|a| a.to_string()));
        f.next_flag().expect("at least the flag itself");
        f
    }

    /// Every string below is one the CLI tests of `exec`, `sched`,
    /// `serve` and `loadgen` grep for.
    #[test]
    fn value_errors_name_the_flag() {
        assert_eq!(flags(&["--trace-out"]).value().unwrap_err(), "--trace-out needs a value");
        assert_eq!(flags(&["--threads"]).num::<usize>().unwrap_err(), "--threads needs a value");
        assert_eq!(
            flags(&["--threads", "many"]).num::<usize>().unwrap_err(),
            "--threads must be a number, got 'many'"
        );
        assert_eq!(
            flags(&["--seed", "x"]).num::<u64>().unwrap_err(),
            "--seed must be a number, got 'x'"
        );
        assert_eq!(
            flags(&["--threads", "0"]).positive::<usize>().unwrap_err(),
            "--threads must be at least 1"
        );
        assert_eq!(
            flags(&["--retry-max", "0"]).positive::<u32>().unwrap_err(),
            "--retry-max must be at least 1"
        );
        assert_eq!(
            flags(&["--drain-deadline-ms", "0"]).millis().unwrap_err(),
            "--drain-deadline-ms must be at least 1 ms"
        );
        assert_eq!(
            flags(&["--scale", "huge"]).scale().unwrap_err(),
            "unknown scale 'huge' (small|paper|large)"
        );
        assert_eq!(flags(&["--frobnicate"]).unknown(), "unknown flag '--frobnicate'");
    }
}
