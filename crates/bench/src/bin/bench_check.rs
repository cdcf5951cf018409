//! Baseline gate for the bench-harness JSON artifacts: compare a fresh
//! `BENCH_*.json` against the committed snapshot under `ci/baselines/`
//! on what a shared CI host can reproduce — counts and shape — and on
//! nothing else.
//!
//! Result rows are matched positionally and must agree on
//! `benchmark`/`engine`. Each row pair, and the `totals` pair when the
//! baseline has one, gets two checks:
//!
//! - **Exact**: the [`EXACT_FIELDS`] a pair shares must be *equal* —
//!   they are deterministic at a fixed scale/seed, so any drift is a
//!   model change that must be re-baselined deliberately.
//! - **Presence**: every key the baseline object carries must exist in
//!   the fresh one, so a change that silently drops a field — or a
//!   gated run that lost `--features obs` and with it the latency
//!   quantiles — fails. Extra keys in the fresh artifact are fine.
//!
//! Timing fields (`*_wall_ms`, `*_per_sec`, the sampled quantiles) are
//! emitted for people to read and are *not* compared: they swing by 2×
//! from run to run on a shared host, and a gate loose enough to pass
//! that catches nothing. The stack benchmark (`BENCHMARK.json`,
//! `benchmark/`) is the one place a speed is bounded.
//!
//! The artifacts are read with `tss_bench::json`, the module that
//! wrote them.
//!
//! Usage: `bench_check --baseline PATH --fresh PATH`. Exit codes: 0 ok,
//! 1 mismatch, 2 usage or I/O error.

use tss_bench::cli::{fail, Flags, Parsed};
use tss_bench::json::{fields, get, rows, Object};

/// Fields that must match exactly wherever both sides carry them. The
/// failure accounting (`failed`, `poisoned`, `workers_lost` —
/// DESIGN.md §11) is exact because injection is a pure function of
/// `(fault seed, task)`: at a fixed
/// seed/rate/scale the failure sets are identical across hosts and
/// thread counts. The serve-artifact counters (DESIGN.md §14.5) are
/// exact for the same reason: the wire-chaos plan is a pure function
/// of `(chaos seed, client, graph)`, so given admission headroom every
/// completion/kill/vanish count is reproducible.
const EXACT_FIELDS: [&str; 15] = [
    "tasks",
    "events",
    "enforced_edges",
    "makespan_cycles",
    "failed",
    "poisoned",
    "workers_lost",
    "graphs",
    "completed",
    "slow_ok",
    "killed",
    "vanished",
    "rejected_overloaded",
    "rejected_quota",
    "rejected_malformed",
];
const LABEL_FIELDS: [&str; 2] = ["benchmark", "engine"];

fn label(row: &Object) -> String {
    LABEL_FIELDS.iter().filter_map(|k| get(row, k)).collect::<Vec<_>>().join("/")
}

/// What one run of the gate found: mismatches, and how much it looked
/// at (a gate that compared nothing was pointed at the wrong file).
#[derive(Default)]
struct Findings {
    problems: Vec<String>,
    exact_checked: usize,
    keys_checked: usize,
}

impl Findings {
    /// Both checks for one object pair (`who` names it in messages).
    fn compare(&mut self, who: &str, baseline: &Object, fresh: &Object) {
        for &(key, bv) in baseline {
            self.keys_checked += 1;
            let Some(fv) = get(fresh, key) else {
                self.problems.push(format!(
                    "{who}: key '{key}' present in baseline but missing in fresh (a schema \
                     change — or was the obs feature dropped from the gated run?)"
                ));
                continue;
            };
            if EXACT_FIELDS.contains(&key) {
                self.exact_checked += 1;
                if bv != fv {
                    self.problems
                        .push(format!("{who}: {key} changed {bv} -> {fv} (must match exactly)"));
                }
            }
        }
    }
}

fn parse_args() -> Parsed<(String, String)> {
    let (mut baseline, mut fresh) = (None, None);
    let mut flags = Flags::from_env("bench_check --baseline PATH --fresh PATH");
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--baseline" => baseline = Some(flags.value()?),
            "--fresh" => fresh = Some(flags.value()?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok((baseline.ok_or("--baseline is required")?, fresh.ok_or("--fresh is required")?))
}

/// An artifact the reader rejects is an input error: exit 2, naming
/// the file.
fn parsed<T>(read: Parsed<T>, path: &str) -> T {
    read.unwrap_or_else(|e| fail(format!("{e} in {path}")))
}

fn main() {
    let (baseline_path, fresh_path) = parse_args().unwrap_or_else(|e| fail(e));
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
    };
    let (baseline, fresh) = (read(&baseline_path), read(&fresh_path));
    let (base_doc, fresh_doc) =
        (parsed(fields(&baseline), &baseline_path), parsed(fields(&fresh), &fresh_path));
    let (base_rows, fresh_rows) =
        (parsed(rows(&base_doc), &baseline_path), parsed(rows(&fresh_doc), &fresh_path));

    let mut found = Findings::default();
    if base_rows.len() != fresh_rows.len() {
        found.problems.push(format!(
            "row count: baseline has {}, fresh has {}",
            base_rows.len(),
            fresh_rows.len()
        ));
    }
    for (b, f) in base_rows.iter().zip(&fresh_rows) {
        let who = label(b);
        if label(f) != who {
            found.problems.push(format!("row order: baseline '{who}' vs fresh '{}'", label(f)));
            continue;
        }
        found.compare(&who, b, f);
    }
    if found.exact_checked == 0 {
        found.problems.push("no exact fields found to compare (wrong artifact?)".to_string());
    }
    // Totals: only when the baseline carries the object.
    if let Some(bt) = get(&base_doc, "totals") {
        match get(&fresh_doc, "totals") {
            Some(ft) => found.compare(
                "totals",
                &parsed(fields(bt), &baseline_path),
                &parsed(fields(ft), &fresh_path),
            ),
            None => {
                found.problems.push("totals: baseline has a totals object, fresh does not".into())
            }
        }
    }
    if found.problems.is_empty() {
        println!(
            "bench_check: {} rows ok vs {baseline_path} ({} exact fields equal, {} keys present)",
            fresh_rows.len(),
            found.exact_checked,
            found.keys_checked,
        );
        return;
    }
    for p in &found.problems {
        eprintln!("bench_check: FAIL: {p}");
    }
    eprintln!(
        "bench_check: {} problem(s) vs {baseline_path}; if the model legitimately \
         changed, regenerate the snapshot under ci/baselines/ in the same PR",
        found.problems.len()
    );
    std::process::exit(1);
}
