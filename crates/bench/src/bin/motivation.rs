//! Regenerates the **Section II** motivation:
//!
//! 1. the decode-rate rule `R = T/P` (Figure 3): target decode rates for
//!    32–256 processors against the software decoder's ~700 ns;
//! 2. the L1 knee: task runtime and stall fraction vs working-set size
//!    under Table II's memory costs (64 KB L1) — why the paper insists
//!    on L1-sized blocks instead of longer tasks.

use tss_bench::HarnessArgs;
use tss_core::report::fmt_f;
use tss_core::Table;
use tss_mem::TaskRuntimeModel;

fn main() {
    let args = HarnessArgs::parse();

    // ------------------------------------------------ decode-rate rule
    let mut rule = Table::new(
        "Section II / Figure 3: target decode rate R = T/P [ns/task]",
        &["Benchmark", "P=32", "P=64", "P=128", "P=256"],
    );
    let mut avg = [0.0f64; 4];
    // One fabric point per benchmark (trace generation is the cost
    // here); the averages fold afterwards in catalog order.
    let rows = args.sweep_benchmarks(|bench, trace| {
        let mut row = vec![bench.name().to_string()];
        let mut rates = [0.0f64; 4];
        for (i, p) in [32usize, 64, 128, 256].iter().enumerate() {
            let ns = tss_sim::cycles_to_ns(trace.decode_rate_limit(*p).unwrap() as u64);
            rates[i] = ns;
            row.push(fmt_f(ns, 0));
        }
        (row, rates)
    });
    for (row, rates) in rows {
        for (a, r) in avg.iter_mut().zip(rates) {
            *a += r / 9.0;
        }
        rule.row(row);
    }
    let mut row = vec!["Average".to_string()];
    for v in avg {
        row.push(fmt_f(v, 0));
    }
    rule.row(row);
    args.emit(&rule);
    println!(
        "software decoder: ~700 ns/task (x86), ~2500 ns (Cell BE) — more than an order of\n\
         magnitude slower than the 256-way target ({:.0} ns avg).\n",
        avg[3]
    );

    // ------------------------------------------------------ the L1 knee
    let model = TaskRuntimeModel::default();
    let mut knee = Table::new(
        "Section II: task runtime vs working-set size (64 KB L1)",
        &["block size", "runtime (us)", "stall fraction"],
    );
    for kb in [8u64, 16, 32, 48, 64, 96, 128, 256, 512] {
        let (rt, _stalls) = model.estimate(kb << 10);
        knee.row(vec![
            format!("{kb} KB"),
            fmt_f(tss_sim::cycles_to_us(rt), 1),
            fmt_f(model.stall_fraction(kb << 10), 2),
        ]);
    }
    args.emit(&knee);
    println!(
        "past the 64 KB L1 the stall fraction jumps: longer tasks need bigger datasets,\n\
         and \"performance will degrade\" — hence L1-sized tasks + fast decode."
    );
}
