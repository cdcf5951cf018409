//! Order statistics the benchmark reports: medians over timed
//! iterations, latency quantiles that the sample can support, and the
//! quartile spread the acceptance rule is written in.

/// A quantile needs this many samples beyond it to be reported.
pub const TAIL_MIN: usize = 10;

/// Sorts `v` ascending. Benchmark samples are finite by construction
/// (durations and counts), so the total order never meets a NaN.
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    median_sorted(&s)
}

/// [`median`] over an already sorted sample.
pub fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The quantile actually reported when `q` is asked of `n` samples:
/// `q` itself when at least [`TAIL_MIN`] samples lie beyond it,
/// otherwise the highest quantile that has them, and never below the
/// median.
pub fn supported_q(n: usize, q: f64) -> f64 {
    if n == 0 {
        return q;
    }
    let highest = 1.0 - TAIL_MIN as f64 / n as f64;
    q.min(highest).max(0.5)
}

/// Nearest-rank quantile of a sorted sample; 0 for an empty one.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Quantile `q` of a sorted sample, lowered to what the sample
/// supports (see [`supported_q`]); a sample too small for any tail
/// gets its median, as [`median_sorted`] computes it.
pub fn quantile_supported(s: &[f64], q: f64) -> f64 {
    match supported_q(s.len(), q) {
        used if used > 0.5 => quantile_sorted(s, used),
        _ => median_sorted(s),
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), which
/// is what the acceptance rule names. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut s = values.to_vec();
    sort(&mut s);
    let m = s.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (i, cut) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *cut = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread an end-to-end metric must keep inside
/// its bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    ((q3 - q1) / q2).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_iterations_ignores_a_stalled_iteration() {
        // Nine 10 ms iterations and one 500 ms host stall: the rate is
        // set by the typical iteration, not by the stall.
        let mut iters = vec![0.010; 9];
        iters.push(0.500);
        assert_eq!(median(&iters), 0.010);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50.0);
        assert_eq!(quantile_sorted(&s, 0.9), 90.0);
        assert_eq!(quantile_sorted(&s, 1.0), 100.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // 10,000 samples support p999 exactly; 1,000 support p99.
        assert_eq!(supported_q(10_000, 0.999), 0.999);
        assert_eq!(supported_q(1_000, 0.999), 0.99);
        assert_eq!(supported_q(100, 0.999), 0.9);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_q(12, 0.9), 0.5);
        assert_eq!(supported_q(0, 0.9), 0.9);

        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples is lowered to p90: ten samples lie beyond.
        let v = quantile_supported(&s, 0.99);
        assert_eq!(v, 90.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), TAIL_MIN);
        // Twelve samples support no tail: every quantile is the median.
        assert_eq!(quantile_supported(&s[..12], 0.999), median_sorted(&s[..12]));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartile_spread(&v), (8.25 - 2.75) / 5.5);
    }
}
