//! The two JSON fragments the `BENCH_*.json` emitters share. The
//! documents themselves stay `format!` templates in each binary: their
//! layout is what `bench_check`'s scanner and the CI baselines pin.

use tss_obs::hist::Histogram;

/// `s` as a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One histogram's quantiles as `"<name>_p50_ns": …, "<name>_p99_ns":
/// …, "<name>_p999_ns": …, ` — trailing separator included, ready to
/// splice into an object. These are the fields `bench_check` gates for
/// presence (an obs-build baseline against a NoopSink run).
pub fn quantiles(name: &str, h: &Histogram) -> String {
    format!(
        "\"{name}_p50_ns\": {}, \"{name}_p99_ns\": {}, \"{name}_p999_ns\": {}, ",
        h.p50(),
        h.p99(),
        h.p999()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(string("Cholesky"), "\"Cholesky\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("two\nlines\t\u{1}"), "\"two\\nlines\\t\\u0001\"");
    }
}
