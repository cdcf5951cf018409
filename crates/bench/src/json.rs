//! The one writer and the one reader of the harness artifacts
//! (`BENCH_pipeline/exec/serve.json`). `perf`, `exec` and `loadgen`
//! fill [`Fields`] lists and [`document`] lays them out;
//! `bench_check` and the CLI tests read them back with [`fields`] and
//! [`rows`]. Not a JSON library — the workspace is offline
//! (vendor/README.md) and every artifact is written by this module, so
//! the format is under our control: the reader is a string- and
//! depth-aware splitter over exactly what the writer emits, and the
//! tests below hold the two to each other.

use std::fmt::{Display, Write};

use tss_obs::hist::Histogram;

use crate::cli::Parsed;

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

/// The `"key": value` pairs of one object, in the order they were
/// added — key order is part of what the committed baselines pin.
#[derive(Default)]
pub struct Fields(Vec<(String, String)>);

impl Fields {
    /// An empty list.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// A value whose `Display` is already JSON: an integer, a bool, or
    /// something this module rendered ([`Fields::object`]).
    pub fn put(mut self, key: &str, value: impl Display) -> Fields {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    /// A float at a fixed number of decimals (the artifacts' timing and
    /// rate columns; `{:.0}` keeps them integral).
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Fields {
        self.put(key, format_args!("{value:.decimals$}"))
    }

    /// A string value, escaped.
    pub fn text(self, key: &str, value: &str) -> Fields {
        self.put(key, string(value))
    }

    /// `value`, or `null` when there is none.
    pub fn opt(self, key: &str, value: Option<impl Display>) -> Fields {
        match value {
            Some(v) => self.put(key, v),
            None => self.put(key, "null"),
        }
    }

    /// An array of already-rendered values.
    pub fn list(self, key: &str, items: impl IntoIterator<Item = String>) -> Fields {
        let items: Vec<String> = items.into_iter().collect();
        self.put(key, format_args!("[{}]", items.join(", ")))
    }

    /// One histogram's `<name>_p50_ns`/`_p99_ns`/`_p999_ns`, or nothing
    /// when the build recorded none — the fields `bench_check` gates
    /// for presence (an obs-build baseline against a NoopSink run).
    pub fn quantiles(self, name: &str, hist: Option<&Histogram>) -> Fields {
        let Some(h) = hist else { return self };
        self.put(&format!("{name}_p50_ns"), h.p50())
            .put(&format!("{name}_p99_ns"), h.p99())
            .put(&format!("{name}_p999_ns"), h.p999())
    }

    /// The list as a one-line object.
    pub fn object(&self) -> String {
        let pairs: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", pairs.join(", "))
    }
}

/// A whole artifact: the header fields one per line, a `results` array
/// of one-line rows, and a one-line `totals` object.
pub fn document(header: Fields, rows: &[Fields], totals: Fields) -> String {
    let mut s = String::from("{\n");
    for (k, v) in &header.0 {
        let _ = writeln!(s, "  \"{k}\": {v},");
    }
    s.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {}{}", row.object(), if i + 1 == rows.len() { "" } else { "," });
    }
    let _ = write!(s, "  ],\n  \"totals\": {}\n}}\n", totals.object());
    s
}

/// The `"key": value` pairs of one object as read back, in document
/// order. Values are raw text: a string loses its quotes (escapes stay
/// as written), a nested container comes back whole.
pub type Object<'a> = Vec<(&'a str, &'a str)>;

/// Splits the inside of one container (`{…}` or `[…]`) at its top-level
/// commas.
pub fn items(container: &str) -> Parsed<Vec<&str>> {
    let c = container.trim();
    let malformed = || format!("malformed JSON container: {c:.40}");
    let inner = c
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .or_else(|| c.strip_prefix('[').and_then(|rest| rest.strip_suffix(']')))
        .ok_or_else(malformed)?;
    let mut out = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, 0);
    for (i, ch) in inner.char_indices() {
        match ch {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            _ if in_string => {}
            '{' | '[' => depth += 1,
            '}' | ']' => depth = depth.checked_sub(1).ok_or_else(malformed)?,
            ',' if depth == 0 => {
                out.push(inner[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err(malformed());
    }
    let last = inner[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    Ok(out)
}

/// Parses one `{…}` into its [`Object`].
pub fn fields(obj: &str) -> Parsed<Object<'_>> {
    items(obj)?
        .into_iter()
        .map(|item| {
            let (key, value) = item
                .strip_prefix('"')
                .and_then(|rest| rest.split_once("\":"))
                .ok_or_else(|| format!("not a \"key\": value pair: {item:.40}"))?;
            let value = value.trim();
            let unquoted = value.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
            Ok((key, unquoted.unwrap_or(value)))
        })
        .collect()
}

/// The value under `key`, if the object has one.
pub fn get<'a>(obj: &Object<'a>, key: &str) -> Option<&'a str> {
    obj.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// The rows of a document's `results` array.
pub fn rows<'a>(doc: &Object<'a>) -> Parsed<Vec<Object<'a>>> {
    let results = get(doc, "results").ok_or("no \"results\" array")?;
    items(results)?.into_iter().map(fields).collect()
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

    /// What the writer lays out, the reader returns key for key: escaped
    /// strings (quotes, commas and brackets inside them included), a
    /// `null`, nested `workers` arrays and spliced obs quantiles.
    #[test]
    fn the_reader_returns_what_the_writer_wrote() {
        let mut hist = Histogram::default();
        hist.record(1_000);
        let worker = |n: u64| Fields::new().put("executed", n).fixed("busy_frac", 0.5, 4).object();
        let row = |name: &str, obs: Option<&Histogram>| {
            Fields::new()
                .text("benchmark", name)
                .fixed("exec_wall_ms", 0.25, 3)
                .quantiles("latency", obs)
                .put("validated", true)
                .list("workers", [worker(220), worker(0)])
        };
        let header = Fields::new()
            .text("schema", "tss-test/v1")
            .opt("chaos_seed", None::<u64>)
            .opt("seed", Some(42))
            .list("policies", [string("lifo"), string("fifo")]);
        let totals = Fields::new().put("tasks", 440).fixed("rate", 1234.56, 0);
        let tricky = "a \"quoted\", [bracketed] {name}\\";
        let text = document(header, &[row(tricky, Some(&hist)), row("MatMul", None)], totals);

        let doc = fields(&text).expect("document parses");
        let keys: Vec<&str> = doc.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, ["schema", "chaos_seed", "seed", "policies", "results", "totals"]);
        assert_eq!(&doc[..3], [("schema", "tss-test/v1"), ("chaos_seed", "null"), ("seed", "42")]);
        assert_eq!(items(doc[3].1).unwrap(), ["\"lifo\"", "\"fifo\""]);
        assert_eq!(fields(doc[5].1).unwrap(), [("tasks", "440"), ("rate", "1235")]);

        let rows = rows(&doc).expect("rows parse");
        let quoted = string(tricky);
        assert_eq!(get(&rows[0], "benchmark"), Some(&quoted[1..quoted.len() - 1]));
        assert_eq!(get(&rows[0], "exec_wall_ms"), Some("0.250"));
        assert_eq!(get(&rows[0], "latency_p999_ns"), Some(hist.p999().to_string().as_str()));
        let keys: Vec<&str> = rows[1].iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, ["benchmark", "exec_wall_ms", "validated", "workers"], "no histogram");
        let workers = items(get(&rows[1], "workers").unwrap()).unwrap();
        assert_eq!(fields(workers[1]).unwrap(), [("executed", "0"), ("busy_frac", "0.5000")]);
    }

    #[test]
    fn a_truncated_container_is_an_error_not_a_panic() {
        let text =
            document(Fields::new().put("seed", 1), &[Fields::new().put("tasks", 2)], Fields::new());
        for cut in [text.len() / 2, text.len() - 3] {
            assert!(fields(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(items("{\"a\": 1]}").is_err(), "a closer with nothing open");
        assert!(items("{\"a\": \"unterminated}").is_err());
        assert!(fields("{1, 2}").is_err(), "an object item that is no pair");
        assert!(rows(&fields("{\"totals\": {}}").unwrap()).is_err());
    }
}
