//! The result line every run ends with, and a reader for it.
//!
//! The workspace is offline and carries no JSON crate, so this is the
//! small subset the benchmark needs: print one result object, and
//! parse JSON text back (child results in `all`/`repeat`, and
//! `BENCHMARK.json` in the consistency test).

use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A number as measured, with all its digits (Rust prints the shortest
/// text that reads back as the same `f64`). JSON has no NaN or
/// infinity; callers check finiteness before printing.
pub fn num(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite metric value");
    format!("{v}")
}

/// The one-line result object: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ =
            write!(s, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit);
    }
    s.push_str("}}");
    s
}

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(kv) => Some(kv),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.i += 1;
        let mut kv = Vec::new();
        self.ws();
        if self.eat("}") {
            return Ok(Value::Obj(kv));
        }
        loop {
            self.ws();
            if self.s.get(self.i) != Some(&b'"') {
                return Err(self.err("expected a key"));
            }
            let k = self.string()?;
            self.ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            kv.push((k, self.value()?));
            self.ws();
            if self.eat("}") {
                return Ok(Value::Obj(kv));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        c => out.push(c),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_all_digits() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric { name: "graph_latency_p50_us", value: 541.2034, unit: "us" },
                Metric { name: "setup_s", value: 0.8127, unit: "s" },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"graph_latency_p50_us\": {\"value\": 541.2034, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn printed_results_read_back() {
        let v = 1.0 / 3.0;
        let line =
            result_line(false, 7, 2, &[Metric { name: "tasks_per_s", value: v, unit: "1/s" }]);
        let doc = parse(&line).expect("parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(7.0));
        let m = doc.get("metrics").unwrap().get("tasks_per_s").unwrap();
        // All digits survive the round trip.
        assert_eq!(m.get("value").unwrap().as_f64(), Some(v));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn whole_numbers_print_without_an_exponent_or_fraction() {
        assert_eq!(num(136296.0), "136296");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(4583211.75), "4583211.75");
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_junk() {
        let doc = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA\n"}} "#).unwrap();
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[3], Value::Null);
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"yA\n"));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("").is_err());
    }
}
