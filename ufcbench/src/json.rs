//! The result line the benchmark prints, and a reader for it.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": true, "attempted": N, "failed": F, "metrics": {"name":
//! {"value": X, "unit": "U"}, ...}}`. Values are written with Rust's
//! shortest round-trip float formatting, so every measured digit survives.

use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric with the given name, unit and value.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit: unit.to_owned(),
            value,
        }
    }
}

/// A JSON number: Rust's shortest round-trip formatting, `null` when not
/// finite.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        // JSON has no NaN/∞; a non-finite metric is a benchmark bug, and
        // `null` makes the line fail any consumer's number check loudly.
        "null".to_owned()
    }
}

/// A JSON string literal.
#[must_use]
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the result line.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(&m.name),
                number(m.value),
                quoted(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Renders one JSON object from already-rendered `(key, value)` pairs.
#[must_use]
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quoted(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A parsed JSON value (only what the result line needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order is not preserved).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A message naming the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.s.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.pos) {
            None => self.err("unexpected end"),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut map = BTreeMap::new();
        self.ws();
        if self.eat("}") {
            return Ok(Value::Object(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(":") {
                return self.err("expected ':'");
            }
            let v = self.value()?;
            map.insert(key, v);
            self.ws();
            if self.eat(",") {
                continue;
            }
            if self.eat("}") {
                return Ok(Value::Object(map));
            }
            return self.err("expected ',' or '}'");
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat("]") {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat(",") {
                continue;
            }
            if self.eat("]") {
                return Ok(Value::Array(items));
            }
            return self.err("expected ',' or ']'");
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected string");
        }
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.pos..]).map_err(|e| e.to_string())?;
            let Some(c) = rest.chars().next() else {
                return self.err("unterminated string");
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self.s.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.pos < self.s.len()
            && matches!(
                self.s[self.pos],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).map_err(|e| e.to_string())?;
        match text.parse::<f64>() {
            Ok(x) if !text.is_empty() => Ok(Value::Number(x)),
            _ => {
                self.pos = start;
                self.err("expected a value")
            }
        }
    }
}

/// The metrics of a result line, by name: `(value, unit)`.
///
/// # Errors
///
/// When the line is not a result object with a `metrics` member.
pub fn metrics_of(line: &str) -> Result<BTreeMap<String, (f64, String)>, String> {
    let v = parse(line)?;
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        return Err("no \"metrics\" object".to_owned());
    };
    let mut out = BTreeMap::new();
    for (name, m) in metrics {
        let (Some(Value::Number(x)), Some(Value::Str(unit))) = (m.get("value"), m.get("unit"))
        else {
            return Err(format!("metric {name:?} lacks a numeric value or a unit"));
        };
        out.insert(name.clone(), (*x, unit.clone()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_every_digit() {
        let metrics = [
            Metric::new("latency_ms", "ms", 1.203_456_789_012_3),
            Metric::new("setup_s", "s", 0.8127),
        ];
        let line = result_line(true, 1000, 0, &metrics);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::Number(1000.0)));
        let m = metrics_of(&line).unwrap();
        assert_eq!(m["latency_ms"], (1.203_456_789_012_3, "ms".to_owned()));
        assert_eq!(m["setup_s"].0, 0.8127);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(metrics_of("{\"correct\": true}").is_err());
        assert_eq!(
            parse("[\"a\\u0041\", null, -1.5e3]").unwrap(),
            Value::Array(vec![
                Value::Str("aA".to_owned()),
                Value::Null,
                Value::Number(-1500.0)
            ])
        );
    }
}
