//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (`{"name": {"value": v, "unit": u}}`), printed last on
//! standard output. The tests parse it back, so the printed line always
//! reads as what was measured.

#[cfg(test)]
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measure {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `us`, `ns`, `MB`, `count`, `1/s`, `%`.
    pub unit: String,
}

/// Everything one run reports on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every check passed (`failed == 0`).
    pub correct: bool,
    /// Operations attempted: passes, requests and output checks.
    pub attempted: u64,
    /// Attempted operations that failed or gave a wrong answer.
    pub failed: u64,
    /// The metrics in print order.
    pub metrics: Vec<Measure>,
}

impl Outcome {
    /// Renders the result line. Non-finite values are an error: JSON has
    /// no spelling for them, and a reader of the line needs a number.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(&m.unit)
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Parses a result line back.
    #[cfg(test)]
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let top = Json::parse(line)?;
        let obj = top.object()?;
        let field = |k: &str| obj.get(k).ok_or_else(|| format!("missing key {k:?}"));
        let mut metrics = Vec::new();
        for (name, entry) in field("metrics")?.object()? {
            let e = entry.object()?;
            metrics.push(Measure {
                name: name.clone(),
                value: e.get("value").ok_or("metric without value")?.number()?,
                unit: e.get("unit").ok_or("metric without unit")?.string()?.into(),
            });
        }
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Outcome {
            correct: field("correct")?.boolean()?,
            attempted: field("attempted")?.count()?,
            failed: field("failed")?.count()?,
            metrics,
        })
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON subset the result line uses (no arrays, no null).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Number(f64),
    Str(String),
    Object(BTreeMap<String, Json>),
}

#[cfg(test)]
impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    fn object(&self) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Object(o) => Ok(o),
            other => Err(format!("expected an object, got {other:?}")),
        }
    }

    fn number(&self) -> Result<f64, String> {
        match self {
            Json::Number(x) => Ok(*x),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    fn count(&self) -> Result<u64, String> {
        let x = self.number()?;
        if x >= 0.0 && x.fract() == 0.0 && x < 9.0e15 {
            Ok(x as u64)
        } else {
            Err(format!("expected a whole number, got {x}"))
        }
    }

    fn string(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    fn boolean(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, got {other:?}")),
        }
    }
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", char::from(b), self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(_) => self.number(),
            None => Err("unexpected end".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        'n' => out.push('\n'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.i += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            if map.insert(key.clone(), v).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Measure {
                    name: "analyze_s".into(),
                    value: 1.203_456_789_012_3,
                    unit: "s".into(),
                },
                Measure {
                    name: "read_p99_us".into(),
                    value: 0.000_123_4,
                    unit: "us".into(),
                },
                Measure {
                    name: "serve.read_ns".into(),
                    value: 31_337.0,
                    unit: "ns".into(),
                },
            ],
        }
    }

    #[test]
    fn result_line_round_trips_exactly() {
        let o = sample();
        let line = o.to_json().expect("finite metrics render");
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::parse(&line), Ok(o));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().to_json().expect("finite metrics render");
        let top = Json::parse(&line).expect("parses");
        let keys: Vec<&String> = top.object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    #[test]
    fn non_finite_values_and_malformed_lines_are_rejected() {
        let mut o = sample();
        o.metrics[0].value = f64::NAN;
        assert!(o.to_json().is_err());
        assert!(Outcome::parse("{\"correct\": true}").is_err());
        assert!(Outcome::parse("{\"correct\": true,}").is_err());
        assert!(Outcome::parse("not json").is_err());
    }

    #[test]
    fn quoting_escapes_control_characters() {
        let q = quote("a\"b\\c\nd\u{1}");
        assert_eq!(q, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut p = Parser {
            s: q.as_bytes(),
            i: 0,
        };
        assert_eq!(p.string().as_deref(), Ok("a\"b\\c\nd\u{1}"));
    }
}
