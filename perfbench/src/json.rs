//! The record format: a minimal JSON value with a writer and a parser (the
//! workspace builds offline with no external crates). Records are written
//! one per line to `perfbench/out/records.jsonl`; rank processes hand their
//! results to the launcher in the same format.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so records read the same
/// way every time.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Chainable form of [`Json::set`].
    pub fn with(mut self, key: &str, val: impl Into<Json>) -> Json {
        self.set(key, val);
        self
    }

    /// Set `key` in an object, replacing an earlier value.
    pub fn set(&mut self, key: &str, val: impl Into<Json>) {
        let Json::Obj(kv) = self else {
            panic!("Json::set on a non-object")
        };
        let val = val.into();
        match kv.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = val,
            None => kv.push((key.to_string(), val)),
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Number member `key`, or 0 when absent.
    pub fn f(&self, key: &str) -> f64 {
        self.get(key).and_then(Json::num).unwrap_or(0.0)
    }

    /// The members of an object (empty for anything else).
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }

    /// Array member `key` read as whole numbers (empty when absent).
    pub fn u64s(&self, key: &str) -> Vec<u64> {
        match self.get(key) {
            Some(Json::Arr(a)) => a.iter().filter_map(Json::num).map(|x| x as u64).collect(),
            _ => Vec::new(),
        }
    }

    /// Serialize on one line.
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                // `{}` on f64 prints the shortest string that parses back
                // to the same value, so numbers keep all their digits.
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<&[u64]> for Json {
    fn from(v: &[u64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::from(x)).collect())
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(a));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {s:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => {
                    // Copy the whole UTF-8 sequence starting at `c`.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.b.len() && (self.b[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.i = end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Json {
        Json::obj()
            .with("schema", "perfbench/1")
            .with("workload", "dht_proc")
            .with("seed", 7u64)
            .with("trace", true)
            .with(
                "host",
                Json::obj()
                    .with("nproc", 2u64)
                    .with("clock_read_ns", 46.71)
                    .with("git_rev", Json::Null)
                    .with("cpu", "Xeon \"quoted\" \\ tab\t é"),
            )
            .with(
                "result",
                Json::obj()
                    .with("correct", true)
                    .with("attempted", 123456u64)
                    .with("failed", 0u64)
                    .with(
                        "metrics",
                        Json::obj().with(
                            "op_p50_us",
                            Json::obj().with("value", 12.0345).with("unit", "us"),
                        ),
                    ),
            )
            .with("lat_ns", &[1u64, 22, 333][..])
            .with("empty", Json::Arr(vec![]))
            .with("nested", Json::obj())
            .with("tiny", 1.25e-7)
            .with("neg", -3.5)
    }

    #[test]
    fn record_round_trips_exactly() {
        let r = sample_record();
        let line = r.to_line();
        assert!(!line.contains('\n'), "records are one line");
        let back = Json::parse(&line).expect("parse own output");
        assert_eq!(back, r);
        assert_eq!(
            back.get("lat_ns").map(|_| r.u64s("lat_ns")),
            Some(vec![1, 22, 333])
        );
        assert_eq!(back.f("seed"), 7.0);
        assert_eq!(back.f("missing"), 0.0);
    }

    #[test]
    fn parses_foreign_spacing_and_rejects_garbage() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5e3 , null ] ,\n \"b\":\"\\u0041\" } ").unwrap();
        assert_eq!(v.get("b"), Some(&Json::Str("A".into())));
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2500.0),
                Json::Null
            ]))
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn set_replaces_and_non_finite_becomes_null() {
        let mut o = Json::obj().with("x", 1u64);
        o.set("x", 2u64);
        assert_eq!(o.members().len(), 1);
        assert_eq!(o.f("x"), 2.0);
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }
}
