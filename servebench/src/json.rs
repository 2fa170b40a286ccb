//! Just enough JSON: flattening the server's `/v1/metrics` document into
//! dotted numeric keys, and writing the harness's own reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Flattens every numeric leaf of a JSON document into `a.b.c -> value`
/// (booleans become 0/1; strings and nulls are skipped).
pub fn flatten_numbers(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut parser = Parser { s: text.as_bytes(), i: 0 };
    let mut out = BTreeMap::new();
    parser.value("", &mut out)?;
    Ok(out)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    match esc {
                        b'u' => {
                            self.i += 4;
                            out.push('?');
                        }
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        other => out.push(other as char),
                    }
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn value(&mut self, key: &str, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
        let join = |k: &str| if key.is_empty() { k.to_string() } else { format!("{key}.{k}") };
        match self.peek().ok_or("unexpected end of document")? {
            b'{' => {
                self.i += 1;
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    let k = self.string()?;
                    self.expect(b':')?;
                    self.value(&join(&k), out)?;
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut idx = 0;
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.value(&join(&idx.to_string()), out)?;
                    idx += 1;
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            b'"' => self.string().map(|_| ()),
            b't' | b'f' | b'n' => {
                let word: &[u8] = match self.s[self.i] {
                    b't' => b"true",
                    b'f' => b"false",
                    _ => b"null",
                };
                if !self.s[self.i..].starts_with(word) {
                    return Err(format!("bad literal at byte {}", self.i));
                }
                self.i += word.len();
                if word != b"null" {
                    out.insert(key.to_string(), f64::from(u8::from(word == b"true")));
                }
                Ok(())
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
                let v: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
                out.insert(key.to_string(), v);
                Ok(())
            }
        }
    }
}

/// Escapes a string for a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number: finite values with full precision, non-finite as null.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An ordered JSON object under construction (values are raw JSON).
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn raw(mut self, key: &str, json: impl Into<String>) -> Self {
        self.0.push((key.to_string(), json.into()));
        self
    }

    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, num(v))
    }

    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, format!("\"{}\"", escape(v)))
    }

    pub fn push_raw(&mut self, key: &str, json: impl Into<String>) {
        self.0.push((key.to_string(), json.into()));
    }

    pub fn render(&self) -> String {
        let parts: Vec<String> =
            self.0.iter().map(|(k, v)| format!("\"{}\":{}", escape(k), v)).collect();
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_nested_metrics() {
        let doc =
            r#"{"a": 1, "mine": {"runs": 2, "wall_ms": 3.5}, "x": "s", "b": true, "n": null}"#;
        let m = flatten_numbers(doc).unwrap();
        assert_eq!(m["a"], 1.0);
        assert_eq!(m["mine.runs"], 2.0);
        assert_eq!(m["mine.wall_ms"], 3.5);
        assert_eq!(m["b"], 1.0);
        assert!(!m.contains_key("x") && !m.contains_key("n"));
    }
}
