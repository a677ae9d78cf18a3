//! A small JSON value with a writer and a parser.
//!
//! The container has no registry access, so results, golden files and
//! traces are read and written with this module instead of serde. Objects
//! keep insertion order so files diff cleanly.

use std::fmt::Write as _;

/// A JSON value. Objects are ordered key/value lists.
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
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends `key: value` (builder style; objects only).
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        self.set(key, value);
        self
    }

    /// Inserts or replaces `key` (objects only; a no-op on other values).
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        if let Value::Obj(fields) = self {
            let value = value.into();
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => fields.push((key.to_string(), value)),
            }
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a path of object keys.
    pub fn path(&self, keys: &[&str]) -> Option<&Value> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

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

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(f) => f,
            _ => &[],
        }
    }

    /// A list of numbers, or `None` if any element is not a number.
    pub fn as_f64_list(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Value::as_f64).collect()
    }

    /// One-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces), arrays of scalars kept on one line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_number(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                let inline = indent.is_none() || items.iter().all(Value::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if inline { ", " } else { "," });
                    }
                    if !inline {
                        newline(out, indent, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !inline && !items.is_empty() {
                    newline(out, indent, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_none() { ", " } else { "," });
                    }
                    newline(out, indent, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

/// Writes a number with every digit it has (shortest round-trip form);
/// non-finite values have no JSON spelling and become `null`.
fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else if x.abs() >= 1e-5 && x.abs() < 1e15 {
        let _ = write!(out, "{x}");
    } else {
        let _ = write!(out, "{x:e}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Num(x as f64)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::Num(x as f64)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Value {
        Value::Bool(x)
    }
}
impl From<&str> for Value {
    fn from(x: &str) -> Value {
        Value::Str(x.to_string())
    }
}
impl From<String> for Value {
    fn from(x: String) -> Value {
        Value::Str(x)
    }
}
impl From<Vec<Value>> for Value {
    fn from(x: Vec<Value>) -> Value {
        Value::Arr(x)
    }
}
impl From<&[f64]> for Value {
    fn from(x: &[f64]) -> Value {
        Value::Arr(x.iter().map(|&v| Value::Num(v)).collect())
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON syntax error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Value::Obj(fields));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_both_renderings() {
        let v = Value::obj()
            .with("name", "sweep \"n1000\"\n")
            .with("ok", true)
            .with("nothing", Value::Null)
            .with("count", 8372usize)
            .with("wall", 3.4376123)
            .with("tiny", 1.25e-12)
            .with("list", Value::from(&[1.0, 2.5, -3.0][..]))
            .with(
                "nested",
                Value::Arr(vec![Value::obj().with("a", 1.0), Value::obj()]),
            );
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn numbers_keep_every_digit() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 6.02214076e23, 2.5e-7, 948.0] {
            let text = Value::Num(x).to_compact();
            assert_eq!(text.parse::<f64>().unwrap(), x, "{text}");
        }
        assert_eq!(Value::Num(948.0).to_compact(), "948");
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn set_replaces_and_path_walks() {
        let mut v = Value::obj().with("a", Value::obj().with("b", 1.0));
        v.set("a", Value::obj().with("b", 2.0));
        assert_eq!(v.path(&["a", "b"]).and_then(Value::as_f64), Some(2.0));
        assert!(v.path(&["a", "c"]).is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
