//! The one JSON module of the workspace: every document the workspace
//! emits (the `BENCH_*.json` records, the Chrome trace) is a [`Value`] tree
//! — usually built with the [`json!`](crate::json) macro — serialized by
//! [`write()`], and [`parse`] reads them back. The workspace is hermetic, so
//! there is no serde to lean on. Both cover the full grammar: objects,
//! arrays, strings (with escapes incl. `\uXXXX`), numbers, booleans, null.
//!
//! The writer takes no layout argument; the value's shape decides. A
//! container spans lines, one member per line indented two spaces a level,
//! when an array somewhere inside it holds a container; any other container
//! is written on one line (`{ "k": 1, "v": [2, 3] }`). A number is written
//! as the token it was built with ([`Value::fixed`], [`Value::sci`], an
//! integer or an `f64`'s shortest round-trip text), so each field keeps the
//! precision its producer chose.

use std::fmt::Write as _;

/// A parsed or to-be-written JSON value. Objects preserve key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(Number),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// A JSON number, kept as its token: a writer keeps each field's printed
/// precision and a parse keeps the source's text, so write → parse gives
/// back the same tree. Built only from a finite `f64`'s formatting, an
/// integer, or a token the parser accepted.
#[derive(Clone, Debug, PartialEq)]
pub struct Number(String);

/// `text` is how `x` is formatted; JSON has no NaN or infinity.
fn number(x: f64, text: String) -> Value {
    assert!(x.is_finite(), "JSON numbers are finite, got {x}");
    Value::Num(Number(text))
}

/// Builds a [`Value`] from JSON syntax: `json!({ "k": expr, "o": { .. },
/// "a": [expr, ..] })`. Any other value is an expression with an
/// `Into<Value>` conversion (a `Value` itself included).
#[macro_export]
macro_rules! json {
    (@fields [$($done:tt)*]) => { vec![$($done)*] };
    // A one-token value (`{ .. }`, `[ .. ]`, a name or a literal), else an
    // expression.
    (@fields [$($done:tt)*] $key:literal : $v:tt $(, $($rest:tt)*)?) => {
        $crate::json!(@fields [$($done)* ($key.to_string(), $crate::json!($v)),] $($($rest)*)?)
    };
    (@fields [$($done:tt)*] $key:literal : $v:expr $(, $($rest:tt)*)?) => {
        $crate::json!(@fields [$($done)* ($key.to_string(), $crate::json!($v)),] $($($rest)*)?)
    };
    ({ $($fields:tt)* }) => {
        $crate::trace::json::Value::Obj($crate::json!(@fields [] $($fields)*))
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::trace::json::Value::Arr(vec![$($crate::json!($item)),*])
    };
    ($value:expr) => { $crate::trace::json::Value::from($value) };
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(Number(text)) => text.parse().ok(),
            _ => None,
        }
    }

    /// `x` with `places` digits after the point (`{:.places$}`).
    pub fn fixed(x: f64, places: usize) -> Value {
        number(x, format!("{x:.places$}"))
    }

    /// `x` in Rust's shortest round-trip scientific form (`{:e}`, e.g.
    /// `4.00512e-6`).
    pub fn sci(x: f64) -> Value {
        number(x, format!("{x:e}"))
    }
}

/// `x` in Rust's shortest round-trip decimal form (`{}`).
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        number(x, x.to_string())
    }
}

macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(Number(n.to_string()))
            }
        }
    )*};
}
integer_values!(u32, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Serializes `value` as a document: the layout the module doc describes,
/// then a final newline.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

/// True when an array somewhere inside `v` holds a container.
fn spans_lines(v: &Value) -> bool {
    match v {
        Value::Arr(items) => items.iter().any(|i| matches!(i, Value::Arr(_) | Value::Obj(_))),
        Value::Obj(fields) => fields.iter().any(|(_, v)| spans_lines(v)),
        _ => false,
    }
}

fn write_value(out: &mut String, v: &Value, depth: usize) {
    let (open, close, members): (_, _, Vec<_>) = match v {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Num(Number(text)) => return out.push_str(text),
        Value::Str(s) => return write_str(out, s),
        Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(k), v)).collect()),
    };
    let multiline = spans_lines(v);
    // Between members: a newline and indent, or a space. One-line objects
    // also pad their braces (`{ "k": 1 }`, but `[1, 2]` and `{}`).
    let gap = |out: &mut String, depth: usize, pad: bool| {
        if multiline {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        } else if pad {
            out.push(' ');
        }
    };
    let pad = open == '{' && !members.is_empty();
    out.push(open);
    for (i, (key, v)) in members.into_iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        gap(out, depth + 1, pad || i > 0);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_value(out, v, depth + 1);
    }
    gap(out, depth, pad);
    out.push(close);
}

/// Writes `s` as a quoted JSON string literal.
fn write_str(out: &mut String, s: &str) {
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

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_members(b, pos, b'}', parse_field).map(Value::Obj),
        Some(b'[') => parse_members(b, pos, b']', parse_value).map(Value::Arr),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// Parses a container from its opening bracket at `pos` through `close`:
/// comma-separated members, each read by `member`.
fn parse_members<T>(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    member: fn(&[u8], &mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    *pos += 1;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(members);
    }
    loop {
        members.push(member(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(members);
            }
            _ => return Err(format!("expected ',' or '{}' at byte {}", close as char, *pos)),
        }
    }
}

fn parse_field(b: &[u8], pos: &mut usize) -> Result<(String, Value), String> {
    skip_ws(b, pos);
    let key = parse_string(b, pos)?;
    skip_ws(b, pos);
    expect(b, pos, b':')?;
    Ok((key, parse_value(b, pos)?))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs are not needed by our emitter;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape \\{} at byte {}", esc as char, *pos)),
                }
            }
            _ => {
                // Take the whole run of plain bytes up to the next quote or
                // escape and UTF-8-validate it once. (`"` and `\` are ASCII,
                // so they never appear inside a multi-byte sequence.)
                // Validating from `start` to end-of-input per character made
                // this O(n^2) on megabyte documents.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && b[end] != b'"' && b[end] != b'\\' {
                    end += 1;
                }
                let s = std::str::from_utf8(&b[start..end]).map_err(|_| "invalid UTF-8")?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number bytes")?;
    s.parse::<f64>().map_err(|_| format!("invalid number {s:?} at byte {start}"))?;
    Ok(Value::Num(Number(s.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\n\"yA"}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-0.03));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\n\"yA"));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"k\" 1}").is_err());
    }

    #[test]
    fn multibyte_runs_and_escapes_interleave() {
        let v = parse(r#""héllo é wörld → \"q\" done""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo é wörld → \"q\" done"));
    }

    #[test]
    fn megabyte_documents_parse_in_linear_time() {
        // Regression guard for the O(n^2) string scanner: a ~1 MB array of
        // string-bearing objects (the Chrome-trace shape) must parse fast
        // enough that the suite doesn't notice. The quadratic version took
        // tens of seconds here.
        let item = r#"{"name": "broadcast_shared", "ph": "X", "dur": 1.5},"#;
        let mut doc = String::from("[");
        while doc.len() < 1 << 20 {
            doc.push_str(item);
        }
        doc.push_str(r#"{"name": "end"}]"#);
        let v = parse(&doc).unwrap();
        let arr = v.as_array().unwrap();
        assert!(arr.len() > 10_000);
        assert_eq!(arr[0].get("name").and_then(Value::as_str), Some("broadcast_shared"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse(" { } ").unwrap(), Value::Obj(vec![]));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(write(&"a\"b\\c\nd".into()), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(write(&"\u{1}".into()), "\"\\u0001\"\n");
    }

    #[test]
    fn layout_follows_the_value_shape() {
        let rows = vec![crate::json!({ "n": 1usize }), crate::json!({})];
        let doc = crate::json!({
            "units": { "t": "s" }, "lens": [16usize, 64usize], "empty": [], "rows": rows
        });
        let want = r#"{
  "units": { "t": "s" },
  "lens": [16, 64],
  "empty": [],
  "rows": [
    { "n": 1 },
    {}
  ]
}
"#;
        assert_eq!(write(&doc), want);
    }

    #[test]
    fn numbers_keep_their_token() {
        let nums = vec![
            Value::fixed(0.5, 3),
            Value::fixed(-2483885.4, 0),
            Value::sci(4.00512e-6),
            Value::sci(0.0),
            2.0.into(),
            0.1.into(),
            7usize.into(),
        ];
        assert_eq!(write(&Value::Arr(nums)), "[0.500, -2483885, 4.00512e-6, 0e0, 2, 0.1, 7]\n");
        assert_eq!(parse("1.500").unwrap().as_f64(), Some(1.5));
        assert_ne!(parse("1.500").unwrap(), parse("1.5").unwrap(), "the token is the number");
    }

    #[test]
    #[should_panic(expected = "JSON numbers are finite")]
    fn nan_is_not_a_number() {
        let _ = Value::fixed(f64::NAN, 3);
    }
}
