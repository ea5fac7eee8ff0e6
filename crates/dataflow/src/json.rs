//! The repo's one JSON codec: a deterministic document builder and a
//! parser.
//!
//! There is no `serde` — the build environment is offline — so every
//! report, run artifact and trace export is built as a [`JVal`] and read
//! back with [`parse`].
//!
//! * [`JVal`] — a document tree whose object keys are sorted at write
//!   time, so two identical runs serialize to *byte-identical* JSON.
//!   Floats render shortest-roundtrip, integral finite values keep a
//!   trailing `.0` (a value's JSON type never flips between runs) and
//!   non-finite values collapse to `null`.
//! * [`Value`] / [`parse`] — a DOM parser, used to read an artifact's
//!   schema version back and by tests to verify exports.

use std::collections::HashMap;

/// Shortest-roundtrip float formatting; integral finite values keep a
/// trailing `.0` so they stay floats on re-parse, non-finite values become
/// `null`.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let formatted = format!("{}", v);
        out.push_str(&formatted);
        if !formatted.contains('.') && !formatted.contains('e') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Writes `v` as a quoted, escaped JSON string.
fn write_string(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// An unsigned integer, rendered without a decimal point.
    UInt(u64),
    /// A float, rendered shortest-roundtrip with a forced `.0`/exponent
    /// marker; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array, rendered in order.
    Arr(Vec<JVal>),
    /// An object; keys are sorted (bytewise) at render time regardless of
    /// insertion order.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JVal)>) -> JVal {
        JVal::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: &str) -> JVal {
        JVal::Str(s.to_string())
    }

    /// Convenience: `Num` when present, `Null` otherwise.
    pub fn opt_num(v: Option<f64>) -> JVal {
        v.map(JVal::Num).unwrap_or(JVal::Null)
    }

    /// Renders the document compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JVal::Int(i) => out.push_str(&i.to_string()),
            JVal::UInt(u) => out.push_str(&u.to_string()),
            JVal::Num(v) => write_f64(out, *v),
            JVal::Str(s) => write_string(out, s),
            JVal::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JVal::Obj(pairs) => {
                let mut sorted: Vec<&(String, JVal)> = pairs.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                for (i, (k, v)) in sorted.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(HashMap<String, Value>),
}

impl Value {
    /// The value at `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric payload.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses a complete JSON document; `Err` carries the byte offset of the
/// first syntax error.
pub fn parse(input: &str) -> Result<Value, usize> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(pos);
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, usize> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
        None => Err(*pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, usize> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(*pos)
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, usize> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or(start)
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, usize> {
    if b.get(*pos) != Some(&b'"') {
        return Err(*pos);
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos).ok_or(*pos)? {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos).ok_or(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or(*pos)?;
                        let code =
                            u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| *pos)?, 16)
                                .map_err(|_| *pos)?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(*pos),
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| *pos)?;
                let c = rest.chars().next().ok_or(*pos)?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, usize> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(*pos),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, usize> {
    *pos += 1; // '{'
    let mut map = HashMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(*pos);
        }
        *pos += 1;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(*pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_regardless_of_insertion_order() {
        let a = JVal::obj(vec![("b", JVal::Int(2)), ("a", JVal::Int(1))]);
        let b = JVal::obj(vec![("a", JVal::Int(1)), ("b", JVal::Int(2))]);
        assert_eq!(a.render(), "{\"a\":1,\"b\":2}");
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn floats_keep_a_type_marker_and_nan_is_null() {
        assert_eq!(JVal::Num(2.0).render(), "2.0");
        assert_eq!(JVal::Num(f64::NAN).render(), "null");
        assert_eq!(JVal::UInt(2).render(), "2");
        assert_eq!(JVal::Num(1.5e-7).render(), "0.00000015");
    }

    #[test]
    fn rendered_documents_parse() {
        let doc = JVal::obj(vec![
            ("name", JVal::str("a\"b\\c\n")),
            (
                "xs",
                JVal::Arr(vec![JVal::Int(1), JVal::Null, JVal::Bool(true)]),
            ),
            ("nested", JVal::obj(vec![("z", JVal::Num(0.5))])),
        ]);
        let parsed = parse(&doc.render()).expect("valid JSON");
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("a\"b\\c\n")
        );
        assert_eq!(
            parsed
                .get("nested")
                .and_then(|n| n.get("z"))
                .and_then(|v| v.as_f64()),
            Some(0.5)
        );
        assert_eq!(
            parsed.get("xs").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn parse_roundtrips_escapes() {
        let v = parse("{\"k\":\"a\\\"b\\u0041\"}").expect("parse");
        assert_eq!(v.get("k").and_then(|s| s.as_str()), Some("a\"bA"));
    }

    #[test]
    fn writer_output_round_trips_through_the_parser() {
        // Every control character, the escapes with short forms, and
        // non-ASCII text survive write → parse unchanged.
        let mut nasty: String = (0u8..0x20).map(char::from).collect();
        nasty.push_str("\"\\/ é ✓");
        let mut out = String::new();
        write_string(&mut out, &nasty);
        assert_eq!(parse(&out), Ok(Value::Str(nasty)));

        // Floats: sign of zero and magnitude survive; integral values keep
        // a float marker; non-finite values become `null`.
        let cases = [
            (-0.0, "-0.0"),
            (1e21, "1000000000000000000000.0"),
            (0.1, "0.1"),
            (-2.5e-9, "-0.0000000025"),
        ];
        for (v, text) in cases {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert_eq!(out, text);
            let back = parse(&out)
                .and_then(|p| p.as_f64().ok_or(0))
                .expect("number");
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert_eq!(out, "null");
            assert_eq!(parse(&out), Ok(Value::Null));
        }
    }
}
