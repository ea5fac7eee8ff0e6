//! The JSON the benchmark writes: result files, the span file and the last
//! line of standard output. Reading goes through the repository's own
//! `microjson`, so this file only renders.

use keystoneml::dataflow::metrics::microjson;

/// A JSON value; objects keep insertion order so files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest digits that read back to the same
            // f64, so a time keeps every digit it was measured with.
            Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
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

/// Parses a file the benchmark (or the builder's contract) wrote.
pub fn parse_file(path: &std::path::Path) -> Result<microjson::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    microjson::parse(&text)
        .map_err(|at| format!("{}: JSON syntax error at byte {at}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_microjson() {
        let doc = Json::obj([
            ("name", Json::str("fit \"wall\"\n\\s\t\u{1}")),
            ("value", Json::Num(0.1 + 0.2)),
            ("count", Json::Num(1000.0)),
            ("tiny", Json::Num(3.6e-5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("nan", Json::Num(f64::NAN)),
            (
                "rows",
                Json::Arr(vec![Json::Num(-1.5), Json::obj([("k", Json::str("v"))])]),
            ),
        ]);
        let parsed = microjson::parse(&doc.render()).expect("writer emits valid JSON");
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("fit \"wall\"\n\\s\t\u{1}")
        );
        // Every digit survives: the parsed number is the same f64.
        assert_eq!(
            parsed.get("value").and_then(|v| v.as_f64()),
            Some(0.1 + 0.2)
        );
        assert_eq!(parsed.get("count").and_then(|v| v.as_f64()), Some(1000.0));
        assert_eq!(parsed.get("tiny").and_then(|v| v.as_f64()), Some(3.6e-5));
        assert_eq!(parsed.get("ok"), Some(&microjson::Value::Bool(true)));
        assert_eq!(parsed.get("none"), Some(&microjson::Value::Null));
        assert_eq!(parsed.get("nan"), Some(&microjson::Value::Null));
        let rows = parsed.get("rows").and_then(|v| v.as_arr()).expect("array");
        assert_eq!(rows[0].as_f64(), Some(-1.5));
        assert_eq!(rows[1].get("k").and_then(|v| v.as_str()), Some("v"));
    }
}
