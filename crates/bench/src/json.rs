//! Minimal JSON writing for machine-readable benchmark output.
//!
//! The workspace deliberately has no external dependencies, so the
//! `perfbench` benchmark's result line and its Chrome trace-event files
//! are built from this small JSON value model: just enough to assemble
//! a document and render it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`; bench records stay well inside
    /// the exactly-representable integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Convenience constructor for an empty object.
    pub fn object() -> Value {
        Value::Object(BTreeMap::new())
    }

    /// Inserts `key` into an object value (panics on non-objects: the
    /// bench writer only builds objects).
    pub fn set(&mut self, key: &str, value: Value) {
        match self {
            Value::Object(map) => {
                map.insert(key.to_owned(), value);
            }
            other => panic!("set({key}) on non-object {other:?}"),
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let mut root = Value::object();
        let mut inner = Value::object();
        inner.set("cycles", Value::Num(12345.0));
        inner.set("rate", Value::Num(1.5));
        inner.set("name", Value::Str("idea \"32kb\"\n".to_owned()));
        root.set("fig9", inner);
        root.set("list", Value::Array(vec![Value::Bool(true), Value::Null]));
        root.set("empty", Value::object());
        assert_eq!(
            root.render(),
            r#"{
  "empty": {},
  "fig9": {
    "cycles": 12345,
    "name": "idea \"32kb\"\n",
    "rate": 1.5
  },
  "list": [
    true,
    null
  ]
}
"#
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::Num(42.0).render(), "42\n");
        assert_eq!(Value::Num(0.25).render(), "0.25\n");
    }
}
