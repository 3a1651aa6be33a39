//! The one format of every `results/BENCH_*.json` artifact: a small JSON
//! value with a writer and a parser.
//!
//! The writer keeps the artifacts' line layout, so a regenerated
//! artifact diffs line by line against the committed one: the top-level
//! object has one key per line, an array of rows has one row per line,
//! and everything else sits on the line of its key. The parser reads
//! files from disk, so malformed input is an `Err`, never a panic.
//!
//! The parser reads back what the writer writes, not all of RFC 8259:
//! string escapes are [`json_string`]'s (`\"`, `\\`, `\n`, `\r`, `\t`
//! and `\u00XX` for other control characters) and numbers have no
//! exponent, as Rust's `f64` display never writes one. Anything else is
//! an `Err`.

use std::fmt;
use std::path::Path;

use smc_telemetry::critical::json_string;

/// An object literal, keys in order: `obj! { "seed": 7, "ok": true }`.
/// Each value goes through `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::obj([$(($key, $crate::json::Json::from($value))),*])
    };
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of `fields`, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }

    /// `x` rounded to `decimals` places, as `format!("{x:.decimals$}")`
    /// rounds it: how an artifact records a ratio.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}").parse().unwrap_or(x))
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The field `key` of an object, if it is a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// The field `key` of an object as an array; empty when absent.
    pub fn items(&self, key: &str) -> &[Json] {
        match self.get(key) {
            Some(Json::Arr(items)) => items,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|x| *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64)
            .map(|x| x as u64)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON value (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Any deviation from the JSON grammar, named with its byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(parser.error("trailing characters after the value"));
        }
        Ok(value)
    }

    /// Reads and parses the file at `path`.
    ///
    /// # Errors
    ///
    /// An unreadable file or malformed JSON, naming the path.
    pub fn read(path: impl AsRef<Path>) -> Result<Json, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("'{}' is not JSON: {e}", path.display()))
    }

    /// Writes the value to `path` in the artifact layout (`{:#}`),
    /// newline-terminated.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, format!("{self:#}\n"))
    }

    /// Whether any element or field value is itself a container.
    fn nests(&self) -> bool {
        let container = |v: &Json| matches!(v, Json::Arr(_) | Json::Obj(_));
        match self {
            Json::Arr(items) => items.iter().any(container),
            Json::Obj(fields) => fields.iter().any(|(_, v)| container(v)),
            _ => false,
        }
    }

    /// Writes the value. An `expanded` container puts each element on
    /// its own line at `indent + 1`; an expanded object's value is
    /// expanded in turn when it nests containers, while array elements
    /// always stay on one line.
    fn render(&self, out: &mut impl fmt::Write, indent: usize, expanded: bool) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Num(x) if x.is_finite() => write!(out, "{x}"),
            Json::Num(_) => out.write_str("null"),
            Json::Str(s) => out.write_str(&json_string(s)),
            Json::Arr(items) => render_seq(out, "[]", items, indent, expanded, |out, item| {
                item.render(out, indent + 1, false)
            }),
            Json::Obj(fields) => render_seq(out, "{}", fields, indent, expanded, |out, (k, v)| {
                write!(out, "{}: ", json_string(k))?;
                v.render(out, indent + 1, expanded && v.nests())
            }),
        }
    }
}

/// Writes a bracketed sequence, one element per line when `expanded`.
fn render_seq<W: fmt::Write, T>(
    out: &mut W,
    brackets: &str,
    items: &[T],
    indent: usize,
    expanded: bool,
    mut item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    out.write_str(open)?;
    let expanded = expanded && !items.is_empty();
    for (i, element) in items.iter().enumerate() {
        match (expanded, i) {
            (true, _) => write!(out, "\n{:width$}", "", width = 2 * (indent + 1))?,
            (false, 0) => {}
            (false, _) => out.write_str(" ")?,
        }
        item(out, element)?;
        if i + 1 < items.len() {
            out.write_char(',')?;
        }
    }
    if expanded {
        write!(out, "\n{:width$}", "", width = 2 * indent)?;
    }
    out.write_str(close)
}

/// `{}` writes the value on one line; `{:#}` writes the artifact layout
/// described in the module docs.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0, f.alternate())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

from_number!(f64, u64, usize, i64);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

/// A recursive-descent parser over one JSON text.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nested too deeply"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.seq(b'}', |p| p.member(depth + 1)).map(Json::Obj),
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected a value"))
        }
    }

    /// A bracketed, comma-separated sequence closed by `close`; `pos` is
    /// on its opening bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    /// One `"key": value` member of an object.
    fn member(&mut self, depth: usize) -> Result<(String, Json), String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.error("expected ':'"));
        }
        self.pos += 1;
        Ok((key, self.value(depth)?))
    }

    /// A string literal; `pos` is on its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// One escape sequence; `pos` is just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = self
            .peek()
            .ok_or_else(|| self.error("unterminated string"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|d| u8::from_str_radix(d.strip_prefix("00")?, 16).ok())
                    .filter(|&code| code < 0x20)
                    .ok_or_else(|| self.error("expected \\u0000 to \\u001f"))?;
                self.pos += 4;
                char::from(code)
            }
            _ => return Err(self.error("unknown escape")),
        })
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        match self.digits() {
            0 => return Err(self.error("expected a digit")),
            n if leading_zero && n > 1 => return Err(self.error("leading zero")),
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("expected a digit after '.'"));
            }
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|e| self.error(&format!("bad number: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_the_artifact_layout() {
        let value = obj! {
            "bench": "demo",
            "config": obj! { "seeds": 2u64, "ratio": 1.5 },
            "detectors": obj! { "storm": obj! { "fired": 3u64 } },
            "runs": vec![
                obj! { "seed": 1u64, "ttr": vec![Json::Num(7.0)] },
                obj! { "seed": 2u64, "ttr": Vec::<Json>::new() },
            ],
            "empty": Vec::<Json>::new(),
            "none": None::<u64>,
        };
        let expected = r#"{
  "bench": "demo",
  "config": {"seeds": 2, "ratio": 1.5},
  "detectors": {
    "storm": {"fired": 3}
  },
  "runs": [
    {"seed": 1, "ttr": [7]},
    {"seed": 2, "ttr": []}
  ],
  "empty": [],
  "none": null
}"#;
        assert_eq!(format!("{value:#}"), expected);
        assert_eq!(Json::parse(expected).as_ref(), Ok(&value));
        let line = value.to_string();
        assert!(line.starts_with(r#"{"bench": "demo", "config": {"seeds": 2"#));
        assert_eq!(Json::parse(&line), Ok(value));
    }

    #[test]
    fn fixed_rounds_like_format() {
        assert_eq!(Json::fixed(1.07344, 4), Json::Num(1.0734));
        assert_eq!(Json::fixed(6.1349999, 3), Json::Num(6.135));
        assert_eq!(Json::fixed(1.0, 3).to_string(), "1");
    }

    #[test]
    fn escaped_strings_round_trip() {
        let text = "a \"quoted\" C:\\path\twith\u{01}bell and é";
        let value = Json::obj([(text, text.into())]);
        let written = value.to_string();
        assert!(written.contains(r#"\"quoted\" C:\\path\twith\u0001bell"#));
        assert_eq!(Json::parse(&written), Ok(value));
        assert_eq!(Json::parse(r#""\u001f""#), Ok(Json::Str("\u{1f}".into())));
    }

    #[test]
    fn numbers_follow_the_grammar() {
        assert_eq!(Json::parse("-0.5"), Ok(Json::Num(-0.5)));
        assert_eq!(Json::parse(" 20000 "), Ok(Json::Num(20000.0)));
        assert_eq!(Json::Num(20000.0).to_string(), "20000");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn malformed_input_is_an_error() {
        // One malformed input per line.
        let cases = r#"
{
[1, 2,]
{"a": 1,}
{"a": "unterminated}
"unterminated
NaN
{"x": NaN}
Infinity
-
01
1.
1e2
-0.5e2
.5
tru
{"a" 1}
{1: 2}
[1 2]
1 2
"\x"
"\u12"
"\u00+1"
"\u0020"
"\u00e9"
"\ud83d\ude00"
"\/"
"\b"
"#;
        for bad in cases.lines().chain(["\"raw\ncontrol\""]) {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn every_committed_artifact_round_trips() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("results directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable artifact");
            let value = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let rewritten = format!("{value:#}\n");
            assert_eq!(Json::parse(&rewritten).as_ref(), Ok(&value), "{name}");
            assert_eq!(
                rewritten.lines().count(),
                text.lines().count(),
                "{name} changes line layout when rewritten"
            );
            seen += 1;
        }
        assert!(seen >= 9, "only {seen} BENCH_*.json artifacts found");
    }
}
