//! A dependency-free JSON parser, escaper and writer, and one schema
//! walker for every JSON document the workspace emits.
//!
//! The workspace is offline-buildable with zero external crates, so its
//! JSON is hand-written — and hand-written emitters rot silently. This
//! module closes the loop: a small recursive-descent parser ([`parse`],
//! depth-capped and linear in string length, so fitsd can feed it
//! untrusted request bodies) and a walker ([`check`]) over declarative
//! [`Shape`] tables. Each document validator here and in `fits-serve` is
//! its table plus only the rules that relate one field to another; the
//! CLIs run them over their *own* output before reporting success.
//!
//! ## Trace JSONL schema
//!
//! One JSON object per line; every object carries a string `"type"`:
//!
//! * `"meta"` — first line; `kernel`, `scale` (string), `icache` (string),
//!   `scenario` (string — the machine-description id the run simulated on);
//! * `"span"` — `path` (string), `ms` (number ≥ 0), `count` (number ≥ 0);
//! * `"block"` — `addr` (string, hex), `label` (string), `func` (string),
//!   and `arm` / `fits` objects each with numeric `retired`, `fetches`,
//!   `switching_j`, `internal_j`, `leakage_j`;
//! * `"summary"` — `isa` (string), numeric `cycles`, `retired`,
//!   `switching_j`, `internal_j`, `leakage_j`.

use std::fmt;

/// A parsed JSON value. Objects preserve key order (the emitter's order is
/// part of what the validator sees).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` for other variants or missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap bounds its stack use on hostile input; the
/// deepest document the workspace emits, a traced fitsd flight dump, nests
/// 8 levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.to_string(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", byte as char))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, JsonError>) -> Result<Value, JsonError> {
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return self.err("expected 4 hex digits"),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one slice. Those bytes are ASCII, so they never fall inside
            // a multi-byte UTF-8 sequence and the run ends on a boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => return self.err("unescaped control character"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(JsonError {
                offset: start,
                message: format!("invalid number '{text}'"),
            }),
        }
    }
}

/// Parses one complete JSON value, rejecting trailing garbage.
///
/// # Errors
///
/// A [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return p.err("trailing characters after value");
    }
    Ok(value)
}

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------- writer

/// What the writer is currently inside of, and whether a separator is due.
#[derive(Clone, Copy, Debug)]
enum Frame {
    Obj { first: bool },
    Arr { first: bool },
}

/// A streaming JSON builder that makes escaping and nesting bugs
/// impossible by construction.
///
/// Every string value and key goes through [`escape`]; commas and braces
/// are managed by a frame stack, so an emitter built on this writer can
/// produce malformed output only by asking for an ill-formed *shape*
/// (e.g. a key at array level) — and those misuses are repaired rather
/// than panicking: a stray key is dropped, unclosed frames are closed by
/// [`Writer::finish`]. Hand-`format!`ed JSON throughout the workspace is
/// being replaced with this builder; the `fitsd` metrics snapshot and the
/// access-log event lines are built with it.
///
/// ```
/// use fits_obs::json::{parse, Writer};
/// let mut w = Writer::new();
/// w.begin_obj();
/// w.field_str("name", "needs \"escaping\"\n");
/// w.key("items");
/// w.begin_arr();
/// w.u64(1);
/// w.u64(2);
/// w.end_arr();
/// w.end_obj();
/// let text = w.finish();
/// assert!(parse(&text).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
    stack: Vec<Frame>,
    /// A `key()` was written and awaits its value.
    pending_key: bool,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Emits the separator due before a new value in the current frame.
    fn separate(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return; // `key()` already wrote `"key":` — the value follows.
        }
        match self.stack.last_mut() {
            Some(Frame::Obj { first } | Frame::Arr { first }) => {
                if *first {
                    *first = false;
                } else {
                    self.buf.push(',');
                }
            }
            None => {}
        }
    }

    /// Writes an object key. Must be followed by exactly one value call;
    /// outside an object the key is dropped (the value still lands).
    pub fn key(&mut self, name: &str) {
        if !matches!(self.stack.last(), Some(Frame::Obj { .. })) || self.pending_key {
            return; // shape misuse: drop the key, keep the document valid
        }
        self.separate();
        self.buf.push('"');
        self.buf.push_str(&escape(name));
        self.buf.push_str("\": ");
        self.pending_key = true;
    }

    /// Opens an object (as the current value).
    pub fn begin_obj(&mut self) {
        self.separate();
        self.buf.push('{');
        self.stack.push(Frame::Obj { first: true });
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        if matches!(self.stack.last(), Some(Frame::Obj { .. })) {
            self.stack.pop();
            self.buf.push('}');
        }
    }

    /// Opens an array (as the current value).
    pub fn begin_arr(&mut self) {
        self.separate();
        self.buf.push('[');
        self.stack.push(Frame::Arr { first: true });
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        if matches!(self.stack.last(), Some(Frame::Arr { .. })) {
            self.stack.pop();
            self.buf.push(']');
        }
    }

    /// Writes a string value (escaped).
    pub fn str(&mut self, v: &str) {
        self.separate();
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.separate();
        self.buf.push_str(&v.to_string());
    }

    /// Writes a float value. Non-finite inputs (which JSON cannot
    /// represent) degrade to `0` — the report degrades, never the
    /// document.
    pub fn f64(&mut self, v: f64) {
        self.separate();
        if v.is_finite() {
            self.buf.push_str(&v.to_string());
        } else {
            self.buf.push('0');
        }
    }

    /// Writes a float value with fixed decimal precision.
    pub fn f64_prec(&mut self, v: f64, decimals: usize) {
        self.separate();
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.decimals$}"));
        } else {
            self.buf.push('0');
        }
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.separate();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Embeds a pre-rendered JSON fragment verbatim (for composing with
    /// emitters that already validate their own output).
    pub fn raw(&mut self, json: &str) {
        self.separate();
        self.buf.push_str(json);
    }

    /// `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str(v);
    }

    /// `key` + unsigned integer value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// `key` + float value (shortest representation).
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    /// `key` + float value with fixed precision.
    pub fn field_f64_prec(&mut self, k: &str, v: f64, decimals: usize) {
        self.key(k);
        self.f64_prec(v, decimals);
    }

    /// `key` + boolean value.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool(v);
    }

    /// `key` + raw pre-rendered fragment.
    pub fn field_raw(&mut self, k: &str, json: &str) {
        self.key(k);
        self.raw(json);
    }

    /// Finishes the document, closing any frames left open, and returns
    /// the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        if self.pending_key {
            // A key with no value would be malformed; null it out.
            self.buf.push_str("null");
            self.pending_key = false;
        }
        while let Some(frame) = self.stack.pop() {
            self.buf.push(match frame {
                Frame::Obj { .. } => '}',
                Frame::Arr { .. } => ']',
            });
        }
        self.buf
    }
}

// ---------------------------------------------------------------- shapes

/// The shape a JSON value must have. Every document validator in the
/// workspace is a table of shapes walked by [`check`], plus only the rules
/// that relate one field to another.
#[derive(Clone, Copy)]
pub enum Shape {
    /// Any string.
    Str,
    /// Any number.
    Num,
    /// A number `>= 0`.
    NonNeg,
    /// `true` or `false`.
    Bool,
    /// Exactly this string (schema ids, record tags).
    Lit(&'static str),
    /// An object. Each row `(keys, shape)` requires every
    /// whitespace-separated key as a member of that shape. A key may sit in
    /// several rows (each applies); members no row names are allowed.
    Obj(&'static [(&'static str, Shape)]),
    /// An object member that may be absent; checked when present.
    Opt(&'static Shape),
    /// An array whose every item has this shape.
    Arr(&'static Shape),
    /// A non-empty array whose every item has this shape.
    NonEmpty(&'static Shape),
}

use Shape::{Arr, Bool, Lit, NonEmpty, NonNeg, Num, Obj, Opt, Str};

impl Shape {
    /// The literal an object shape requires of member `key`: how tables of
    /// record variants are told apart (`"type"`, `"endpoint"`).
    #[must_use]
    pub fn tag(&self, key: &str) -> Option<&'static str> {
        match self {
            Obj(rows) => rows.iter().find_map(|(keys, s)| match s {
                Lit(lit) if keys.split_ascii_whitespace().any(|k| k == key) => Some(*lit),
                _ => None,
            }),
            _ => None,
        }
    }

    fn kind(&self) -> String {
        match self {
            Str => "string".to_string(),
            Num => "number".to_string(),
            NonNeg => "non-negative number".to_string(),
            Bool => "boolean".to_string(),
            Lit(lit) => format!("\"{lit}\""),
            Obj(_) => "object".to_string(),
            Opt(inner) => inner.kind(),
            Arr(_) => "array".to_string(),
            NonEmpty(_) => "non-empty array".to_string(),
        }
    }
}

/// Checks `v` against `shape`. An error names the JSON pointer of the
/// offending value and, for a missing member, its key:
/// `/scenarios/2/fits: missing non-negative number field "peak_w"`.
///
/// # Errors
///
/// A description of the first value that does not fit.
pub fn check(v: &Value, shape: &Shape) -> Result<(), String> {
    walk(v, shape).map_err(|(at, what)| {
        if at.is_empty() {
            what
        } else {
            format!("{at}: {what}")
        }
    })
}

/// [`check`], with the failure's pointer built on the way back up so a
/// valid document allocates nothing.
fn walk(v: &Value, shape: &Shape) -> Result<(), (String, String)> {
    let fits = match (shape, v) {
        (Str, Value::Str(_)) | (Num, Value::Num(_)) | (Bool, Value::Bool(_)) => true,
        (NonNeg, Value::Num(n)) => *n >= 0.0,
        (Lit(lit), Value::Str(s)) => lit == s,
        (Opt(inner), _) => return walk(v, inner),
        (Obj(rows), Value::Obj(_)) => {
            for (keys, member) in *rows {
                for key in keys.split_ascii_whitespace() {
                    match v.get(key) {
                        Some(m) => walk(m, member).map_err(|(at, e)| (format!("/{key}{at}"), e))?,
                        None if matches!(member, Opt(_)) => {}
                        None => {
                            let what = format!("missing {} field \"{key}\"", member.kind());
                            return Err((String::new(), what));
                        }
                    }
                }
            }
            true
        }
        (Arr(item) | NonEmpty(item), Value::Arr(items)) => {
            for (i, it) in items.iter().enumerate() {
                walk(it, item).map_err(|(at, e)| (format!("/{i}{at}"), e))?;
            }
            !(matches!(shape, NonEmpty(_)) && items.is_empty())
        }
        _ => false,
    };
    if fits {
        Ok(())
    } else {
        Err((String::new(), format!("expected {}", shape.kind())))
    }
}

/// Every single-member corruption of `doc` reachable through `shape`, as
/// compact JSON text: each required member is removed, and each present
/// member is retyped (a number becomes a string, anything else a number).
/// Arrays are entered through their first item. A validator whose tables
/// are complete rejects every mutant of a document it accepts.
#[must_use]
pub fn mutants(doc: &Value, shape: &Shape) -> Vec<String> {
    fn mutate(v: &Value, shape: &Shape, out: &mut Vec<Value>) {
        match (shape, v) {
            (Opt(inner), _) => mutate(v, inner, out),
            (Obj(rows), Value::Obj(fields)) => {
                for (keys, member) in *rows {
                    for key in keys.split_ascii_whitespace() {
                        let Some(i) = fields.iter().position(|(k, _)| k == key) else {
                            continue;
                        };
                        let mut children = vec![match fields[i].1 {
                            Value::Num(_) => Value::Str("0".to_string()),
                            _ => Value::Num(0.0),
                        }];
                        mutate(&fields[i].1, member, &mut children);
                        for child in children {
                            let mut copy = fields.clone();
                            copy[i].1 = child;
                            out.push(Value::Obj(copy));
                        }
                        if !matches!(member, Opt(_)) {
                            let mut copy = fields.clone();
                            copy.remove(i);
                            out.push(Value::Obj(copy));
                        }
                    }
                }
            }
            (Arr(item) | NonEmpty(item), Value::Arr(items)) if !items.is_empty() => {
                let mut children = Vec::new();
                mutate(&items[0], item, &mut children);
                for child in children {
                    let mut copy = items.clone();
                    copy[0] = child;
                    out.push(Value::Arr(copy));
                }
            }
            _ => {}
        }
    }
    fn render(v: &Value) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        match v {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => n.to_string(),
            Value::Str(s) => format!("\"{}\"", escape(s)),
            Value::Arr(items) => format!("[{}]", join(items.iter().map(render).collect())),
            Value::Obj(fields) => format!(
                "{{{}}}",
                join(
                    fields
                        .iter()
                        .map(|(k, v)| format!("\"{}\":{}", escape(k), render(v)))
                        .collect()
                )
            ),
        }
    }
    let mut out = Vec::new();
    mutate(doc, shape, &mut out);
    out.iter().map(render).collect()
}

/// The items of array member `key` (empty when absent: only read after a
/// [`check`] has passed).
fn items<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

/// The string member `key` (empty when absent: only read after a
/// [`check`] has passed).
pub(crate) fn text_of<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or_default()
}

/// Rejects the first repeated `"id"` among `records`.
fn unique_ids(records: &[Value], what: &str) -> Result<(), String> {
    for (i, r) in records.iter().enumerate() {
        let id = text_of(r, "id");
        if records[..i].iter().any(|o| text_of(o, "id") == id) {
            return Err(format!("{what} {}: duplicate id \"{id}\"", i + 1));
        }
    }
    Ok(())
}

/// Parses one JSONL record and checks it against the shape in `table`
/// whose `"type"` tag it carries; returns the record and its tag.
pub(crate) fn typed_line(
    table: &[Shape],
    raw: &str,
    line: usize,
) -> Result<(Value, &'static str), String> {
    let at = |e: String| format!("line {line}: {e}");
    let v = parse(raw).map_err(|e| at(e.to_string()))?;
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| at("missing string field \"type\"".to_string()))?;
    let (tag, shape) = table
        .iter()
        .find_map(|s| s.tag("type").filter(|t| *t == kind).map(|t| (t, s)))
        .ok_or_else(|| at(format!("unknown record type \"{kind}\"")))?;
    check(&v, shape).map_err(at)?;
    Ok((v, tag))
}

const COSTS: Shape = Obj(&[("retired fetches switching_j internal_j leakage_j", NonNeg)]);

/// The trace JSONL records, one shape per `"type"`.
const TRACE_LINES: [Shape; 4] = [
    Obj(&[("type", Lit("meta")), ("kernel scale icache scenario", Str)]),
    Obj(&[("type", Lit("span")), ("path", Str), ("ms count", NonNeg)]),
    Obj(&[
        ("type", Lit("block")),
        ("addr label func", Str),
        ("arm fits", COSTS),
    ]),
    Obj(&[
        ("type", Lit("summary")),
        ("isa", Str),
        ("cycles retired switching_j internal_j leakage_j", NonNeg),
    ]),
];

/// Line counts of a validated trace export, by event type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// `"meta"` lines (exactly 1).
    pub meta: usize,
    /// `"span"` lines.
    pub spans: usize,
    /// `"block"` lines.
    pub blocks: usize,
    /// `"summary"` lines (one per ISA).
    pub summaries: usize,
}

/// Validates a `fitstrace --json` export against the trace JSONL schema.
///
/// # Errors
///
/// A description of the first offending line: a parse failure, an unknown
/// event type, a missing/ill-typed field, a `meta` line that is not first
/// or not unique, or a stream without a `summary`.
pub fn validate_trace_jsonl(text: &str) -> Result<TraceCounts, String> {
    let mut counts = TraceCounts::default();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let (_, kind) = typed_line(&TRACE_LINES, raw, i + 1)?;
        if kind == "meta" && counts != TraceCounts::default() {
            return Err(format!(
                "line {}: \"meta\" must be the single first line",
                i + 1
            ));
        }
        *match kind {
            "meta" => &mut counts.meta,
            "span" => &mut counts.spans,
            "block" => &mut counts.blocks,
            _ => &mut counts.summaries,
        } += 1;
    }
    if counts.meta != 1 {
        return Err("stream must start with exactly one \"meta\" line".to_string());
    }
    if counts.summaries == 0 {
        return Err("stream has no \"summary\" line".to_string());
    }
    Ok(counts)
}

/// The seven per-ISA fields `isa_json` emits: a sweep scenario's and a
/// fitsd body's `arm`/`fits` aggregates.
pub const ISA_AGGREGATE: Shape = Obj(&[(
    "cycles icache_j icache_switching_j icache_internal_j icache_leakage_j chip_j peak_w",
    NonNeg,
)]);

/// The provenance stamp of an archived document.
const STAMP: Shape = Obj(&[("commit host os arch", Str), ("timestamp_unix", NonNeg)]);

/// A `powerfits-sweep-v1` archive (`fitssweep`).
pub const SWEEP: Shape = Obj(&[
    ("schema", Lit("powerfits-sweep-v1")),
    ("meta", STAMP),
    ("scale_n executions_per_kernel", NonNeg),
    ("kernels", NonEmpty(&Str)),
    (
        "grid",
        Obj(&[
            ("icache_bytes", NonEmpty(&NonNeg)),
            ("tech", NonEmpty(&Str)),
        ]),
    ),
    (
        "scenarios",
        NonEmpty(&Obj(&[
            ("id tech", Str),
            ("icache_bytes", NonNeg),
            ("arm fits", ISA_AGGREGATE),
            // A configuration can lose: savings take any sign.
            ("icache_saving chip_saving", Num),
        ])),
    ),
]);

/// Shape summary of a validated `SWEEP.json` document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepCounts {
    /// Kernels listed in the archive.
    pub kernels: usize,
    /// I-cache sizes on the grid axis.
    pub icache_sizes: usize,
    /// Tech nodes on the grid axis.
    pub tech_nodes: usize,
    /// Scenario records (must equal the grid product).
    pub scenarios: usize,
}

/// Validates a `fitssweep` archive against the `powerfits-sweep-v1`
/// schema: provenance meta, non-empty kernel list and grid axes, and one
/// well-formed scenario record per grid point (unique ids, per-ISA
/// aggregates, savings) — the grid product must match the scenario count.
///
/// # Errors
///
/// A description of the first violation (parse failure, missing or
/// ill-typed field, duplicate or miscounted scenarios).
pub fn validate_sweep_json(text: &str) -> Result<SweepCounts, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    check(&doc, &SWEEP)?;
    let grid = doc.get("grid").unwrap_or(&Value::Null);
    let (sizes, tech) = (items(grid, "icache_bytes"), items(grid, "tech"));
    if sizes.iter().any(|s| s.as_f64().is_none_or(|n| n <= 0.0)) {
        return Err("grid \"icache_bytes\" must contain positive numbers".to_string());
    }
    let scenarios = items(&doc, "scenarios");
    if scenarios.len() != sizes.len() * tech.len() {
        return Err(format!(
            "scenario count {} must equal the grid product {} x {}",
            scenarios.len(),
            sizes.len(),
            tech.len()
        ));
    }
    unique_ids(scenarios, "scenario")?;
    Ok(SweepCounts {
        kernels: items(&doc, "kernels").len(),
        icache_sizes: sizes.len(),
        tech_nodes: tech.len(),
        scenarios: scenarios.len(),
    })
}

const CACHE_STREAM: Shape = Obj(&[
    (
        "words",
        Obj(&[(
            "always_hit always_miss persistent unknown unreachable",
            NonNeg,
        )]),
    ),
    ("audit_findings blocks", NonNeg),
    // Present only when the run was traced.
    (
        "bounds",
        Opt(&Obj(&[
            ("accesses misses miss_min miss_max", NonNeg),
            ("energy_lo_j energy_hi_j", NonNeg),
            ("violations", Arr(&Str)),
        ])),
    ),
]);

/// A `powerfits-cache-bounds-v1` report: the `fitslint --cache` archive,
/// also embedded in fitsd's `/analyze` body.
pub const CACHE_BOUNDS: Shape = Obj(&[
    ("schema", Lit("powerfits-cache-bounds-v1")),
    ("preset scale", Str),
    (
        "kernels",
        NonEmpty(&Obj(&[("kernel", Str), ("arm fits", CACHE_STREAM)])),
    ),
    ("sound", Bool),
]);

/// Shape summary of a validated `powerfits-cache-bounds-v1` document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheBoundsCounts {
    /// Kernel records in the report.
    pub kernels: usize,
    /// Stream records carrying a dynamic `bounds` join (≤ 2 per kernel).
    pub traced_streams: usize,
    /// Soundness violations across all streams.
    pub violations: usize,
}

/// Checks a parsed cache-bounds report: the [`CACHE_BOUNDS`] shape, and a
/// `sound` verdict that agrees with the recorded violation count.
///
/// # Errors
///
/// A description of the first violation.
pub fn check_cache_bounds(doc: &Value) -> Result<CacheBoundsCounts, String> {
    check(doc, &CACHE_BOUNDS)?;
    let kernels = items(doc, "kernels");
    let mut counts = CacheBoundsCounts {
        kernels: kernels.len(),
        ..CacheBoundsCounts::default()
    };
    for k in kernels {
        for bounds in ["arm", "fits"]
            .iter()
            .filter_map(|s| k.get(s)?.get("bounds"))
        {
            counts.traced_streams += 1;
            counts.violations += items(bounds, "violations").len();
        }
    }
    let sound = doc.get("sound") == Some(&Value::Bool(true));
    if sound != (counts.violations == 0) {
        return Err(format!(
            "\"sound\": {sound} contradicts {} recorded violation(s)",
            counts.violations
        ));
    }
    Ok(counts)
}

/// Validates a `fitslint --cache` report against the
/// `powerfits-cache-bounds-v1` schema: provenance fields, one record per
/// kernel with `arm`/`fits` stream summaries (word-class counts, audit
/// finding count, block count, and — when the run was traced — the
/// dynamic `bounds` join with its violation list), plus a `sound` verdict
/// that must agree with the violation count.
///
/// # Errors
///
/// A description of the first violation (parse failure, missing or
/// ill-typed field, or a `sound` flag contradicting the violations).
pub fn validate_cache_bounds_json(text: &str) -> Result<CacheBoundsCounts, String> {
    check_cache_bounds(&parse(text).map_err(|e| e.to_string())?)
}

/// A `powerfits-pareto-v1` archive (`fitspareto`).
pub const PARETO: Shape = Obj(&[
    ("schema", Lit("powerfits-pareto-v1")),
    // The stamp plus two hashes.
    ("meta", STAMP),
    ("meta", Obj(&[("isa merged_profile", Str)])),
    ("scale_n solo_code_bytes solo_icache_j", NonNeg),
    ("epsilon", Num),
    ("kernels", NonEmpty(&Str)),
    (
        "points",
        NonEmpty(&Obj(&[
            ("id", Str),
            ("space_budget max_dict_bits code_bytes icache_j", NonNeg),
            ("decoder_slots config_bits iterations", NonNeg),
            (
                "members",
                NonEmpty(&Obj(&[
                    ("kernel", Str),
                    ("solo_code_bytes shared_code_bytes", NonNeg),
                    ("solo_icache_j shared_icache_j", NonNeg),
                    ("solo_cycles shared_cycles", NonNeg),
                    // A shared ISA can beat a per-app one: any sign.
                    ("regression", Num),
                ])),
            ),
        ])),
    ),
    ("frontier", NonEmpty(&Num)),
    ("rejected", Arr(&Obj(&[("id reason", Str)]))),
]);

/// Shape summary of a validated `PARETO.json` document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParetoCounts {
    /// Member kernels of the synthesis set.
    pub kernels: usize,
    /// Accepted candidate points.
    pub points: usize,
    /// Frontier size.
    pub frontier: usize,
    /// Rejected candidates.
    pub rejected: usize,
}

/// Validates a `fitspareto` archive against the `powerfits-pareto-v1`
/// schema: provenance meta carrying both the catalog and merged-profile
/// hashes, non-empty kernel list, accepted candidate points with
/// per-member power records (one per kernel), and a non-empty `frontier`
/// index list that is *exactly* the non-dominated set over (code bytes,
/// I-cache energy, decoder slots) — dominance is recomputed here, so a
/// frontier that drifted from its points cannot validate.
///
/// # Errors
///
/// A description of the first violation (parse failure, missing or
/// ill-typed field, empty or wrong frontier).
pub fn validate_pareto_json(text: &str) -> Result<ParetoCounts, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    check(&doc, &PARETO)?;
    let kernels = items(&doc, "kernels").len();
    let points = items(&doc, "points");
    unique_ids(points, "point")?;
    let mut axes = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let members = items(p, "members").len();
        if members != kernels {
            return Err(format!(
                "point {}: {members} member records for {kernels} kernels",
                i + 1
            ));
        }
        let axis = |key: &str| p.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        axes.push([axis("code_bytes"), axis("icache_j"), axis("decoder_slots")]);
    }

    let mut frontier = Vec::new();
    for f in items(&doc, "frontier") {
        let idx = f
            .as_f64()
            .filter(|v| v.fract() == 0.0 && *v >= 0.0 && (*v as usize) < points.len())
            .ok_or_else(|| format!("frontier entry {f:?} is not a valid point index"))?
            as usize;
        if frontier.contains(&idx) {
            return Err(format!("frontier index {idx} listed twice"));
        }
        frontier.push(idx);
    }
    // Recompute the non-dominated set and demand exact agreement.
    let dominates =
        |a: &[f64; 3], b: &[f64; 3]| (0..3).all(|k| a[k] <= b[k]) && (0..3).any(|k| a[k] < b[k]);
    for (i, b) in axes.iter().enumerate() {
        let dominated = axes.iter().any(|a| dominates(a, b));
        if dominated && frontier.contains(&i) {
            return Err(format!("frontier point {i} is dominated"));
        }
        if !dominated && !frontier.contains(&i) {
            return Err(format!("non-dominated point {i} missing from the frontier"));
        }
    }

    Ok(ParetoCounts {
        kernels,
        points: points.len(),
        frontier: frontier.len(),
        rejected: items(&doc, "rejected").len(),
    })
}

/// Every single-member corruption of a JSONL stream: each line in turn is
/// replaced by the [`mutants`] of the shape `shape_of(index, record)`.
#[cfg(test)]
pub(crate) fn jsonl_mutants(text: &str, shape_of: impl Fn(usize, &Value) -> Shape) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let record = parse(line).expect("a valid record");
        for mutant in mutants(&record, &shape_of(i, &record)) {
            let mut copy: Vec<&str> = lines.clone();
            copy[i] = &mutant;
            out.push(copy.join("\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Value::Num(-125.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::Str("a\nbA".to_string())
        );
        let v = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        match v.get("a") {
            Some(Value::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "tru", "\"\x01\""] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "a\"b\\c\nd\te\u{1}f";
        let quoted = format!("\"{}\"", escape(original));
        assert_eq!(parse(&quoted).unwrap(), Value::Str(original.to_string()));
    }

    fn sample_lines() -> Vec<String> {
        vec![
            r#"{"type":"meta","kernel":"crc32","scale":"test","icache":"16k","scenario":"sa1100-i16k"}"#.to_string(),
            r#"{"type":"span","path":"flow/translate","ms":1.25,"count":1}"#.to_string(),
            format!(
                r#"{{"type":"block","addr":"0x8008","label":"main+0x8","func":"main","arm":{0},"fits":{0}}}"#,
                r#"{"retired":10,"fetches":4,"switching_j":1e-9,"internal_j":2e-9,"leakage_j":3e-12}"#
            ),
            r#"{"type":"summary","isa":"arm","cycles":100,"retired":80,"switching_j":1e-9,"internal_j":2e-9,"leakage_j":3e-12}"#.to_string(),
        ]
    }

    #[test]
    fn validates_a_wellformed_stream() {
        let text = sample_lines().join("\n");
        let counts = validate_trace_jsonl(&text).unwrap();
        assert_eq!(
            counts,
            TraceCounts {
                meta: 1,
                spans: 1,
                blocks: 1,
                summaries: 1
            }
        );
    }

    #[test]
    fn rejects_schema_violations() {
        let lines = sample_lines();
        // meta not first
        let swapped = format!("{}\n{}", lines[1], lines[0]);
        assert!(validate_trace_jsonl(&swapped).is_err());
        // missing summary
        assert!(validate_trace_jsonl(&lines[0]).is_err());
        // unknown type
        let unknown = format!("{}\n{{\"type\":\"bogus\"}}", lines[0]);
        assert!(validate_trace_jsonl(&unknown).is_err());
        // block without fits costs
        let bad_block = format!(
            "{}\n{}\n{}",
            lines[0],
            r#"{"type":"block","addr":"0x8000","label":"main","func":"main","arm":{"retired":1,"fetches":1,"switching_j":0,"internal_j":0,"leakage_j":0}}"#,
            lines[3]
        );
        let err = validate_trace_jsonl(&bad_block).unwrap_err();
        assert!(err.contains("fits"), "{err}");
    }

    fn cache_bounds_doc(sound: bool, violations: &str) -> String {
        let words =
            r#"{"always_hit":10,"always_miss":2,"persistent":1,"unknown":0,"unreachable":3}"#;
        let bounds = format!(
            r#"{{"accesses":100,"misses":4,"miss_min":2,"miss_max":8,"energy_lo_j":1e-9,"energy_hi_j":2e-9,"violations":{violations}}}"#
        );
        format!(
            r#"{{"schema":"powerfits-cache-bounds-v1","preset":"sa1100","scale":"test","kernels":[{{"kernel":"crc32","arm":{{"words":{words},"audit_findings":0,"blocks":7,"bounds":{bounds}}},"fits":{{"words":{words},"audit_findings":0,"blocks":9}}}}],"sound":{sound}}}"#
        )
    }

    #[test]
    fn validates_a_cache_bounds_report() {
        let counts = validate_cache_bounds_json(&cache_bounds_doc(true, "[]")).unwrap();
        assert_eq!(
            counts,
            CacheBoundsCounts {
                kernels: 1,
                traced_streams: 1,
                violations: 0
            }
        );
    }

    #[test]
    fn rejects_cache_bounds_violations() {
        // A report claiming soundness while recording a violation lies.
        let lying = cache_bounds_doc(true, r#"["set 0: out of bounds"]"#);
        let err = validate_cache_bounds_json(&lying).unwrap_err();
        assert!(err.contains("contradicts"), "{err}");
        // The honest version of the same document validates.
        let honest = cache_bounds_doc(false, r#"["set 0: out of bounds"]"#);
        assert_eq!(validate_cache_bounds_json(&honest).unwrap().violations, 1);
        // Wrong schema string.
        let bad = cache_bounds_doc(true, "[]").replace("cache-bounds-v1", "cache-bounds-v0");
        assert!(validate_cache_bounds_json(&bad).is_err());
        // Missing word-class field.
        let chopped = cache_bounds_doc(true, "[]").replace(r#""unknown":0,"#, "");
        assert!(validate_cache_bounds_json(&chopped).is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn a_megabyte_string_round_trips() {
        let original: String = "ascii, \u{e9}, \u{20ac}, \u{1F600}, \"quoted\", back\\slash\n\t"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let quoted = format!("\"{}\"", escape(&original));
        assert_eq!(parse(&quoted).unwrap(), Value::Str(original));
    }

    #[test]
    fn every_trace_mutant_is_rejected() {
        let text = sample_lines().join("\n");
        let all = jsonl_mutants(&text, |_, record| {
            let kind = record.get("type").and_then(Value::as_str);
            *TRACE_LINES
                .iter()
                .find(|s| s.tag("type") == kind)
                .expect("a trace record type")
        });
        assert!(all.len() > 40, "{} mutants", all.len());
        for mutant in &all {
            assert!(validate_trace_jsonl(mutant).is_err(), "accepted {mutant}");
        }
    }

    #[test]
    fn every_cache_bounds_mutant_is_rejected() {
        let honest = cache_bounds_doc(false, r#"["set 0: out of bounds"]"#);
        for doc in [cache_bounds_doc(true, "[]"), honest] {
            let all = mutants(&parse(&doc).unwrap(), &CACHE_BOUNDS);
            assert!(all.len() > 40, "{} mutants", all.len());
            for mutant in &all {
                assert!(
                    validate_cache_bounds_json(mutant).is_err(),
                    "accepted {mutant}"
                );
            }
        }
    }
}
