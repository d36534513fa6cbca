//! Offline stand-in for the real `serde` crate.
//!
//! The workspace builds without network access, so this shim supplies exactly the surface the
//! codebase uses: the `Serialize` / `Deserialize` *derive macros* (which expand to nothing),
//! same-named marker traits for bounds, and a minimal [`json`] backend: a self-describing
//! [`json::Value`] tree with a conforming writer and parser, and the one codec every
//! document the repo both writes and reads goes through — the [`json::Codec`] trait, its
//! path-carrying [`json::SchemaError`] and the [`json_codec!`] table that declares a type's
//! fields once.  Write-only builders (figures, report digests) assemble `Value` trees by
//! hand.

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize` (no methods in this offline shim).
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize` (no methods in this offline shim).
pub trait Deserialize<'de> {}

/// A minimal JSON document model and writer (the `serde_json::Value` analogue).
pub mod json {
    use std::fmt;

    /// A JSON value tree.  Build it with the `From` impls and [`Value::object`] /
    /// [`Value::array`], render it with `Display` (compact) or [`Value::to_string_pretty`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null` (also the rendering of non-finite numbers, as in `serde_json`).
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (always carried as `f64`; integral values render without a fraction).
        Number(f64),
        /// A string (escaped on output).
        String(String),
        /// An ordered array.
        Array(Vec<Value>),
        /// An object with insertion-ordered keys.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// An object from `(key, value)` pairs, preserving order.
        pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        /// An array from anything convertible to values.
        pub fn array(items: impl IntoIterator<Item = impl Into<Value>>) -> Value {
            Value::Array(items.into_iter().map(Into::into).collect())
        }

        /// Look up a field of an object by key (first match; `None` for non-objects).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The number as `f64`, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The number as `u64`, if this is a non-negative integral number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }

        /// The string slice, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The items, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The `(key, value)` fields, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(fields) => Some(fields),
                _ => None,
            }
        }

        /// The first non-finite number anywhere in this tree, if any.  `Display` renders
        /// such numbers as `null` (like `serde_json`), which silently loses data — wire
        /// senders use [`Value::to_wire_string`] to reject them instead.
        pub fn find_non_finite(&self) -> Option<f64> {
            match self {
                Value::Number(n) if !n.is_finite() => Some(*n),
                Value::Array(items) => items.iter().find_map(Value::find_non_finite),
                Value::Object(fields) => fields.iter().find_map(|(_, v)| v.find_non_finite()),
                _ => None,
            }
        }

        /// How deeply this tree nests: 0 for a scalar or an empty container, else one more
        /// than its deepest item or field.  [`parse`] accepts exactly the documents of depth
        /// at most [`MAX_DEPTH`].
        pub fn depth(&self) -> usize {
            let deepest = |children: &mut dyn Iterator<Item = &Value>| {
                children.map(|v| 1 + v.depth()).max().unwrap_or(0)
            };
            match self {
                Value::Array(items) => deepest(&mut items.iter()),
                Value::Object(fields) => deepest(&mut fields.iter().map(|(_, v)| v)),
                _ => 0,
            }
        }

        /// Compact rendering for wire use: identical to `to_string`, but **rejects**
        /// non-finite numbers (which would round-trip as `null`) instead of nulling them.
        /// Everything this emits parses back to an equal tree with [`parse`].
        pub fn to_wire_string(&self) -> Result<String, NonFiniteError> {
            match self.find_non_finite() {
                Some(n) => Err(NonFiniteError(n)),
                None => Ok(self.to_string()),
            }
        }

        /// Render with two-space indentation (the `serde_json::to_string_pretty` analogue).
        pub fn to_string_pretty(&self) -> String {
            let mut out = String::new();
            self.write_pretty(&mut out, 0);
            out
        }

        fn write_pretty(&self, out: &mut String, indent: usize) {
            match self {
                Value::Array(items) if !items.is_empty() => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(if i == 0 { "\n" } else { ",\n" });
                        out.push_str(&"  ".repeat(indent + 1));
                        item.write_pretty(out, indent + 1);
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                    out.push(']');
                }
                Value::Object(fields) if !fields.is_empty() => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        out.push_str(if i == 0 { "\n" } else { ",\n" });
                        out.push_str(&"  ".repeat(indent + 1));
                        out.push_str(&format!("{}: ", Value::String(k.clone())));
                        v.write_pretty(out, indent + 1);
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                    out.push('}');
                }
                other => {
                    out.push_str(&other.to_string());
                }
            }
        }
    }

    impl From<bool> for Value {
        fn from(b: bool) -> Value {
            Value::Bool(b)
        }
    }
    impl From<f64> for Value {
        fn from(n: f64) -> Value {
            Value::Number(n)
        }
    }
    impl From<u64> for Value {
        fn from(n: u64) -> Value {
            Value::Number(n as f64)
        }
    }
    impl From<usize> for Value {
        fn from(n: usize) -> Value {
            Value::Number(n as f64)
        }
    }
    impl From<&str> for Value {
        fn from(s: &str) -> Value {
            Value::String(s.to_string())
        }
    }
    impl From<String> for Value {
        fn from(s: String) -> Value {
            Value::String(s)
        }
    }
    impl<A: Into<Value>, B: Into<Value>> From<(A, B)> for Value {
        fn from((a, b): (A, B)) -> Value {
            Value::Array(vec![a.into(), b.into()])
        }
    }

    impl fmt::Display for Value {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Value::Null => write!(f, "null"),
                Value::Bool(b) => write!(f, "{b}"),
                // JSON has no NaN/Infinity literals; serde_json renders them as null too.
                Value::Number(n) if !n.is_finite() => write!(f, "null"),
                Value::Number(n) => write!(f, "{n}"),
                Value::String(s) => {
                    write!(f, "\"")?;
                    for c in s.chars() {
                        match c {
                            '"' => write!(f, "\\\"")?,
                            '\\' => write!(f, "\\\\")?,
                            '\n' => write!(f, "\\n")?,
                            '\r' => write!(f, "\\r")?,
                            '\t' => write!(f, "\\t")?,
                            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                            c => write!(f, "{c}")?,
                        }
                    }
                    write!(f, "\"")
                }
                Value::Array(items) => {
                    write!(f, "[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{item}")?;
                    }
                    write!(f, "]")
                }
                Value::Object(fields) => {
                    write!(f, "{{")?;
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}:{v}", Value::String(k.clone()))?;
                    }
                    write!(f, "}}")
                }
            }
        }
    }

    /// A parse failure with the 1-based source position where it happened.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ParseError {
        /// 1-based line of the offending character.
        pub line: usize,
        /// 1-based column (in characters) of the offending character.
        pub column: usize,
        message: String,
    }

    impl fmt::Display for ParseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "{} at line {}, column {}",
                self.message, self.line, self.column
            )
        }
    }

    impl std::error::Error for ParseError {}

    /// A wire write was refused because the value contains a non-finite number (NaN or an
    /// infinity), which JSON cannot represent without data loss.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NonFiniteError(pub f64);

    impl fmt::Display for NonFiniteError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "non-finite number {} cannot be serialized to JSON",
                self.0
            )
        }
    }

    impl std::error::Error for NonFiniteError {}

    /// Streaming newline-delimited JSON writer — the shared codec for the campaign server's
    /// wire protocol and the `repro --json` artifact stream.  Every value is written as one
    /// compact line (wire-strict: non-finite numbers are rejected, see
    /// [`Value::to_wire_string`]) and flushed, so a reader on the other end of a pipe or
    /// socket sees each document as soon as it is complete.
    #[derive(Debug)]
    pub struct NdjsonWriter<W: std::io::Write> {
        inner: W,
    }

    impl<W: std::io::Write> NdjsonWriter<W> {
        /// Wrap a byte sink.
        pub fn new(inner: W) -> Self {
            NdjsonWriter { inner }
        }

        /// Write one value as a single `\n`-terminated compact JSON line and flush.
        pub fn write(&mut self, value: &Value) -> std::io::Result<()> {
            let line = value
                .to_wire_string()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            self.inner.write_all(line.as_bytes())?;
            self.inner.write_all(b"\n")?;
            self.inner.flush()
        }

        /// Unwrap the underlying sink.
        pub fn into_inner(self) -> W {
            self.inner
        }
    }

    /// Read the next newline-delimited JSON value from a buffered reader, holding at most
    /// `max_len` bytes of one line in memory.
    ///
    /// Returns `Ok(None)` at end of stream; blank lines are skipped.  A line that is not
    /// UTF-8 or not a complete JSON document comes back as `Ok(Some(Err(_)))` carrying the
    /// parser's line/column position: the line has been consumed whole, so the caller may
    /// keep reading.  A line longer than `max_len` bytes (its newline excluded) is an
    /// `InvalidData` error, after which the reader stands mid-line and the stream cannot be
    /// resynchronised.
    pub fn read_ndjson_line<R: std::io::BufRead>(
        reader: &mut R,
        max_len: usize,
    ) -> std::io::Result<Option<Result<Value, ParseError>>> {
        let mut line = Vec::new();
        loop {
            line.clear();
            // One byte beyond the cap: a full-length line still ends in its newline.
            let limit = max_len as u64 + 1;
            let mut capped = std::io::Read::take(&mut *reader, limit);
            if std::io::BufRead::read_until(&mut capped, b'\n', &mut line)? == 0 {
                return Ok(None);
            }
            let body = line.strip_suffix(b"\n").unwrap_or(&line);
            if body.len() > max_len {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("NDJSON line longer than {max_len} bytes"),
                ));
            }
            if body.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            return Ok(Some(match std::str::from_utf8(body) {
                Ok(text) => parse(text.trim_end_matches('\r')),
                Err(e) => Err(ParseError {
                    line: 1,
                    column: String::from_utf8_lossy(&body[..e.valid_up_to()])
                        .chars()
                        .count()
                        + 1,
                    message: "invalid UTF-8".into(),
                }),
            }));
        }
    }

    /// Parse a JSON document into a [`Value`] (the `serde_json::from_str` analogue).
    ///
    /// Accepts exactly the grammar the writer emits — `null`, booleans, numbers (parsed as
    /// `f64`), strings with the standard escapes incl. `\uXXXX` surrogate pairs, arrays and
    /// objects — and rejects everything else with a [`ParseError`] carrying the 1-based
    /// line/column of the offending character.  Trailing non-whitespace after the document is
    /// an error; object keys keep their input order (duplicates are preserved verbatim).
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// The largest integer a JSON number carries exactly here, 2^53 − 1: [`Value`] holds
    /// every number as an `f64`, so a larger integer may come back as a neighbour.
    pub const MAX_SAFE_INTEGER: u64 = (1 << 53) - 1;

    /// Nesting depth above which [`parse`] bails out instead of risking stack exhaustion: the
    /// document itself is depth 0, each array item or object field one deeper.
    pub const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        input: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn error(&self, message: impl Into<String>) -> ParseError {
            let consumed = &self.input[..self.pos.min(self.input.len())];
            let line = consumed.bytes().filter(|&b| b == b'\n').count() + 1;
            let column = consumed
                .rsplit_once('\n')
                .map_or(consumed, |(_, tail)| tail)
                .chars()
                .count()
                + 1;
            ParseError {
                line,
                column,
                message: message.into(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(format!("expected '{}'", byte as char)))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.error(format!("expected '{word}'")))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
            if depth > MAX_DEPTH {
                return Err(self.error("maximum nesting depth exceeded"));
            }
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::String),
                Some(b'[') => self.array(depth),
                Some(b'{') => self.object(depth),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(_) => Err(self.error("expected a JSON value")),
                None => Err(self.error("unexpected end of input")),
            }
        }

        fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(self.error("expected ',' or ']' in array")),
                }
            }
        }

        fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.error("expected a string object key"));
                }
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value(depth + 1)?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(self.error("expected ',' or '}' in object")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let rest = &self.input[self.pos..];
                let mut chars = rest.char_indices();
                let (_, c) = chars
                    .next()
                    .ok_or_else(|| self.error("unterminated string"))?;
                match c {
                    '"' => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    '\\' => {
                        self.pos += 1;
                        let esc = self
                            .peek()
                            .ok_or_else(|| self.error("unterminated escape sequence"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hi = self.hex_escape()?;
                                let c = if (0xD800..0xDC00).contains(&hi) {
                                    // High surrogate: a \uXXXX low surrogate must follow.
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.error("unpaired surrogate"));
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.error("unpaired surrogate"));
                                    }
                                    self.pos += 1;
                                    let lo = self.hex_escape()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    char::from_u32(hi)
                                        .ok_or_else(|| self.error("unpaired surrogate"))?
                                };
                                out.push(c);
                            }
                            _ => {
                                self.pos -= 1;
                                return Err(self.error("invalid escape character"));
                            }
                        }
                    }
                    c if (c as u32) < 0x20 => {
                        return Err(self.error("unescaped control character in string"));
                    }
                    c => {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn hex_escape(&mut self) -> Result<u32, ParseError> {
            let end = self.pos + 4;
            let digits = self
                .bytes
                .get(self.pos..end)
                .and_then(|b| std::str::from_utf8(b).ok())
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let code = u32::from_str_radix(digits, 16)
                .map_err(|_| self.error("invalid \\u escape digits"))?;
            self.pos = end;
            Ok(code)
        }

        fn number(&mut self) -> Result<Value, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            match self.peek() {
                Some(b'0') => self.pos += 1,
                Some(b'1'..=b'9') => {
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.pos += 1;
                    }
                }
                _ => return Err(self.error("expected a digit")),
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                if !matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.error("expected a digit after the decimal point"));
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                if !matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.error("expected a digit in the exponent"));
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = &self.input[start..self.pos];
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| self.error("number out of range"))
        }
    }

    /// A document parsed but does not have the shape its type expects.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SchemaError {
        /// Path of the offending value from the document root, such as
        /// `$.workflows[0].tasks[0].image_size_mb`.
        pub at: String,
        /// What was expected there.
        pub message: String,
    }

    impl SchemaError {
        /// An error at the root of the value being decoded; each enclosing decoder adds its
        /// own path segment with [`SchemaError::in_field`] or [`SchemaError::in_item`], so a
        /// path is built only when decoding fails.
        pub fn new(message: impl Into<String>) -> Self {
            SchemaError {
                at: "$".into(),
                message: message.into(),
            }
        }

        /// `got` is not the kind of value expected (`what`, such as "a string").
        pub fn expected(what: &str, got: &Value) -> Self {
            let got = match got {
                Value::Array(_) => "an array".to_string(),
                Value::Object(_) => "an object".to_string(),
                scalar => scalar.to_string(),
            };
            Self::new(format!("expected {what}, got {got}"))
        }

        /// The tag field `key` holds `got`, none of the `accepted` tags.
        pub fn unsupported(key: &str, got: &str, accepted: &[&str]) -> Self {
            Self::new(format!(
                "unsupported {key} `{got}` (expected {})",
                accepted.join(", ")
            ))
            .in_field(key)
        }

        /// The same error, seen from the object whose field `key` held the value.
        pub fn in_field(mut self, key: &str) -> Self {
            self.at.insert_str(1, &format!(".{key}"));
            self
        }

        /// The same error, seen from the array whose item `index` held the value.
        pub fn in_item(mut self, index: usize) -> Self {
            self.at.insert_str(1, &format!("[{index}]"));
            self
        }
    }

    impl fmt::Display for SchemaError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "at `{}`: {}", self.at, self.message)
        }
    }

    impl std::error::Error for SchemaError {}

    /// A type's JSON form in both directions.  Every document the repo both writes and reads
    /// (wire messages, campaign specs, workload documents) goes through this one trait: leaf
    /// types implement it by hand, structs and tagged enums declare their fields once in a
    /// [`json_codec!`](crate::json_codec) table.
    pub trait Codec: Sized {
        /// The value as JSON.
        fn encode(&self) -> Value;

        /// The value back from JSON, or what is wrong with it.
        fn decode(v: &Value) -> Result<Self, SchemaError>;

        /// The value as an object field; `None` leaves the field out.
        fn encode_field(&self) -> Option<Value> {
            Some(self.encode())
        }

        /// The value of an object field, `None` when the field is absent (an error unless
        /// the type has a meaning for absence).
        fn decode_field(v: Option<&Value>) -> Result<Self, SchemaError> {
            match v {
                Some(v) => Self::decode(v),
                None => Err(SchemaError::new("missing required field")),
            }
        }
    }

    impl Codec for Value {
        fn encode(&self) -> Value {
            self.clone()
        }

        fn decode(v: &Value) -> Result<Self, SchemaError> {
            Ok(v.clone())
        }
    }

    impl Codec for String {
        fn encode(&self) -> Value {
            Value::String(self.clone())
        }

        fn decode(v: &Value) -> Result<Self, SchemaError> {
            match v {
                Value::String(s) => Ok(s.clone()),
                other => Err(SchemaError::expected("a string", other)),
            }
        }
    }

    impl Codec for f64 {
        fn encode(&self) -> Value {
            Value::Number(*self)
        }

        fn decode(v: &Value) -> Result<Self, SchemaError> {
            v.as_f64()
                .ok_or_else(|| SchemaError::expected("a number", v))
        }
    }

    /// An integer is a number without a fraction, within the type's range (an integer above
    /// [`MAX_SAFE_INTEGER`] may have come back as a neighbour of the one written).
    macro_rules! integer_codec {
        ($($int:ty),*) => {$(
            impl Codec for $int {
                fn encode(&self) -> Value {
                    Value::Number(*self as f64)
                }

                fn decode(v: &Value) -> Result<Self, SchemaError> {
                    match v.as_f64() {
                        Some(n) if n.fract() == 0.0
                            && (<$int>::MIN as f64..=<$int>::MAX as f64).contains(&n) =>
                        {
                            Ok(n as $int)
                        }
                        _ => {
                            let what = concat!("an integer of type ", stringify!($int));
                            Err(SchemaError::expected(what, v))
                        }
                    }
                }
            }
        )*};
    }

    integer_codec!(u64, usize, i32);

    impl<T: Codec> Codec for Vec<T> {
        fn encode(&self) -> Value {
            Value::Array(self.iter().map(T::encode).collect())
        }

        fn decode(v: &Value) -> Result<Self, SchemaError> {
            v.as_array()
                .ok_or_else(|| SchemaError::expected("an array", v))?
                .iter()
                .enumerate()
                .map(|(i, item)| T::decode(item).map_err(|e| e.in_item(i)))
                .collect()
        }
    }

    /// An optional field is left out when `None` and reads as `None` when absent or `null`.
    impl<T: Codec> Codec for Option<T> {
        fn encode(&self) -> Value {
            self.as_ref().map_or(Value::Null, T::encode)
        }

        fn decode(v: &Value) -> Result<Self, SchemaError> {
            match v {
                Value::Null => Ok(None),
                v => T::decode(v).map(Some),
            }
        }

        fn encode_field(&self) -> Option<Value> {
            self.as_ref().map(T::encode)
        }

        fn decode_field(v: Option<&Value>) -> Result<Self, SchemaError> {
            v.map_or(Ok(None), Self::decode)
        }
    }

    /// The fields of an object.
    #[doc(hidden)]
    pub fn fields(v: &Value) -> Result<&[(String, Value)], SchemaError> {
        v.as_object()
            .ok_or_else(|| SchemaError::expected("an object", v))
    }

    fn lookup<'v>(fields: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Decode field `key` of an object (the first of that name; other keys are ignored).
    #[doc(hidden)]
    pub fn field<T: Codec>(fields: &[(String, Value)], key: &str) -> Result<T, SchemaError> {
        T::decode_field(lookup(fields, key)).map_err(|e| e.in_field(key))
    }

    /// Decode field `key` of an object, reading an absent field as `default`.
    #[doc(hidden)]
    pub fn field_or<T: Codec>(
        fields: &[(String, Value)],
        key: &str,
        default: T,
    ) -> Result<T, SchemaError> {
        match lookup(fields, key) {
            Some(v) => T::decode(v).map_err(|e| e.in_field(key)),
            None => Ok(default),
        }
    }

    /// The string tag field `key` of an object, which must be present.
    #[doc(hidden)]
    pub fn tag<'v>(fields: &'v [(String, Value)], key: &str) -> Result<&'v str, SchemaError> {
        match lookup(fields, key) {
            Some(Value::String(tag)) => Ok(tag),
            Some(other) => Err(SchemaError::expected("a string", other).in_field(key)),
            None => Err(SchemaError::new("missing required field").in_field(key)),
        }
    }

    /// Append field `key` unless the value leaves itself out.
    #[doc(hidden)]
    pub fn put<T: Codec>(fields: &mut Vec<(String, Value)>, key: &str, value: &T) {
        if let Some(v) = value.encode_field() {
            fields.push((key.to_string(), v));
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn compact_rendering_is_valid_json() {
            let v = Value::object([
                ("id", Value::from("fig4")),
                ("n", Value::from(3usize)),
                ("pi", Value::from(3.5f64)),
                ("nan", Value::from(f64::NAN)),
                ("points", Value::array([(0.0f64, 1.0f64), (1.0, 2.5)])),
                ("quote", Value::from("a\"b\\c\nd")),
                ("empty", Value::Array(Vec::new())),
            ]);
            assert_eq!(
                v.to_string(),
                "{\"id\":\"fig4\",\"n\":3,\"pi\":3.5,\"nan\":null,\
                 \"points\":[[0,1],[1,2.5]],\"quote\":\"a\\\"b\\\\c\\nd\",\"empty\":[]}"
            );
        }

        #[test]
        fn pretty_rendering_indents_nested_structures() {
            let v = Value::object([("xs", Value::array([1u64, 2]))]);
            assert_eq!(
                v.to_string_pretty(),
                "{\n  \"xs\": [\n    1,\n    2\n  ]\n}"
            );
            assert_eq!(Value::Null.to_string_pretty(), "null");
        }

        #[test]
        fn parse_round_trips_writer_output() {
            let v = Value::object([
                ("id", Value::from("fig4")),
                ("n", Value::from(3usize)),
                ("pi", Value::from(3.5f64)),
                ("neg", Value::from(-1.25e-3f64)),
                ("flag", Value::from(true)),
                ("none", Value::Null),
                ("points", Value::array([(0.0f64, 1.0f64), (1.0, 2.5)])),
                ("quote", Value::from("a\"b\\c\nd\ttab \u{1F600} ok")),
                ("empty", Value::Array(Vec::new())),
                ("nested", Value::object([("k", Value::from("v"))])),
            ]);
            assert_eq!(parse(&v.to_string()).unwrap(), v);
            assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
        }

        #[test]
        fn parse_handles_escapes_and_surrogate_pairs() {
            assert_eq!(
                parse(r#""\u0041\u00e9\ud83d\ude00\/""#).unwrap(),
                Value::String("A\u{e9}\u{1F600}/".to_string())
            );
            assert_eq!(parse("  [ 1 , 2.5e2 , -0 ]  ").unwrap(), {
                Value::Array(vec![
                    Value::Number(1.0),
                    Value::Number(250.0),
                    Value::Number(-0.0),
                ])
            });
        }

        #[test]
        fn value_accessors_navigate_trees() {
            let v = Value::object([
                ("name", Value::from("montage")),
                ("n", Value::from(3u64)),
                ("xs", Value::array([1u64, 2])),
            ]);
            assert_eq!(v.get("name").and_then(Value::as_str), Some("montage"));
            assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
            assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
            assert_eq!(
                v.get("xs").and_then(Value::as_array).map(<[Value]>::len),
                Some(2)
            );
            assert_eq!(v.as_object().map(<[(String, Value)]>::len), Some(3));
            assert_eq!(v.get("missing"), None);
            assert_eq!(Value::from(1.5).as_u64(), None);
            assert_eq!(Value::from(-1.0).as_u64(), None);
            assert_eq!(Value::Null.get("k"), None);
        }

        #[test]
        fn wire_writes_reject_non_finite_numbers() {
            let clean = Value::object([("x", Value::from(1.5))]);
            assert_eq!(clean.to_wire_string().unwrap(), "{\"x\":1.5}");
            let dirty = Value::object([
                ("ok", Value::from(1.0)),
                ("bad", Value::array([Value::from(f64::NAN)])),
            ]);
            assert!(dirty.to_wire_string().is_err());
            assert_eq!(
                Value::from(f64::INFINITY).find_non_finite(),
                Some(f64::INFINITY)
            );
            let mut w = NdjsonWriter::new(Vec::new());
            assert!(w.write(&dirty).is_err());
            assert!(w.write(&clean).is_ok());
        }

        #[test]
        fn ndjson_writer_and_reader_round_trip_streams() {
            let docs = [
                Value::object([("seq", Value::from(0u64)), ("msg", Value::from("a\nb"))]),
                Value::array([1u64, 2, 3]),
                Value::Null,
                Value::from(true),
            ];
            let mut w = NdjsonWriter::new(Vec::new());
            for d in &docs {
                w.write(d).unwrap();
            }
            let bytes = w.into_inner();
            // One line per document, each embedded newline escaped.
            assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), docs.len());
            let mut r = std::io::BufReader::new(&bytes[..]);
            let mut back = Vec::new();
            while let Some(v) = read_ndjson_line(&mut r, 64).unwrap() {
                back.push(v.unwrap());
            }
            assert_eq!(back, docs);

            // Blank lines are skipped; garbage lines carry the parse position and leave the
            // reader at the next line.
            let mut r = std::io::BufReader::new(&b"\n  \n{\"k\":1}\nnope\n\"\xff\"\r\n[2]"[..]);
            let mut next = || read_ndjson_line(&mut r, 64).unwrap().unwrap();
            assert_eq!(next(), Ok(Value::object([("k", Value::from(1u64))])));
            let err = next().unwrap_err();
            assert_eq!((err.line, err.column), (1, 1));
            let err = next().unwrap_err();
            assert_eq!(err.to_string(), "invalid UTF-8 at line 1, column 2");
            assert_eq!(next(), Ok(Value::array([2u64])));
            assert_eq!(read_ndjson_line(&mut r, 64).unwrap(), None);
        }

        #[test]
        fn ndjson_lines_beyond_the_cap_are_refused() {
            // Exactly `max_len` bytes before the newline is accepted, with or without it.
            let mut r = std::io::BufReader::new(&b"[1,2]\n[1,2]"[..]);
            assert_eq!(
                read_ndjson_line(&mut r, 5).unwrap(),
                Some(Ok(Value::array([1u64, 2])))
            );
            assert_eq!(
                read_ndjson_line(&mut r, 5).unwrap(),
                Some(Ok(Value::array([1u64, 2])))
            );
            // One byte more is an error, newline or not, and nothing past the cap is read.
            let mut r = std::io::BufReader::new(&b"[1, 2]\n"[..]);
            let err = read_ndjson_line(&mut r, 5).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "NDJSON line longer than 5 bytes");
            let mut endless = std::io::BufReader::new(std::io::repeat(b' '));
            assert!(read_ndjson_line(&mut endless, 1 << 16).is_err());
        }

        #[test]
        fn parse_reports_error_positions() {
            // Unquoted identifier on line 2, column 8.
            let err = parse("{\n  \"a\": nope\n}").unwrap_err();
            assert_eq!((err.line, err.column), (2, 8));
            assert!(err.to_string().contains("line 2, column 8"));

            let err = parse("[1, 2,]").unwrap_err();
            assert_eq!((err.line, err.column), (1, 7));

            assert!(parse("").is_err());
            assert!(parse("[1] extra").is_err());
            assert!(parse("{\"a\" 1}").is_err());
            assert!(parse("\"unterminated").is_err());
            assert!(parse("01").is_err());
            assert!(parse("1.").is_err());
            assert!(parse("\"\\q\"").is_err());
            assert!(parse("\"\\ud800\"").is_err());
            assert!(parse("nul").is_err());
            let deep = "[".repeat(200) + &"]".repeat(200);
            assert!(parse(&deep).is_err());
        }

        /// Deterministic splitmix64 stream for the round-trip property below.
        struct Mix(u64);

        impl Mix {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }

            /// An arbitrary *finite* f64 (full bit-pattern space, non-finite re-rolled).
            fn finite_f64(&mut self) -> f64 {
                loop {
                    let f = f64::from_bits(self.next());
                    if f.is_finite() {
                        return f;
                    }
                }
            }

            /// An arbitrary string mixing escapes, control characters and astral planes.
            fn string(&mut self) -> String {
                const POOL: &[char] = &[
                    'a',
                    'Z',
                    '9',
                    '"',
                    '\\',
                    '/',
                    '\n',
                    '\r',
                    '\t',
                    '\u{0008}',
                    '\u{000c}',
                    '\u{0000}',
                    '\u{001f}',
                    'é',
                    '中',
                    '\u{1F600}',
                    ' ',
                ];
                let len = (self.next() % 12) as usize;
                (0..len)
                    .map(|_| POOL[(self.next() % POOL.len() as u64) as usize])
                    .collect()
            }

            /// A random value tree of bounded depth.
            fn value(&mut self, depth: usize) -> Value {
                let scalar_only = depth == 0;
                match self.next() % if scalar_only { 5 } else { 7 } {
                    0 => Value::Null,
                    1 => Value::Bool(self.next().is_multiple_of(2)),
                    2 => Value::Number(self.finite_f64()),
                    3 => Value::Number((self.next() % 1_000_000) as f64),
                    4 => Value::String(self.string()),
                    5 => {
                        let n = (self.next() % 4) as usize;
                        Value::Array((0..n).map(|_| self.value(depth - 1)).collect())
                    }
                    _ => {
                        let n = (self.next() % 4) as usize;
                        Value::Object(
                            (0..n)
                                .map(|_| (self.string(), self.value(depth - 1)))
                                .collect(),
                        )
                    }
                }
            }
        }

        mod properties {
            use super::*;
            use proptest::prelude::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                /// Serializer ↔ parser round trip: any finite value tree survives both the
                /// compact and the pretty rendering bit-for-bit, and the wire-strict form
                /// agrees with the compact form.
                #[test]
                fn prop_serializer_parser_round_trip(seed in 0u64..1_000_000_000) {
                    let v = Mix(seed).value(4);
                    let compact = v.to_string();
                    prop_assert_eq!(parse(&compact).unwrap(), v.clone());
                    prop_assert_eq!(parse(&v.to_string_pretty()).unwrap(), v.clone());
                    prop_assert_eq!(v.to_wire_string().unwrap(), compact);
                }

                /// Non-finite numbers anywhere in the tree are rejected by the wire
                /// serializer (the lossy `Display` form would null them).
                #[test]
                fn prop_wire_rejects_injected_non_finite(seed in 0u64..1_000_000_000) {
                    let mut rng = Mix(seed);
                    let bad = match rng.next() % 3 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        _ => f64::NEG_INFINITY,
                    };
                    // Bury the poison value inside a random wrapper tree.
                    let mut v = Value::Number(bad);
                    for _ in 0..rng.next() % 4 {
                        v = match rng.next() % 2 {
                            0 => Value::Array(vec![rng.value(1), v, rng.value(1)]),
                            _ => Value::Object(vec![
                                (rng.string(), rng.value(1)),
                                ("poison".to_string(), v),
                            ]),
                        };
                    }
                    prop_assert!(v.to_wire_string().is_err());
                    prop_assert!(v.find_non_finite().is_some());
                }

                /// Nesting beyond MAX_DEPTH is rejected with an error, never a stack
                /// overflow; nesting at or below it parses fine.
                #[test]
                fn prop_depth_cap_is_enforced(extra in 1usize..64, under in 1usize..100) {
                    let over = MAX_DEPTH + 1 + extra;
                    let deep = "[".repeat(over) + &"]".repeat(over);
                    prop_assert!(parse(&deep).is_err());
                    let ok = "[".repeat(under) + &"]".repeat(under);
                    prop_assert!(parse(&ok).is_ok());
                }
            }
        }
    }
}

/// Declare a type's [`json::Codec`] from its fields, each named once in wire order.
///
/// The generated encoder destructures the value and the decoder builds a struct literal, so
/// a table that leaves a field out does not compile.  Decoders ignore unknown keys; an
/// `Option` field is left out when `None` and reads as `None` when absent or `null`, and
/// `field = default` reads an absent field as `default`.
///
/// A struct is an object of its fields, optionally led by a constant tag that decoding
/// checks; `| OTHER => Type` also accepts a document tagged `OTHER`, decoded as `Type` and
/// converted with `From`:
///
/// ```
/// use serde::json::{self, Codec};
///
/// const FORMAT: &str = "point/v1";
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: f64,
///     label: Option<String>,
///     weight: u64,
/// }
///
/// serde::json_codec! { Point by "format" = FORMAT { x, label, weight = 1 } }
///
/// let p = Point { x: 0.5, label: None, weight: 3 };
/// assert_eq!(p.encode().to_string(), r#"{"format":"point/v1","x":0.5,"weight":3}"#);
/// let back = Point::decode(&json::parse(r#"{"format":"point/v1","x":2}"#).unwrap()).unwrap();
/// assert_eq!(back, Point { x: 2.0, label: None, weight: 1 });
/// let err = Point::decode(&json::parse(r#"{"format":"point/v1","x":"2"}"#).unwrap());
/// assert_eq!(err.unwrap_err().to_string(), "at `$.x`: expected a number, got \"2\"");
/// ```
///
/// An enum is an object whose tag field names the variant: a struct variant lists its
/// fields after the tag, a unit variant has none, and a newtype variant `V(Payload)` writes
/// the payload's own object fields after the tag.
#[macro_export]
macro_rules! json_codec {
    ($ty:ident by $key:literal {
        $(
            $tag:literal => $variant:ident
                $( { $( $field:ident ),* $(,)? } )?
                $( ( $payload:ty ) )?
        ),+ $(,)?
    }) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Value {
                match self {
                    $(
                        $ty::$variant
                            $( { $( $field ),* } )?
                            $( ( $crate::__json_bind!($payload, payload) ) )? => {
                            #[allow(unused_mut)]
                            let mut fields =
                                vec![($key.to_string(), $crate::json::Value::from($tag))];
                            $( $( $crate::json::put(&mut fields, stringify!($field), $field); )* )?
                            $(
                                let payload = $crate::__json_bind!($payload, payload);
                                let encoded = <$payload as $crate::json::Codec>::encode(payload);
                                if let $crate::json::Value::Object(inner) = encoded {
                                    fields.extend(inner);
                                }
                            )?
                            $crate::json::Value::Object(fields)
                        }
                    )+
                }
            }

            fn decode(v: &$crate::json::Value) -> Result<Self, $crate::json::SchemaError> {
                let fields = $crate::json::fields(v)?;
                match $crate::json::tag(fields, $key)? {
                    $( $tag => Ok($ty::$variant
                        $( { $( $field: $crate::json::field(fields, stringify!($field))? ),* } )?
                        $( ( <$payload as $crate::json::Codec>::decode(v)? ) )?
                    ), )+
                    other => {
                        Err($crate::json::SchemaError::unsupported($key, other, &[$( $tag ),+]))
                    }
                }
            }
        }
    };
    ($ty:ident $( by $key:literal = $tag:path $( | $other:path => $other_ty:ty )? )? {
        $( $field:ident $( = $default:expr )? ),+ $(,)?
    }) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Value {
                let $ty { $( $field ),+ } = self;
                let mut fields = Vec::new();
                $( fields.push(($key.to_string(), $crate::json::Value::from($tag))); )?
                $( $crate::json::put(&mut fields, stringify!($field), $field); )+
                $crate::json::Value::Object(fields)
            }

            fn decode(v: &$crate::json::Value) -> Result<Self, $crate::json::SchemaError> {
                let fields = $crate::json::fields(v)?;
                $(
                    let tag = $crate::json::tag(fields, $key)?;
                    $(
                        if tag == $other {
                            let other = <$other_ty as $crate::json::Codec>::decode(v)?;
                            return Ok(Self::from(other));
                        }
                    )?
                    if tag != $tag {
                        let accepted = [$tag $(, $other )?];
                        return Err($crate::json::SchemaError::unsupported($key, tag, &accepted));
                    }
                )?
                Ok($ty { $( $field: $crate::__json_field!(fields, $field $(, $default )?), )+ })
            }
        }
    };
}

/// Expands to `$name`: a pattern that binds a newtype variant's payload has to mention
/// `$payload` to sit inside that variant's optional group of [`json_codec!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __json_bind {
    ($payload:ty, $name:ident) => {
        $name
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_field {
    ($fields:ident, $field:ident) => {
        $crate::json::field($fields, stringify!($field))?
    };
    ($fields:ident, $field:ident, $default:expr) => {
        $crate::json::field_or($fields, stringify!($field), $default)?
    };
}
