//! Std-only JSON codec for the types that cross process boundaries: the
//! serve layer's wire format (and the report cache's JSON rendering, which
//! nothing loads).
//!
//! The vendored `serde` stand-in is marker-traits only (no data model, no
//! serializers — crates.io is unreachable in this build environment), so this
//! module hand-rolls the small amount of JSON the workspace needs:
//!
//! * one writer that puts JSON text straight into an output `String`:
//!   [`ObjectWriter`] writes an object as `"key":value` members, and
//!   [`write_json_string`], [`write_json_f64`] and [`write_json_u64`] write
//!   the leaves. Encoding builds no value tree, and its output is
//!   deterministic (members come out in the order they are written, so a
//!   value written twice is byte-identical);
//! * a recursive-descent parser into a [`JsonValue`] tree whose keys,
//!   number literals and escape-free strings borrow the input, so a parse
//!   allocates about once per object or array. Code that edits documents
//!   builds and renders the same tree type with owned strings;
//! * the JSON backend of the crate's wire schema, which lists the fields of
//!   [`SimConfig`], [`PlatformReport`] and their leaf types once for both
//!   codecs: a record is written as an object whose members follow the
//!   field list, and decoding reads each member of the parsed object by
//!   key and rejects members the list does not name. [`write_config_json`]
//!   and [`write_report_json`] write a record into a caller's buffer; the
//!   `*_to_json` entry points return the parsed-back tree of that text and
//!   the `*_from_json` ones decode a tree. Every decoded configuration
//!   passes through the same validating constructors as a hand-built one.
//!
//! # Versioning discipline
//!
//! Fields added after the format shipped (the defect selection and the
//! composite report quantities) are always written, but the field list
//! marks them defaulted: a document without the key decodes to the
//! pre-field behaviour, so wire messages written before the field existed
//! keep loading. Fields a record dropped stay listed as its retired names
//! and are skipped whatever they hold — so a config written while it still
//! carried a `code_budgets` member (search budgets every configuration now
//! leaves at their defaults) or a `monte_carlo` member (sampling knobs no
//! report reads) decodes to the same configuration without it. Every other
//! key outside a record's field list is rejected, as is a repeated key, and
//! so are unknown *values* (an unrecognised kind tag): a damaged key fails
//! loudly instead of decoding as a defaulted field left out.
//!
//! # Float round-tripping
//!
//! Finite `f64`s are written with Rust's shortest-roundtrip `Display`
//! formatting and parsed back with `str::parse::<f64>`, which restores the
//! **bit-identical** value. That is what lets a JSON client receive
//! byte-for-byte the same [`PlatformReport`]s the server computed.
//! Non-finite floats are not representable in JSON; the encoder maps them
//! to `null` and the decoder rejects `null` where a number is required, so
//! corruption fails loudly instead of silently.

use std::borrow::Cow;
use std::fmt::Write as _;

use nanowire_codes::CodeSpec;

use crate::config::SimConfig;
use crate::defect::DefectKind;
use crate::disturbance::DisturbanceKind;
use crate::error::{Result, SimError};
use crate::platform::PlatformReport;
use crate::schema::{
    blank_code, blank_report, encode, Field, Presence, Record, Value, Wire, WIRE_ERROR_KINDS,
};

/// A JSON document as a tree. Numbers keep their literal text so integers
/// up to `u64` and shortest-roundtrip floats survive unchanged. A parsed
/// tree borrows its keys, number literals and escape-free strings from the
/// input; a built one owns them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal token.
    Number(Cow<'a, str>),
    /// A string.
    String(Cow<'a, str>),
    /// An array.
    Array(Vec<JsonValue<'a>>),
    /// An object; keys keep document order so rendering is deterministic.
    Object(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

pub(crate) fn err(reason: impl Into<String>) -> SimError {
    SimError::Persistence {
        reason: reason.into(),
    }
}

impl JsonValue<'static> {
    /// Encodes a finite `f64` as a number with shortest-roundtrip formatting
    /// (`null` for non-finite values, which JSON cannot represent).
    #[must_use]
    pub fn from_f64(value: f64) -> Self {
        if value.is_finite() {
            JsonValue::Number(value.to_string().into())
        } else {
            JsonValue::Null
        }
    }

    /// Encodes a `u64` exactly.
    #[must_use]
    pub fn from_u64(value: u64) -> Self {
        JsonValue::Number(value.to_string().into())
    }
}

impl<'a> JsonValue<'a> {
    /// The value as a finite `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not a number (in
    /// particular the `null` the encoder emits for non-finite floats).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            JsonValue::Number(literal) => literal
                .parse::<f64>()
                .ok()
                .filter(|value| value.is_finite())
                .ok_or_else(|| err(format!("number literal {literal:?} is not a finite f64"))),
            other => Err(err(format!("expected a number, got {}", other.kind_name()))),
        }
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an unsigned
    /// integer literal.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            JsonValue::Number(literal) => literal
                .parse::<u64>()
                .map_err(|_| err(format!("number literal {literal:?} is not a u64"))),
            other => Err(err(format!("expected a number, got {}", other.kind_name()))),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an unsigned
    /// integer literal that fits a `usize`.
    pub fn as_usize(&self) -> Result<usize> {
        usize::try_from(self.as_u64()?).map_err(|_| err("integer does not fit a usize"))
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            JsonValue::String(text) => Ok(text),
            other => Err(err(format!("expected a string, got {}", other.kind_name()))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an array.
    pub fn as_array(&self) -> Result<&[JsonValue<'a>]> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(err(format!("expected an array, got {}", other.kind_name()))),
        }
    }

    /// Looks up a key of an object.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an object or
    /// the key is absent.
    pub fn get(&self, key: &str) -> Result<&JsonValue<'a>> {
        self.get_opt(key)?
            .ok_or_else(|| err(format!("missing object key {key:?}")))
    }

    /// Looks up a key of an object, `None` when absent — the accessor
    /// behind fields added after a format shipped, so documents written
    /// before the field existed still decode.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an object.
    pub fn get_opt(&self, key: &str) -> Result<Option<&JsonValue<'a>>> {
        match self {
            JsonValue::Object(fields) => Ok(fields
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value)),
            other => Err(err(format!(
                "expected an object with key {key:?}, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Checks the keys of an object after a decoder read `read` of its
    /// members by key, each key at most once: a repeated key, or a key
    /// `known` refuses, is an error, so a damaged key cannot decode as a
    /// member left out. An object of exactly `read` members holds neither,
    /// so only a longer one is searched and `known` is called only then.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] naming the first repeated or
    /// unknown key, or when the value is not an object.
    pub fn check_keys(&self, read: usize, mut known: impl FnMut(&str) -> bool) -> Result<()> {
        let JsonValue::Object(members) = self else {
            return Err(err(format!("expected an object, got {}", self.kind_name())));
        };
        if members.len() == read {
            return Ok(());
        }
        for (index, (key, _)) in members.iter().enumerate() {
            if members[..index].iter().any(|(earlier, _)| earlier == key) {
                return Err(err(format!("repeated object key {key:?}")));
            }
            if !known(key) {
                return Err(err(format!("unknown object key {key:?}")));
            }
        }
        Ok(())
    }

    fn kind_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a bool",
            JsonValue::Number(_) => "a number",
            JsonValue::String(_) => "a string",
            JsonValue::Array(_) => "an array",
            JsonValue::Object(_) => "an object",
        }
    }

    /// Renders the value as compact JSON. Deterministic: object keys are
    /// written in tree order, numbers keep their literals.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(literal) => out.push_str(literal),
            JsonValue::String(text) => write_json_string(text, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                let mut object = ObjectWriter::open(out);
                for (key, value) in fields {
                    value.render_into(object.member(key));
                }
                object.close();
            }
        }
    }

    /// Parses a JSON document, requiring it to span the whole input. The
    /// tree borrows from `input` wherever the text needs no unescaping.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on any syntax error, with the byte
    /// offset in the reason.
    pub fn parse(input: &'a str) -> Result<JsonValue<'a>> {
        let mut parser = Parser {
            input,
            position: 0,
            depth: 0,
            pending: Vec::with_capacity(PENDING_CAPACITY),
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.position != input.len() {
            return Err(err(format!(
                "trailing characters after JSON document at byte {}",
                parser.position
            )));
        }
        Ok(value)
    }

    /// The same tree owning all its text, detached from the input it was
    /// parsed from.
    #[must_use]
    pub fn into_owned(self) -> JsonValue<'static> {
        let owned = |text: Cow<'a, str>| Cow::Owned(text.into_owned());
        match self {
            JsonValue::Null => JsonValue::Null,
            JsonValue::Bool(flag) => JsonValue::Bool(flag),
            JsonValue::Number(literal) => JsonValue::Number(owned(literal)),
            JsonValue::String(text) => JsonValue::String(owned(text)),
            JsonValue::Array(items) => {
                JsonValue::Array(items.into_iter().map(JsonValue::into_owned).collect())
            }
            JsonValue::Object(fields) => JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(key, value)| (owned(key), value.into_owned()))
                    .collect(),
            ),
        }
    }
}

/// Writes one JSON object straight into a text buffer: `{`, then a
/// `"key":value` member per [`ObjectWriter::member`] call, comma-separated,
/// then `}` at [`ObjectWriter::close`].
#[derive(Debug)]
pub struct ObjectWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> ObjectWriter<'o> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'o mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes the next member's key and returns the buffer its value goes
    /// into; the caller writes exactly one JSON value there.
    pub fn member(&mut self, key: &str) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        write_json_string(key, self.out);
        self.out.push(':');
        self.out
    }

    /// Closes the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Writes `text` as a JSON string: quoted, with `"`, `\` and control
/// characters escaped, everything else passed through as UTF-8.
pub fn write_json_string(text: &str, out: &mut String) {
    out.push('"');
    // Every escaped byte is ASCII, so the plain runs between them are
    // whole UTF-8.
    let mut plain = 0;
    for (index, byte) in text.bytes().enumerate() {
        let escape = match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'\n' => 'n',
            b'\r' => 'r',
            b'\t' => 't',
            0..=0x1f => 'u',
            _ => continue,
        };
        out.push_str(&text[plain..index]);
        out.push('\\');
        out.push(escape);
        if escape == 'u' {
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{byte:04x}");
        }
        plain = index + 1;
    }
    out.push_str(&text[plain..]);
    out.push('"');
}

/// Writes a finite `f64` with its shortest round-trip `Display` digits, and
/// a non-finite one as `null`, which JSON has instead.
pub fn write_json_f64(value: f64, out: &mut String) {
    if value.is_finite() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Writes a `u64` exactly.
pub fn write_json_u64(value: u64, out: &mut String) {
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{value}");
}

/// Maximum container-nesting depth the parser accepts. The recursive-descent
/// parser recurses once per nesting level, so without a bound a hostile wire
/// request of repeated `[`s would overflow the stack and abort the serving
/// process; every legitimate document in this workspace nests a handful of
/// levels.
const MAX_JSON_DEPTH: usize = 128;

/// Starting room of the parser's stack of pending members: a wire request
/// or reply holds at most about 20 members in open containers at once (a
/// report alone has 15), so parsing one never grows the stack.
const PENDING_CAPACITY: usize = 32;

struct Parser<'a> {
    input: &'a str,
    position: usize,
    depth: usize,
    /// The members of the objects and arrays still open, innermost last (an
    /// array item under an empty key). A container moves its own into one
    /// vector of exactly their number when it closes, so each allocates
    /// once.
    pending: Vec<(Cow<'a, str>, JsonValue<'a>)>,
}

impl<'a> Parser<'a> {
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return Err(err(format!(
                "JSON nesting exceeds the supported depth of {MAX_JSON_DEPTH}"
            )));
        }
        Ok(())
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn skip_whitespace(&mut self) {
        while let Some(&byte) = self.bytes().get(self.position) {
            if matches!(byte, b' ' | b'\t' | b'\n' | b'\r') {
                self.position += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.position).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.position += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected {:?} at byte {}",
                byte as char, self.position
            )))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes()[self.position..].starts_with(literal.as_bytes()) {
            self.position += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue<'a>> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') if self.consume_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.consume_literal("null") => Ok(JsonValue::Null),
            Some(byte) if byte == b'-' || byte.is_ascii_digit() => self.parse_number(),
            _ => Err(err(format!(
                "unexpected character at byte {}",
                self.position
            ))),
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue<'a>> {
        self.descend()?;
        self.expect(b'{')?;
        let start = self.pending.len();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.position += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(Vec::new()));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            self.pending.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b'}') => {
                    self.position += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(self.pending.drain(start..).collect()));
                }
                _ => {
                    return Err(err(format!(
                        "expected ',' or '}}' at byte {}",
                        self.position
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue<'a>> {
        self.descend()?;
        self.expect(b'[')?;
        let start = self.pending.len();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.position += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(Vec::new()));
        }
        loop {
            let item = self.parse_value()?;
            self.pending.push((Cow::Borrowed(""), item));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b']') => {
                    self.position += 1;
                    self.depth -= 1;
                    let items = self.pending.drain(start..).map(|(_, item)| item);
                    return Ok(JsonValue::Array(items.collect()));
                }
                _ => {
                    return Err(err(format!(
                        "expected ',' or ']' at byte {}",
                        self.position
                    )))
                }
            }
        }
    }

    /// Advances over the longest run of plain string bytes (no quote,
    /// backslash or control character) and returns it. The run ends at an
    /// ASCII byte or the end of input, so multi-byte UTF-8 passes through
    /// whole.
    fn plain_run(&mut self) -> &'a str {
        let start = self.position;
        while let Some(&byte) = self.bytes().get(self.position) {
            if byte == b'"' || byte == b'\\' || byte < 0x20 {
                break;
            }
            self.position += 1;
        }
        &self.input[start..self.position]
    }

    /// Parses a string, borrowing it from the input unless it holds an
    /// escape.
    fn parse_string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.position += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut text = run.to_string();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.position += 1;
                    return Ok(Cow::Owned(text));
                }
                Some(b'\\') => {
                    self.position += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| err("unterminated escape sequence"))?;
                    self.position += 1;
                    match escape {
                        b'"' => text.push('"'),
                        b'\\' => text.push('\\'),
                        b'/' => text.push('/'),
                        b'b' => text.push('\u{0008}'),
                        b'f' => text.push('\u{000c}'),
                        b'n' => text.push('\n'),
                        b'r' => text.push('\r'),
                        b't' => text.push('\t'),
                        b'u' => {
                            let unit = self.parse_hex_unit()?;
                            let code = match unit {
                                // High surrogate: JSON escapes non-BMP
                                // characters as a \uD8xx\uDCxx pair; combine
                                // the two units into one scalar value.
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(err("unpaired high surrogate escape"));
                                    }
                                    self.position += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(err("unpaired high surrogate escape"));
                                    }
                                    self.position += 1;
                                    let low = self.parse_hex_unit()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(err(
                                            "high surrogate escape not followed by a low surrogate",
                                        ));
                                    }
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(err("unpaired low surrogate escape"));
                                }
                                code => code,
                            };
                            let ch = char::from_u32(code)
                                .ok_or_else(|| err("\\u escape is not a scalar value"))?;
                            text.push(ch);
                        }
                        other => {
                            return Err(err(format!("unknown escape '\\{}'", other as char)));
                        }
                    }
                }
                _ => return Err(err("unterminated string")),
            }
            text.push_str(self.plain_run());
        }
    }

    /// Reads the four hex digits of one `\u` escape code unit (the `\u` is
    /// already consumed) and advances past them. Only ASCII hex digits
    /// count: `u32::from_str_radix` alone would also take a leading `+`.
    fn parse_hex_unit(&mut self) -> Result<u32> {
        let end = self.position + 4;
        let digits = self
            .bytes()
            .get(self.position..end)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .ok_or_else(|| err("truncated \\u escape"))?;
        if !digits.bytes().all(|digit| digit.is_ascii_hexdigit()) {
            return Err(err("invalid \\u escape digits"));
        }
        let unit = u32::from_str_radix(digits, 16).map_err(|_| err("invalid \\u escape digits"))?;
        self.position = end;
        Ok(unit)
    }

    /// Consumes one byte if `accept` takes it.
    fn eat(&mut self, accept: impl Fn(u8) -> bool) -> bool {
        let taken = self.peek().is_some_and(accept);
        self.position += usize::from(taken);
        taken
    }

    /// Consumes a run of at least one digit.
    fn digits(&mut self) -> bool {
        let start = self.position;
        while self.eat(|byte| byte.is_ascii_digit()) {}
        self.position > start
    }

    /// A number literal as RFC 8259 writes it:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Every such literal
    /// parses as an `f64`, so the value is parsed, and rejected if it does
    /// not fit, only when it is read.
    fn parse_number(&mut self) -> Result<JsonValue<'a>> {
        let start = self.position;
        self.eat(|byte| byte == b'-');
        let mut well_formed = self.eat(|byte| byte == b'0') || self.digits();
        if well_formed && self.eat(|byte| byte == b'.') {
            well_formed = self.digits();
        }
        if well_formed && self.eat(|byte| matches!(byte, b'e' | b'E')) {
            self.eat(|byte| matches!(byte, b'+' | b'-'));
            well_formed = self.digits();
        }
        let literal = &self.input[start..self.position];
        if !well_formed {
            return Err(err(format!("invalid number literal {literal:?}")));
        }
        Ok(JsonValue::Number(Cow::Borrowed(literal)))
    }
}

/// The JSON encoder: writes a record's fields as object members, in listing
/// order.
pub(crate) struct JsonOut<'o>(pub(crate) ObjectWriter<'o>);

impl Wire for JsonOut<'_> {
    const DECODES: bool = false;

    fn field<V: Value>(&mut self, field: Field, value: &mut V) -> Result<()> {
        value.write_json(self.0.member(field.key));
        Ok(())
    }
}

/// The JSON decoder: reads each field of a record from an object, by key,
/// and counts the members it read.
struct JsonIn<'a> {
    object: &'a JsonValue<'a>,
    read: usize,
}

impl Wire for JsonIn<'_> {
    const DECODES: bool = true;

    fn field<V: Value>(&mut self, field: Field, value: &mut V) -> Result<()> {
        match self.object.get_opt(field.key)? {
            Some(json) => {
                self.read += 1;
                value.read_json(json)
            }
            None if field.presence == Presence::Required => {
                Err(err(format!("missing object key {:?}", field.key)))
            }
            None => Ok(()),
        }
    }
}

/// An encoder that lists the fields a record writes, nothing else.
pub(crate) struct FieldList(pub(crate) Vec<Field>);

impl Wire for FieldList {
    const DECODES: bool = false;

    fn field<V: Value>(&mut self, field: Field, _: &mut V) -> Result<()> {
        self.0.push(field);
        Ok(())
    }
}

/// Decodes `record`'s fields from the object `json`, by key. A member whose
/// key is neither one of the fields nor one of the record's
/// [`Record::RETIRED`] names is rejected, and so is a repeated key
/// ([`JsonValue::check_keys`]); the field list is built only for an object
/// with more members than the list read.
pub(crate) fn read_record<R: Record>(record: &mut R, json: &JsonValue<'_>) -> Result<()> {
    let mut wire = JsonIn {
        object: json,
        read: 0,
    };
    record.fields(&mut wire)?;
    let mut fields: Option<FieldList> = None;
    json.check_keys(wire.read, |key| {
        let fields = fields.get_or_insert_with(|| {
            let mut list = FieldList(Vec::new());
            encode(&*record, &mut list);
            list
        });
        fields
            .0
            .iter()
            .chain(R::RETIRED)
            .any(|field| field.key == key)
    })
}

fn decode<R: Record>(value: &JsonValue<'_>, mut record: R) -> Result<R> {
    record.read_json(value)?;
    Ok(record)
}

/// The tree of a value's JSON text, parsed back and owned: what the
/// `*_to_json` entry points hand to code that inspects or edits documents.
fn tree<V: Value>(value: &V) -> JsonValue<'static> {
    let mut text = String::new();
    value.write_json(&mut text);
    JsonValue::parse(&text)
        .expect("the writer emits valid JSON")
        .into_owned()
}

/// The tree of a [`CodeSpec`]: `{"kind","radix","length"}`.
#[must_use]
pub fn code_spec_to_json(code: CodeSpec) -> JsonValue<'static> {
    tree(&code)
}

/// Decodes a [`CodeSpec`], re-validating length against the family.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON, or propagates the
/// code layer's validation errors.
pub fn code_spec_from_json(value: &JsonValue<'_>) -> Result<CodeSpec> {
    decode(value, blank_code())
}

/// The tree of a [`DisturbanceKind`]: a tagged object
/// (`{"kind":"gaussian"}`, `{"kind":"correlated","shared_fraction":0.5}`,
/// ...).
#[must_use]
pub fn disturbance_to_json(kind: DisturbanceKind) -> JsonValue<'static> {
    tree(&kind)
}

/// Decodes a [`DisturbanceKind`], re-validating a correlated shared
/// fraction through
/// [`CorrelatedDisturbance::new`](crate::CorrelatedDisturbance::new).
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown kind,
/// or [`SimError::InvalidConfig`] for a shared fraction outside `[0, 1]`.
pub fn disturbance_from_json(value: &JsonValue<'_>) -> Result<DisturbanceKind> {
    decode(value, DisturbanceKind::default())
}

/// The tree of a [`DefectKind`]: a tagged object (`{"kind":"none"}` or
/// `{"kind":"sampled","nanowire_breakage":…,"crosspoint_defect":…,"seed":…}`).
#[must_use]
pub fn defect_to_json(kind: DefectKind) -> JsonValue<'static> {
    tree(&kind)
}

/// Decodes a [`DefectKind`], re-validating the rates through
/// [`DefectConfig::new`](crate::DefectConfig::new).
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown kind,
/// or propagates the defect layer's rate-validation errors.
pub fn defect_from_json(value: &JsonValue<'_>) -> Result<DefectKind> {
    decode(value, DefectKind::None)
}

/// Writes a full [`SimConfig`] as a JSON object at the end of `out` —
/// every field, including the disturbance kind and the defect selection,
/// so two configurations differing only in either never serialize
/// identically.
pub fn write_config_json(config: &SimConfig, out: &mut String) {
    config.write_json(out);
}

/// The tree of a [`SimConfig`]'s JSON text (see [`write_config_json`]).
#[must_use]
pub fn config_to_json(config: &SimConfig) -> JsonValue<'static> {
    tree(config)
}

/// Decodes a [`SimConfig`], passing every field through the same validating
/// constructors a hand-built configuration uses. Documents written before
/// the `defects` key existed decode as defect-free, and the `code_budgets`
/// and `monte_carlo` members earlier configs carried are skipped, whatever
/// they hold.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown or
/// repeated key, or propagates the validation errors of the reconstructed
/// layers.
pub fn config_from_json(value: &JsonValue<'_>) -> Result<SimConfig> {
    decode(value, SimConfig::blank())
}

/// Writes a [`PlatformReport`] as a JSON object at the end of `out`.
pub fn write_report_json(report: &PlatformReport, out: &mut String) {
    report.write_json(out);
}

/// The tree of a [`PlatformReport`]'s JSON text (see
/// [`write_report_json`]).
#[must_use]
pub fn report_to_json(report: &PlatformReport) -> JsonValue<'static> {
    tree(report)
}

/// Decodes a [`PlatformReport`] bit-identically (floats round-trip exactly).
///
/// Reports written before the defect dimension existed decode with the
/// defect-free defaults — [`DefectKind::None`], survival `1`, composite
/// quantities equal to the decoder quantities — which is exactly what a
/// fresh evaluation of their (necessarily defect-free) configuration
/// produces.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown or
/// repeated key.
pub fn report_from_json(value: &JsonValue<'_>) -> Result<PlatformReport> {
    decode(value, blank_report())
}

/// The class of a wire-level failure, shared by every transport front end
/// (in-process JSON and framed TCP alike) so clients can react to the
/// *category* — retry an `overloaded`, fix a `bad_request`, report an
/// `internal` — without parsing free-form reason strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireErrorKind {
    /// The request never reached evaluation: malformed JSON, a mismatched
    /// schema version, or a configuration that failed validation.
    BadRequest,
    /// The server shed the request because its bounded accept/dispatch
    /// queue was full. The request was *not* evaluated; retrying later is
    /// safe and expected.
    Overloaded,
    /// The request was well-formed but evaluation failed on the server.
    Internal,
}

impl WireErrorKind {
    /// Every kind, in wire-tag order.
    pub const ALL: [WireErrorKind; 3] = [
        WireErrorKind::BadRequest,
        WireErrorKind::Overloaded,
        WireErrorKind::Internal,
    ];

    /// The stable wire tag (`"bad_request"` / `"overloaded"` /
    /// `"internal"`).
    #[must_use]
    pub fn as_wire_str(self) -> &'static str {
        WIRE_ERROR_KINDS[self as usize]
    }
}

/// The tree of a [`WireErrorKind`]: its JSON wire tag.
#[must_use]
pub fn wire_error_kind_to_json(kind: WireErrorKind) -> JsonValue<'static> {
    tree(&kind)
}

/// Decodes a [`WireErrorKind`] from its JSON wire tag.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown tag.
pub fn wire_error_kind_from_json(value: &JsonValue<'_>) -> Result<WireErrorKind> {
    let mut kind = WireErrorKind::BadRequest;
    kind.read_json(value)?;
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimulationPlatform;
    use device_physics::Volts;
    use nanowire_codes::{CodeKind, LogicLevel};

    fn base_config() -> SimConfig {
        let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    /// The deterministic JSON text of a configuration.
    fn rendered(config: &SimConfig) -> String {
        config_to_json(config).render()
    }

    #[test]
    fn json_value_parses_and_renders_round_trip() {
        let text = r#"{"a":[1,2.5,-3e2],"b":"q\"\\\né","c":null,"d":true,"e":false}"#;
        let value = JsonValue::parse(text).unwrap();
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(value.get("b").unwrap().as_str().unwrap(), "q\"\\\né");
        assert_eq!(value.get("d").unwrap(), &JsonValue::Bool(true));
        // Render → parse is the identity.
        assert_eq!(JsonValue::parse(&value.render()).unwrap(), value);
    }

    #[test]
    fn parsed_trees_borrow_all_but_escaped_strings() {
        let text = r#"{"plain":"text","escaped":"a\"b","number":-2.5e3}"#;
        let JsonValue::Object(members) = JsonValue::parse(text).unwrap() else {
            panic!("an object parses to an object");
        };
        assert!(members
            .iter()
            .all(|(key, _)| matches!(key, Cow::Borrowed(_))));
        assert!(matches!(
            members[0].1,
            JsonValue::String(Cow::Borrowed("text"))
        ));
        assert_eq!(
            members[1].1,
            JsonValue::String(Cow::Owned("a\"b".to_string()))
        );
        assert!(matches!(
            members[2].1,
            JsonValue::Number(Cow::Borrowed("-2.5e3"))
        ));
    }

    #[test]
    fn wire_error_kinds_round_trip_and_reject_unknown_tags() {
        for kind in WireErrorKind::ALL {
            let encoded = wire_error_kind_to_json(kind);
            assert_eq!(wire_error_kind_from_json(&encoded).unwrap(), kind);
        }
        assert_eq!(
            WireErrorKind::from_wire_str("overloaded").unwrap(),
            WireErrorKind::Overloaded
        );
        assert!(WireErrorKind::from_wire_str("toasted").is_err());
        assert!(wire_error_kind_from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "1e",
            // `u32::from_str_radix` takes a leading sign; a `\u` escape
            // takes four hex digits only.
            r#""\u+041""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn number_literals_follow_rfc_8259() {
        // A leading zero, a bare point, a point without digits before the
        // exponent, a bare sign, an exponent without digits, and a missing
        // integer part: each is a literal `str::parse::<f64>` would take.
        for bad in [
            "[01]",
            "[1.]",
            "[-0.e5]",
            r#"{"a":007}"#,
            "[-]",
            "[1e]",
            "[1e+]",
            "[-.5]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        for (good, value) in [
            ("[0]", 0.0_f64),
            ("[-0]", -0.0),
            ("[0.5]", 0.5),
            ("[1e5]", 1e5),
            ("[1E+5]", 1e5),
            ("[-1.25e-3]", -1.25e-3),
        ] {
            let number = JsonValue::parse(good).unwrap().as_array().unwrap()[0].as_f64();
            assert_eq!(number.unwrap().to_bits(), value.to_bits(), "{good}");
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode_and_lone_surrogates_fail() {
        // Standards-compliant encoders escape non-BMP characters as a
        // surrogate pair; U+1F600 (😀) is the pair D83D + DE00.
        let value = JsonValue::parse(r#""\ud83d\ude00!""#).unwrap();
        assert_eq!(value.as_str().unwrap(), "\u{1F600}!");
        // Unescaped non-BMP UTF-8 passes through too.
        assert_eq!(
            JsonValue::parse("\"\u{1F600}\"").unwrap().as_str().unwrap(),
            "\u{1F600}"
        );
        // Lone or malformed halves are rejected, not mangled.
        for bad in [
            r#""\ud83d""#,
            r#""\ud83d\n""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hostile_nesting_depth_is_rejected_not_a_stack_overflow() {
        // A remote client can send arbitrarily nested JSON; the parser must
        // reject it with an error instead of recursing off the stack.
        let bomb = "[".repeat(1_000_000);
        let error = JsonValue::parse(&bomb).unwrap_err();
        assert!(error.to_string().contains("depth"));
        let object_bomb = "{\"k\":".repeat(500_000);
        assert!(JsonValue::parse(&object_bomb).is_err());
        // Reasonable nesting still parses.
        let fine = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&fine).is_ok());
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for value in [0.0, -0.0, 1.0 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300] {
            let encoded = JsonValue::from_f64(value);
            let decoded = encoded.as_f64().unwrap();
            assert_eq!(decoded.to_bits(), value.to_bits(), "value {value}");
        }
        // Non-finite floats encode to null and fail loudly on decode.
        assert_eq!(JsonValue::from_f64(f64::NAN), JsonValue::Null);
        assert!(JsonValue::from_f64(f64::INFINITY).as_f64().is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = base_config();
        let decoded = config_from_json(&config_to_json(&config)).unwrap();
        assert_eq!(decoded, config);

        // Every override survives, including a window override, a
        // non-default disturbance and a defect selection.
        let tuned = base_config()
            .with_window(Volts::new(0.21))
            .with_disturbance(DisturbanceKind::Correlated {
                shared_fraction: 0.25,
            })
            .with_defects(DefectKind::sampled(0.02, 0.01, 77).unwrap());
        let decoded = config_from_json(&config_to_json(&tuned)).unwrap();
        assert_eq!(decoded, tuned);
    }

    #[test]
    fn monte_carlo_documents_without_adaptive_keys_decode_to_fixed_mode() {
        // A config written before adaptive stopping existed carried bare
        // samples + seed in its `monte_carlo` member; a later one could
        // spell the unset adaptive keys as explicit nulls. The member is no
        // longer read, so both decode to the config without it, and a
        // sampling call that names no knobs draws a fixed sample count.
        let config = base_config();
        let text = rendered(&config);
        for member in [
            r#"{"samples":500,"seed":42}"#,
            r#"{"samples":500,"seed":42,"target_half_width":null,"confidence":0.95,"max_samples":null}"#,
        ] {
            let legacy = format!("{},\"monte_carlo\":{member}}}", &text[..text.len() - 1]);
            let decoded = config_from_json(&JsonValue::parse(&legacy).unwrap()).unwrap();
            assert_eq!(decoded, config, "{member}");
            assert_eq!(rendered(&decoded), text);
        }
        assert!(!crate::MonteCarloConfig::default().is_adaptive());
    }

    #[test]
    fn damaged_keys_are_rejected_while_retired_and_pre_defect_shapes_decode() {
        let config = base_config().with_defects(DefectKind::sampled(0.02, 0.01, 77).unwrap());
        let report = SimulationPlatform::new(config.clone()).evaluate().unwrap();
        let parse = |text: &str| JsonValue::parse(text).unwrap().into_owned();
        let edited = |text: &str, from: &str, to: &str| {
            assert_eq!(text.matches(from).count(), 1, "{from}");
            parse(&text.replacen(from, to, 1))
        };
        let (config_text, report_text) = (rendered(&config), report_to_json(&report).render());
        let config_error =
            |from, to| config_from_json(&edited(&config_text, from, to)).unwrap_err();
        let report_error =
            |from, to| report_from_json(&edited(&report_text, from, to)).unwrap_err();
        // One flipped bit in a defaulted key, a key no field has (in a
        // nested record), and repeated keys.
        for (error, named) in [
            (config_error(r#""defects""#, r#""eefects""#), "eefects"),
            (config_error(r#""radix""#, r#""radiz":2,"radix""#), "radiz"),
            (
                config_error(r#""raw_bits""#, r#""raw_bits":1,"raw_bits""#),
                "raw_bits",
            ),
            (
                report_error(r#""composite_yield""#, r#""composite_yiEld""#),
                "composite_yiEld",
            ),
            (
                report_error(r#""defect_survival""#, r#""defects":{},"defect_survival""#),
                "defects",
            ),
        ] {
            assert!(
                matches!(&error, SimError::Persistence { reason } if reason.contains(named)),
                "{named}: {error}"
            );
        }
        // A retired member is skipped; documents written before the defect
        // keys existed decode as defect-free.
        let retired = parse(&format!(r#"{{"monte_carlo":{{}},{}"#, &config_text[1..]));
        assert_eq!(config_from_json(&retired).unwrap(), config);
        let defect_free = base_config();
        let pre_defect = rendered(&defect_free).replace(r#","defects":{"kind":"none"}"#, "");
        assert_eq!(config_from_json(&parse(&pre_defect)).unwrap(), defect_free);
        let report = SimulationPlatform::new(defect_free).evaluate().unwrap();
        let text = report_to_json(&report).render();
        let pre_defect = parse(&format!(
            "{}}}",
            &text[..text.find(r#","defects""#).unwrap()]
        ));
        assert_eq!(report_from_json(&pre_defect).unwrap(), report);
    }

    #[test]
    fn report_round_trips_bit_identically() {
        let report = SimulationPlatform::new(base_config()).evaluate().unwrap();
        let decoded = report_from_json(&report_to_json(&report)).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(
            decoded.crossbar_yield.to_bits(),
            report.crossbar_yield.to_bits()
        );
    }

    #[test]
    fn defect_kinds_round_trip_and_reject_bad_rates() {
        for kind in [
            DefectKind::None,
            DefectKind::sampled(0.0, 0.0, 0).unwrap(),
            DefectKind::sampled(0.05, 0.02, u64::MAX).unwrap(),
        ] {
            assert_eq!(defect_from_json(&defect_to_json(kind)).unwrap(), kind);
        }
        // Out-of-range rates in a hostile document are rejected by the same
        // validating constructor a hand-built configuration uses.
        let hostile = JsonValue::parse(
            r#"{"kind":"sampled","nanowire_breakage":1.5,"crosspoint_defect":0.0,"seed":1}"#,
        )
        .unwrap();
        assert!(defect_from_json(&hostile).is_err());
        let unknown = JsonValue::parse(r#"{"kind":"clustered"}"#).unwrap();
        assert!(defect_from_json(&unknown).is_err());
    }

    #[test]
    fn correlated_shared_fractions_are_checked_at_decode_in_both_codecs() {
        use crate::bincodec::{config_from_bin, config_to_bin};
        let with_fraction = |shared_fraction| {
            base_config().with_disturbance(DisturbanceKind::Correlated { shared_fraction })
        };
        for shared_fraction in [0.0, 0.25, 1.0] {
            let config = with_fraction(shared_fraction);
            assert_eq!(config_from_json(&config_to_json(&config)).unwrap(), config);
            assert_eq!(config_from_bin(&config_to_bin(&config)).unwrap(), config);
        }
        // The variant itself is unchecked, so the writers emit these; the
        // decoders reject them as `CorrelatedDisturbance::new` does.
        for shared_fraction in [1.25, -0.25] {
            let config = with_fraction(shared_fraction);
            for error in [
                config_from_json(&config_to_json(&config)).unwrap_err(),
                config_from_bin(&config_to_bin(&config)).unwrap_err(),
            ] {
                assert!(
                    matches!(error, SimError::InvalidConfig { .. }),
                    "{shared_fraction}: {error}"
                );
            }
        }
    }

    #[test]
    fn canonical_strings_separate_defect_kinds() {
        let clean = base_config();
        let defective = base_config().with_defects(DefectKind::sampled(0.02, 0.01, 1).unwrap());
        assert_ne!(rendered(&clean), rendered(&defective));
        // Same rates, different seed: still distinct identities.
        let reseeded = base_config().with_defects(DefectKind::sampled(0.02, 0.01, 2).unwrap());
        assert_ne!(rendered(&defective), rendered(&reseeded));
    }

    #[test]
    fn canonical_strings_separate_disturbance_kinds() {
        let gaussian = base_config();
        let laplace = base_config().with_disturbance(DisturbanceKind::Laplace);
        assert_ne!(rendered(&gaussian), rendered(&laplace));
        // And equal configurations render identically (determinism).
        assert_eq!(rendered(&gaussian), rendered(&base_config()));
    }

    #[test]
    fn unknown_enum_tags_are_rejected() {
        let mut value = config_to_json(&base_config());
        if let JsonValue::Object(fields) = &mut value {
            for (key, field) in fields.iter_mut() {
                if key == "disturbance" {
                    *field = JsonValue::Object(vec![(
                        "kind".into(),
                        JsonValue::String("cauchy".into()),
                    )]);
                }
            }
        }
        assert!(config_from_json(&value).is_err());
        let mystery = JsonValue::parse(r#"{"kind":"mystery","radix":2,"length":8}"#).unwrap();
        assert!(code_spec_from_json(&mystery).is_err());
    }
}
