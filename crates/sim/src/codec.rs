//! Std-only JSON codec for the types that cross process boundaries: the
//! serve layer's wire format (and the report cache's JSON rendering, which
//! nothing loads).
//!
//! The vendored `serde` stand-in is marker-traits only (no data model, no
//! serializers — crates.io is unreachable in this build environment), so this
//! module hand-rolls the small amount of JSON the workspace needs:
//!
//! * a minimal [`JsonValue`] tree with a recursive-descent parser and a
//!   deterministic writer (object keys keep insertion order, so a value
//!   rendered twice is byte-identical);
//! * the JSON backend of the crate's wire schema, which lists the fields of
//!   [`SimConfig`], [`PlatformReport`] and their leaf types once for both
//!   codecs: a record is an object whose members follow the field list, and
//!   decoding reads each member by key. The `*_to_json` / `*_from_json`
//!   entry points render that list; every decoded configuration passes
//!   through the same validating constructors as a hand-built one.
//!
//! # Versioning discipline
//!
//! Fields added after a format shipped (the defect selection, the
//! Monte-Carlo knobs and the composite report quantities) are always
//! written, but the field list marks them defaulted: a document without
//! the key decodes to the pre-field behaviour, so wire messages written
//! before the field existed keep loading. Unknown *values* (an unrecognised
//! kind tag) are still rejected loudly, and unknown keys are ignored.
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

use nanowire_codes::CodeSpec;

use crate::config::SimConfig;
use crate::defect::DefectKind;
use crate::disturbance::DisturbanceKind;
use crate::error::{Result, SimError};
use crate::monte_carlo::MonteCarloConfig;
use crate::platform::PlatformReport;
use crate::schema::{
    blank_code, blank_report, Field, Presence, Record, Value, Wire, WIRE_ERROR_KINDS,
};

/// A parsed JSON document: the minimal value tree the serve and persistence
/// codecs build on. Numbers keep their literal text so integers up to `u64`
/// and shortest-roundtrip floats survive unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal token.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order so rendering is deterministic.
    Object(Vec<(String, JsonValue)>),
}

pub(crate) fn err(reason: impl Into<String>) -> SimError {
    SimError::Persistence {
        reason: reason.into(),
    }
}

impl JsonValue {
    /// Encodes a finite `f64` as a number with shortest-roundtrip formatting
    /// (`null` for non-finite values, which JSON cannot represent).
    #[must_use]
    pub fn from_f64(value: f64) -> JsonValue {
        if value.is_finite() {
            JsonValue::Number(format!("{value}"))
        } else {
            JsonValue::Null
        }
    }

    /// Encodes a `u64` exactly.
    #[must_use]
    pub fn from_u64(value: u64) -> JsonValue {
        JsonValue::Number(value.to_string())
    }

    /// Encodes a `usize` exactly.
    #[must_use]
    pub fn from_usize(value: usize) -> JsonValue {
        JsonValue::Number(value.to_string())
    }

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
    pub fn as_array(&self) -> Result<&[JsonValue]> {
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
    pub fn get(&self, key: &str) -> Result<&JsonValue> {
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
    pub fn get_opt(&self, key: &str) -> Result<Option<&JsonValue>> {
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
    /// written in insertion order, numbers keep their literals.
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
            JsonValue::String(text) => render_string(text, out),
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
                out.push('{');
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on any syntax error, with the byte
    /// offset in the reason.
    pub fn parse(input: &str) -> Result<JsonValue> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            position: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.position != parser.bytes.len() {
            return Err(err(format!(
                "trailing characters after JSON document at byte {}",
                parser.position
            )));
        }
        Ok(value)
    }
}

fn render_string(text: &str, out: &mut String) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", ch as u32));
            }
            ch => out.push(ch),
        }
    }
    out.push('"');
}

/// Maximum container-nesting depth the parser accepts. The recursive-descent
/// parser recurses once per nesting level, so without a bound a hostile wire
/// request of repeated `[`s would overflow the stack and abort the serving
/// process; every legitimate document in this workspace nests a handful of
/// levels.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    position: usize,
    depth: usize,
}

impl Parser<'_> {
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return Err(err(format!(
                "JSON nesting exceeds the supported depth of {MAX_JSON_DEPTH}"
            )));
        }
        Ok(())
    }
    fn skip_whitespace(&mut self) {
        while let Some(&byte) = self.bytes.get(self.position) {
            if matches!(byte, b' ' | b'\t' | b'\n' | b'\r') {
                self.position += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
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
        if self.bytes[self.position..].starts_with(literal.as_bytes()) {
            self.position += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue> {
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

    fn parse_object(&mut self) -> Result<JsonValue> {
        self.descend()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.position += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b'}') => {
                    self.position += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(fields));
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

    fn parse_array(&mut self) -> Result<JsonValue> {
        self.descend()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.position += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b']') => {
                    self.position += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
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

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut text = String::new();
        loop {
            let start = self.position;
            // Advance over the longest plain (unescaped, non-quote) run so
            // multi-byte UTF-8 passes through untouched.
            while let Some(&byte) = self.bytes.get(self.position) {
                if byte == b'"' || byte == b'\\' || byte < 0x20 {
                    break;
                }
                self.position += 1;
            }
            if self.position > start {
                let run = std::str::from_utf8(&self.bytes[start..self.position])
                    .map_err(|_| err("invalid UTF-8 inside string"))?;
                text.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.position += 1;
                    return Ok(text);
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
        }
    }

    /// Reads the four hex digits of one `\u` escape code unit (the `\u` is
    /// already consumed) and advances past them.
    fn parse_hex_unit(&mut self) -> Result<u32> {
        let end = self.position + 4;
        let digits = self
            .bytes
            .get(self.position..end)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .ok_or_else(|| err("truncated \\u escape"))?;
        let unit = u32::from_str_radix(digits, 16).map_err(|_| err("invalid \\u escape digits"))?;
        self.position = end;
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<JsonValue> {
        let start = self.position;
        if self.peek() == Some(b'-') {
            self.position += 1;
        }
        while let Some(byte) = self.peek() {
            if byte.is_ascii_digit() || matches!(byte, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.position += 1;
            } else {
                break;
            }
        }
        let literal = std::str::from_utf8(&self.bytes[start..self.position])
            .expect("number tokens are ASCII");
        if literal.parse::<f64>().is_err() {
            return Err(err(format!("invalid number literal {literal:?}")));
        }
        Ok(JsonValue::Number(literal.to_string()))
    }
}

/// The JSON encoder: a record's fields become object members, in listing
/// order.
pub(crate) struct JsonOut(pub(crate) Vec<(String, JsonValue)>);

impl Wire for JsonOut {
    const DECODES: bool = false;

    fn field<V: Value>(&mut self, field: Field, value: &mut V) -> Result<()> {
        self.0.push((field.key.to_string(), value.to_json()));
        Ok(())
    }
}

/// The JSON decoder: reads each field of a record from an object, by key.
pub(crate) struct JsonIn<'a>(pub(crate) &'a JsonValue);

impl Wire for JsonIn<'_> {
    const DECODES: bool = true;

    fn field<V: Value>(&mut self, field: Field, value: &mut V) -> Result<()> {
        match self.0.get_opt(field.key)? {
            Some(json) => value.read_json(json),
            None if field.presence == Presence::Required => {
                Err(err(format!("missing object key {:?}", field.key)))
            }
            None => Ok(()),
        }
    }
}

fn decode<R: Record>(value: &JsonValue, mut record: R) -> Result<R> {
    record.read_json(value)?;
    Ok(record)
}

/// Encodes a [`CodeSpec`] as `{"kind","radix","length"}`.
#[must_use]
pub fn code_spec_to_json(code: CodeSpec) -> JsonValue {
    code.to_json()
}

/// Decodes a [`CodeSpec`], re-validating length against the family.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON, or propagates the
/// code layer's validation errors.
pub fn code_spec_from_json(value: &JsonValue) -> Result<CodeSpec> {
    decode(value, blank_code())
}

/// Encodes a [`DisturbanceKind`] as a tagged object (`{"kind":"gaussian"}`,
/// `{"kind":"correlated","shared_fraction":0.5}`, ...).
#[must_use]
pub fn disturbance_to_json(kind: DisturbanceKind) -> JsonValue {
    kind.to_json()
}

/// Decodes a [`DisturbanceKind`].
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown kind.
pub fn disturbance_from_json(value: &JsonValue) -> Result<DisturbanceKind> {
    decode(value, DisturbanceKind::default())
}

/// Encodes a [`MonteCarloConfig`] as an object carrying the fixed-mode
/// fields plus the adaptive knobs (`target_half_width` / `max_samples`
/// render as `null` when unset).
#[must_use]
pub fn monte_carlo_to_json(config: MonteCarloConfig) -> JsonValue {
    config.to_json()
}

/// Decodes a [`MonteCarloConfig`]. The adaptive knobs are optional keys,
/// and the unset ones are nullable: documents written before adaptive
/// stopping existed (bare `{"samples":…,"seed":…}`) decode to the fixed
/// behaviour.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON.
pub fn monte_carlo_from_json(value: &JsonValue) -> Result<MonteCarloConfig> {
    decode(value, MonteCarloConfig::default())
}

/// Encodes a [`DefectKind`] as a tagged object (`{"kind":"none"}` or
/// `{"kind":"sampled","nanowire_breakage":…,"crosspoint_defect":…,"seed":…}`).
#[must_use]
pub fn defect_to_json(kind: DefectKind) -> JsonValue {
    kind.to_json()
}

/// Decodes a [`DefectKind`], re-validating the rates through
/// [`DefectConfig::new`](crate::DefectConfig::new).
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown kind,
/// or propagates the defect layer's rate-validation errors.
pub fn defect_from_json(value: &JsonValue) -> Result<DefectKind> {
    decode(value, DefectKind::None)
}

/// Encodes a full [`SimConfig`] — every field, including the disturbance
/// kind, the defect selection and the Monte-Carlo sampling knobs, so two
/// configurations differing only in any of them never serialize
/// identically.
#[must_use]
pub fn config_to_json(config: &SimConfig) -> JsonValue {
    config.to_json()
}

/// Decodes a [`SimConfig`], passing every field through the same validating
/// constructors a hand-built configuration uses. Documents written before
/// the `defects` or `monte_carlo` keys existed decode with the defect-free
/// and fixed-sample defaults.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON, or propagates the
/// validation errors of the reconstructed layers.
pub fn config_from_json(value: &JsonValue) -> Result<SimConfig> {
    decode(value, SimConfig::blank())
}

/// Encodes a [`PlatformReport`].
#[must_use]
pub fn report_to_json(report: &PlatformReport) -> JsonValue {
    report.to_json()
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
/// Returns [`SimError::Persistence`] on malformed JSON.
pub fn report_from_json(value: &JsonValue) -> Result<PlatformReport> {
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

    /// Parses a wire tag back into a kind.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on an unknown tag.
    pub fn from_wire_str(tag: &str) -> Result<WireErrorKind> {
        wire_error_kind_from_json(&JsonValue::String(tag.to_string()))
    }
}

/// Encodes a [`WireErrorKind`] as its JSON wire tag.
#[must_use]
pub fn wire_error_kind_to_json(kind: WireErrorKind) -> JsonValue {
    kind.to_json()
}

/// Decodes a [`WireErrorKind`] from its JSON wire tag.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown tag.
pub fn wire_error_kind_from_json(value: &JsonValue) -> Result<WireErrorKind> {
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
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
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
        // non-default disturbance, a defect selection and adaptive
        // Monte-Carlo sampling knobs.
        let tuned = base_config()
            .with_window(Volts::new(0.21))
            .with_disturbance(DisturbanceKind::Correlated {
                shared_fraction: 0.25,
            })
            .with_defects(DefectKind::sampled(0.02, 0.01, 77).unwrap())
            .with_monte_carlo(
                MonteCarloConfig::fixed(4_096, 17)
                    .with_target_half_width(0.05)
                    .with_confidence(0.99)
                    .with_max_samples(65_536),
            );
        let decoded = config_from_json(&config_to_json(&tuned)).unwrap();
        assert_eq!(decoded, tuned);
    }

    #[test]
    fn monte_carlo_documents_without_adaptive_keys_decode_to_fixed_mode() {
        // The wire shape of a fixed-sample request written before adaptive
        // stopping existed: bare samples + seed, no adaptive keys at all.
        let legacy = JsonValue::parse(r#"{"samples":500,"seed":42}"#).unwrap();
        let decoded = monte_carlo_from_json(&legacy).unwrap();
        assert_eq!(decoded, MonteCarloConfig::fixed(500, 42));
        assert!(!decoded.is_adaptive());
        // Explicit nulls mean the same thing as absent keys.
        let nulled = JsonValue::parse(
            r#"{"samples":500,"seed":42,"target_half_width":null,"confidence":0.95,"max_samples":null}"#,
        )
        .unwrap();
        assert_eq!(monte_carlo_from_json(&nulled).unwrap(), decoded);
    }

    #[test]
    fn canonical_strings_separate_monte_carlo_knobs() {
        let fixed = base_config();
        let adaptive = base_config()
            .with_monte_carlo(MonteCarloConfig::default().with_target_half_width(0.05));
        assert_ne!(rendered(&fixed), rendered(&adaptive));
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
                        "kind".to_string(),
                        JsonValue::String("cauchy".to_string()),
                    )]);
                }
            }
        }
        assert!(config_from_json(&value).is_err());
        let mystery = JsonValue::parse(r#"{"kind":"mystery","radix":2,"length":8}"#).unwrap();
        assert!(code_spec_from_json(&mystery).is_err());
    }
}
