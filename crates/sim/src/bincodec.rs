//! Versioned, fixed-layout little-endian binary codec for the types that
//! cross process boundaries — the compact sibling of the JSON [`crate::codec`].
//!
//! The JSON codec carries full float text on every wire round trip and in
//! every warm-cache snapshot. This module encodes the same types —
//! [`SimConfig`], [`PlatformReport`], [`DisturbanceKind`], [`DefectKind`],
//! [`WireErrorKind`] — in a binary layout that is a fraction of the size and
//! needs no text parsing, while keeping the JSON codec's two contracts:
//! **bit-exact float round trips** (via `f64::to_le_bytes`, which is exact by
//! construction rather than by shortest-roundtrip formatting) and **loud
//! failure on malformed input** (every decode path returns a typed
//! [`SimError::Persistence`]; nothing panics on attacker-controlled bytes).
//!
//! # Document layout
//!
//! Every top-level document starts with a 7-byte envelope:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  B1 4D 53 50  ("\xB1MSP" — 0xB1 is not a valid UTF-8
//!               lead byte, so a binary document can never be confused with
//!               JSON text, whose first byte is `{` or whitespace)
//! 4       2     schema version, u16 LE (this build writes and accepts 1)
//! 6       1     document kind (DOC_CONFIG, DOC_REPORT, …)
//! 7       …     payload: a stream of tag-length-value sections
//! ```
//!
//! Each section is `tag:u8  length:u32 LE  body:[u8; length]`. Section
//! bodies are fixed little-endian layouts (`u64`/`u32`/`u8` integers,
//! `f64::to_le_bytes` floats, `u32`-length-prefixed UTF-8 strings).
//!
//! # Versioning discipline
//!
//! * A document whose schema version differs from [`BIN_SCHEMA_VERSION`] is
//!   rejected loudly — a future writer's layout cannot be guessed.
//! * Within the supported version, **unknown section tags are skipped**:
//!   a version-1 reader stays forward-compatible with payloads to which a
//!   later writer appended new sections, exactly as the JSON decoder
//!   ignores object keys it does not read.
//! * Every section this version writes is **required** when decoding
//!   (except genuinely optional values such as the window override): the
//!   binary format is new in version 1, so unlike the JSON codec it has no
//!   pre-field legacy documents to stay lenient for. A truncated document
//!   therefore always fails — there is no prefix of a valid document that
//!   decodes successfully.
//! * Non-finite floats are rejected on decode. JSON cannot represent them
//!   (the JSON encoder maps them to `null`, which its decoder rejects), so
//!   accepting them here would let the two codecs disagree.

use nanowire_codes::{
    ArrangedHotBudget, BalanceBudget, CodeBudgets, CodeKind, CodeSpec, LogicLevel, SearchBudget,
};

use crossbar_array::LayoutRules;
use device_physics::{Nanometers, ThresholdModel, Volts};

use crate::codec::WireErrorKind;
use crate::config::SimConfig;
use crate::defect::{DefectConfig, DefectKind};
use crate::disturbance::DisturbanceKind;
use crate::error::{Result, SimError};
use crate::monte_carlo::MonteCarloConfig;
use crate::platform::PlatformReport;
use crate::stage::ConfigField;

/// The four magic bytes that open every binary document. The first byte,
/// `0xB1`, is not a valid UTF-8 lead byte, so the first byte of a framed
/// payload unambiguously discriminates binary documents from JSON text.
pub const BIN_MAGIC: [u8; 4] = [0xB1, b'M', b'S', b'P'];

/// The schema version this build writes and accepts. Any other version is
/// rejected with a typed error.
pub const BIN_SCHEMA_VERSION: u16 = 1;

/// Document kind: a [`SimConfig`].
pub const DOC_CONFIG: u8 = 1;
/// Document kind: a [`PlatformReport`].
pub const DOC_REPORT: u8 = 2;
/// Document kind: a serve-layer report request (encoded by `mspt-serve`).
pub const DOC_REQUEST: u8 = 3;
/// Document kind: a serve-layer reply (encoded by `mspt-serve`).
pub const DOC_REPLY: u8 = 4;
/// Document kind: a report-cache snapshot (encoded by the cache layer).
pub const DOC_SNAPSHOT: u8 = 5;

/// Whether a payload's first byte marks it as a binary document rather than
/// JSON text. This is the codec negotiation used by the framed transport:
/// JSON documents start with `{` (or whitespace), which can never equal
/// `BIN_MAGIC[0]`.
#[must_use]
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.first() == Some(&BIN_MAGIC[0])
}

fn err(reason: impl Into<String>) -> SimError {
    SimError::Persistence {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An append-only little-endian byte writer for section bodies and document
/// payloads. Infallible: encoding a valid in-memory value cannot fail.
#[derive(Debug, Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (lossless on every supported target).
    pub fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    /// Appends an `f64` as its 8 IEEE-754 bytes, little-endian — the
    /// bit-exact round trip the JSON codec achieves with shortest-roundtrip
    /// formatting.
    pub fn put_f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends raw bytes with no framing — the caller owns the layout.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a UTF-8 string as a `u32` byte length followed by the bytes.
    pub fn put_str(&mut self, value: &str) {
        self.put_u32(u32::try_from(value.len()).unwrap_or(u32::MAX));
        self.buf
            .extend_from_slice(&value.as_bytes()[..value.len().min(u32::MAX as usize)]);
    }

    /// Appends a tag-length-value section.
    pub fn section(&mut self, tag: u8, body: &[u8]) {
        self.put_u8(tag);
        self.put_u32(u32::try_from(body.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(body);
    }

    /// Consumes the writer, returning the accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Wraps a payload in the 7-byte document envelope (magic, schema version,
/// document kind).
#[must_use]
pub fn document(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(7 + payload.len());
    buf.extend_from_slice(&BIN_MAGIC);
    buf.extend_from_slice(&BIN_SCHEMA_VERSION.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(payload);
    buf
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian byte reader. Every `take_*` returns a
/// typed [`SimError::Persistence`] when the buffer is too short — truncation
/// can never panic or wrap around.
#[derive(Debug)]
pub struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// How many bytes remain unread.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `count` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when fewer than `count` bytes
    /// remain.
    pub fn take_bytes(&mut self, count: usize) -> Result<&'a [u8]> {
        if count > self.remaining() {
            return Err(err(format!(
                "truncated binary document: needed {count} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + count];
        self.pos += count;
        Ok(slice)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on truncation.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on truncation.
    pub fn take_u16(&mut self) -> Result<u16> {
        let bytes = self.take_bytes(2)?;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on truncation.
    pub fn take_u32(&mut self) -> Result<u32> {
        let bytes = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on truncation.
    pub fn take_u64(&mut self) -> Result<u64> {
        let bytes = self.take_bytes(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    /// Takes a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on truncation or when the value
    /// does not fit this target's `usize`.
    pub fn take_usize(&mut self) -> Result<usize> {
        let value = self.take_u64()?;
        usize::try_from(value).map_err(|_| err(format!("value {value} does not fit a usize")))
    }

    /// Takes an IEEE-754 `f64`, rejecting non-finite values — JSON cannot
    /// represent them, so accepting them here would let the codecs diverge.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on truncation or a non-finite
    /// value.
    pub fn take_f64(&mut self) -> Result<f64> {
        let bytes = self.take_bytes(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        let value = f64::from_le_bytes(raw);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(err("non-finite float in binary document"))
        }
    }

    /// Takes a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on truncation or invalid UTF-8.
    pub fn take_str(&mut self) -> Result<&'a str> {
        let length = self.take_u32()? as usize;
        let bytes = self.take_bytes(length)?;
        std::str::from_utf8(bytes).map_err(|_| err("binary document string is not valid UTF-8"))
    }

    /// Reads the next tag-length-value section, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on a truncated section header or a
    /// section length that overruns the remaining buffer (an oversized
    /// length can therefore never cause an out-of-bounds read or an
    /// allocation bomb — the body is a borrowed sub-slice).
    pub fn next_section(&mut self) -> Result<Option<(u8, &'a [u8])>> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let tag = self.take_u8()?;
        let length = self.take_u32()? as usize;
        if length > self.remaining() {
            return Err(err(format!(
                "section 0x{tag:02x} claims {length} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(Some((tag, self.take_bytes(length)?)))
    }

    /// Asserts the whole buffer was consumed — trailing garbage after a
    /// fixed-layout body is a format violation, not padding.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when unread bytes remain.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(err(format!(
                "{} trailing bytes after binary value",
                self.remaining()
            )))
        }
    }
}

/// Validates a document envelope and returns the payload after it.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] when the buffer is shorter than the
/// envelope, the magic bytes are wrong, the schema version is not
/// [`BIN_SCHEMA_VERSION`] (a future writer's layout cannot be guessed), or
/// the document kind differs from `kind`.
pub fn document_payload(bytes: &[u8], kind: u8) -> Result<&[u8]> {
    let mut reader = BinReader::new(bytes);
    let magic = reader.take_bytes(4).map_err(|_| {
        err(format!(
            "binary document header truncated ({} bytes, envelope needs 7)",
            bytes.len()
        ))
    })?;
    if magic != BIN_MAGIC {
        return Err(err(format!(
            "bad magic {magic:02x?}; not a binary document"
        )));
    }
    let version = reader.take_u16()?;
    if version != BIN_SCHEMA_VERSION {
        return Err(err(format!(
            "unsupported binary schema version {version} (this build understands {BIN_SCHEMA_VERSION})"
        )));
    }
    let found = reader.take_u8()?;
    if found != kind {
        return Err(err(format!("expected document kind {kind}, found {found}")));
    }
    Ok(&bytes[7..])
}

// ---------------------------------------------------------------------------
// Leaf encodings (section bodies, no envelope)
// ---------------------------------------------------------------------------

fn code_kind_tag(kind: CodeKind) -> u8 {
    match kind {
        CodeKind::Tree => 0,
        CodeKind::Gray => 1,
        CodeKind::BalancedGray => 2,
        CodeKind::Hot => 3,
        CodeKind::ArrangedHot => 4,
    }
}

fn code_kind_from_tag(tag: u8) -> Result<CodeKind> {
    CodeKind::ALL
        .into_iter()
        .find(|&kind| code_kind_tag(kind) == tag)
        .ok_or_else(|| err(format!("unknown code kind tag {tag}")))
}

/// Writes a [`CodeSpec`] body: `kind:u8  radix:u8  length:u64 LE`.
pub(crate) fn put_code_spec(writer: &mut BinWriter, code: CodeSpec) {
    writer.put_u8(code_kind_tag(code.kind()));
    writer.put_u8(code.radix().radix());
    writer.put_usize(code.code_length());
}

/// Encodes a [`CodeSpec`] body: `kind:u8  radix:u8  length:u64 LE`.
#[must_use]
pub fn code_spec_to_bin(code: CodeSpec) -> Vec<u8> {
    let mut writer = BinWriter::new();
    put_code_spec(&mut writer, code);
    writer.into_bytes()
}

/// Decodes a [`CodeSpec`] body, re-validating length against the family.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes, or propagates the
/// code layer's validation errors.
pub fn code_spec_from_bin(bytes: &[u8]) -> Result<CodeSpec> {
    let mut reader = BinReader::new(bytes);
    let kind = code_kind_from_tag(reader.take_u8()?)?;
    let radix = LogicLevel::new(reader.take_u8()?)?;
    let length = reader.take_usize()?;
    reader.finish()?;
    Ok(CodeSpec::new(kind, radix, length)?)
}

/// Writes a [`DisturbanceKind`] body: `kind:u8` plus, for the correlated
/// kind, `shared_fraction:f64`.
pub(crate) fn put_disturbance(writer: &mut BinWriter, kind: DisturbanceKind) {
    match kind {
        DisturbanceKind::Gaussian => writer.put_u8(0),
        DisturbanceKind::Laplace => writer.put_u8(1),
        DisturbanceKind::Correlated { shared_fraction } => {
            writer.put_u8(2);
            writer.put_f64(shared_fraction);
        }
    }
}

/// Encodes a [`DisturbanceKind`] body: `kind:u8` plus, for the correlated
/// kind, `shared_fraction:f64`.
#[must_use]
pub fn disturbance_to_bin(kind: DisturbanceKind) -> Vec<u8> {
    let mut writer = BinWriter::new();
    put_disturbance(&mut writer, kind);
    writer.into_bytes()
}

/// Decodes a [`DisturbanceKind`] body.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes or an unknown kind
/// tag.
pub fn disturbance_from_bin(bytes: &[u8]) -> Result<DisturbanceKind> {
    let mut reader = BinReader::new(bytes);
    let kind = match reader.take_u8()? {
        0 => DisturbanceKind::Gaussian,
        1 => DisturbanceKind::Laplace,
        2 => DisturbanceKind::Correlated {
            shared_fraction: reader.take_f64()?,
        },
        other => return Err(err(format!("unknown disturbance kind tag {other}"))),
    };
    reader.finish()?;
    Ok(kind)
}

/// Writes a [`DefectKind`] body: `kind:u8` plus, for the sampled kind,
/// `nanowire_breakage:f64  crosspoint_defect:f64  seed:u64`.
pub(crate) fn put_defects(writer: &mut BinWriter, kind: DefectKind) {
    match kind {
        DefectKind::None => writer.put_u8(0),
        DefectKind::Sampled(config) => {
            writer.put_u8(1);
            writer.put_f64(config.nanowire_breakage());
            writer.put_f64(config.crosspoint_defect());
            writer.put_u64(config.seed());
        }
    }
}

/// Encodes a [`DefectKind`] body: `kind:u8` plus, for the sampled kind,
/// `nanowire_breakage:f64  crosspoint_defect:f64  seed:u64`.
#[must_use]
pub fn defect_to_bin(kind: DefectKind) -> Vec<u8> {
    let mut writer = BinWriter::new();
    put_defects(&mut writer, kind);
    writer.into_bytes()
}

/// Writes a [`MonteCarloConfig`] body: `samples:u64  seed:u64`, the target
/// half-width behind a presence byte, `confidence:f64`, then the sample
/// ceiling behind a presence byte.
pub(crate) fn put_monte_carlo(writer: &mut BinWriter, mc: MonteCarloConfig) {
    writer.put_usize(mc.samples);
    writer.put_u64(mc.seed);
    match mc.target_half_width {
        Some(target) => {
            writer.put_u8(1);
            writer.put_f64(target);
        }
        None => writer.put_u8(0),
    }
    writer.put_f64(mc.confidence);
    match mc.max_samples {
        Some(max) => {
            writer.put_u8(1);
            writer.put_usize(max);
        }
        None => writer.put_u8(0),
    }
}

/// Decodes a [`DefectKind`] body, re-validating the rates through
/// [`DefectConfig::new`].
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes or an unknown kind
/// tag, or propagates the defect layer's rate-validation errors.
pub fn defect_from_bin(bytes: &[u8]) -> Result<DefectKind> {
    let mut reader = BinReader::new(bytes);
    let kind = match reader.take_u8()? {
        0 => DefectKind::None,
        1 => {
            let nanowire_breakage = reader.take_f64()?;
            let crosspoint_defect = reader.take_f64()?;
            let seed = reader.take_u64()?;
            DefectKind::Sampled(DefectConfig::new(
                nanowire_breakage,
                crosspoint_defect,
                seed,
            )?)
        }
        other => return Err(err(format!("unknown defect kind tag {other}"))),
    };
    reader.finish()?;
    Ok(kind)
}

/// Encodes a [`WireErrorKind`] body as one byte, in [`WireErrorKind::ALL`]
/// order.
#[must_use]
pub fn wire_error_kind_to_bin(kind: WireErrorKind) -> Vec<u8> {
    let tag = match kind {
        WireErrorKind::BadRequest => 0u8,
        WireErrorKind::Overloaded => 1,
        WireErrorKind::Internal => 2,
    };
    vec![tag]
}

/// Decodes a [`WireErrorKind`] body.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes or an unknown tag.
pub fn wire_error_kind_from_bin(bytes: &[u8]) -> Result<WireErrorKind> {
    let mut reader = BinReader::new(bytes);
    let kind = match reader.take_u8()? {
        0 => WireErrorKind::BadRequest,
        1 => WireErrorKind::Overloaded,
        2 => WireErrorKind::Internal,
        other => return Err(err(format!("unknown wire error kind tag {other}"))),
    };
    reader.finish()?;
    Ok(kind)
}

// ---------------------------------------------------------------------------
// SimConfig document
// ---------------------------------------------------------------------------

const TAG_CONFIG_CODE: u8 = 0x01;
const TAG_CONFIG_GEOMETRY: u8 = 0x02;
const TAG_CONFIG_LAYOUT: u8 = 0x03;
const TAG_CONFIG_THRESHOLD: u8 = 0x04;
const TAG_CONFIG_NOISE: u8 = 0x05;
const TAG_CONFIG_WINDOW: u8 = 0x06;
const TAG_CONFIG_BUDGETS: u8 = 0x07;
const TAG_CONFIG_DISTURBANCE: u8 = 0x08;
const TAG_CONFIG_DEFECTS: u8 = 0x09;
const TAG_CONFIG_MONTE_CARLO: u8 = 0x0a;

fn duplicate(tag: u8) -> SimError {
    err(format!("duplicate section 0x{tag:02x} in binary document"))
}

fn missing(what: &str) -> SimError {
    err(format!("binary document is missing its {what} section"))
}

/// Stores a decoded section into its slot, rejecting a second occurrence —
/// a duplicate section is a format violation, not a "last writer wins".
fn store<T>(slot: &mut Option<T>, value: T, tag: u8) -> Result<()> {
    if slot.replace(value).is_some() {
        Err(duplicate(tag))
    } else {
        Ok(())
    }
}

/// Encodes a full [`SimConfig`] as a [`DOC_CONFIG`] document — every field,
/// including the disturbance kind and the defect selection, so two
/// configurations differing in either never serialize identically.
///
/// Section bodies are the [`ConfigField`] identity encoders — the bytes the
/// stage keys are folded from — so the document and the memo keys cannot
/// disagree on a field's layout. The window override is the one exception:
/// its section is written only when the override is set, and then holds
/// the bare value.
#[must_use]
pub fn config_to_bin(config: &SimConfig) -> Vec<u8> {
    let section = |fields: &[ConfigField]| {
        let mut body = BinWriter::new();
        for &field in fields {
            field.encode(config, &mut body);
        }
        body.into_bytes()
    };
    let mut payload = BinWriter::new();
    payload.section(TAG_CONFIG_CODE, &section(&[ConfigField::Code]));
    payload.section(
        TAG_CONFIG_GEOMETRY,
        &section(&[ConfigField::NanowiresPerHalfCave, ConfigField::RawBits]),
    );
    payload.section(TAG_CONFIG_LAYOUT, &section(&[ConfigField::Layout]));
    payload.section(
        TAG_CONFIG_THRESHOLD,
        &section(&[ConfigField::ThresholdModel]),
    );
    payload.section(
        TAG_CONFIG_NOISE,
        &section(&[ConfigField::SigmaPerDose, ConfigField::SupplyRange]),
    );
    if let Some(window) = config.window_override() {
        payload.section(TAG_CONFIG_WINDOW, &window.value().to_le_bytes());
    }
    payload.section(TAG_CONFIG_BUDGETS, &section(&[ConfigField::CodeBudgets]));
    payload.section(
        TAG_CONFIG_DISTURBANCE,
        &section(&[ConfigField::Disturbance]),
    );
    payload.section(TAG_CONFIG_DEFECTS, &section(&[ConfigField::Defects]));
    // Appended last so documents written by this version still parse in
    // readers that predate the sampling knobs (they skip unknown tags).
    payload.section(TAG_CONFIG_MONTE_CARLO, &section(&[ConfigField::MonteCarlo]));
    document(DOC_CONFIG, &payload.into_bytes())
}

/// Decodes a [`SimConfig`] document, passing every field through the same
/// validating constructors a hand-built configuration uses. Unknown section
/// tags are skipped; every section version 1 writes is required (the window
/// override excepted — its absence *is* the unset state — and the
/// Monte-Carlo section, which postdates version 1 and defaults to the
/// historical fixed-sample behaviour when absent).
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes, or propagates the
/// validation errors of the reconstructed layers.
pub fn config_from_bin(bytes: &[u8]) -> Result<SimConfig> {
    let mut reader = BinReader::new(document_payload(bytes, DOC_CONFIG)?);
    let mut code = None;
    let mut geometry = None;
    let mut layout = None;
    let mut threshold = None;
    let mut noise = None;
    let mut window = None;
    let mut budgets = None;
    let mut disturbance = None;
    let mut defects = None;
    let mut monte_carlo = None;
    while let Some((tag, body)) = reader.next_section()? {
        match tag {
            TAG_CONFIG_CODE => store(&mut code, code_spec_from_bin(body)?, tag)?,
            TAG_CONFIG_GEOMETRY => {
                let mut section = BinReader::new(body);
                let value = (section.take_usize()?, section.take_u64()?);
                section.finish()?;
                store(&mut geometry, value, tag)?;
            }
            TAG_CONFIG_LAYOUT => {
                let mut section = BinReader::new(body);
                let value = LayoutRules::new(
                    Nanometers::new(section.take_f64()?),
                    Nanometers::new(section.take_f64()?),
                    section.take_f64()?,
                    Nanometers::new(section.take_f64()?),
                )?;
                section.finish()?;
                store(&mut layout, value, tag)?;
            }
            TAG_CONFIG_THRESHOLD => {
                let mut section = BinReader::new(body);
                let value = ThresholdModel::new(
                    Nanometers::new(section.take_f64()?),
                    Volts::new(section.take_f64()?),
                )?;
                section.finish()?;
                store(&mut threshold, value, tag)?;
            }
            TAG_CONFIG_NOISE => {
                let mut section = BinReader::new(body);
                let value = (
                    Volts::new(section.take_f64()?),
                    Volts::new(section.take_f64()?),
                    Volts::new(section.take_f64()?),
                );
                section.finish()?;
                store(&mut noise, value, tag)?;
            }
            TAG_CONFIG_WINDOW => {
                let mut section = BinReader::new(body);
                let value = Volts::new(section.take_f64()?);
                section.finish()?;
                store(&mut window, value, tag)?;
            }
            TAG_CONFIG_BUDGETS => {
                let mut section = BinReader::new(body);
                let value = CodeBudgets {
                    balance: BalanceBudget {
                        max_nodes_per_limit: section.take_u64()?,
                        max_limit_slack: section.take_usize()?,
                    },
                    arranged_hot: ArrangedHotBudget {
                        max_nodes: section.take_u64()?,
                        fallback: SearchBudget {
                            max_nodes: section.take_u64()?,
                            max_two_opt_sweeps: section.take_u32()?,
                        },
                    },
                };
                section.finish()?;
                store(&mut budgets, value, tag)?;
            }
            TAG_CONFIG_DISTURBANCE => store(&mut disturbance, disturbance_from_bin(body)?, tag)?,
            TAG_CONFIG_DEFECTS => store(&mut defects, defect_from_bin(body)?, tag)?,
            TAG_CONFIG_MONTE_CARLO => {
                let mut section = BinReader::new(body);
                let mut value = MonteCarloConfig::fixed(section.take_usize()?, section.take_u64()?);
                if section.take_u8()? != 0 {
                    value = value.with_target_half_width(section.take_f64()?);
                }
                value = value.with_confidence(section.take_f64()?);
                if section.take_u8()? != 0 {
                    value = value.with_max_samples(section.take_usize()?);
                }
                section.finish()?;
                store(&mut monte_carlo, value, tag)?;
            }
            _ => {} // Forward compatibility: skip sections a later writer added.
        }
    }
    let code = code.ok_or_else(|| missing("code"))?;
    let (nanowires, raw_bits) = geometry.ok_or_else(|| missing("geometry"))?;
    let layout = layout.ok_or_else(|| missing("layout"))?;
    let threshold = threshold.ok_or_else(|| missing("threshold"))?;
    let (sigma, supply_low, supply_high) = noise.ok_or_else(|| missing("noise"))?;
    let budgets = budgets.ok_or_else(|| missing("budgets"))?;
    let disturbance = disturbance.ok_or_else(|| missing("disturbance"))?;
    let defects = defects.ok_or_else(|| missing("defects"))?;
    let mut config = SimConfig::new(
        code,
        nanowires,
        raw_bits,
        layout,
        threshold,
        sigma,
        (supply_low, supply_high),
    )?
    .with_code_budgets(budgets)
    .with_disturbance(disturbance)
    // Optional for forward compatibility: documents written before the
    // sampling knobs existed decode to the default fixed behaviour.
    .with_monte_carlo(monte_carlo.unwrap_or_default())
    .with_defects(defects);
    if let Some(window) = window {
        config = config.with_window(window);
    }
    Ok(config)
}

// ---------------------------------------------------------------------------
// PlatformReport document
// ---------------------------------------------------------------------------

const TAG_REPORT_CODE: u8 = 0x01;
const TAG_REPORT_STRUCTURE: u8 = 0x02;
const TAG_REPORT_METRICS: u8 = 0x03;
const TAG_REPORT_DEFECTS: u8 = 0x04;
const TAG_REPORT_DEFECT_METRICS: u8 = 0x05;

/// Encodes a [`PlatformReport`] as a [`DOC_REPORT`] document.
#[must_use]
pub fn report_to_bin(report: &PlatformReport) -> Vec<u8> {
    let mut payload = BinWriter::new();
    payload.section(TAG_REPORT_CODE, &code_spec_to_bin(report.code));
    let mut structure = BinWriter::new();
    structure.put_usize(report.nanowires_per_half_cave);
    structure.put_usize(report.fabrication_steps);
    structure.put_usize(report.contact_groups);
    payload.section(TAG_REPORT_STRUCTURE, &structure.into_bytes());
    let mut metrics = BinWriter::new();
    metrics.put_f64(report.mean_variability);
    metrics.put_f64(report.max_normalized_sigma);
    metrics.put_f64(report.cave_yield);
    metrics.put_f64(report.crossbar_yield);
    metrics.put_f64(report.effective_bits);
    metrics.put_f64(report.raw_bit_area);
    metrics.put_f64(report.effective_bit_area);
    payload.section(TAG_REPORT_METRICS, &metrics.into_bytes());
    payload.section(TAG_REPORT_DEFECTS, &defect_to_bin(report.defects));
    let mut defect_metrics = BinWriter::new();
    defect_metrics.put_f64(report.defect_survival);
    defect_metrics.put_f64(report.composite_yield);
    defect_metrics.put_f64(report.composite_effective_bits);
    payload.section(TAG_REPORT_DEFECT_METRICS, &defect_metrics.into_bytes());
    document(DOC_REPORT, &payload.into_bytes())
}

/// Decodes a [`PlatformReport`] document bit-identically (floats round-trip
/// exactly). Unknown section tags are skipped; all five version-1 sections
/// are required — the binary format postdates the defect dimension, so
/// unlike the JSON decoder it has no pre-defect documents to default for.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes.
pub fn report_from_bin(bytes: &[u8]) -> Result<PlatformReport> {
    let mut reader = BinReader::new(document_payload(bytes, DOC_REPORT)?);
    let mut code = None;
    let mut structure = None;
    let mut metrics = None;
    let mut defects = None;
    let mut defect_metrics = None;
    while let Some((tag, body)) = reader.next_section()? {
        match tag {
            TAG_REPORT_CODE => store(&mut code, code_spec_from_bin(body)?, tag)?,
            TAG_REPORT_STRUCTURE => {
                let mut section = BinReader::new(body);
                let value = (
                    section.take_usize()?,
                    section.take_usize()?,
                    section.take_usize()?,
                );
                section.finish()?;
                store(&mut structure, value, tag)?;
            }
            TAG_REPORT_METRICS => {
                let mut section = BinReader::new(body);
                let value = [
                    section.take_f64()?,
                    section.take_f64()?,
                    section.take_f64()?,
                    section.take_f64()?,
                    section.take_f64()?,
                    section.take_f64()?,
                    section.take_f64()?,
                ];
                section.finish()?;
                store(&mut metrics, value, tag)?;
            }
            TAG_REPORT_DEFECTS => store(&mut defects, defect_from_bin(body)?, tag)?,
            TAG_REPORT_DEFECT_METRICS => {
                let mut section = BinReader::new(body);
                let value = (
                    section.take_f64()?,
                    section.take_f64()?,
                    section.take_f64()?,
                );
                section.finish()?;
                store(&mut defect_metrics, value, tag)?;
            }
            _ => {} // Forward compatibility: skip sections a later writer added.
        }
    }
    let code = code.ok_or_else(|| missing("code"))?;
    let (nanowires_per_half_cave, fabrication_steps, contact_groups) =
        structure.ok_or_else(|| missing("structure"))?;
    let [mean_variability, max_normalized_sigma, cave_yield, crossbar_yield, effective_bits, raw_bit_area, effective_bit_area] =
        metrics.ok_or_else(|| missing("metrics"))?;
    let defects = defects.ok_or_else(|| missing("defects"))?;
    let (defect_survival, composite_yield, composite_effective_bits) =
        defect_metrics.ok_or_else(|| missing("defect metrics"))?;
    Ok(PlatformReport {
        code,
        nanowires_per_half_cave,
        fabrication_steps,
        mean_variability,
        max_normalized_sigma,
        cave_yield,
        crossbar_yield,
        effective_bits,
        raw_bit_area,
        effective_bit_area,
        contact_groups,
        defects,
        defect_survival,
        composite_yield,
        composite_effective_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimulationPlatform;

    fn base_config() -> SimConfig {
        let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    #[test]
    fn config_round_trips_through_binary() {
        let config = base_config()
            .with_disturbance(DisturbanceKind::Correlated {
                shared_fraction: 0.25,
            })
            .with_defects(DefectKind::sampled(0.01, 0.002, 7).unwrap())
            .with_window(Volts::new(0.375))
            .with_monte_carlo(
                MonteCarloConfig::fixed(4_096, 17)
                    .with_target_half_width(0.05)
                    .with_confidence(0.99)
                    .with_max_samples(65_536),
            );
        let bytes = config_to_bin(&config);
        let decoded = config_from_bin(&bytes).unwrap();
        assert_eq!(config_to_bin(&decoded), bytes);
        assert_eq!(decoded.monte_carlo(), config.monte_carlo());
        assert_eq!(decoded, config);
    }

    #[test]
    fn documents_without_a_monte_carlo_section_decode_to_the_default() {
        // Reconstruct the byte stream a pre-adaptive writer produced: every
        // section except the trailing Monte-Carlo one. The decoder must
        // fall back to the historical fixed-sample default.
        let config = base_config();
        let bytes = config_to_bin(&config);
        let payload = document_payload(&bytes, DOC_CONFIG).unwrap();
        let mut legacy_payload = BinWriter::new();
        let mut reader = BinReader::new(payload);
        while let Some((tag, body)) = reader.next_section().unwrap() {
            if tag != TAG_CONFIG_MONTE_CARLO {
                legacy_payload.section(tag, body);
            }
        }
        let legacy = document(DOC_CONFIG, &legacy_payload.into_bytes());
        let decoded = config_from_bin(&legacy).unwrap();
        assert_eq!(decoded.monte_carlo(), MonteCarloConfig::default());
        assert_eq!(decoded, config);
    }

    #[test]
    fn report_round_trips_bit_identically() {
        let report = SimulationPlatform::new(base_config()).evaluate().unwrap();
        let bytes = report_to_bin(&report);
        let decoded = report_from_bin(&bytes).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(report_to_bin(&decoded), bytes);
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let config = base_config();
        let mut bytes = config_to_bin(&config);
        // Append a section with an unallocated tag; a version-1 reader must
        // ignore it and still decode the known fields.
        let mut extra = BinWriter::new();
        extra.section(0x7f, &[1, 2, 3, 4]);
        bytes.extend_from_slice(&extra.into_bytes());
        let decoded = config_from_bin(&bytes).unwrap();
        assert_eq!(config_to_bin(&decoded), config_to_bin(&config));
    }

    #[test]
    fn future_versions_and_bad_magic_are_rejected() {
        let mut future = config_to_bin(&base_config());
        future[4..6].copy_from_slice(&2u16.to_le_bytes());
        let error = config_from_bin(&future).unwrap_err();
        assert!(error.to_string().contains("schema version"), "{error}");

        let mut wrong = config_to_bin(&base_config());
        wrong[0] = b'{';
        assert!(config_from_bin(&wrong)
            .unwrap_err()
            .to_string()
            .contains("magic"));
    }

    #[test]
    fn wrong_document_kind_is_rejected() {
        let config_bytes = config_to_bin(&base_config());
        let error = report_from_bin(&config_bytes).unwrap_err();
        assert!(error.to_string().contains("document kind"), "{error}");
    }

    #[test]
    fn leaf_values_round_trip() {
        for kind in [
            DisturbanceKind::Gaussian,
            DisturbanceKind::Laplace,
            DisturbanceKind::Correlated {
                shared_fraction: 0.5,
            },
        ] {
            assert_eq!(
                disturbance_from_bin(&disturbance_to_bin(kind)).unwrap(),
                kind
            );
        }
        for kind in [
            DefectKind::None,
            DefectKind::sampled(0.03, 0.001, 42).unwrap(),
        ] {
            assert_eq!(defect_from_bin(&defect_to_bin(kind)).unwrap(), kind);
        }
        for kind in WireErrorKind::ALL {
            assert_eq!(
                wire_error_kind_from_bin(&wire_error_kind_to_bin(kind)).unwrap(),
                kind
            );
        }
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        let config = base_config();
        let bytes = config_to_bin(&config);
        // Duplicate the first section (code: tag + u32 length + 10-byte body).
        let mut doctored = bytes[..7].to_vec();
        doctored.extend_from_slice(&bytes[7..22]);
        doctored.extend_from_slice(&bytes[7..]);
        let error = config_from_bin(&doctored).unwrap_err();
        assert!(error.to_string().contains("duplicate"), "{error}");
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        let mut body = BinWriter::new();
        body.put_u8(2);
        body.put_f64(f64::NAN);
        let error = disturbance_from_bin(&body.into_bytes()).unwrap_err();
        assert!(error.to_string().contains("non-finite"), "{error}");
    }
}
