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
//! # Rendered from the wire schema
//!
//! Config and report documents, the leaf bodies and the flat stage-key
//! bytes are this module's backend of the crate's wire schema, the one
//! field list per type that the JSON codec renders too. A record's body is
//! its fields back to back in listing order; a document groups its fields
//! by section tag, sections in ascending tag order and fields in listing
//! order within a section. A field's section body bytes are its stage-key
//! bytes, except the window override, whose section is written only when
//! it is set and then holds the bare value (a key carries a presence byte
//! instead).
//!
//! # Versioning discipline
//!
//! * A document whose schema version differs from [`BIN_SCHEMA_VERSION`] is
//!   rejected loudly — a future writer's layout cannot be guessed.
//! * Within the supported version, **unknown section tags are skipped**:
//!   a version-1 reader stays forward-compatible with payloads to which a
//!   later writer appended new sections. (The JSON decoder, by contrast,
//!   rejects an object key outside the field list and its retired names:
//!   every section is required, so a damaged tag already fails here, while
//!   a damaged JSON key would otherwise read as a defaulted field left
//!   out.)
//! * Every section this version writes is **required** when decoding,
//!   except the window override (its absence is the unset state). The
//!   binary format postdates the JSON codec's additive fields, so unlike
//!   the JSON codec it has no legacy documents to stay lenient for. A
//!   config section this version no longer writes is an unknown tag like
//!   any other: sections `0x07` (code-search budgets) and `0x0a` (sampling
//!   knobs) of earlier configs are skipped whatever they hold, and neither
//!   tag is reused (`SimConfig` lists both as retired).
//! * Non-finite floats are rejected on decode. JSON cannot represent them
//!   (the JSON encoder maps them to `null`, which its decoder rejects), so
//!   accepting them here would let the two codecs disagree.

use nanowire_codes::CodeSpec;

use crate::codec::WireErrorKind;
use crate::config::SimConfig;
use crate::defect::DefectKind;
use crate::disturbance::DisturbanceKind;
use crate::error::{Result, SimError};
use crate::platform::PlatformReport;
use crate::schema::{blank_code, blank_report, encode, Field, Record, Value, Wire};
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
    #[inline]
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (lossless on every supported target).
    #[inline]
    pub fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    /// Appends an `f64` as its 8 IEEE-754 bytes, little-endian — the
    /// bit-exact round trip the JSON codec achieves with shortest-roundtrip
    /// formatting.
    #[inline]
    pub fn put_f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends raw bytes with no framing — the caller owns the layout.
    #[inline]
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
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `count` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when fewer than `count` bytes
    /// remain.
    #[inline]
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
    #[inline]
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
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32> {
        let bytes = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on truncation.
    #[inline]
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
    #[inline]
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
    #[inline]
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
// Schema backends
// ---------------------------------------------------------------------------

/// Section tags are `1..SECTIONS`, so a document's sections fit one `u16`
/// mask.
const SECTIONS: usize = 16;

fn section_bit(field: Field) -> u16 {
    1 << field.tag
}

/// The body encoder: every field in listing order, back to back — a nested
/// record, or a leaf body such as [`code_spec_to_bin`]'s.
pub(crate) struct BodyOut<'a>(pub(crate) &'a mut BinWriter);

impl Wire for BodyOut<'_> {
    const DECODES: bool = false;

    #[inline(always)]
    fn field<V: Value>(&mut self, _: Field, value: &mut V) -> Result<()> {
        value.put(self.0);
        Ok(())
    }
}

/// The body decoder: every field in listing order.
pub(crate) struct BodyIn<'a, 'b>(pub(crate) &'b mut BinReader<'a>);

impl Wire for BodyIn<'_, '_> {
    const DECODES: bool = true;

    #[inline(always)]
    fn field<V: Value>(&mut self, _: Field, value: &mut V) -> Result<()> {
        value.read(self.0)
    }
}

/// A document encoder pass: collects the section tags of a record's fields
/// (`tag == 0`), or writes the fields of one section.
struct SectionOut<'a> {
    out: &'a mut BinWriter,
    tag: u8,
    tags: u16,
}

impl Wire for SectionOut<'_> {
    const DECODES: bool = false;

    #[inline(always)]
    fn field<V: Value>(&mut self, field: Field, value: &mut V) -> Result<()> {
        self.tags |= section_bit(field);
        if field.tag == self.tag {
            value.put(self.out);
        }
        Ok(())
    }

    #[inline(always)]
    fn when_set<V: Value + Default>(&mut self, field: Field, value: &mut Option<V>) -> Result<()> {
        match value {
            Some(value) => self.field(field, value),
            None => Ok(()),
        }
    }
}

fn duplicate(tag: u8) -> SimError {
    err(format!("duplicate section 0x{tag:02x} in binary document"))
}

fn missing(field: Field) -> SimError {
    err(format!(
        "binary document is missing section 0x{:02x} ({})",
        field.tag, field.key
    ))
}

/// A document decoder pass: reads the fields of one section from its body.
struct SectionIn<'a> {
    tag: u8,
    body: BinReader<'a>,
    /// Whether a field of the record lives in this section.
    known: bool,
}

impl Wire for SectionIn<'_> {
    const DECODES: bool = true;

    #[inline(always)]
    fn field<V: Value>(&mut self, field: Field, value: &mut V) -> Result<()> {
        if field.tag != self.tag {
            return Ok(());
        }
        self.known = true;
        value.read(&mut self.body)
    }

    #[inline(always)]
    fn when_set<V: Value + Default>(&mut self, field: Field, value: &mut Option<V>) -> Result<()> {
        if field.tag != self.tag {
            return Ok(());
        }
        self.field(field, value.get_or_insert_with(V::default))
    }
}

/// After every section is read: a field whose section the document lacks
/// fails the decode.
struct Missing {
    seen: u16,
}

impl Wire for Missing {
    const DECODES: bool = true;

    #[inline(always)]
    fn field<V: Value>(&mut self, field: Field, _: &mut V) -> Result<()> {
        if self.seen & section_bit(field) != 0 {
            Ok(())
        } else {
            Err(missing(field))
        }
    }

    fn when_set<V: Value + Default>(&mut self, _: Field, _: &mut Option<V>) -> Result<()> {
        Ok(())
    }
}

/// Encodes a record as a document of kind `kind`: its fields grouped into
/// sections in ascending tag order, listing order within a section. The
/// first pass collects the tags; an unset [`Wire::when_set`] field has
/// none, so its section is left out.
pub(crate) fn put_document<R: Record>(kind: u8, record: &R) -> Vec<u8> {
    let mut out = BinWriter {
        buf: document(kind, &[]),
    };
    let mut pass = SectionOut {
        out: &mut out,
        tag: 0,
        tags: 0,
    };
    encode(record, &mut pass);
    let tags = pass.tags;
    for tag in (1..SECTIONS as u8).filter(|&tag| tags & (1 << tag) != 0) {
        let header = out.buf.len();
        out.put_u8(tag);
        out.put_u32(0);
        encode(
            record,
            &mut SectionOut {
                out: &mut out,
                tag,
                tags: 0,
            },
        );
        let length = u32::try_from(out.buf.len() - header - 5).unwrap_or(u32::MAX);
        out.buf[header + 1..header + 5].copy_from_slice(&length.to_le_bytes());
    }
    out.into_bytes()
}

/// Decodes a document of kind `kind` into `record`, one pass over the field
/// list per section. Unknown section tags are skipped; a field's
/// section is required unless its presence rule defaults it.
pub(crate) fn read_document<R: Record>(bytes: &[u8], kind: u8, mut record: R) -> Result<R> {
    let mut reader = BinReader::new(document_payload(bytes, kind)?);
    let mut seen = 0u16;
    while let Some((tag, body)) = reader.next_section()? {
        let mut pass = SectionIn {
            tag,
            body: BinReader::new(body),
            known: false,
        };
        record.fields(&mut pass)?;
        if pass.known {
            // A known tag is below `SECTIONS`, so the shift cannot overflow.
            if seen & (1 << tag) != 0 {
                return Err(duplicate(tag));
            }
            seen |= 1 << tag;
            pass.body.finish()?;
        }
    }
    record.fields(&mut Missing { seen })?;
    record.finish()?;
    Ok(record)
}

/// The stage-key encoder: the body encoding of the wanted fields, each
/// one's byte span recorded by its position in the field list.
struct KeyFields {
    out: BinWriter,
    wanted: u32,
    position: usize,
    spans: [(usize, usize); ConfigField::ALL.len()],
}

impl Wire for KeyFields {
    const DECODES: bool = false;

    #[inline(always)]
    fn field<V: Value>(&mut self, _: Field, value: &mut V) -> Result<()> {
        if self.wanted & (1 << self.position) != 0 {
            let start = self.out.buf.len();
            value.put(&mut self.out);
            self.spans[self.position] = (start, self.out.buf.len());
        }
        self.position += 1;
        Ok(())
    }
}

/// The flat key bytes of `fields` of `config`, concatenated in `fields`
/// order: each field's body encoding, the window override behind a presence
/// byte. Every encoding is self-delimiting, so concatenating any fixed list
/// of fields is injective.
pub(crate) fn config_key(config: &SimConfig, fields: &[ConfigField]) -> Vec<u8> {
    let mut pass = KeyFields {
        // The fields of a configuration encode to at most 141 bytes in all.
        out: BinWriter {
            buf: Vec::with_capacity(256),
        },
        wanted: fields
            .iter()
            .fold(0, |wanted, &field| wanted | 1 << field as u32),
        position: 0,
        spans: [(0, 0); ConfigField::ALL.len()],
    };
    encode(config, &mut pass);
    // Most read sets are in listing order, and then the bytes are the key.
    if fields.is_sorted_by_key(|&field| field as usize) {
        return pass.out.buf;
    }
    let mut key = Vec::with_capacity(pass.out.buf.len());
    for &field in fields {
        let (start, end) = pass.spans[field as usize];
        key.extend_from_slice(&pass.out.buf[start..end]);
    }
    key
}

fn body<V: Value>(value: &V) -> Vec<u8> {
    let mut out = BinWriter::new();
    value.put(&mut out);
    out.into_bytes()
}

fn from_body<V: Value>(bytes: &[u8], mut value: V) -> Result<V> {
    let mut input = BinReader::new(bytes);
    value.read(&mut input)?;
    input.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Encodes a [`CodeSpec`] body: `kind:u8  radix:u8  length:u64 LE`.
#[must_use]
pub fn code_spec_to_bin(code: CodeSpec) -> Vec<u8> {
    body(&code)
}

/// Decodes a [`CodeSpec`] body, re-validating length against the family.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes, or propagates the
/// code layer's validation errors.
pub fn code_spec_from_bin(bytes: &[u8]) -> Result<CodeSpec> {
    from_body(bytes, blank_code())
}

/// Encodes a [`DisturbanceKind`] body: `kind:u8` plus, for the correlated
/// kind, `shared_fraction:f64`.
#[must_use]
pub fn disturbance_to_bin(kind: DisturbanceKind) -> Vec<u8> {
    body(&kind)
}

/// Decodes a [`DisturbanceKind`] body, re-validating a correlated shared
/// fraction through
/// [`CorrelatedDisturbance::new`](crate::CorrelatedDisturbance::new).
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes or an unknown kind
/// tag, or [`SimError::InvalidConfig`] for a shared fraction outside
/// `[0, 1]`.
pub fn disturbance_from_bin(bytes: &[u8]) -> Result<DisturbanceKind> {
    from_body(bytes, DisturbanceKind::default())
}

/// Encodes a [`DefectKind`] body: `kind:u8` plus, for the sampled kind,
/// `nanowire_breakage:f64  crosspoint_defect:f64  seed:u64`.
#[must_use]
pub fn defect_to_bin(kind: DefectKind) -> Vec<u8> {
    body(&kind)
}

/// Decodes a [`DefectKind`] body, re-validating the rates through
/// [`DefectConfig::new`](crate::DefectConfig::new).
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes or an unknown kind
/// tag, or propagates the defect layer's rate-validation errors.
pub fn defect_from_bin(bytes: &[u8]) -> Result<DefectKind> {
    from_body(bytes, DefectKind::None)
}

/// Encodes a [`WireErrorKind`] body as one byte, in [`WireErrorKind::ALL`]
/// order.
#[must_use]
pub fn wire_error_kind_to_bin(kind: WireErrorKind) -> Vec<u8> {
    body(&kind)
}

/// Decodes a [`WireErrorKind`] body.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes or an unknown tag.
pub fn wire_error_kind_from_bin(bytes: &[u8]) -> Result<WireErrorKind> {
    from_body(bytes, WireErrorKind::BadRequest)
}

/// Encodes a full [`SimConfig`] as a [`DOC_CONFIG`] document — every field,
/// including the disturbance kind and the defect selection, so two
/// configurations differing in either never serialize identically. Section
/// bodies hold the fields' stage-key bytes, except that the window-override
/// section is written only when the override is set, and then holds the
/// bare value.
#[must_use]
pub fn config_to_bin(config: &SimConfig) -> Vec<u8> {
    put_document(DOC_CONFIG, config)
}

/// Decodes a [`SimConfig`] document, passing every field through the same
/// validating constructors a hand-built configuration uses. Unknown section
/// tags are skipped; every section version 1 writes is required, except the
/// window override — its absence *is* the unset state.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed bytes, or propagates the
/// validation errors of the reconstructed layers.
pub fn config_from_bin(bytes: &[u8]) -> Result<SimConfig> {
    read_document(bytes, DOC_CONFIG, SimConfig::blank())
}

/// Encodes a [`PlatformReport`] as a [`DOC_REPORT`] document.
#[must_use]
pub fn report_to_bin(report: &PlatformReport) -> Vec<u8> {
    put_document(DOC_REPORT, report)
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
    read_document(bytes, DOC_REPORT, blank_report())
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

    #[test]
    fn config_round_trips_through_binary() {
        let config = base_config()
            .with_disturbance(DisturbanceKind::Correlated {
                shared_fraction: 0.25,
            })
            .with_defects(DefectKind::sampled(0.01, 0.002, 7).unwrap())
            .with_window(Volts::new(0.375));
        let bytes = config_to_bin(&config);
        let decoded = config_from_bin(&bytes).unwrap();
        assert_eq!(config_to_bin(&decoded), bytes);
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
    fn sections_decode_in_any_order() {
        // Defects make the report's composites differ from its decoder
        // quantities, which a later section must not overwrite.
        let config = base_config()
            .with_window(Volts::new(0.375))
            .with_defects(DefectKind::sampled(0.02, 0.01, 7).unwrap());
        let report = SimulationPlatform::new(config.clone()).evaluate().unwrap();
        let reversed = |bytes: &[u8], kind: u8| {
            let mut reader = BinReader::new(document_payload(bytes, kind).unwrap());
            let mut sections = Vec::new();
            while let Some(section) = reader.next_section().unwrap() {
                sections.push(section);
            }
            let mut payload = BinWriter::new();
            for (tag, body) in sections.into_iter().rev() {
                payload.section(tag, body);
            }
            document(kind, &payload.into_bytes())
        };
        let config_bytes = reversed(&config_to_bin(&config), DOC_CONFIG);
        assert_eq!(config_from_bin(&config_bytes).unwrap(), config);
        let report_bytes = reversed(&report_to_bin(&report), DOC_REPORT);
        assert_eq!(report_from_bin(&report_bytes).unwrap(), report);
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
    fn documents_without_a_monte_carlo_section_decode_to_the_default() {
        // A pre-adaptive writer produced every section except the trailing
        // Monte-Carlo one, `0x0a` — the shape every config document has
        // again now that the sampling knobs left the config.
        let config = base_config();
        let bytes = config_to_bin(&config);
        let mut reader = BinReader::new(document_payload(&bytes, DOC_CONFIG).unwrap());
        while let Some((tag, _)) = reader.next_section().unwrap() {
            assert_ne!(tag, 0x0a);
        }
        assert_eq!(config_from_bin(&bytes).unwrap(), config);
        // Writers in between appended the knobs as `0x0a`; the decoder no
        // longer reads that body, so none of it, well-formed or not, can
        // move the decoded config.
        for body in [&[][..], &[0xff; 3][..], &[0; 34][..]] {
            let mut carrying = bytes.clone();
            let mut section = BinWriter::new();
            section.section(0x0a, body);
            carrying.extend_from_slice(&section.into_bytes());
            assert_eq!(config_from_bin(&carrying).unwrap(), config);
        }
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
