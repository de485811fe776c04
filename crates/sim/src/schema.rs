//! The wire schema: one field list per wire type, which both codecs render.
//!
//! Every type that crosses a process boundary — `SimConfig`,
//! [`PlatformReport`] and the leaf types inside them — lists its fields once,
//! in its [`Record::fields`] (the configuration's sits beside its private
//! fields in `config.rs`). Each [`Field`] gives the JSON key, the binary
//! section tag and the presence rule, and the slot's Rust type picks the
//! value encoding through [`Value`]. A [`Wire`] backend walks the list:
//! encoders read the slots and decoders overwrite them, so encode and decode
//! cannot disagree on a key, a tag or a layout. Decoded values are rebuilt
//! through the same validating constructors as hand-built ones.
//!
//! The backends — JSON over [`JsonValue`] in [`crate::codec`]; binary
//! bodies, documents and the flat stage-key bytes in [`crate::bincodec`] —
//! render one listing into both layouts:
//!
//! * JSON writes a record's fields as object members in listing order, a
//!   nested record as a nested object.
//! * Binary writes a record's fields back to back in listing order. A
//!   document groups its fields by section tag: sections come out in
//!   ascending tag order, and fields keep listing order within a section.
//! * An enum tag ([`Tag`]) is an index into one name list: JSON writes the
//!   name, binary the index.
//!
//! Fields added after a format shipped are always written but keep their
//! default when a document leaves them out ([`Presence`]); the window
//! override is written only when set ([`Wire::when_set`]).

use crossbar_array::LayoutRules;
use device_physics::{Nanometers, ThresholdModel, Volts};
use nanowire_codes::{
    ArrangedHotBudget, BalanceBudget, CodeBudgets, CodeKind, CodeSpec, LogicLevel, SearchBudget,
};

use crate::bincodec::{BinReader, BinWriter, BodyIn, BodyOut};
use crate::codec::{err, JsonIn, JsonOut, JsonValue, WireErrorKind};
use crate::defect::{DefectConfig, DefectKind};
use crate::disturbance::DisturbanceKind;
use crate::error::{Result, SimError};
use crate::monte_carlo::MonteCarloConfig;
use crate::platform::PlatformReport;

/// What a decoder does when a document leaves a field out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Presence {
    /// Decoding fails.
    Required,
    /// JSON keeps the default (the key was added after the JSON format
    /// shipped); a binary document still needs the field.
    JsonDefault,
    /// Either codec keeps the default.
    Default,
}

/// One entry of a field list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    /// The JSON object key.
    pub(crate) key: &'static str,
    /// The section a document field is written in (`1..16`); `0` for the
    /// fields of a nested record, which form one body.
    pub(crate) tag: u8,
    pub(crate) presence: Presence,
}

impl Field {
    /// A required field of a nested record.
    pub(crate) const fn key(key: &'static str) -> Field {
        Field::section(key, 0)
    }

    /// A required field of a document, written in section `tag`.
    pub(crate) const fn section(key: &'static str, tag: u8) -> Field {
        Field {
            key,
            tag,
            presence: Presence::Required,
        }
    }

    pub(crate) const fn json_default(self) -> Field {
        Field {
            presence: Presence::JsonDefault,
            ..self
        }
    }

    pub(crate) const fn defaulted(self) -> Field {
        Field {
            presence: Presence::Default,
            ..self
        }
    }
}

/// One pass of a codec backend over a field list. Encoders read every slot
/// they visit; decoders overwrite it.
pub(crate) trait Wire {
    /// Whether the pass decodes, so a record that read its fields into
    /// locals must rebuild itself from them.
    const DECODES: bool;

    /// Visits one field.
    fn field<V: Value>(&mut self, field: Field, value: &mut V) -> Result<()>;

    /// Visits a field written only when set. A binary document carries its
    /// section only then, holding the bare value; everywhere else it is an
    /// ordinary [`Option`] — `null` in JSON, a presence byte in bodies and
    /// keys.
    fn when_set<V: Value + Default>(&mut self, field: Field, value: &mut Option<V>) -> Result<()> {
        self.field(field, value)
    }
}

/// How one slot type is written in each codec. Decoding is in place, so a
/// slot a document leaves out keeps its value.
///
/// The binary `put` and `read` of every encoding are `#[inline]`, and the
/// binary backends' visits `#[inline(always)]`: a document decodes in one
/// pass over the field list per section, which compiles to a dispatch on
/// the section tag only when every visit inlines (a report document decodes
/// about three times slower otherwise).
pub(crate) trait Value {
    fn to_json(&self) -> JsonValue;
    fn read_json(&mut self, json: &JsonValue) -> Result<()>;
    fn put(&self, out: &mut BinWriter);
    fn read(&mut self, input: &mut BinReader<'_>) -> Result<()>;
}

/// A type written as its field list: a JSON object, or a binary body (a
/// document's sections at the top level).
pub(crate) trait Record: Clone {
    /// Visits every field in listing order. A nested record is decoded in
    /// one visit, so it may read its fields into locals and rebuild itself
    /// through its constructor when [`Wire::DECODES`]. A document's record
    /// is visited once per section, so it writes its fields in place and
    /// leaves the checks that span fields to [`Record::finish`].
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()>;

    /// Completes a decoded value: validates what spans fields, and fills
    /// defaults that depend on other fields.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Runs an encoder over a record. Encoders only read the slots, so the pass
/// cannot fail and leaves the record as it was.
pub(crate) fn encode<R: Record, W: Wire>(record: &R, wire: &mut W) {
    record
        .clone()
        .fields(wire)
        .expect("encoders read the slots and never fail");
}

impl<R: Record> Value for R {
    fn to_json(&self) -> JsonValue {
        let mut count = Count(0);
        encode(self, &mut count);
        let mut members = JsonOut(Vec::with_capacity(count.0));
        encode(self, &mut members);
        JsonValue::Object(members.0)
    }

    fn read_json(&mut self, json: &JsonValue) -> Result<()> {
        self.fields(&mut JsonIn(json))?;
        self.finish()
    }

    #[inline]
    fn put(&self, out: &mut BinWriter) {
        encode(self, &mut BodyOut(out));
    }

    #[inline]
    fn read(&mut self, input: &mut BinReader<'_>) -> Result<()> {
        self.fields(&mut BodyIn(input))?;
        self.finish()
    }
}

/// Counts a record's fields, so its JSON object is allocated once.
struct Count(usize);

impl Wire for Count {
    const DECODES: bool = false;

    fn field<V: Value>(&mut self, _: Field, _: &mut V) -> Result<()> {
        self.0 += 1;
        Ok(())
    }
}

/// The leaf encodings, one row per type: how it becomes a JSON value and
/// back, and how it is written and read in binary (fixed-width little
/// endian; a `usize` travels as a `u64`, a radix as one byte).
macro_rules! leaf_values {
    ($($leaf:ty => $to_json:expr, $from_json:expr, $put:expr, $take:expr;)*) => {$(
        impl Value for $leaf {
            fn to_json(&self) -> JsonValue {
                ($to_json)(*self)
            }

            fn read_json(&mut self, json: &JsonValue) -> Result<()> {
                *self = ($from_json)(json)?;
                Ok(())
            }

            #[inline]
            fn put(&self, out: &mut BinWriter) {
                ($put)(out, *self);
            }

            #[inline]
            fn read(&mut self, input: &mut BinReader<'_>) -> Result<()> {
                *self = ($take)(input)?;
                Ok(())
            }
        }
    )*};
}

leaf_values! {
    f64 => JsonValue::from_f64, JsonValue::as_f64, BinWriter::put_f64, BinReader::take_f64;
    u64 => JsonValue::from_u64, JsonValue::as_u64, BinWriter::put_u64, BinReader::take_u64;
    usize =>
        JsonValue::from_usize, JsonValue::as_usize, BinWriter::put_usize, BinReader::take_usize;
    u32 => |value| JsonValue::from_u64(u64::from(value)),
        |json: &JsonValue| {
            let value = json.as_u64()?;
            u32::try_from(value).map_err(|_| err(format!("{value} does not fit a u32")))
        },
        BinWriter::put_u32, BinReader::take_u32;
    Volts => |volts: Volts| JsonValue::from_f64(volts.value()),
        |json: &JsonValue| json.as_f64().map(Volts::new),
        |out: &mut BinWriter, volts: Volts| out.put_f64(volts.value()),
        |input: &mut BinReader<'_>| input.take_f64().map(Volts::new);
    Nanometers => |length: Nanometers| JsonValue::from_f64(length.value()),
        |json: &JsonValue| json.as_f64().map(Nanometers::new),
        |out: &mut BinWriter, length: Nanometers| out.put_f64(length.value()),
        |input: &mut BinReader<'_>| input.take_f64().map(Nanometers::new);
    LogicLevel => |radix: LogicLevel| JsonValue::from_u64(u64::from(radix.radix())),
        |json: &JsonValue| {
            let radix = json.as_u64()?;
            let radix =
                u8::try_from(radix).map_err(|_| err(format!("radix {radix} does not fit a u8")))?;
            Ok::<_, SimError>(LogicLevel::new(radix)?)
        },
        |out: &mut BinWriter, radix: LogicLevel| out.put_u8(radix.radix()),
        |input: &mut BinReader<'_>| Ok::<_, SimError>(LogicLevel::new(input.take_u8()?)?);
}

/// `null` in JSON; a presence byte (`0` absent, anything else present)
/// before the value in binary.
impl<V: Value + Default> Value for Option<V> {
    fn to_json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, V::to_json)
    }

    fn read_json(&mut self, json: &JsonValue) -> Result<()> {
        if matches!(json, JsonValue::Null) {
            *self = None;
        } else {
            self.get_or_insert_with(V::default).read_json(json)?;
        }
        Ok(())
    }

    #[inline]
    fn put(&self, out: &mut BinWriter) {
        match self {
            Some(value) => {
                out.put_u8(1);
                value.put(out);
            }
            None => out.put_u8(0),
        }
    }

    #[inline]
    fn read(&mut self, input: &mut BinReader<'_>) -> Result<()> {
        if input.take_u8()? == 0 {
            *self = None;
        } else {
            self.get_or_insert_with(V::default).read(input)?;
        }
        Ok(())
    }
}

/// A JSON array of exactly two entries; the two values back to back in
/// binary.
impl<V: Value> Value for (V, V) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.to_json(), self.1.to_json()])
    }

    fn read_json(&mut self, json: &JsonValue) -> Result<()> {
        let [first, second] = json.as_array()? else {
            return Err(err("expected an array of exactly two entries"));
        };
        self.0.read_json(first)?;
        self.1.read_json(second)
    }

    #[inline]
    fn put(&self, out: &mut BinWriter) {
        self.0.put(out);
        self.1.put(out);
    }

    #[inline]
    fn read(&mut self, input: &mut BinReader<'_>) -> Result<()> {
        self.0.read(input)?;
        self.1.read(input)
    }
}

/// An enum tag: an index into one name list. JSON writes the name, binary
/// the index as one byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tag {
    what: &'static str,
    names: &'static [&'static str],
    index: u8,
}

impl Tag {
    fn new(what: &'static str, names: &'static [&'static str], index: u8) -> Tag {
        Tag { what, names, index }
    }

    fn index(self) -> usize {
        usize::from(self.index)
    }
}

impl Value for Tag {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.names[self.index()].to_string())
    }

    fn read_json(&mut self, json: &JsonValue) -> Result<()> {
        let name = json.as_str()?;
        self.index = (0..)
            .zip(self.names)
            .find_map(|(index, &known)| (known == name).then_some(index))
            .ok_or_else(|| err(format!("unknown {} {name:?}", self.what)))?;
        Ok(())
    }

    #[inline]
    fn put(&self, out: &mut BinWriter) {
        out.put_u8(self.index);
    }

    #[inline]
    fn read(&mut self, input: &mut BinReader<'_>) -> Result<()> {
        let index = input.take_u8()?;
        if usize::from(index) >= self.names.len() {
            return Err(err(format!("unknown {} tag {index}", self.what)));
        }
        self.index = index;
        Ok(())
    }
}

/// The code family names, in [`CodeKind::ALL`] order.
const CODE_KINDS: [&str; 5] = ["tree", "gray", "balanced_gray", "hot", "arranged_hot"];

/// The code a decoder starts from; every decode overwrites it.
pub(crate) fn blank_code() -> CodeSpec {
    CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 2)
        .expect("a binary tree code of length 2 is valid")
}

impl Record for CodeSpec {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        let mut kind = Tag::new("code kind", &CODE_KINDS, self.kind() as u8);
        let mut radix = self.radix();
        let mut length = self.code_length();
        wire.field(Field::key("kind"), &mut kind)?;
        wire.field(Field::key("radix"), &mut radix)?;
        wire.field(Field::key("length"), &mut length)?;
        if W::DECODES {
            *self = CodeSpec::new(CodeKind::ALL[kind.index()], radix, length)?;
        }
        Ok(())
    }
}

const DISTURBANCE_KINDS: [&str; 3] = ["gaussian", "laplace", "correlated"];

impl Record for DisturbanceKind {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        let (index, mut shared_fraction) = match *self {
            DisturbanceKind::Gaussian => (0, 0.0),
            DisturbanceKind::Laplace => (1, 0.0),
            DisturbanceKind::Correlated { shared_fraction } => (2, shared_fraction),
        };
        let mut kind = Tag::new("disturbance kind", &DISTURBANCE_KINDS, index);
        wire.field(Field::key("kind"), &mut kind)?;
        if kind.index() == 2 {
            wire.field(Field::key("shared_fraction"), &mut shared_fraction)?;
        }
        if W::DECODES {
            *self = match kind.index() {
                0 => DisturbanceKind::Gaussian,
                1 => DisturbanceKind::Laplace,
                _ => DisturbanceKind::Correlated { shared_fraction },
            };
        }
        Ok(())
    }
}

const DEFECT_KINDS: [&str; 2] = ["none", "sampled"];

impl Record for DefectKind {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        let (index, mut breakage, mut crosspoint, mut seed) = match *self {
            DefectKind::None => (0, 0.0, 0.0, 0),
            DefectKind::Sampled(config) => (
                1,
                config.nanowire_breakage(),
                config.crosspoint_defect(),
                config.seed(),
            ),
        };
        let mut kind = Tag::new("defect kind", &DEFECT_KINDS, index);
        wire.field(Field::key("kind"), &mut kind)?;
        if kind.index() == 1 {
            wire.field(Field::key("nanowire_breakage"), &mut breakage)?;
            wire.field(Field::key("crosspoint_defect"), &mut crosspoint)?;
            wire.field(Field::key("seed"), &mut seed)?;
        }
        if W::DECODES {
            *self = match kind.index() {
                0 => DefectKind::None,
                _ => DefectKind::Sampled(DefectConfig::new(breakage, crosspoint, seed)?),
            };
        }
        Ok(())
    }
}

/// The wire error kinds' names, in [`WireErrorKind::ALL`] order. A wire
/// error kind is a bare enum tag: a JSON string, one byte in binary.
pub(crate) const WIRE_ERROR_KINDS: [&str; 3] = ["bad_request", "overloaded", "internal"];

impl WireErrorKind {
    fn tag(self) -> Tag {
        Tag::new("wire error kind", &WIRE_ERROR_KINDS, self as u8)
    }
}

impl Value for WireErrorKind {
    fn to_json(&self) -> JsonValue {
        self.tag().to_json()
    }

    fn read_json(&mut self, json: &JsonValue) -> Result<()> {
        let mut tag = self.tag();
        tag.read_json(json)?;
        *self = WireErrorKind::ALL[tag.index()];
        Ok(())
    }

    #[inline]
    fn put(&self, out: &mut BinWriter) {
        self.tag().put(out);
    }

    #[inline]
    fn read(&mut self, input: &mut BinReader<'_>) -> Result<()> {
        let mut tag = self.tag();
        tag.read(input)?;
        *self = WireErrorKind::ALL[tag.index()];
        Ok(())
    }
}

impl Record for MonteCarloConfig {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        wire.field(Field::key("samples"), &mut self.samples)?;
        wire.field(Field::key("seed"), &mut self.seed)?;
        // The adaptive knobs postdate the JSON format: documents without
        // them decode to the fixed-sample behaviour.
        wire.field(
            Field::key("target_half_width").json_default(),
            &mut self.target_half_width,
        )?;
        wire.field(
            Field::key("confidence").json_default(),
            &mut self.confidence,
        )?;
        wire.field(
            Field::key("max_samples").json_default(),
            &mut self.max_samples,
        )
    }
}

impl Record for LayoutRules {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        let mut litho_pitch = self.litho_pitch();
        let mut nanowire_pitch = self.nanowire_pitch();
        let mut width_factor = self.min_contact_width_factor();
        let mut tolerance = self.contact_alignment_tolerance();
        wire.field(Field::key("litho_pitch_nm"), &mut litho_pitch)?;
        wire.field(Field::key("nanowire_pitch_nm"), &mut nanowire_pitch)?;
        wire.field(Field::key("min_contact_width_factor"), &mut width_factor)?;
        wire.field(Field::key("contact_alignment_tolerance_nm"), &mut tolerance)?;
        if W::DECODES {
            *self = LayoutRules::new(litho_pitch, nanowire_pitch, width_factor, tolerance)?;
        }
        Ok(())
    }
}

impl Record for ThresholdModel {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        let mut oxide_thickness = self.oxide_thickness();
        let mut flat_band_voltage = self.flat_band_voltage();
        wire.field(Field::key("oxide_thickness_nm"), &mut oxide_thickness)?;
        wire.field(Field::key("flat_band_voltage_v"), &mut flat_band_voltage)?;
        if W::DECODES {
            *self = ThresholdModel::new(oxide_thickness, flat_band_voltage)?;
        }
        Ok(())
    }
}

impl Record for CodeBudgets {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        wire.field(Field::key("balance"), &mut self.balance)?;
        wire.field(Field::key("arranged_hot"), &mut self.arranged_hot)
    }
}

impl Record for BalanceBudget {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        wire.field(
            Field::key("max_nodes_per_limit"),
            &mut self.max_nodes_per_limit,
        )?;
        wire.field(Field::key("max_limit_slack"), &mut self.max_limit_slack)
    }
}

impl Record for ArrangedHotBudget {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        wire.field(Field::key("max_nodes"), &mut self.max_nodes)?;
        wire.field(Field::key("fallback"), &mut self.fallback)
    }
}

impl Record for SearchBudget {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        wire.field(Field::key("max_nodes"), &mut self.max_nodes)?;
        wire.field(
            Field::key("max_two_opt_sweeps"),
            &mut self.max_two_opt_sweeps,
        )
    }
}

/// The report a decoder starts from: defect-free, which is what the defect
/// keys default to. The composites start as NaN, which no decoder admits, to
/// mark them absent.
pub(crate) fn blank_report() -> PlatformReport {
    PlatformReport {
        code: blank_code(),
        nanowires_per_half_cave: 0,
        fabrication_steps: 0,
        mean_variability: 0.0,
        max_normalized_sigma: 0.0,
        cave_yield: 0.0,
        crossbar_yield: 0.0,
        effective_bits: 0.0,
        raw_bit_area: 0.0,
        effective_bit_area: 0.0,
        contact_groups: 0,
        defects: DefectKind::None,
        defect_survival: 1.0,
        composite_yield: f64::NAN,
        composite_effective_bits: f64::NAN,
    }
}

impl Record for PlatformReport {
    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        wire.field(Field::section("code", 0x01), &mut self.code)?;
        wire.field(
            Field::section("nanowires_per_half_cave", 0x02),
            &mut self.nanowires_per_half_cave,
        )?;
        wire.field(
            Field::section("fabrication_steps", 0x02),
            &mut self.fabrication_steps,
        )?;
        wire.field(
            Field::section("mean_variability", 0x03),
            &mut self.mean_variability,
        )?;
        wire.field(
            Field::section("max_normalized_sigma", 0x03),
            &mut self.max_normalized_sigma,
        )?;
        wire.field(Field::section("cave_yield", 0x03), &mut self.cave_yield)?;
        wire.field(
            Field::section("crossbar_yield", 0x03),
            &mut self.crossbar_yield,
        )?;
        wire.field(
            Field::section("effective_bits", 0x03),
            &mut self.effective_bits,
        )?;
        wire.field(Field::section("raw_bit_area", 0x03), &mut self.raw_bit_area)?;
        wire.field(
            Field::section("effective_bit_area", 0x03),
            &mut self.effective_bit_area,
        )?;
        wire.field(
            Field::section("contact_groups", 0x02),
            &mut self.contact_groups,
        )?;
        // The defect keys were added after the JSON format shipped.
        wire.field(
            Field::section("defects", 0x04).json_default(),
            &mut self.defects,
        )?;
        wire.field(
            Field::section("defect_survival", 0x05).json_default(),
            &mut self.defect_survival,
        )?;
        wire.field(
            Field::section("composite_yield", 0x05).json_default(),
            &mut self.composite_yield,
        )?;
        wire.field(
            Field::section("composite_effective_bits", 0x05).json_default(),
            &mut self.composite_effective_bits,
        )
    }

    /// A report without composites is defect-free: they equal the decoder
    /// quantities.
    fn finish(&mut self) -> Result<()> {
        if self.composite_yield.is_nan() {
            self.composite_yield = self.crossbar_yield;
        }
        if self.composite_effective_bits.is_nan() {
            self.composite_effective_bits = self.effective_bits;
        }
        Ok(())
    }
}
