//! Field coverage of both codecs, by behaviour: in a fully populated
//! configuration and report document, in JSON and in binary, every key and
//! section is dropped in turn and every leaf value perturbed in turn. Each
//! mutation must fail with a typed error or change the decoded value — a
//! decoder that skipped a field would decode the mutation unchanged. The
//! keys and sections that earlier documents lack are listed explicitly:
//! dropping one of those must instead decode to its documented default.

use decoder_sim::bincodec::{
    config_from_bin, config_to_bin, document, document_payload, report_from_bin, report_to_bin,
    BinReader, BinWriter, DOC_CONFIG, DOC_REPORT,
};
use decoder_sim::codec::{
    config_from_json, config_to_json, report_from_json, report_to_json, JsonValue,
};
use decoder_sim::{DefectKind, DisturbanceKind, PlatformReport, Result, SimConfig};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// Every field away from its default, so dropping a defaulted one shows.
fn full_config() -> SimConfig {
    let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
    SimConfig::paper_defaults(code)
        .unwrap()
        .with_disturbance(DisturbanceKind::Correlated {
            shared_fraction: 0.25,
        })
        .with_defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap())
        .with_window(Volts::new(0.375))
}

/// A defect-composed report whose composites differ from the decoder
/// quantities.
fn full_report() -> PlatformReport {
    PlatformReport {
        code: CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap(),
        nanowires_per_half_cave: 20,
        fabrication_steps: 7,
        mean_variability: 0.031_25,
        max_normalized_sigma: 1.5,
        cave_yield: 0.875,
        crossbar_yield: 0.765_625,
        effective_bits: 98_304.0,
        raw_bit_area: 1_024.0,
        effective_bit_area: 1_337.5,
        contact_groups: 4,
        defects: DefectKind::sampled(0.05, 0.02, 2_009).unwrap(),
        defect_survival: 0.937_5,
        composite_yield: 0.717_773_437_5,
        composite_effective_bits: 92_160.0,
    }
}

/// A step into a JSON value: an object key or an array index.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// The paths of every object member (`members`) and every leaf value
/// (`leaves`) under `value`.
fn walk(
    value: &JsonValue,
    path: &mut Vec<Step>,
    members: &mut Vec<Vec<Step>>,
    leaves: &mut Vec<Vec<Step>>,
) {
    match value {
        JsonValue::Object(fields) => {
            for (key, child) in fields {
                path.push(Step::Key(key.to_string()));
                members.push(path.clone());
                walk(child, path, members, leaves);
                path.pop();
            }
        }
        JsonValue::Array(items) => {
            for (index, child) in items.iter().enumerate() {
                path.push(Step::Index(index));
                walk(child, path, members, leaves);
                path.pop();
            }
        }
        _ => leaves.push(path.clone()),
    }
}

fn dotted(path: &[Step]) -> String {
    path.iter()
        .map(|step| match step {
            Step::Key(key) => key.clone(),
            Step::Index(index) => format!("[{index}]"),
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// Applies `edit` to the parent container of `path`'s last step.
fn edit_parent(value: &mut JsonValue, path: &[Step], edit: &mut dyn FnMut(&mut JsonValue, &Step)) {
    let (last, parents) = path.split_last().unwrap();
    let mut parent = value;
    for step in parents {
        parent = match (parent, step) {
            (JsonValue::Object(fields), Step::Key(key)) => {
                &mut fields.iter_mut().find(|(name, _)| name == key).unwrap().1
            }
            (JsonValue::Array(items), Step::Index(index)) => &mut items[*index],
            (other, step) => panic!("no {step:?} in {other:?}"),
        };
    }
    edit(parent, last);
}

fn dropped<'a>(value: &JsonValue<'a>, path: &[Step]) -> JsonValue<'a> {
    let mut value = value.clone();
    edit_parent(&mut value, path, &mut |parent, step| match (parent, step) {
        (JsonValue::Object(fields), Step::Key(key)) => fields.retain(|(name, _)| name != key),
        (other, step) => panic!("cannot drop {step:?} from {other:?}"),
    });
    value
}

/// A different value: an integer plus one, a float doubled (one for zero),
/// a string with a suffix, a flipped bool, and `1` for `null`.
fn perturb<'a>(leaf: &JsonValue<'a>) -> JsonValue<'a> {
    match leaf {
        JsonValue::Number(literal) => match literal.parse::<u128>() {
            Ok(integer) => JsonValue::Number((integer + 1).to_string().into()),
            Err(_) => {
                let float: f64 = literal.parse().unwrap();
                JsonValue::from_f64(if float == 0.0 { 1.0 } else { 2.0 * float })
            }
        },
        JsonValue::String(text) => JsonValue::String(format!("{text}_").into()),
        JsonValue::Bool(flag) => JsonValue::Bool(!flag),
        JsonValue::Null => JsonValue::from_u64(1),
        other => panic!("no perturbation for {other:?}"),
    }
}

fn perturbed<'a>(value: &JsonValue<'a>, path: &[Step]) -> JsonValue<'a> {
    let mut value = value.clone();
    edit_parent(&mut value, path, &mut |parent, step| {
        let leaf = match (parent, step) {
            (JsonValue::Object(fields), Step::Key(key)) => {
                &mut fields.iter_mut().find(|(name, _)| name == key).unwrap().1
            }
            (JsonValue::Array(items), Step::Index(index)) => &mut items[*index],
            (other, step) => panic!("no {step:?} in {other:?}"),
        };
        *leaf = perturb(leaf);
    });
    value
}

/// A mutation was noticed: the decoder failed, or decoded something else.
fn assert_noticed<T: PartialEq + std::fmt::Debug>(decoded: Result<T>, original: &T, what: &str) {
    if let Ok(decoded) = decoded {
        assert_ne!(&decoded, original, "{what} decoded unchanged");
    }
}

/// A defaulted key: dropping it decodes to the value the function gives.
type Defaulted<T> = (&'static str, fn(&T) -> T);

/// A defaulted section, by tag.
type DefaultedSection<T> = (u8, fn(&T) -> T);

/// Drops every member and perturbs every leaf of `original`'s JSON form.
fn json_battery<T: PartialEq + std::fmt::Debug>(
    original: &T,
    to_json: fn(&T) -> JsonValue<'static>,
    from_json: fn(&JsonValue<'_>) -> Result<T>,
    defaults: &[Defaulted<T>],
) {
    let json = to_json(original);
    assert_eq!(&from_json(&json).unwrap(), original);
    let (mut members, mut leaves) = (Vec::new(), Vec::new());
    walk(&json, &mut Vec::new(), &mut members, &mut leaves);
    for (name, _) in defaults {
        assert!(
            members.iter().any(|path| dotted(path) == *name),
            "defaulted key {name} is not written"
        );
    }
    for path in &members {
        let name = dotted(path);
        let decoded = from_json(&dropped(&json, path));
        match defaults.iter().find(|(key, _)| *key == name) {
            Some((_, default)) => {
                assert_eq!(decoded.unwrap(), default(original), "dropping {name}");
            }
            None => assert_noticed(decoded, original, &format!("dropping {name}")),
        }
    }
    for path in &leaves {
        let what = format!("perturbing {}", dotted(path));
        assert_noticed(from_json(&perturbed(&json, path)), original, &what);
    }
}

fn sections(bytes: &[u8], kind: u8) -> Vec<(u8, Vec<u8>)> {
    let mut reader = BinReader::new(document_payload(bytes, kind).unwrap());
    let mut sections = Vec::new();
    while let Some((tag, body)) = reader.next_section().unwrap() {
        sections.push((tag, body.to_vec()));
    }
    sections
}

fn assemble(kind: u8, sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut payload = BinWriter::new();
    for (tag, body) in sections {
        payload.section(*tag, body);
    }
    document(kind, &payload.into_bytes())
}

/// Drops every section and perturbs every byte of every section body (its
/// lowest bit flipped: a presence byte turns absent, a tag names another
/// kind, a number changes) of `original`'s binary document.
fn bin_battery<T: PartialEq + std::fmt::Debug>(
    original: &T,
    kind: u8,
    to_bin: fn(&T) -> Vec<u8>,
    from_bin: fn(&[u8]) -> Result<T>,
    defaults: &[DefaultedSection<T>],
) {
    let bytes = to_bin(original);
    assert_eq!(&from_bin(&bytes).unwrap(), original);
    let sections = sections(&bytes, kind);
    assert_eq!(assemble(kind, &sections), bytes);
    for (tag, _) in defaults {
        assert!(
            sections.iter().any(|(written, _)| written == tag),
            "defaulted section 0x{tag:02x} is not written"
        );
    }
    for (index, (tag, body)) in sections.iter().enumerate() {
        let mut without = sections.clone();
        without.remove(index);
        let decoded = from_bin(&assemble(kind, &without));
        let what = format!("dropping section 0x{tag:02x}");
        match defaults.iter().find(|(defaulted, _)| defaulted == tag) {
            Some((_, default)) => assert_eq!(decoded.unwrap(), default(original), "{what}"),
            None => assert_noticed(decoded, original, &what),
        }
        for byte in 0..body.len() {
            let mut mutated = sections.clone();
            mutated[index].1[byte] ^= 1;
            let what = format!("perturbing byte {byte} of section 0x{tag:02x}");
            assert_noticed(from_bin(&assemble(kind, &mutated)), original, &what);
        }
    }
}

/// The JSON key a configuration written before the defect dimension lacks,
/// with the value such a document decodes to.
const CONFIG_JSON_DEFAULTS: [Defaulted<SimConfig>; 1] = [("defects", |config| {
    config.clone().with_defects(DefectKind::None)
})];

/// The JSON keys a report written before the defect dimension lacks: such a
/// report is defect-free, its composites the decoder quantities.
const REPORT_JSON_DEFAULTS: [Defaulted<PlatformReport>; 4] = [
    ("defects", |report| PlatformReport {
        defects: DefectKind::None,
        ..report.clone()
    }),
    ("defect_survival", |report| PlatformReport {
        defect_survival: 1.0,
        ..report.clone()
    }),
    ("composite_yield", |report| PlatformReport {
        composite_yield: report.crossbar_yield,
        ..report.clone()
    }),
    ("composite_effective_bits", |report| PlatformReport {
        composite_effective_bits: report.effective_bits,
        ..report.clone()
    }),
];

/// The configuration section a document may lack: the window override,
/// written only when set.
const CONFIG_BIN_DEFAULTS: [DefaultedSection<SimConfig>; 1] = [(0x06, |config| {
    SimConfig::new(
        config.code(),
        config.nanowires_per_half_cave(),
        config.raw_bits(),
        *config.layout(),
        *config.threshold_model(),
        config.sigma_per_dose(),
        config.supply_range(),
    )
    .unwrap()
    .with_disturbance(config.disturbance())
    .with_defects(config.defects())
})];

#[test]
fn every_json_config_key_and_leaf_is_read() {
    json_battery(
        &full_config(),
        config_to_json,
        config_from_json,
        &CONFIG_JSON_DEFAULTS,
    );
}

#[test]
fn every_json_report_key_and_leaf_is_read() {
    json_battery(
        &full_report(),
        report_to_json,
        report_from_json,
        &REPORT_JSON_DEFAULTS,
    );
}

#[test]
fn every_binary_config_section_and_byte_is_read() {
    bin_battery(
        &full_config(),
        DOC_CONFIG,
        config_to_bin,
        config_from_bin,
        &CONFIG_BIN_DEFAULTS,
    );
}

#[test]
fn every_binary_report_section_and_byte_is_read() {
    bin_battery(
        &full_report(),
        DOC_REPORT,
        report_to_bin,
        report_from_bin,
        &[],
    );
}

/// The fully populated documents leave some shapes unvisited: the other
/// kinds of each enum and an unset window. Each leaf of those documents is
/// read too.
#[test]
fn other_enum_kinds_and_an_unset_window_are_read() {
    let code = CodeSpec::new(CodeKind::ArrangedHot, LogicLevel::TERNARY, 6).unwrap();
    let base = SimConfig::paper_defaults(code).unwrap();
    for disturbance in [DisturbanceKind::Gaussian, DisturbanceKind::Laplace] {
        let config = base.clone().with_disturbance(disturbance);
        json_battery(
            &config,
            config_to_json,
            config_from_json,
            &CONFIG_JSON_DEFAULTS,
        );
        bin_battery(&config, DOC_CONFIG, config_to_bin, config_from_bin, &[]);
    }
}
