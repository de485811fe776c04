//! Compatibility coverage for the fields the codecs gained and lost:
//! documents written before `SimConfig` carried a `DefectKind` (and before
//! `PlatformReport` carried composite quantities) must keep decoding with
//! the pre-field defaults, documents written while `SimConfig` still
//! carried code-search budgets or Monte-Carlo sampling knobs must decode to
//! the configuration without them, and mixed-version round trips must stay
//! bit-identical to a fresh evaluation.

mod retired;

use decoder_sim::bincodec::{config_from_bin, config_to_bin};
use decoder_sim::codec::{
    config_from_json, config_to_json, report_from_json, report_to_json, JsonValue,
};
use decoder_sim::{
    DefectKind, Evaluation, ExecutionEngine, MonteCarloConfig, ReportCache, SimConfig,
    SimulationPlatform, Stage,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn config(kind: CodeKind, length: usize) -> SimConfig {
    let code = CodeSpec::new(kind, LogicLevel::BINARY, length).unwrap();
    SimConfig::paper_defaults(code).unwrap()
}

/// Strips top-level keys from an object — the shape of a document written
/// by a build that predates those fields.
fn without_keys<'a>(value: &JsonValue<'a>, keys: &[&str]) -> JsonValue<'a> {
    match value {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .filter(|(name, _)| !keys.contains(&name.as_ref()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

const REPORT_DEFECT_KEYS: [&str; 4] = [
    "defects",
    "defect_survival",
    "composite_yield",
    "composite_effective_bits",
];

#[test]
fn pre_defect_configs_decode_as_defect_free() {
    let expected = config(CodeKind::BalancedGray, 10);
    let legacy = without_keys(&config_to_json(&expected), &["defects"]);
    assert!(legacy.get_opt("defects").unwrap().is_none());
    let decoded = config_from_json(&legacy).unwrap();
    assert_eq!(decoded.defects(), DefectKind::None);
    // The decoded configuration is indistinguishable from a fresh one —
    // same identity, same cache fingerprint.
    assert_eq!(decoded, expected);
    assert_eq!(
        ReportCache::fingerprint(&decoded),
        ReportCache::fingerprint(&expected)
    );
}

/// Configs carried their code-search budgets — a JSON `code_budgets`
/// member, binary section `0x07` — until every configuration took the
/// defaults, and their Monte-Carlo sampling knobs — a JSON `monte_carlo`
/// member, binary section `0x0a` — until the knobs moved onto the sampling
/// calls. Such a document decodes to the configuration without them,
/// whatever they hold, with the same report key and the same documents
/// when written again.
#[test]
fn configs_carrying_retired_sampling_knobs_decode_without_them() {
    let expected = config(CodeKind::BalancedGray, 10)
        .with_defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap());
    for retired in retired::variants() {
        let text = retired.json(&expected);
        assert_ne!(text, config_to_json(&expected).render());
        let json = JsonValue::parse(&text).unwrap();
        let decoded = [
            config_from_json(&json).unwrap(),
            config_from_bin(&retired.bin(&config_to_bin(&expected))).unwrap(),
        ];
        for decoded in decoded {
            assert_eq!(decoded, expected, "{retired:?}");
            assert_eq!(
                ReportCache::fingerprint(&decoded),
                ReportCache::fingerprint(&expected)
            );
            assert_eq!(config_to_bin(&decoded), config_to_bin(&expected));
            assert_eq!(
                config_to_json(&decoded).render(),
                config_to_json(&expected).render()
            );
        }
    }
}

/// Configs written before adaptive stopping existed had no `monte_carlo`
/// member, or one holding the sample count and seed alone. Both decode to
/// the configuration, and an evaluation of it that names no sampling knobs
/// draws the historical fixed-sample default.
#[test]
fn pre_adaptive_configs_decode_with_fixed_sampling_defaults() {
    let expected = config(CodeKind::BalancedGray, 10);
    let text = config_to_json(&expected).render();
    let bare = format!(
        "{},\"monte_carlo\":{{\"samples\":500,\"seed\":42}}}}",
        &text[..text.len() - 1]
    );
    let decoded = config_from_json(&JsonValue::parse(&bare).unwrap()).unwrap();
    assert_eq!(decoded, expected);
    assert_eq!(
        ReportCache::fingerprint(&decoded),
        ReportCache::fingerprint(&expected)
    );
    // A config stripped of the defect selection too — the oldest wire
    // shape still in the field — decodes as well.
    let oldest = without_keys(&config_to_json(&expected), &["defects"]);
    assert!(oldest.get_opt("monte_carlo").unwrap().is_none());
    assert_eq!(config_from_json(&oldest).unwrap(), expected);

    assert!(!MonteCarloConfig::default().is_adaptive());
    let engine = ExecutionEngine::serial();
    let unnamed = Evaluation::builder(decoded)
        .stages(&[Stage::MonteCarlo])
        .run(&engine)
        .unwrap();
    let named = Evaluation::builder(expected)
        .stages(&[Stage::MonteCarlo])
        .monte_carlo(MonteCarloConfig::default())
        .run(&engine)
        .unwrap();
    assert!(unnamed.monte_carlo.is_some());
    assert_eq!(unnamed.monte_carlo, named.monte_carlo);
}

#[test]
fn pre_defect_reports_decode_with_defect_free_composites() {
    let expected = SimulationPlatform::new(config(CodeKind::Tree, 8))
        .evaluate()
        .unwrap();
    let legacy = without_keys(&report_to_json(&expected), &REPORT_DEFECT_KEYS);
    let decoded = report_from_json(&legacy).unwrap();
    assert_eq!(decoded, expected);
    assert_eq!(decoded.defects, DefectKind::None);
    assert_eq!(decoded.defect_survival, 1.0);
    assert_eq!(
        decoded.composite_yield.to_bits(),
        expected.crossbar_yield.to_bits()
    );
    assert_eq!(
        decoded.composite_effective_bits.to_bits(),
        expected.effective_bits.to_bits()
    );
}

#[test]
fn mixed_version_round_trips_stay_bit_identical() {
    // old JSON → decode → re-encode (new format) → decode: every value,
    // float bits included, survives both generations.
    let fresh = SimulationPlatform::new(config(CodeKind::Gray, 10))
        .evaluate()
        .unwrap();
    let legacy = without_keys(&report_to_json(&fresh), &REPORT_DEFECT_KEYS);
    let first = report_from_json(&legacy).unwrap();
    let second = report_from_json(&report_to_json(&first)).unwrap();
    assert_eq!(first, second);
    assert_eq!(
        first.crossbar_yield.to_bits(),
        second.crossbar_yield.to_bits()
    );
    assert_eq!(
        first.composite_yield.to_bits(),
        second.composite_yield.to_bits()
    );

    // And the new format round-trips defect-composed reports exactly too.
    let defective = SimulationPlatform::new(
        config(CodeKind::Gray, 10).with_defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap()),
    )
    .evaluate()
    .unwrap();
    let decoded = report_from_json(&report_to_json(&defective)).unwrap();
    assert_eq!(decoded, defective);
    assert_eq!(
        decoded.composite_yield.to_bits(),
        defective.composite_yield.to_bits()
    );
    assert!(decoded.defect_survival < 1.0);
}
