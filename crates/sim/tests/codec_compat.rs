//! Forward-compatibility coverage for the additive dimensions of the codec:
//! documents written before `SimConfig` carried a `DefectKind` or the
//! Monte-Carlo sampling knobs (and before `PlatformReport` carried
//! composite quantities) must keep decoding with the pre-field defaults,
//! and mixed-version round trips must stay bit-identical to a fresh
//! evaluation.

use decoder_sim::codec::{
    config_from_json, config_to_json, report_from_json, report_to_json, JsonValue,
};
use decoder_sim::{DefectKind, MonteCarloConfig, ReportCache, SimConfig, SimulationPlatform};
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

#[test]
fn pre_adaptive_configs_decode_with_fixed_sampling_defaults() {
    // The byte shape a PR 8-era writer produced: no "monte_carlo" key on
    // the config object at all. It must decode to the historical
    // fixed-sample default and stay identity-equal to a fresh config.
    let expected = config(CodeKind::BalancedGray, 10);
    let legacy = without_keys(&config_to_json(&expected), &["monte_carlo"]);
    assert!(legacy.get_opt("monte_carlo").unwrap().is_none());
    let decoded = config_from_json(&legacy).unwrap();
    assert_eq!(decoded.monte_carlo(), MonteCarloConfig::default());
    assert!(!decoded.monte_carlo().is_adaptive());
    assert_eq!(decoded, expected);
    assert_eq!(
        ReportCache::fingerprint(&decoded),
        ReportCache::fingerprint(&expected)
    );
    // A config stripped of *both* additive dimensions — the oldest wire
    // shape still in the field — decodes too.
    let oldest = without_keys(&config_to_json(&expected), &["defects", "monte_carlo"]);
    assert_eq!(config_from_json(&oldest).unwrap(), expected);
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
