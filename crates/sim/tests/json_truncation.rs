//! Truncation battery for the JSON codec, the counterpart of the binary
//! codec's in `bincodec_corruption.rs`: every proper prefix of a config or
//! report document, cut at each byte, must fail with a typed
//! [`SimError::Persistence`] — never decode, never panic.

use decoder_sim::codec::{
    config_from_json, config_to_json, report_from_json, report_to_json, JsonValue,
};
use decoder_sim::{DefectKind, DisturbanceKind, SimConfig, SimError, SimulationPlatform};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// A configuration with every optional field set: window override,
/// correlated disturbance and sampled defects.
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

/// Decodes every proper prefix of `json` that ends on a character boundary
/// (every byte cut, for an ASCII document) and requires a typed persistence
/// error from each.
fn assert_every_prefix_fails<T>(
    json: &str,
    decode: impl Fn(&str) -> decoder_sim::Result<T>,
    what: &str,
) {
    assert!(decode(json).is_ok(), "the whole {what} must decode");
    for take in (0..json.len()).filter(|&take| json.is_char_boundary(take)) {
        match decode(&json[..take]) {
            Ok(_) => panic!("{what} prefix of {take}/{} bytes decoded", json.len()),
            Err(SimError::Persistence { .. }) => {}
            Err(other) => panic!(
                "{what} prefix of {take}/{} bytes failed with a non-persistence error: {other}",
                json.len()
            ),
        }
    }
}

#[test]
fn every_proper_prefix_of_a_json_config_fails() {
    let json = config_to_json(&full_config()).render();
    assert_every_prefix_fails(
        &json,
        |text| config_from_json(&JsonValue::parse(text)?),
        "config",
    );
}

#[test]
fn every_proper_prefix_of_a_json_report_fails() {
    let report = SimulationPlatform::new(full_config()).evaluate().unwrap();
    let json = report_to_json(&report).render();
    assert_every_prefix_fails(
        &json,
        |text| report_from_json(&JsonValue::parse(text)?),
        "report",
    );
}
