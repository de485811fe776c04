//! Differential property battery for the binary codec: for every encodable
//! type, randomly generated values must survive JSON→binary→JSON and
//! binary→JSON→binary **bit-identically** — same rendered JSON text, same
//! binary bytes, same float bits — and the cache fingerprint of a
//! configuration must be invariant under which codec carried it.
//!
//! The configuration generators live in `common` (shared with the
//! stage-key battery); the report generator here draws arbitrary finite
//! floats, negative zero and subnormals included.

mod common;

use proptest::prelude::*;

use common::{code_spec_strategy, config_strategy, defect_strategy, disturbance_strategy};
use decoder_sim::bincodec::{
    code_spec_from_bin, code_spec_to_bin, config_from_bin, config_to_bin, defect_from_bin,
    defect_to_bin, disturbance_from_bin, disturbance_to_bin, report_from_bin, report_to_bin,
    wire_error_kind_from_bin, wire_error_kind_to_bin,
};
use decoder_sim::codec::{
    code_spec_from_json, code_spec_to_json, config_from_json, config_to_json, defect_from_json,
    defect_to_json, disturbance_from_json, disturbance_to_json, report_from_json, report_to_json,
    wire_error_kind_from_json, wire_error_kind_to_json, JsonValue,
};
use decoder_sim::{PlatformReport, ReportCache, SimConfig, WireErrorKind};

/// Arbitrary finite floats across the full bit domain — negative zero and
/// subnormals included. Non-finite draws (all-ones exponents) collapse to
/// zero: the codecs reject non-finite values by contract, which the
/// corruption battery covers separately.
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let value = f64::from_bits(bits);
        if value.is_finite() {
            value
        } else {
            0.0
        }
    })
}

fn report_strategy() -> impl Strategy<Value = PlatformReport> {
    (
        (code_spec_strategy(), 1usize..64, 0usize..64, 0usize..64),
        (finite_f64(), finite_f64(), finite_f64(), finite_f64()),
        (finite_f64(), finite_f64(), finite_f64()),
        (defect_strategy(), finite_f64(), finite_f64(), finite_f64()),
    )
        .prop_map(
            |(
                (code, nanowires, steps, groups),
                (mean_variability, max_normalized_sigma, cave_yield, crossbar_yield),
                (effective_bits, raw_bit_area, effective_bit_area),
                (defects, defect_survival, composite_yield, composite_effective_bits),
            )| {
                PlatformReport {
                    code,
                    nanowires_per_half_cave: nanowires,
                    fabrication_steps: steps,
                    mean_variability,
                    max_normalized_sigma,
                    cave_yield,
                    crossbar_yield,
                    effective_bits,
                    raw_bit_area,
                    effective_bit_area,
                    contact_groups: groups,
                    defects,
                    defect_survival,
                    composite_yield,
                    composite_effective_bits,
                }
            },
        )
}

/// Renders, reparses and decodes through the JSON text layer — the full
/// pipeline a snapshot row or wire frame traverses, not just the tree.
fn config_through_json_text(config: &SimConfig) -> SimConfig {
    let text = config_to_json(config).render();
    config_from_json(&JsonValue::parse(&text).unwrap()).unwrap()
}

fn report_through_json_text(report: &PlatformReport) -> PlatformReport {
    let text = report_to_json(report).render();
    report_from_json(&JsonValue::parse(&text).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary round trips are exact: the decoded value re-encodes to the
    /// same bytes (byte equality is stronger than `PartialEq`, which treats
    /// `-0.0 == 0.0`).
    #[test]
    fn config_binary_round_trip_is_byte_exact(config in config_strategy()) {
        let bytes = config_to_bin(&config);
        let decoded = config_from_bin(&bytes).unwrap();
        prop_assert_eq!(&decoded, &config);
        prop_assert_eq!(config_to_bin(&decoded), bytes);
    }

    /// JSON→binary→JSON re-renders identically, binary→JSON→binary
    /// re-encodes identically, and the cache fingerprint never depends on
    /// which codec carried the configuration.
    #[test]
    fn config_codecs_are_differentially_equal(config in config_strategy()) {
        let json = config_to_json(&config).render();
        let via_bin = config_from_bin(&config_to_bin(&config_through_json_text(&config))).unwrap();
        prop_assert_eq!(config_to_json(&via_bin).render(), json);

        let bytes = config_to_bin(&config);
        let via_json = config_through_json_text(&config_from_bin(&bytes).unwrap());
        prop_assert_eq!(config_to_bin(&via_json), bytes);

        prop_assert_eq!(
            ReportCache::fingerprint(&via_bin),
            ReportCache::fingerprint(&config)
        );
        prop_assert_eq!(
            ReportCache::fingerprint(&via_json),
            ReportCache::fingerprint(&config)
        );
    }

    #[test]
    fn report_binary_round_trip_is_byte_exact(report in report_strategy()) {
        let bytes = report_to_bin(&report);
        let decoded = report_from_bin(&bytes).unwrap();
        prop_assert_eq!(&decoded, &report);
        prop_assert_eq!(report_to_bin(&decoded), bytes);
    }

    /// The report float fields round-trip bit-exactly through both codec
    /// chains, negative zero and subnormals included.
    #[test]
    fn report_codecs_are_differentially_equal(report in report_strategy()) {
        let json = report_to_json(&report).render();
        let via_bin = report_from_bin(&report_to_bin(&report_through_json_text(&report))).unwrap();
        prop_assert_eq!(report_to_json(&via_bin).render(), json);
        prop_assert_eq!(
            via_bin.crossbar_yield.to_bits(),
            report.crossbar_yield.to_bits()
        );
        prop_assert_eq!(
            via_bin.composite_effective_bits.to_bits(),
            report.composite_effective_bits.to_bits()
        );

        let bytes = report_to_bin(&report);
        let via_json = report_through_json_text(&report_from_bin(&bytes).unwrap());
        prop_assert_eq!(report_to_bin(&via_json), bytes);
    }

    #[test]
    fn code_spec_codecs_agree(code in code_spec_strategy()) {
        let bytes = code_spec_to_bin(code);
        prop_assert_eq!(code_spec_from_bin(&bytes).unwrap(), code);
        let via_json = code_spec_from_json(&code_spec_to_json(code)).unwrap();
        prop_assert_eq!(code_spec_to_bin(via_json), bytes);
    }

    #[test]
    fn disturbance_codecs_agree(kind in disturbance_strategy()) {
        let bytes = disturbance_to_bin(kind);
        let decoded = disturbance_from_bin(&bytes).unwrap();
        prop_assert_eq!(disturbance_to_bin(decoded), bytes.clone());
        let via_json = disturbance_from_json(&disturbance_to_json(kind)).unwrap();
        prop_assert_eq!(disturbance_to_bin(via_json), bytes);
    }

    #[test]
    fn defect_codecs_agree(kind in defect_strategy()) {
        let bytes = defect_to_bin(kind);
        let decoded = defect_from_bin(&bytes).unwrap();
        prop_assert_eq!(defect_to_bin(decoded), bytes.clone());
        let via_json = defect_from_json(&defect_to_json(kind)).unwrap();
        prop_assert_eq!(defect_to_bin(via_json), bytes);
    }
}

#[test]
fn wire_error_kinds_agree_across_codecs() {
    for kind in WireErrorKind::ALL {
        let bytes = wire_error_kind_to_bin(kind);
        assert_eq!(wire_error_kind_from_bin(&bytes).unwrap(), kind);
        let via_json = wire_error_kind_from_json(&wire_error_kind_to_json(kind)).unwrap();
        assert_eq!(wire_error_kind_to_bin(via_json), bytes);
    }
}
