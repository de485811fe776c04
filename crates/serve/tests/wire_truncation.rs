//! Truncation battery for the JSON wire documents: every proper prefix of a
//! request or reply, cut at each byte, must fail with a typed
//! [`SimError::Persistence`] — never decode, never panic. The config and
//! report documents inside them have their own battery in `decoder-sim`.

mod common;

use common::legacy_request_json;
use decoder_sim::{
    DefectKind, DisturbanceKind, SimConfig, SimError, SimulationPlatform, WireErrorKind,
};
use mspt_serve::{error_response, ok_response, parse_reply, ReportRequest, WireError};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn base() -> SimConfig {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    SimConfig::paper_defaults(code).unwrap()
}

const DISTURBANCE: DisturbanceKind = DisturbanceKind::Laplace;

fn defects() -> DefectKind {
    DefectKind::sampled(0.02, 0.01, 2_009).unwrap()
}

/// A request whose configuration sets both the disturbance and the defects.
fn request() -> ReportRequest {
    ReportRequest::new(base().with_disturbance(DISTURBANCE).with_defects(defects()))
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
fn every_proper_prefix_of_a_wire_request_fails() {
    assert_every_prefix_fails(
        &request().to_json_string(),
        ReportRequest::from_json_str,
        "request",
    );
    // The same request as earlier clients wrote it, with both override
    // keys set, decodes to the same configuration — and only whole.
    let legacy = legacy_request_json(&base(), Some(DISTURBANCE), Some(defects()));
    assert_eq!(ReportRequest::from_json_str(&legacy).unwrap(), request());
    assert_every_prefix_fails(&legacy, ReportRequest::from_json_str, "legacy request");
}

#[test]
fn every_proper_prefix_of_an_ok_reply_fails() {
    let report = SimulationPlatform::new(request().config)
        .evaluate()
        .unwrap();
    assert_every_prefix_fails(&ok_response(&report), parse_reply, "ok reply");
}

#[test]
fn every_proper_prefix_of_an_error_reply_fails() {
    let error = WireError::new(
        WireErrorKind::Overloaded,
        "server overloaded: dispatch queue full, retry later",
    );
    assert_every_prefix_fails(&error_response(&error), parse_reply, "error reply");
}
