//! Corruption battery for the binary codec: malformed bytes must always
//! surface as typed [`SimError::Persistence`] values — never a panic, never
//! an out-of-bounds read, never an allocation bomb — across truncation
//! (exhaustively, one cut per byte position), single-bit flips
//! (exhaustively, every bit of every byte), oversized section lengths,
//! wrong magic, future schema versions and wrong document kinds. Unknown
//! section tags, by contrast, must be *skipped*: they are the format's
//! forward-compatibility lane, not corruption.

use decoder_sim::bincodec::{
    self, config_from_bin, config_to_bin, report_from_bin, report_to_bin, BinWriter,
};
use decoder_sim::{DefectKind, DisturbanceKind, SimConfig, SimError, SimulationPlatform};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// A configuration exercising every section, the optional window override
/// included.
fn golden_config() -> SimConfig {
    let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
    SimConfig::paper_defaults(code)
        .unwrap()
        .with_disturbance(DisturbanceKind::Correlated {
            shared_fraction: 0.25,
        })
        .with_defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap())
        .with_window(Volts::new(0.375))
}

fn assert_typed_failure(result: Result<(), SimError>, what: &str) {
    match result {
        Ok(()) => panic!("{what} decoded successfully"),
        Err(SimError::Persistence { .. }) => {}
        Err(other) => panic!("{what} failed with a non-persistence error: {other}"),
    }
}

#[test]
fn every_proper_prefix_of_a_config_document_fails() {
    let bytes = config_to_bin(&golden_config());
    for take in 0..bytes.len() {
        assert_typed_failure(
            config_from_bin(&bytes[..take]).map(|_| ()),
            &format!("config prefix of {take}/{} bytes", bytes.len()),
        );
    }
}

#[test]
fn every_proper_prefix_of_a_report_document_fails() {
    let report = SimulationPlatform::new(golden_config()).evaluate().unwrap();
    let bytes = report_to_bin(&report);
    for take in 0..bytes.len() {
        assert_typed_failure(
            report_from_bin(&bytes[..take]).map(|_| ()),
            &format!("report prefix of {take}/{} bytes", bytes.len()),
        );
    }
}

/// Exhaustive single-bit-flip sweep: every decode must return (a flip can
/// legitimately produce a different valid value — an f64 with one bit
/// changed is still an f64 — but it must never panic, and when it fails it
/// must fail with a typed error).
#[test]
fn single_bit_flips_never_panic() {
    let config_bytes = config_to_bin(&golden_config());
    let report = SimulationPlatform::new(golden_config()).evaluate().unwrap();
    let report_bytes = report_to_bin(&report);
    for bytes in [&config_bytes, &report_bytes] {
        for index in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[index] ^= 1 << bit;
                // Both decoders must return normally on every mutation —
                // including the wrong-document-kind path.
                drop(config_from_bin(&mutated));
                drop(report_from_bin(&mutated));
            }
        }
    }
}

/// A section length pointing past the end of the buffer is caught before
/// any read: the body is a borrowed sub-slice, so an attacker-controlled
/// length can neither read out of bounds nor allocate.
#[test]
fn oversized_section_lengths_are_typed_errors() {
    let mut bytes = config_to_bin(&golden_config());
    // Envelope is 7 bytes; the first section's tag is at 7, its u32 length
    // at 8..12.
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let error = config_from_bin(&bytes).unwrap_err();
    assert!(
        error.to_string().contains("claims"),
        "unexpected error: {error}"
    );
}

#[test]
fn wrong_magic_and_future_versions_are_typed_errors() {
    let good = config_to_bin(&golden_config());

    let mut wrong_magic = good.clone();
    wrong_magic[0] = b'{';
    let error = config_from_bin(&wrong_magic).unwrap_err();
    assert!(error.to_string().contains("magic"), "{error}");

    for version in [2u16, 0, u16::MAX] {
        let mut future = good.clone();
        future[4..6].copy_from_slice(&version.to_le_bytes());
        let error = config_from_bin(&future).unwrap_err();
        assert!(error.to_string().contains("schema version"), "{error}");
    }

    let error = report_from_bin(&good).unwrap_err();
    assert!(error.to_string().contains("document kind"), "{error}");
}

#[test]
fn short_envelopes_are_typed_errors() {
    let good = config_to_bin(&golden_config());
    for take in 0..7 {
        assert_typed_failure(
            config_from_bin(&good[..take]).map(|_| ()),
            &format!("envelope prefix of {take} bytes"),
        );
    }
}

/// Unknown tags are the forward-compatibility lane: a version-1 reader must
/// skip sections a later writer added — before, between and after the known
/// sections — and still decode the known fields byte-exactly.
#[test]
fn unknown_sections_are_skipped_wherever_they_appear() {
    let config = golden_config();
    let original = config_to_bin(&config);
    let payload = &original[7..];

    let mut unknown = BinWriter::new();
    unknown.section(0x7e, &[0xAA; 9]);
    let unknown = unknown.into_bytes();

    // Prepended, appended, and both at once.
    for (prefix, suffix) in [(true, false), (false, true), (true, true)] {
        let mut doctored = BinWriter::new();
        if prefix {
            doctored.put_bytes(&unknown);
        }
        doctored.put_bytes(payload);
        if suffix {
            doctored.put_bytes(&unknown);
        }
        let document = bincodec::document(bincodec::DOC_CONFIG, &doctored.into_bytes());
        let decoded = config_from_bin(&document).unwrap();
        assert_eq!(config_to_bin(&decoded), original);
    }

    // An unknown section whose *own* length overruns the buffer is still
    // corruption, not compatibility.
    let mut overrun = BinWriter::new();
    overrun.put_bytes(payload);
    overrun.put_u8(0x7e);
    overrun.put_u32(1_000);
    let document = bincodec::document(bincodec::DOC_CONFIG, &overrun.into_bytes());
    assert_typed_failure(
        config_from_bin(&document).map(|_| ()),
        "unknown section with an overrunning length",
    );
}
