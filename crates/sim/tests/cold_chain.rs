//! The cold report chain, pinned bit for bit: code → MSPT pattern → dose
//! counts ν → Σ → addressability → yield, evaluated without any cache over
//! the benchmark's design catalogue.
//!
//! `fixtures/cold_chain_digests.txt` holds one line per configuration: its
//! label and the FNV-1a digest of its report's binary encoding (or of the
//! error's message). The table was generated before the chain's linear dose
//! count, per-dose-count window probabilities, carried ladder window and
//! cyclic code generation landed, so it pins that those fast paths change
//! no bit. A failure names the first configuration whose report moved.

mod catalogue;

use catalogue::{configurations, fnv1a};
use decoder_sim::bincodec::report_to_bin;
use decoder_sim::{SimConfig, SimulationPlatform};

/// The digest of a cold report: its binary encoding, floats as their bits,
/// or its error's message.
fn digest(config: &SimConfig) -> u64 {
    match SimulationPlatform::new(config.clone()).evaluate() {
        Ok(report) => fnv1a(&report_to_bin(&report)),
        Err(error) => fnv1a(error.to_string().as_bytes()),
    }
}

#[test]
fn cold_reports_match_the_pinned_digests() {
    let pinned: Vec<(&str, u64)> = include_str!("fixtures/cold_chain_digests.txt")
        .lines()
        .map(|line| {
            let (label, hex) = line.rsplit_once(' ').expect("label and digest");
            (label, u64::from_str_radix(hex, 16).expect("hex digest"))
        })
        .collect();
    let configurations = configurations();
    assert_eq!(
        pinned.len(),
        configurations.len(),
        "one digest per configuration"
    );
    for ((label, config), (pinned_label, pinned_digest)) in configurations.iter().zip(&pinned) {
        assert_eq!(
            label, pinned_label,
            "the table lists the configurations in order"
        );
        let digest = digest(config);
        assert_eq!(
            digest, *pinned_digest,
            "the cold report of {label} moved: digest {digest:016x}, pinned {pinned_digest:016x}"
        );
    }
}
