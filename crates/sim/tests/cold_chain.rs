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

use decoder_sim::bincodec::report_to_bin;
use decoder_sim::{SimConfig, SimulationPlatform};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// The design catalogue's code points (perfbench's `CODE_POINTS`): every
/// Fig. 5–8 code and its length and radix neighbours.
const CODE_POINTS: &[(CodeKind, u8, &[usize])] = &[
    (CodeKind::Tree, 2, &[4, 6, 8, 10]),
    (CodeKind::Tree, 3, &[4, 6, 8, 10]),
    (CodeKind::Tree, 4, &[4, 6, 8]),
    (CodeKind::Gray, 2, &[4, 6, 8, 10]),
    (CodeKind::Gray, 3, &[4, 6, 8, 10]),
    (CodeKind::Gray, 4, &[4, 6, 8]),
    (CodeKind::BalancedGray, 2, &[4, 6, 8, 10]),
    (CodeKind::BalancedGray, 3, &[4, 6]),
    (CodeKind::Hot, 2, &[4, 6, 8, 10]),
    (CodeKind::Hot, 3, &[6, 9]),
    (CodeKind::Hot, 4, &[4, 8]),
    (CodeKind::ArrangedHot, 2, &[4, 6, 8, 10]),
    (CodeKind::ArrangedHot, 3, &[6]),
    (CodeKind::ArrangedHot, 4, &[4]),
];

/// Nanowires per half cave: one wire, the figures' 10 and 20, the
/// catalogue's largest 30, and 64, past most code spaces, so the half cave
/// wraps the code cyclically.
const NANOWIRES: [usize; 5] = [1, 10, 20, 30, 64];

/// σ_T values, in mV, on both sides of the paper's 50 mV.
const SIGMAS_MV: [f64; 2] = [35.0, 65.0];

/// The window override, as a fraction of the ladder's own half-width.
const WINDOW_FRACTION: f64 = 0.85;

/// Every pinned configuration with its label, in table order.
fn configurations() -> Vec<(String, SimConfig)> {
    let mut configurations = Vec::new();
    for &(kind, radix, lengths) in CODE_POINTS {
        for &length in lengths {
            let code = CodeSpec::new(kind, LogicLevel::new(radix).unwrap(), length).unwrap();
            for nanowires in NANOWIRES {
                for sigma in SIGMAS_MV {
                    let config = SimConfig::paper_defaults(code)
                        .unwrap()
                        .with_nanowires_per_half_cave(nanowires)
                        .unwrap()
                        .with_sigma_per_dose(Volts::from_millivolts(sigma))
                        .unwrap();
                    let ladder = config.doping_ladder().unwrap().window_half_width();
                    let label =
                        format!("{} r{radix} M{length} N{nanowires} s{sigma}", kind.label());
                    configurations.push((format!("{label} ladder"), config.clone()));
                    configurations.push((
                        format!("{label} w{WINDOW_FRACTION}"),
                        config.with_window(Volts::new(WINDOW_FRACTION * ladder.value())),
                    ));
                }
            }
        }
    }
    configurations
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

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
