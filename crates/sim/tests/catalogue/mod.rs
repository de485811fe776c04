//! The cold-chain catalogue: the benchmark's design catalogue crossed with
//! half-cave sizes, σ_T values and the window override, 840 labelled
//! configurations in table order. Shared by the cold-chain gate and the
//! serving layer's JSON byte-identity gate, which pin one digest line per
//! configuration.

use decoder_sim::SimConfig;
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
pub fn configurations() -> Vec<(String, SimConfig)> {
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

/// The 64-bit FNV-1a digest of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}
