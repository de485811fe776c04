//! Configuration generators shared by the codec and stage-key property
//! batteries.
//!
//! The generators stay inside each constructor's validation envelope
//! (positive pitches, nanowire pitch ≤ litho pitch, defect rates in
//! `[0, 1]`, family-legal code lengths) so every generated value is one a
//! real process could hold; within that envelope the floats are arbitrary
//! finite values.

use proptest::prelude::*;

use crossbar_array::LayoutRules;
use decoder_sim::{DefectKind, DisturbanceKind, SimConfig};
use device_physics::{Nanometers, ThresholdModel, Volts};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

pub fn code_spec_strategy() -> impl Strategy<Value = CodeSpec> {
    (0usize..CodeKind::ALL.len(), 2u8..=4, 1usize..5).prop_map(|(kind_index, radix, blocks)| {
        let kind = CodeKind::ALL[kind_index];
        let radix = LogicLevel::new(radix).unwrap();
        // Tree-family lengths must be even; hot-family lengths must be a
        // multiple of the radix.
        let length = if kind.is_tree_family() {
            2 * blocks
        } else {
            usize::from(radix.radix()) * blocks
        };
        CodeSpec::new(kind, radix, length).unwrap()
    })
}

pub fn disturbance_strategy() -> impl Strategy<Value = DisturbanceKind> {
    prop_oneof![
        Just(DisturbanceKind::Gaussian),
        Just(DisturbanceKind::Laplace),
        (0.0f64..1.0).prop_map(|shared_fraction| DisturbanceKind::Correlated { shared_fraction }),
    ]
}

pub fn defect_strategy() -> impl Strategy<Value = DefectKind> {
    prop_oneof![
        Just(DefectKind::None),
        (0.0f64..0.5, 0.0f64..0.5, any::<u64>()).prop_map(|(breakage, crosspoint, seed)| {
            DefectKind::sampled(breakage, crosspoint, seed).unwrap()
        }),
    ]
}

pub fn layout_strategy() -> impl Strategy<Value = LayoutRules> {
    (10.0f64..100.0, 0.1f64..1.0, 1.0f64..3.0, 0.0f64..10.0).prop_map(
        |(litho, nanowire_fraction, width_factor, tolerance)| {
            // The nanowire pitch may not exceed the litho pitch.
            LayoutRules::new(
                Nanometers::new(litho),
                Nanometers::new(litho * nanowire_fraction),
                width_factor,
                Nanometers::new(tolerance),
            )
            .unwrap()
        },
    )
}

pub fn threshold_strategy() -> impl Strategy<Value = ThresholdModel> {
    (0.5f64..10.0, -1.0f64..1.0).prop_map(|(oxide, flat_band)| {
        ThresholdModel::new(Nanometers::new(oxide), Volts::new(flat_band)).unwrap()
    })
}

pub fn window_strategy() -> impl Strategy<Value = Option<Volts>> {
    prop_oneof![
        Just(None),
        (0.01f64..1.0).prop_map(|window| Some(Volts::new(window))),
    ]
}

pub fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (
        (code_spec_strategy(), 1usize..64, 1u64..(1 << 40)),
        (layout_strategy(), threshold_strategy(), 0.0f64..0.2),
        (-0.5f64..0.5, 0.1f64..2.0, window_strategy()),
        (disturbance_strategy(), defect_strategy()),
    )
        .prop_map(
            |(
                (code, nanowires, raw_bits),
                (layout, threshold, sigma),
                (supply_low, supply_span, window),
                (disturbance, defects),
            )| {
                let mut config = SimConfig::new(
                    code,
                    nanowires,
                    raw_bits,
                    layout,
                    threshold,
                    Volts::new(sigma),
                    (Volts::new(supply_low), Volts::new(supply_low + supply_span)),
                )
                .unwrap()
                .with_disturbance(disturbance)
                .with_defects(defects);
                if let Some(window) = window {
                    config = config.with_window(window);
                }
                config
            },
        )
}
