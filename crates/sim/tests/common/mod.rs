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
use decoder_sim::{DefectKind, DisturbanceKind, MonteCarloConfig, SimConfig};
use device_physics::{Nanometers, ThresholdModel, Volts};
use nanowire_codes::{
    ArrangedHotBudget, BalanceBudget, CodeBudgets, CodeKind, CodeSpec, LogicLevel, SearchBudget,
};

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

pub fn budgets_strategy() -> impl Strategy<Value = CodeBudgets> {
    (
        (1u64..1_000_000, 0usize..16),
        (1u64..1_000_000, 1u64..1_000_000, 0u32..64),
    )
        .prop_map(
            |((balance_nodes, balance_slack), (arranged_nodes, fallback_nodes, sweeps))| {
                CodeBudgets {
                    balance: BalanceBudget {
                        max_nodes_per_limit: balance_nodes,
                        max_limit_slack: balance_slack,
                    },
                    arranged_hot: ArrangedHotBudget {
                        max_nodes: arranged_nodes,
                        fallback: SearchBudget {
                            max_nodes: fallback_nodes,
                            max_two_opt_sweeps: sweeps,
                        },
                    },
                }
            },
        )
}

pub fn window_strategy() -> impl Strategy<Value = Option<Volts>> {
    prop_oneof![
        Just(None),
        (0.01f64..1.0).prop_map(|window| Some(Volts::new(window))),
    ]
}

/// Sampling knobs in fixed or adaptive mode, with and without an explicit
/// sample ceiling.
pub fn monte_carlo_strategy() -> impl Strategy<Value = MonteCarloConfig> {
    (
        (1usize..4_096, any::<u64>()),
        prop_oneof![Just(None), (0.001f64..0.2).prop_map(Some)],
        0.5f64..0.999,
        prop_oneof![Just(None), (1usize..65_536).prop_map(Some)],
    )
        .prop_map(|((samples, seed), target, confidence, max)| {
            let mut config = MonteCarloConfig::fixed(samples, seed).with_confidence(confidence);
            if let Some(target) = target {
                config = config.with_target_half_width(target);
            }
            if let Some(max) = max {
                config = config.with_max_samples(max);
            }
            config
        })
}

pub fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (
        (code_spec_strategy(), 1usize..64, 1u64..(1 << 40)),
        (layout_strategy(), threshold_strategy(), 0.0f64..0.2),
        (-0.5f64..0.5, 0.1f64..2.0, window_strategy()),
        (
            budgets_strategy(),
            disturbance_strategy(),
            defect_strategy(),
            monte_carlo_strategy(),
        ),
    )
        .prop_map(
            |(
                (code, nanowires, raw_bits),
                (layout, threshold, sigma),
                (supply_low, supply_span, window),
                (budgets, disturbance, defects, monte_carlo),
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
                .with_code_budgets(budgets)
                .with_disturbance(disturbance)
                .with_defects(defects)
                .with_monte_carlo(monte_carlo);
                if let Some(window) = window {
                    config = config.with_window(window);
                }
                config
            },
        )
}
