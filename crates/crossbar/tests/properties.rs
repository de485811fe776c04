//! Property-based tests of the analytic addressability model and of sampled
//! defect instances. The profile, which evaluates one in-window probability
//! per distinct dose count, equals the per-region product of Section 6.1 bit
//! for bit, and fails with the same first error. A seed's defect instance
//! nests in the rates: what is broken or defective at lower rates stays so
//! at higher ones (common random numbers).

use crossbar_array::{AddressabilityProfile, CrossbarError, DefectMap, DefectModel};
use device_physics::{DopingLadder, ThresholdModel, VariabilityModel, Volts};
use mspt_fabrication::{PatternMatrix, VariabilityMatrix};
use nanowire_codes::LogicLevel;
use proptest::prelude::*;

/// Strategy producing random pattern matrices with radix 2–4, N in 1..=64
/// and M in 2..=12, each with the ladder it is fabricated on: the
/// solver-built ladder of its radix, or the paper's worked-example ladder
/// (three levels, so for radices 2 and 3 only).
fn reference_strategy() -> impl Strategy<Value = (PatternMatrix, DopingLadder)> {
    (2u8..=4, 1usize..=64, 2usize..=12, any::<bool>()).prop_flat_map(
        |(radix, n, m, paper_ladder)| {
            let level = LogicLevel::new(radix).unwrap();
            proptest::collection::vec(proptest::collection::vec(0..radix, m), n).prop_map(
                move |rows| {
                    let ladder = if paper_ladder && radix <= 3 {
                        DopingLadder::paper_example()
                    } else {
                        DopingLadder::from_model(
                            &ThresholdModel::default_mspt(),
                            level.radix_usize(),
                            (Volts::new(0.0), Volts::new(1.0)),
                        )
                        .unwrap()
                    };
                    (PatternMatrix::from_rows(rows, level).unwrap(), ladder)
                },
            )
        },
    )
}

/// The reference definition: nanowire `i` is addressable with probability
/// `∏_j P(|ΔV_T| ≤ window)` over its regions, one probability per region.
fn per_region_product(
    variability: &VariabilityMatrix,
    model: &VariabilityModel,
    window: Volts,
) -> Result<Vec<f64>, CrossbarError> {
    let doses = variability.dose_counts();
    (0..doses.nanowire_count())
        .map(|i| {
            let mut p = 1.0;
            for j in 0..doses.region_count() {
                p *= model.in_window_probability(doses.count(i, j)?, window)?;
            }
            Ok(p)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit for bit on valid windows, from tight to loose around the
    /// ladder's own half-width, and the same error on negative ones.
    #[test]
    fn profile_equals_the_per_region_product(
        (pattern, ladder) in reference_strategy(),
        sigma_mv in 5.0f64..120.0,
        window_fraction in -0.5f64..2.0,
    ) {
        let model = VariabilityModel::new(Volts::from_millivolts(sigma_mv)).unwrap();
        let variability = VariabilityMatrix::from_pattern(&pattern, &ladder, &model).unwrap();
        let window = Volts::new(window_fraction * ladder.window_half_width().value());
        let profile = AddressabilityProfile::from_variability(&variability, &model, window)
            .map(|profile| profile.probabilities().iter().map(|p| p.to_bits()).collect::<Vec<_>>());
        let reference = per_region_product(&variability, &model, window)
            .map(|probabilities| probabilities.iter().map(|p| p.to_bits()).collect::<Vec<_>>());
        prop_assert_eq!(profile, reference);
    }
}

/// A defect rate in `[0, 1]`, the edges included.
fn defect_rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0]
}

/// A pair of rates, the lower first.
fn ordered_rates() -> impl Strategy<Value = (f64, f64)> {
    (defect_rate(), defect_rate()).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

/// Whether every broken nanowire and defective crosspoint of `low` is
/// broken or defective in `high` too.
fn nests_in(low: &DefectMap, high: &DefectMap) -> bool {
    let (rows, columns) = (low.rows(), low.columns());
    (0..rows).all(|r| !low.row_broken(r) || high.row_broken(r))
        && (0..columns).all(|c| !low.column_broken(c) || high.column_broken(c))
        && (0..rows).all(|r| {
            (0..columns).all(|c| !low.crosspoint_defective(r, c) || high.crosspoint_defective(r, c))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For one seed and size (maps smaller than a word, partial last words),
    /// raising the stuck-crosspoint rate only adds defective crosspoints,
    /// raising the breakage rate only adds broken nanowires, and neither
    /// raises the usable count.
    #[test]
    fn defect_instances_nest_in_the_rates(
        (rows, columns) in prop_oneof![Just((1, 1)), Just((300, 70)), (1usize..=300, 1usize..=70)],
        seed in any::<u64>(),
        (breakage_low, breakage_high) in ordered_rates(),
        (stuck_low, stuck_high) in ordered_rates(),
    ) {
        let model = |breakage, stuck| DefectModel::new(breakage, stuck).unwrap();
        let map = |breakage, stuck| model(breakage, stuck).sample_map(rows, columns, seed).unwrap();
        // The maps have one size, so their usable fractions order as their
        // usable counts.
        let count = |breakage, stuck| map(breakage, stuck).usable_fraction();
        let low = map(breakage_low, stuck_low);
        prop_assert!(nests_in(&low, &map(breakage_low, stuck_high)));
        prop_assert!(nests_in(&low, &map(breakage_high, stuck_low)));
        prop_assert!(nests_in(&low, &map(breakage_high, stuck_high)));
        let usable = count(breakage_low, stuck_low);
        prop_assert!(count(breakage_low, stuck_high) <= usable);
        prop_assert!(count(breakage_high, stuck_low) <= usable);
        prop_assert!(count(breakage_high, stuck_high) <= count(breakage_high, stuck_low));
        prop_assert!(count(breakage_high, stuck_high) <= count(breakage_low, stuck_high));
    }
}
