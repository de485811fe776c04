//! Property-based tests of the analytic addressability model: the profile,
//! which evaluates one in-window probability per distinct dose count, equals
//! the per-region product of Section 6.1 bit for bit, and fails with the
//! same first error.

use crossbar_array::{AddressabilityProfile, CrossbarError};
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
