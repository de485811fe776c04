//! Property-based tests of the MSPT fabrication algebra: the paper's
//! Propositions 1–5 hold for arbitrary patterns and code choices.

use device_physics::{DopingLadder, ThresholdModel, VariabilityModel, Volts};
use mspt_fabrication::{
    DoseCountMatrix, FabricationCost, FabricationPlan, FinalDopingMatrix, PatternMatrix,
    StepDopingMatrix, VariabilityMatrix,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
use proptest::prelude::*;

/// Strategy producing random pattern matrices with N in 2..=8 and M in 2..=6.
fn pattern_strategy() -> impl Strategy<Value = (PatternMatrix, LogicLevel)> {
    (2u8..=4, 2usize..=8, 2usize..=6).prop_flat_map(|(radix, n, m)| {
        let level = LogicLevel::new(radix).unwrap();
        proptest::collection::vec(proptest::collection::vec(0..radix, m), n)
            .prop_map(move |rows| (PatternMatrix::from_rows(rows, level).unwrap(), level))
    })
}

fn ladder_for(radix: LogicLevel) -> DopingLadder {
    DopingLadder::from_model(
        &ThresholdModel::default_mspt(),
        radix.radix_usize(),
        (Volts::new(0.0), Volts::new(1.0)),
    )
    .unwrap()
}

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
                        ladder_for(level)
                    };
                    (PatternMatrix::from_rows(rows, level).unwrap(), ladder)
                },
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Proposition 2 round-trip: S accumulates back to D for any pattern.
    #[test]
    fn steps_accumulate_to_final_doping((pattern, radix) in pattern_strategy()) {
        let ladder = ladder_for(radix);
        let doping = FinalDopingMatrix::from_pattern(&pattern, &ladder).unwrap();
        let steps = StepDopingMatrix::from_final(&doping);
        let reconstructed = steps.accumulate();
        let scale = doping.as_matrix().iter().fold(1.0f64, |a, &v| a.max(v.abs()));
        for i in 0..pattern.nanowire_count() {
            for j in 0..pattern.region_count() {
                let original = doping.level(i, j).unwrap().value();
                let recovered = reconstructed.level(i, j).unwrap().value();
                prop_assert!((original - recovered).abs() < 1e-9 * scale);
            }
        }
    }

    /// Proposition 1: the digit → doping map is invertible for any pattern.
    #[test]
    fn doping_decodes_back_to_the_pattern((pattern, radix) in pattern_strategy()) {
        let ladder = ladder_for(radix);
        let doping = FinalDopingMatrix::from_pattern(&pattern, &ladder).unwrap();
        let decoded = doping.decode_pattern(&ladder).unwrap();
        prop_assert_eq!(decoded, pattern);
    }

    /// The dose count of every region equals 1 + the number of digit changes
    /// below it in its column (the recurrence in the proof of Proposition 4),
    /// and dose counts are monotone non-increasing along the definition
    /// order.
    #[test]
    fn dose_counts_follow_column_transitions((pattern, radix) in pattern_strategy()) {
        let ladder = ladder_for(radix);
        let doses = DoseCountMatrix::from_pattern(&pattern, &ladder).unwrap();
        let n = pattern.nanowire_count();
        let m = pattern.region_count();
        for j in 0..m {
            prop_assert_eq!(doses.count(n - 1, j).unwrap(), 1);
            for i in (0..n - 1).rev() {
                let expected = doses.count(i + 1, j).unwrap()
                    + usize::from(pattern.digit(i, j).unwrap() != pattern.digit(i + 1, j).unwrap());
                prop_assert_eq!(doses.count(i, j).unwrap(), expected);
            }
        }
    }

    /// The linear dose count equals its per-cell definition
    /// `ν_i^j = Σ_{k≥i} [is_nonzero_dose(S_k^j)]`, where every
    /// classification rescans the step matrix for its tolerance.
    #[test]
    fn dose_counts_equal_the_per_cell_definition((pattern, ladder) in reference_strategy()) {
        let steps = StepDopingMatrix::from_pattern(&pattern, &ladder).unwrap();
        let doses = DoseCountMatrix::from_steps(&steps);
        let n = steps.step_count();
        let m = steps.region_count();
        for j in 0..m {
            let mut expected = 0;
            for i in (0..n).rev() {
                expected += usize::from(steps.is_nonzero_dose(steps.dose(i, j).unwrap()));
                prop_assert_eq!(doses.count(i, j).unwrap(), expected);
            }
        }
    }

    /// ‖Σ‖₁ (in σ² units) equals N·M plus the weighted sum of transitions:
    /// each digit change between rows i and i+1 adds (i+1) doses.
    #[test]
    fn l1_norm_matches_transition_weighting((pattern, radix) in pattern_strategy()) {
        let ladder = ladder_for(radix);
        let doses = DoseCountMatrix::from_pattern(&pattern, &ladder).unwrap();
        let n = pattern.nanowire_count();
        let m = pattern.region_count();
        // Summing the recurrence ν_i = ν_{i+1} + [change] over the column:
        // total = Σ_j (N + Σ_{i<N-1} (i+1)·[change at boundary i in column j]).
        let mut expected = 0;
        for j in 0..m {
            expected += n; // the baseline 1 for every row in this column
            for i in 0..n - 1 {
                if pattern.digit(i, j).unwrap() != pattern.digit(i + 1, j).unwrap() {
                    expected += i + 1;
                }
            }
        }
        prop_assert_eq!(doses.total(), expected);
    }

    /// The fabrication plan audit passes for any pattern: the event-level
    /// replay reproduces D, ν and Φ.
    #[test]
    fn fabrication_plan_audits_cleanly((pattern, radix) in pattern_strategy()) {
        let ladder = ladder_for(radix);
        let plan = FabricationPlan::for_pattern(&pattern, &ladder).unwrap();
        let audit = plan.audit(&pattern, &ladder).unwrap();
        prop_assert_eq!(audit.lithography_passes, audit.fabrication_cost.total());
    }

    /// φ_i is bounded by the number of possible distinct doses:
    /// at most min(M, n·(n-1)+... ) — in particular never more than M, and
    /// zero only when two successive patterns are identical.
    #[test]
    fn per_step_cost_is_bounded((pattern, radix) in pattern_strategy()) {
        let ladder = ladder_for(radix);
        let cost = FabricationCost::from_pattern(&pattern, &ladder).unwrap();
        let m = pattern.region_count();
        for (i, &phi) in cost.per_step().iter().enumerate() {
            prop_assert!(phi <= m);
            if i + 1 < pattern.nanowire_count() {
                let identical = pattern.nanowire_pattern(i) == pattern.nanowire_pattern(i + 1);
                prop_assert_eq!(phi == 0, identical);
            }
        }
    }

    /// Binary patterns never need more than two distinct doses per step
    /// (Fig. 5: Φ is constant for binary codes).
    #[test]
    fn binary_steps_use_at_most_two_doses(
        rows in proptest::collection::vec(proptest::collection::vec(0u8..2, 6), 2..10)
    ) {
        let pattern = PatternMatrix::from_rows(rows, LogicLevel::BINARY).unwrap();
        let ladder = ladder_for(LogicLevel::BINARY);
        let cost = FabricationCost::from_pattern(&pattern, &ladder).unwrap();
        for &phi in cost.per_step() {
            prop_assert!(phi <= 2);
        }
    }

    /// Proposition 4/5 on full spaces: the Gray arrangement never costs more
    /// than the lexicographic tree arrangement, in either metric.
    #[test]
    fn gray_never_worse_than_tree(
        radix in prop_oneof![Just(LogicLevel::BINARY), Just(LogicLevel::TERNARY)],
        code_length in prop_oneof![Just(4usize), Just(6usize)],
        nanowires in 3usize..20,
    ) {
        let ladder = ladder_for(radix);
        let model = VariabilityModel::paper_default();
        let tree = CodeSpec::new(CodeKind::Tree, radix, code_length).unwrap()
            .generate().unwrap().take_cyclic(nanowires).unwrap();
        let gray = CodeSpec::new(CodeKind::Gray, radix, code_length).unwrap()
            .generate().unwrap().take_cyclic(nanowires).unwrap();
        let tree_cost = FabricationCost::from_sequence(&tree, &ladder).unwrap();
        let gray_cost = FabricationCost::from_sequence(&gray, &ladder).unwrap();
        prop_assert!(gray_cost.total() <= tree_cost.total());
        let tree_var = VariabilityMatrix::from_sequence(&tree, &ladder, &model).unwrap();
        let gray_var = VariabilityMatrix::from_sequence(&gray, &ladder, &model).unwrap();
        prop_assert!(gray_var.l1_norm_in_sigma_units() <= tree_var.l1_norm_in_sigma_units());
    }
}
