//! Property-based integration tests spanning every crate of the workspace:
//! for arbitrary valid code choices and half-cave sizes, the paper's
//! structural claims hold all the way from code generation to the platform
//! report.

use mspt_nanowire_decoder::crossbar::is_uniquely_addressable;
use mspt_nanowire_decoder::prelude::*;
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = CodeKind> {
    prop_oneof![
        Just(CodeKind::Tree),
        Just(CodeKind::Gray),
        Just(CodeKind::BalancedGray),
        Just(CodeKind::Hot),
        Just(CodeKind::ArrangedHot),
    ]
}

fn valid_length(kind: CodeKind, raw: usize) -> usize {
    // Map an arbitrary integer onto a valid binary code length for the
    // family: even 4..=10 for the tree family, even 4..=8 for the hot family.
    if kind.is_hot_family() {
        4 + 2 * (raw % 3)
    } else {
        4 + 2 * (raw % 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid binary design evaluates to physical quantities, and its
    /// recipe pass count always equals the fabrication complexity.
    #[test]
    fn designs_evaluate_to_physical_quantities(
        kind in kind_strategy(),
        raw_length in 0usize..16,
        nanowires in 6usize..32,
    ) {
        let code = CodeSpec::new(kind, LogicLevel::BINARY, valid_length(kind, raw_length)).unwrap();
        let design = SimConfig::paper_defaults(code)
            .unwrap()
            .with_nanowires_per_half_cave(nanowires)
            .unwrap();
        let report = SimulationPlatform::new(design.clone()).evaluate().unwrap();
        prop_assert!(report.cave_yield >= 0.0 && report.cave_yield <= 1.0);
        prop_assert!((report.crossbar_yield - report.cave_yield.powi(2)).abs() < 1e-12);
        prop_assert!(report.effective_bit_area >= report.raw_bit_area);
        let recipe = DecoderRecipe::for_config(&design).unwrap();
        prop_assert_eq!(recipe.lithography_passes(), report.fabrication_steps);
        prop_assert!(report.mean_variability >= 1.0);
    }

    /// The generated code of any family addresses its code space uniquely
    /// (the antichain property the decoder relies on).
    #[test]
    fn generated_codes_are_uniquely_addressable(
        kind in kind_strategy(),
        raw_length in 0usize..16,
    ) {
        let code_length = valid_length(kind, raw_length);
        let sequence = CodeSpec::new(kind, LogicLevel::BINARY, code_length)
            .unwrap()
            .generate()
            .unwrap();
        prop_assert!(is_uniquely_addressable(&sequence));
    }

    /// Optimised arrangements never lose to their baselines in either cost
    /// function, for any half-cave size (Propositions 4 and 5 extended to the
    /// cyclic assignment used by the crossbar).
    #[test]
    fn optimised_arrangements_never_lose(
        raw_length in 0usize..16,
        nanowires in 6usize..40,
    ) {
        let ladder = DopingLadder::from_model(
            &ThresholdModel::default_mspt(),
            2,
            (Volts::new(0.0), Volts::new(1.0)),
        ).unwrap();
        let sigma = VariabilityModel::paper_default();
        let pairs = [
            (CodeKind::Tree, CodeKind::Gray, 4 + 2 * (raw_length % 4)),
            (CodeKind::Hot, CodeKind::ArrangedHot, 4 + 2 * (raw_length % 3)),
        ];
        for (baseline_kind, optimised_kind, code_length) in pairs {
            let baseline = CodeSpec::new(baseline_kind, LogicLevel::BINARY, code_length)
                .unwrap().generate().unwrap().take_cyclic(nanowires).unwrap();
            let optimised = CodeSpec::new(optimised_kind, LogicLevel::BINARY, code_length)
                .unwrap().generate().unwrap().take_cyclic(nanowires).unwrap();
            let base_pattern = PatternMatrix::from_sequence(&baseline).unwrap();
            let opt_pattern = PatternMatrix::from_sequence(&optimised).unwrap();
            let base_cost = FabricationCost::from_pattern(&base_pattern, &ladder).unwrap();
            let opt_cost = FabricationCost::from_pattern(&opt_pattern, &ladder).unwrap();
            prop_assert!(opt_cost.total() <= base_cost.total());
            let base_var = VariabilityMatrix::from_pattern(&base_pattern, &ladder, &sigma).unwrap();
            let opt_var = VariabilityMatrix::from_pattern(&opt_pattern, &ladder, &sigma).unwrap();
            prop_assert!(
                opt_var.l1_norm_in_sigma_units() <= base_var.l1_norm_in_sigma_units()
            );
        }
    }

    /// The platform report is monotone in σ_T: more per-dose variability can
    /// only reduce the yield and inflate the bit area.
    #[test]
    fn yield_is_monotone_in_sigma(
        sigma_low_mv in 10.0f64..60.0,
        sigma_delta_mv in 5.0f64..80.0,
    ) {
        let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 8).unwrap();
        let low = SimConfig::paper_defaults(code).unwrap()
            .with_sigma_per_dose(Volts::from_millivolts(sigma_low_mv)).unwrap();
        let high = SimConfig::paper_defaults(code).unwrap()
            .with_sigma_per_dose(Volts::from_millivolts(sigma_low_mv + sigma_delta_mv)).unwrap();
        let low_report = SimulationPlatform::new(low).evaluate().unwrap();
        let high_report = SimulationPlatform::new(high).evaluate().unwrap();
        prop_assert!(high_report.crossbar_yield <= low_report.crossbar_yield + 1e-12);
        prop_assert!(high_report.effective_bit_area >= low_report.effective_bit_area - 1e-9);
    }
}
