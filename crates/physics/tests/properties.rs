//! Property-based tests of the device-physics invariants.

use device_physics::{
    combine_std_devs, DopantConcentration, DopingLadder, Gaussian, Nanometers, ThresholdModel,
    VariabilityModel, Volts,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The threshold model is strictly monotone in the doping level over the
    /// physically relevant range.
    #[test]
    fn threshold_model_is_monotone(exp_a in 16.0f64..20.0, exp_b in 16.0f64..20.0) {
        prop_assume!((exp_a - exp_b).abs() > 1e-6);
        let model = ThresholdModel::default_mspt();
        let (lo, hi) = if exp_a < exp_b { (exp_a, exp_b) } else { (exp_b, exp_a) };
        let v_lo = model.threshold_for_doping(DopantConcentration::new(10f64.powf(lo)));
        let v_hi = model.threshold_for_doping(DopantConcentration::new(10f64.powf(hi)));
        prop_assert!(v_hi.value() > v_lo.value());
    }

    /// Solving for a threshold and evaluating the model again recovers the
    /// threshold (bijectivity of `f`) to the solver's own acceptance test,
    /// |V_T − t| ≤ 1e-10·max(|t|, 1), for any model (oxide 1–5 nm, flat
    /// band −1.5 … −0.5 V) and any target inside the range that model
    /// reaches over the solver's doping bounds, 10¹⁵ … 5·10²⁰ cm⁻³.
    #[test]
    fn doping_solution_roundtrips(
        oxide_nm in 1.0f64..5.0,
        flat_band_v in -1.5f64..-0.5,
        position in 0.0f64..1.0,
    ) {
        let model = ThresholdModel::new(Nanometers::new(oxide_nm), Volts::new(flat_band_v))
            .unwrap();
        let lowest = model.threshold_for_doping(DopantConcentration::new(1e15)).value();
        let highest = model.threshold_for_doping(DopantConcentration::new(5e20)).value();
        let target = lowest + position * (highest - lowest);
        let doping = model.doping_for_threshold(Volts::new(target)).unwrap();
        let back = model.threshold_for_doping(doping).value();
        prop_assert!((back - target).abs() <= 1e-10 * target.abs().max(1.0));
    }

    /// Ladders built from the model are strictly monotone in both columns and
    /// digit lookups invert correctly.
    #[test]
    fn ladders_are_monotone_and_invertible(levels in 2usize..=6) {
        let model = ThresholdModel::default_mspt();
        let ladder = DopingLadder::from_model(
            &model,
            levels,
            (Volts::new(0.0), Volts::new(1.0)),
        ).unwrap();
        prop_assert_eq!(ladder.level_count(), levels);
        for pair in ladder.levels().windows(2) {
            prop_assert!(pair[1].threshold.value() > pair[0].threshold.value());
            prop_assert!(pair[1].doping.value() > pair[0].doping.value());
        }
        for digit in 0..levels as u8 {
            let doping = ladder.doping(digit).unwrap();
            prop_assert_eq!(ladder.digit_for_doping(doping), digit);
        }
    }

    /// Gaussian window probabilities are monotone in the window width and
    /// anti-monotone in the standard deviation.
    #[test]
    fn window_probability_monotonicity(
        sigma_mv in 1.0f64..200.0,
        window_a_mv in 1.0f64..500.0,
        window_b_mv in 1.0f64..500.0,
    ) {
        let g = Gaussian::new(0.0, sigma_mv / 1e3).unwrap();
        let (small, large) = if window_a_mv < window_b_mv {
            (window_a_mv, window_b_mv)
        } else {
            (window_b_mv, window_a_mv)
        };
        let p_small = g.probability_within_window(small / 1e3).unwrap();
        let p_large = g.probability_within_window(large / 1e3).unwrap();
        prop_assert!(p_large >= p_small - 1e-12);
        prop_assert!((0.0..=1.0).contains(&p_small));
    }

    /// Variance accumulation is additive: ν doses give ν times the one-dose
    /// variance, and the standard deviation follows sqrt(ν).
    #[test]
    fn dose_variance_is_additive(doses in 0usize..50, sigma_mv in 0.0f64..200.0) {
        let model = VariabilityModel::new(Volts::from_millivolts(sigma_mv)).unwrap();
        let unit = model.variance_after_doses(1);
        prop_assert!((model.variance_after_doses(doses) - unit * doses as f64).abs() < 1e-12);
        let sigma = model.sigma_after_doses(doses).value();
        prop_assert!((sigma * sigma - model.variance_after_doses(doses)).abs() < 1e-12);
    }

    /// Combining standard deviations is commutative and matches the direct
    /// root-sum-of-squares.
    #[test]
    fn std_dev_combination(sigmas in proptest::collection::vec(0.0f64..0.3, 0..6)) {
        let as_volts: Vec<Volts> = sigmas.iter().copied().map(Volts::new).collect();
        let combined = combine_std_devs(&as_volts);
        let expected = sigmas.iter().map(|s| s * s).sum::<f64>().sqrt();
        prop_assert!((combined.value() - expected).abs() < 1e-12);
        let mut reversed = as_volts.clone();
        reversed.reverse();
        prop_assert!((combine_std_devs(&reversed).value() - combined.value()).abs() < 1e-12);
    }

    /// The in-window probability never increases as more doses accumulate.
    #[test]
    fn in_window_probability_decreases_with_doses(window_mv in 10.0f64..500.0) {
        let model = VariabilityModel::paper_default();
        let window = Volts::from_millivolts(window_mv);
        let mut previous = 1.0 + 1e-12;
        for doses in 0..25 {
            let p = model.in_window_probability(doses, window).unwrap();
            prop_assert!(p <= previous + 1e-12);
            previous = p;
        }
    }
}
