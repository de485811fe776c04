//! Sequential-stopping statistics for the adaptive Monte-Carlo kernel: the
//! Wilson score interval for a binomial proportion, and the inverse normal
//! CDF that turns a confidence level into its z quantile (and the
//! shared-offset sampler's draws into normals). Also the tail-accurate
//! complementary error function behind the Gaussian sampler's acceptance
//! ranges, `Φ(−c) = erfc(c/√2)/2`.
//!
//! The adaptive sampler stops the moment every nanowire's estimated
//! addressability carries a Wilson half-width at or below the configured
//! target. The Wilson interval is used (rather than the naive Wald interval
//! `p̂ ± z·√(p̂(1−p̂)/t)`) because its coverage stays honest at the extremes
//! this workload lives at — addressability probabilities near 1.0, where the
//! Wald interval collapses to zero width after a streak of successes and
//! stops far too early.
//!
//! Everything here is pure `f64` arithmetic with no RNG and no allocation,
//! so the stopping decision is bit-identical wherever it is evaluated — the
//! property the engine's cross-thread determinism contract rests on.

/// The inverse CDF (quantile function) of the standard normal distribution,
/// `Φ⁻¹(p)`, by Wichura's algorithm AS 241 (`PPND16`, Applied Statistics 37,
/// 1988): one rational function of degree 7 over 7 for the centre
/// `|p − ½| ≤ 0.425`, one for the tails out to `min(p, 1 − p) = e⁻²⁵`, and
/// one beyond. A round trip through an accurate `erfc` comes back within a
/// relative error of `1e-13` in the smaller tail `min(p, 1 − p)`, from
/// `p = 1e-15` to `1 − 1e-15`.
///
/// It gives the Wilson interval its z quantile ([`z_for_confidence`]), and
/// the Monte-Carlo sampler of the correlated disturbance its normal
/// deviates.
///
/// Returns `f64::NAN` outside the open interval `(0, 1)`.
#[must_use]
pub fn inverse_normal_cdf(p: f64) -> f64 {
    if !(p > 0.0 && p < 1.0) {
        return f64::NAN;
    }
    // Numerators and denominators, constant term first.
    const CENTRE_NUMERATOR: [f64; 8] = [
        3.387_132_872_796_366_5,
        1.331_416_678_917_843_8e2,
        1.971_590_950_306_551_3e3,
        1.373_169_376_550_946e4,
        4.592_195_393_154_987e4,
        6.726_577_092_700_87e4,
        3.343_057_558_358_813e4,
        2.509_080_928_730_122_7e3,
    ];
    const CENTRE_DENOMINATOR: [f64; 8] = [
        1.0,
        4.231_333_070_160_091e1,
        6.871_870_074_920_579e2,
        5.394_196_021_424_751e3,
        2.121_379_430_158_659_7e4,
        3.930_789_580_009_271e4,
        2.872_908_573_572_194_3e4,
        5.226_495_278_852_854e3,
    ];
    const TAIL_NUMERATOR: [f64; 8] = [
        1.423_437_110_749_683_5,
        4.630_337_846_156_546,
        5.769_497_221_460_691,
        3.647_848_324_763_204_5,
        1.270_458_252_452_368_4,
        2.417_807_251_774_506e-1,
        2.272_384_498_926_918_4e-2,
        7.745_450_142_783_414e-4,
    ];
    const TAIL_DENOMINATOR: [f64; 8] = [
        1.0,
        2.053_191_626_637_759,
        1.676_384_830_183_803_8,
        6.897_673_349_851e-1,
        1.481_039_764_274_800_8e-1,
        1.519_866_656_361_645_7e-2,
        5.475_938_084_995_345e-4,
        1.050_750_071_644_416_9e-9,
    ];
    const FAR_NUMERATOR: [f64; 8] = [
        6.657_904_643_501_103,
        5.463_784_911_164_114,
        1.784_826_539_917_291_3,
        2.965_605_718_285_048_7e-1,
        2.653_218_952_657_612_4e-2,
        1.242_660_947_388_078_4e-3,
        2.711_555_568_743_487_6e-5,
        2.010_334_399_292_288_1e-7,
    ];
    const FAR_DENOMINATOR: [f64; 8] = [
        1.0,
        5.998_322_065_558_88e-1,
        1.369_298_809_227_358e-1,
        1.487_536_129_085_061_5e-2,
        7.868_691_311_456_133e-4,
        1.846_318_317_510_054_8e-5,
        1.421_511_758_316_446e-7,
        2.044_263_103_389_939_7e-15,
    ];
    let q = p - 0.5;
    if q.abs() <= 0.425 {
        let r = 0.180_625 - q * q;
        return q * horner(&CENTRE_NUMERATOR, r) / horner(&CENTRE_DENOMINATOR, r);
    }
    // The smaller tail, exact: `1 − p` for `p > ½` (Sterbenz).
    let tail = if q < 0.0 { p } else { 1.0 - p };
    let r = (-tail.ln()).sqrt();
    let magnitude = if r <= 5.0 {
        let r = r - 1.6;
        horner(&TAIL_NUMERATOR, r) / horner(&TAIL_DENOMINATOR, r)
    } else {
        let r = r - 5.0;
        horner(&FAR_NUMERATOR, r) / horner(&FAR_DENOMINATOR, r)
    };
    if q < 0.0 {
        -magnitude
    } else {
        magnitude
    }
}

/// `Σ coefficients[i] · xⁱ`, by Horner's rule.
fn horner(coefficients: &[f64; 8], x: f64) -> f64 {
    coefficients.iter().rev().fold(0.0, |sum, &c| sum * x + c)
}

/// The complementary error function `erfc(x) = 1 − erf(x)`, with a relative
/// error below `1e-14` wherever the result is a normal `f64` (`x` up to
/// ≈ 26.5, so `Φ(−c) = erfc(c/√2)/2` stays accurate out to `c` ≈ 37.5).
///
/// The Monte-Carlo sampler turns a region's window into a range of uniform
/// draws through this function, so it must not inherit the tail error of
/// the closed-form analytic model's erf approximation (Abramowitz & Stegun
/// 7.1.26, whose relative error in `Φ(−c)` is already `5e-5` at `c = 3`).
///
/// * `x² < 1.5`: the Maclaurin series of `erf`, then `1 − erf` (the result
///   is at least 0.08 there, so the subtraction loses under four bits).
/// * `x² ≥ 1.5`: `Γ(½, x²)/√π` by its continued fraction (modified Lentz),
///   with `exp(−x²)` split so that the large part of the exponent is exact.
/// * `x < 0` beyond the series: `erfc(x) = 2 − erfc(−x)`.
#[must_use]
pub(crate) fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let square = x * x;
    if square < 1.5 {
        // erf(x) = 2/√π · Σ (−1)ⁿ x²ⁿ⁺¹ / (n! (2n + 1)).
        let mut power = x;
        let mut sum = x;
        for n in 1..64 {
            power *= -square / f64::from(n);
            let term = power / f64::from(2 * n + 1);
            sum += term;
            if term.abs() <= sum.abs() * 1e-17 {
                break;
            }
        }
        return 1.0 - std::f64::consts::FRAC_2_SQRT_PI * sum;
    }
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if square > 750.0 {
        // exp(−x²) underflows: erfc(x) < 1e-327.
        return 0.0;
    }
    // Γ(a, y) = e^(−y) y^a · 1/(y+1−a− 1(1−a)/(y+3−a− 2(2−a)/(y+5−a− …)))
    // at a = ½, y = x².
    const TINY: f64 = 1e-300;
    let mut b = square + 0.5;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut fraction = d;
    for i in 1..500 {
        let i = f64::from(i);
        let a = -i * (i - 0.5);
        b += 2.0;
        d = a * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let step = d * c;
        fraction *= step;
        if (step - 1.0).abs() <= 1e-16 {
            break;
        }
    }
    // exp(−x²) = exp(−s²)·exp((s − x)(s + x)) with s = x truncated to 21
    // significant bits, so s² and therefore the big exponent are exact.
    let s = f64::from_bits(x.to_bits() & 0xffff_ffff_0000_0000);
    let gauss = (-s * s).exp() * ((s - x) * (s + x)).exp();
    gauss * x * (0.5 * std::f64::consts::FRAC_2_SQRT_PI) * fraction
}

/// The two-sided z quantile for a confidence level: `Φ⁻¹((1 + confidence)/2)`.
///
/// `z_for_confidence(0.95)` ≈ 1.95996 — the familiar "1.96 sigma" of a 95 %
/// interval. Returns `f64::NAN` when `confidence` is outside `(0, 1)`.
#[must_use]
pub fn z_for_confidence(confidence: f64) -> f64 {
    inverse_normal_cdf((1.0 + confidence) / 2.0)
}

/// The Wilson score interval for `successes` out of `trials` Bernoulli
/// trials at quantile `z`, as `(lower, upper)` clamped to `[0, 1]`.
///
/// Centre and half-width:
///
/// ```text
/// centre = (p̂ + z²/2t) / (1 + z²/t)
/// half   = z·√(p̂(1−p̂)/t + z²/4t²) / (1 + z²/t)
/// ```
///
/// The bounds always contain `p̂ = successes / trials`: at `p̂ = 0` or `1` the
/// exact bound equals `p̂`, and rounding can land the computed one an ulp on
/// the wrong side of it, so each bound is also clamped to `p̂`.
///
/// Returns `(0.0, 1.0)` — the vacuous interval — when `trials` is zero, so a
/// stopping rule built on this function can never fire before sampling.
#[must_use]
pub fn wilson_bounds(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let t = trials as f64;
    let p_hat = successes as f64 / t;
    let z2 = z * z;
    let denominator = 1.0 + z2 / t;
    let centre = (p_hat + z2 / (2.0 * t)) / denominator;
    let half = z * (p_hat * (1.0 - p_hat) / t + z2 / (4.0 * t * t)).sqrt() / denominator;
    (
        (centre - half).max(0.0).min(p_hat),
        (centre + half).min(1.0).max(p_hat),
    )
}

/// The half-width of the Wilson score interval for `successes` out of
/// `trials` at quantile `z` — the quantity the adaptive sampler compares
/// against its `target_half_width`.
///
/// Returns `f64::INFINITY` when `trials` is zero (no evidence, no stopping).
#[must_use]
pub fn wilson_half_width(successes: usize, trials: usize, z: f64) -> f64 {
    if trials == 0 {
        return f64::INFINITY;
    }
    let t = trials as f64;
    let p_hat = successes as f64 / t;
    let z2 = z * z;
    let denominator = 1.0 + z2 / t;
    z * (p_hat * (1.0 - p_hat) / t + z2 / (4.0 * t * t)).sqrt() / denominator
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_match_the_textbook_values() {
        // The classic two-sided quantiles, to the 4 decimals every table
        // prints them at.
        assert!((z_for_confidence(0.90) - 1.6449).abs() < 5e-4);
        assert!((z_for_confidence(0.95) - 1.9600).abs() < 5e-4);
        assert!((z_for_confidence(0.99) - 2.5758).abs() < 5e-4);
        // Symmetry and the median.
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) + inverse_normal_cdf(0.025)).abs() < 1e-9);
        // Tails stay finite and monotone deep into the approximation's tail
        // branches.
        assert!(inverse_normal_cdf(1e-12) < inverse_normal_cdf(1e-6));
        assert!(inverse_normal_cdf(1e-6) < -4.0);
        // Out-of-domain inputs are NaN, not garbage.
        assert!(inverse_normal_cdf(0.0).is_nan());
        assert!(inverse_normal_cdf(1.0).is_nan());
        assert!(z_for_confidence(1.5).is_nan());
    }

    #[test]
    fn erfc_matches_reference_values_deep_into_the_tail() {
        // Python's `math.erfc`, printed with `repr`: both series branches,
        // the switch at x² = 1.5, and the tail down to the last normal f64.
        let cases = [
            (-3.0, 1.999_977_909_503_001_5),
            (-1.0, 1.842_700_792_949_715),
            (-0.5, 1.520_499_877_813_046_5),
            (0.0, 1.0),
            (0.1, 0.887_537_083_981_715_2),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (1.2, 0.089_686_021_770_364_65),
            (1.22, 0.084_466_118_973_353_17),
            (1.23, 0.081_949_895_873_238_66),
            (1.3, 0.065_992_055_059_347_55),
            (1.5, 0.033_894_853_524_689_274),
            (2.0, 0.004_677_734_981_047_265),
            (2.5, 0.000_406_952_017_444_958_9),
            (3.0, 2.209_049_699_858_543_8e-5),
            (4.0, 1.541_725_790_028_002e-8),
            (5.0, 1.537_459_794_428_035_1e-12),
            (6.0, 2.151_973_671_249_891_6e-17),
            (8.0, 1.122_429_717_298_292_8e-29),
            (10.0, 2.088_487_583_762_545e-45),
            (13.0, 1.739_557_315_466_724_6e-75),
            (15.0, 7.212_994_172_451_206e-100),
            (20.0, 5.395_865_611_607_900_5e-176),
            (25.0, 8.300_172_571_196_522e-274),
            (26.0, 5.663_192_408_856_143e-296),
            (26.5, 2.210_907_664_263_734_3e-307),
        ];
        for (x, expected) in cases {
            let relative = ((erfc(x) - expected) / expected).abs();
            assert!(
                relative <= 1e-13,
                "erfc({x}) = {:e}, expected {expected:e}",
                erfc(x)
            );
        }
        // Φ(−c) = erfc(c/√2)/2 at c = 37.5, near the last normal value
        // (Python: `math.erfc(37.5 / math.sqrt(2)) / 2`).
        let tail = 0.5 * erfc(37.5 / std::f64::consts::SQRT_2);
        assert!(((tail - 4.605_353_009_582_584e-308) / tail).abs() <= 1e-13);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(40.0), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erfc_is_monotone_across_its_branches() {
        // The acceptance ranges of a wider window must contain those of a
        // narrower one, so Φ(−c) may never rise with c — in particular not
        // where the series hands over to the continued fraction.
        let mut previous = erfc(-6.0);
        for step in -6_000..27_000 {
            let value = erfc(f64::from(step) * 1e-3);
            assert!(
                value <= previous,
                "erfc rises at {}",
                f64::from(step) * 1e-3
            );
            previous = value;
        }
    }

    #[test]
    fn inverse_cdf_inverts_the_integrated_cdf() {
        // Φ(x) = erfc(−x/√2)/2 below the median and 1 − Φ(x) = erfc(x/√2)/2
        // above it: the round trip is checked in the smaller tail, where a
        // relative error shows. Log-spaced tails from 1e-15 to ½ cross all
        // three branches (switches at 0.075 and e⁻²⁵ ≈ 1.4e-11).
        let mut tails: Vec<f64> = (0..=150)
            .map(|i| 10f64.powf(-15.0 + f64::from(i) * 0.1).min(0.5))
            .collect();
        tails.extend([0.075, 0.074_999_999_999, (-25.0f64).exp(), 0.499_999]);
        for tail in tails {
            for p in [tail, 1.0 - tail] {
                let x = inverse_normal_cdf(p);
                let (round_trip, expected) = if p < 0.5 {
                    (0.5 * erfc(-x / std::f64::consts::SQRT_2), p)
                } else {
                    (0.5 * erfc(x / std::f64::consts::SQRT_2), 1.0 - p)
                };
                let relative = ((round_trip - expected) / expected).abs();
                assert!(
                    relative <= 1e-13,
                    "Φ⁻¹({p}) = {x}: tail {round_trip:e} vs {expected:e} ({relative:e})"
                );
            }
        }
    }

    /// Exact binomial PMF via a multiplicative recurrence (stable for the
    /// trial counts exercised here).
    fn binomial_pmf(trials: usize, p: f64) -> Vec<f64> {
        let mut pmf = vec![0.0f64; trials + 1];
        pmf[0] = (1.0 - p).powi(trials as i32);
        for k in 1..=trials {
            // pmf[k] = pmf[k-1] · (n-k+1)/k · p/(1-p), guarded for p = 1.
            let ratio = (trials - k + 1) as f64 / k as f64;
            pmf[k] = if (1.0 - p).abs() < f64::EPSILON {
                if k == trials {
                    1.0
                } else {
                    0.0
                }
            } else {
                pmf[k - 1] * ratio * p / (1.0 - p)
            };
        }
        pmf
    }

    #[test]
    fn wilson_coverage_matches_the_exhaustive_binomial_reference() {
        // For every (trials, p) in a grid, sum the exact binomial
        // probability of the success counts whose Wilson interval contains
        // p. Wilson's known behaviour: coverage hugs the nominal level with
        // occasional dips (never the catastrophic collapse of the Wald
        // interval at the boundaries).
        let z = z_for_confidence(0.95);
        let mut worst: f64 = 1.0;
        let mut total = 0.0f64;
        let mut cells = 0usize;
        for trials in [10usize, 25, 60, 150] {
            for p_milli in [50usize, 200, 500, 800, 900, 950, 990] {
                let p = p_milli as f64 / 1000.0;
                let pmf = binomial_pmf(trials, p);
                let coverage: f64 = (0..=trials)
                    .filter(|&k| {
                        let (lower, upper) = wilson_bounds(k, trials, z);
                        lower <= p && p <= upper
                    })
                    .map(|k| pmf[k])
                    .sum();
                worst = worst.min(coverage);
                total += coverage;
                cells += 1;
            }
        }
        let mean = total / cells as f64;
        assert!(worst >= 0.85, "worst-case Wilson coverage {worst}");
        assert!(mean >= 0.93, "mean Wilson coverage {mean}");
    }

    #[test]
    fn wald_collapses_at_the_boundary_but_wilson_does_not() {
        // The motivating case: a clean streak of successes. The Wald
        // half-width is exactly zero (p̂(1−p̂) = 0), so a Wald stopping rule
        // would fire after one chunk; the Wilson half-width stays honestly
        // positive.
        let z = z_for_confidence(0.95);
        let trials = 256;
        let wald_half = z * (1.0f64 * 0.0 / trials as f64).sqrt();
        assert_eq!(wald_half, 0.0);
        let wilson_half = wilson_half_width(trials, trials, z);
        assert!(wilson_half > 0.005, "wilson half-width {wilson_half}");
        // And the zero-trials guard: no evidence means an infinite
        // half-width and the vacuous interval.
        assert_eq!(wilson_half_width(0, 0, z), f64::INFINITY);
        assert_eq!(wilson_bounds(0, 0, z), (0.0, 1.0));
    }

    #[test]
    fn wilson_bounds_contain_an_extreme_estimate_exactly() {
        // At p̂ = 0 or 1 the exact bound equals p̂, so rounding alone decides
        // the side; the Wilson coverage of an all-pass wire relies on it.
        for confidence in [0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999] {
            let z = z_for_confidence(confidence);
            for trials in 1..=20_000 {
                for successes in [0, trials] {
                    let (lower, upper) = wilson_bounds(successes, trials, z);
                    let p_hat = successes as f64 / trials as f64;
                    assert!(
                        lower <= p_hat && p_hat <= upper,
                        "{successes}/{trials} at {confidence}: [{lower}, {upper}]"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For any success count and trial count, the Wilson bounds stay in
        /// [0, 1], bracket the point estimate, and agree with the half-width
        /// function away from the clamps.
        #[test]
        fn wilson_bounds_are_ordered_and_contain_the_estimate(
            trials in 1usize..2_000,
            success_per_mille in 0usize..=1_000,
            confidence_index in 0usize..3,
        ) {
            let successes = (trials * success_per_mille) / 1_000;
            let confidence = [0.90, 0.95, 0.99][confidence_index];
            let z = z_for_confidence(confidence);
            let (lower, upper) = wilson_bounds(successes, trials, z);
            let p_hat = successes as f64 / trials as f64;
            prop_assert!((0.0..=1.0).contains(&lower));
            prop_assert!((0.0..=1.0).contains(&upper));
            prop_assert!(lower <= upper);
            prop_assert!(lower <= p_hat && p_hat <= upper);
            // The half-width function is the same interval's radius
            // (before clamping, so compare against the unclamped centre).
            let half = wilson_half_width(successes, trials, z);
            prop_assert!(half >= 0.0 && half.is_finite());
            prop_assert!(upper - lower <= 2.0 * half + 1e-12);
        }

        /// More evidence never widens the interval: scaling successes and
        /// trials by the same factor shrinks the half-width.
        #[test]
        fn wilson_half_width_tightens_with_more_trials(
            trials in 1usize..500,
            success_per_mille in 0usize..=1_000,
        ) {
            let successes = (trials * success_per_mille) / 1_000;
            let z = z_for_confidence(0.95);
            let before = wilson_half_width(successes, trials, z);
            let after = wilson_half_width(successes * 4, trials * 4, z);
            prop_assert!(after <= before + 1e-12, "{after} > {before}");
        }
    }
}
