//! The threshold-voltage ⇄ doping-level mapping `f` of the paper
//! (Proposition 1): a monotone, bijective function from the channel doping
//! `N_D` of a doping region to the threshold voltage `V_T` of the transistor
//! that region forms under its mesowire.
//!
//! The model is the long-channel MOS threshold equation of Sze & Ng (the
//! paper's ref. [14]):
//!
//! ```text
//! V_T(N_A) = V_FB + 2ψ_B + sqrt(2 ε_Si q N_A · 2ψ_B) / C_ox
//! ψ_B      = (kT/q) · ln(N_A / n_i)
//! ```
//!
//! Only two properties of `f` are load-bearing for the paper's propositions —
//! monotonicity and bijectivity — so the absolute values need only be
//! plausible (doping in the 10¹⁸ cm⁻³ decade for thresholds below 1 V).
//! [`DopingLadder`] additionally supports explicit digit→(V_T, N_D) tables so
//! the worked examples of the paper (V_T ∈ {0.1, 0.3, 0.5} V, N_D ∈
//! {2, 4, 9}·10¹⁸ cm⁻³) can be reproduced exactly.

use serde::{Deserialize, Serialize};

use crate::error::{PhysicsError, Result};
use crate::materials::{
    bulk_potential, oxide_capacitance_per_area, silicon_permittivity, ELEMENTARY_CHARGE,
    THERMAL_VOLTAGE_300K,
};
use crate::units::{DopantConcentration, Nanometers, Volts};

/// Lower bound of the doping range the solver searches, in cm⁻³.
const SOLVER_MIN_DOPING: f64 = 1e15;
/// Upper bound of the doping range the solver searches, in cm⁻³.
const SOLVER_MAX_DOPING: f64 = 5e20;
/// Cap on the solver's steps. Over the paper's thresholds the Newton solve
/// meets the tolerance within 7 evaluations; a step that falls back to
/// bisection halves the bracket, which reaches f64 resolution in about 50
/// halvings. So only a target no step can meet, such as NaN, reaches the cap.
const SOLVER_ITERATIONS: usize = 200;
/// Relative tolerance on the solved threshold voltage.
const SOLVER_TOLERANCE: f64 = 1e-10;

/// Long-channel MOS threshold-voltage model.
///
/// # Examples
///
/// ```
/// use device_physics::{Nanometers, ThresholdModel, Volts};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ThresholdModel::default_mspt();
/// let doping = model.doping_for_threshold(Volts::new(0.5))?;
/// let back = model.threshold_for_doping(doping);
/// assert!((back.value() - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdModel {
    /// Gate-oxide thickness.
    oxide_thickness: Nanometers,
    /// Flat-band voltage (gate work-function difference plus fixed charge).
    flat_band_voltage: Volts,
}

impl ThresholdModel {
    /// Creates a threshold model.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidParameter`] when the oxide thickness is
    /// not positive or the flat-band voltage is not finite.
    pub fn new(oxide_thickness: Nanometers, flat_band_voltage: Volts) -> Result<Self> {
        if !(oxide_thickness.value() > 0.0 && oxide_thickness.is_finite()) {
            return Err(PhysicsError::InvalidParameter {
                name: "oxide_thickness",
                value: oxide_thickness.value(),
                constraint: "must be positive and finite",
            });
        }
        if !flat_band_voltage.is_finite() {
            return Err(PhysicsError::InvalidParameter {
                name: "flat_band_voltage",
                value: flat_band_voltage.value(),
                constraint: "must be finite",
            });
        }
        Ok(ThresholdModel {
            oxide_thickness,
            flat_band_voltage,
        })
    }

    /// The default parameterisation used by the reproduction: a 2 nm gate
    /// oxide and a flat-band voltage of −1 V, which places thresholds of
    /// 0–1 V in the 10¹⁸ cm⁻³ doping decade (the decade of the paper's worked
    /// examples).
    #[must_use]
    pub fn default_mspt() -> Self {
        ThresholdModel {
            oxide_thickness: Nanometers::new(2.0),
            flat_band_voltage: Volts::new(-1.0),
        }
    }

    /// The gate-oxide thickness.
    #[must_use]
    pub fn oxide_thickness(&self) -> Nanometers {
        self.oxide_thickness
    }

    /// The flat-band voltage.
    #[must_use]
    pub fn flat_band_voltage(&self) -> Volts {
        self.flat_band_voltage
    }

    /// The threshold voltage produced by a channel doping level
    /// (the forward direction of the bijection `f`).
    #[must_use]
    pub fn threshold_for_doping(&self, doping: DopantConcentration) -> Volts {
        let (threshold, _) = self.threshold_and_slope(doping.value().max(SOLVER_MIN_DOPING));
        Volts::new(threshold)
    }

    /// `V_T` at a doping of `na_cm3` (cm⁻³), with its slope in
    /// `x = log10 N_A`:
    ///
    /// ```text
    /// dV_T/dx = ln10 · (2kT/q + K·N_A·(ψ_B + kT/q) / (Q·C_ox))
    /// K = 2 ε_Si q · 10⁶,  Q = sqrt(K·N_A·2ψ_B)
    /// ```
    fn threshold_and_slope(&self, na_cm3: f64) -> (f64, f64) {
        let two_psi_b = 2.0 * bulk_potential(na_cm3);
        let na_m3 = na_cm3 * 1e6;
        let k_na = 2.0 * silicon_permittivity() * ELEMENTARY_CHARGE * na_m3;
        let depletion_charge = (k_na * two_psi_b).sqrt();
        let cox = oxide_capacitance_per_area(self.oxide_thickness.value());
        let threshold = self.flat_band_voltage.value() + two_psi_b + depletion_charge / cox;
        let slope = std::f64::consts::LN_10
            * (2.0 * THERMAL_VOLTAGE_300K
                + k_na * (0.5 * two_psi_b + THERMAL_VOLTAGE_300K) / (depletion_charge * cox));
        (threshold, slope)
    }

    /// The doping level that produces a target threshold voltage (the inverse
    /// direction of the bijection `f`), solved by Newton's method on
    /// `x = log10 N_A` over the doping range `10¹⁵ .. 5·10²⁰ cm⁻³`. Every
    /// step shrinks that bracket, and a Newton step that would leave it
    /// bisects the bracket instead. The solve stops at the first doping
    /// whose `V_T` is within `10⁻¹⁰ · max(|t|, 1)` of the target `t`.
    ///
    /// # Errors
    ///
    /// * [`PhysicsError::ThresholdOutOfRange`] when the target lies outside
    ///   the range reachable over the solver's doping bounds.
    /// * [`PhysicsError::SolverDidNotConverge`] when no step within the
    ///   solver's step cap meets the tolerance. `V_T` is continuous and
    ///   increasing over the bracket, so only a NaN target does that.
    pub fn doping_for_threshold(&self, target: Volts) -> Result<DopantConcentration> {
        let lo_v = self
            .threshold_for_doping(DopantConcentration::new(SOLVER_MIN_DOPING))
            .value();
        let hi_v = self
            .threshold_for_doping(DopantConcentration::new(SOLVER_MAX_DOPING))
            .value();
        let t = target.value();
        if t < lo_v || t > hi_v {
            return Err(PhysicsError::ThresholdOutOfRange {
                requested_volts: t,
                min_volts: lo_v,
                max_volts: hi_v,
            });
        }

        // Safeguarded Newton on x = log10(N_A): V_T is monotone increasing
        // in N_A, so each step's residual sign tells which side of the root
        // it lies on, and the bracket [lo, hi] keeps the root.
        let mut lo = SOLVER_MIN_DOPING.log10();
        let mut hi = SOLVER_MAX_DOPING.log10();
        let mut x = 0.5 * (lo + hi);
        for _ in 0..SOLVER_ITERATIONS {
            let na = 10f64.powf(x);
            let (v, slope) = self.threshold_and_slope(na.max(SOLVER_MIN_DOPING));
            let residual = v - t;
            if residual.abs() <= SOLVER_TOLERANCE * t.abs().max(1.0) {
                return Ok(DopantConcentration::new(na));
            }
            if residual < 0.0 {
                lo = x;
            } else {
                hi = x;
            }
            let newton = x - residual / slope;
            x = if newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
        }
        Err(PhysicsError::SolverDidNotConverge {
            iterations: SOLVER_ITERATIONS,
        })
    }
}

impl Default for ThresholdModel {
    fn default() -> Self {
        ThresholdModel::default_mspt()
    }
}

/// One rung of a [`DopingLadder`]: the threshold voltage and doping level of
/// a logic value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DopingLevel {
    /// The nominal threshold voltage of the level.
    pub threshold: Volts,
    /// The doping level that produces the threshold.
    pub doping: DopantConcentration,
}

/// The digit → (threshold voltage, doping level) table of a multi-valued
/// decoder: the composition `h = f ∘ g` of the paper's Proposition 1.
///
/// The ladder is strictly monotone in both the threshold voltages and the
/// doping levels, which is what makes `h` bijective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DopingLadder {
    levels: Vec<DopingLevel>,
}

impl DopingLadder {
    /// Builds a ladder of `level_count` evenly spaced threshold voltages
    /// spanning `v_range`, with the doping of each level solved from the
    /// threshold model.
    ///
    /// The paper distributes the thresholds "within the range 0 to 1 V"; the
    /// convention used here places level `l` at
    /// `v_lo + (l + 1/2) · (v_hi − v_lo) / n`, so that every level keeps the
    /// same decision-window half-width `(v_hi − v_lo) / (2n)` on both sides.
    ///
    /// # Errors
    ///
    /// * [`PhysicsError::InvalidLadder`] when `level_count < 2` or the range
    ///   is degenerate.
    /// * Any error of [`ThresholdModel::doping_for_threshold`].
    pub fn from_model(
        model: &ThresholdModel,
        level_count: usize,
        v_range: (Volts, Volts),
    ) -> Result<Self> {
        if level_count < 2 {
            return Err(PhysicsError::InvalidLadder {
                reason: format!("need at least two levels, got {level_count}"),
            });
        }
        let (lo, hi) = (v_range.0.value(), v_range.1.value());
        // `partial_cmp` keeps NaN bounds on the error path (NaN is not
        // Greater), matching the previous `!(hi > lo)` check.
        if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return Err(PhysicsError::InvalidLadder {
                reason: format!("degenerate voltage range [{lo}, {hi}]"),
            });
        }
        let step = (hi - lo) / level_count as f64;
        let mut levels = Vec::with_capacity(level_count);
        for l in 0..level_count {
            let threshold = Volts::new(lo + (l as f64 + 0.5) * step);
            let doping = model.doping_for_threshold(threshold)?;
            levels.push(DopingLevel { threshold, doping });
        }
        Ok(DopingLadder { levels })
    }

    /// Builds a ladder from explicit (threshold, doping) pairs, indexed by
    /// digit value. Used to reproduce the paper's worked examples, where the
    /// mapping is given directly.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidLadder`] when fewer than two levels are
    /// given or either column is not strictly increasing.
    pub fn from_explicit(levels: Vec<DopingLevel>) -> Result<Self> {
        if levels.len() < 2 {
            return Err(PhysicsError::InvalidLadder {
                reason: format!("need at least two levels, got {}", levels.len()),
            });
        }
        for pair in levels.windows(2) {
            if pair[1].threshold.value() <= pair[0].threshold.value() {
                return Err(PhysicsError::InvalidLadder {
                    reason: "threshold voltages must be strictly increasing".to_string(),
                });
            }
            if pair[1].doping.value() <= pair[0].doping.value() {
                return Err(PhysicsError::InvalidLadder {
                    reason: "doping levels must be strictly increasing".to_string(),
                });
            }
        }
        Ok(DopingLadder { levels })
    }

    /// The paper's worked-example ladder (Examples 1–6): digits 0, 1, 2 map
    /// to thresholds 0.1, 0.3, 0.5 V and dopings 2, 4, 9 × 10¹⁸ cm⁻³.
    #[must_use]
    pub fn paper_example() -> Self {
        DopingLadder {
            levels: vec![
                DopingLevel {
                    threshold: Volts::new(0.1),
                    doping: DopantConcentration::from_1e18(2.0),
                },
                DopingLevel {
                    threshold: Volts::new(0.3),
                    doping: DopantConcentration::from_1e18(4.0),
                },
                DopingLevel {
                    threshold: Volts::new(0.5),
                    doping: DopantConcentration::from_1e18(9.0),
                },
            ],
        }
    }

    /// The number of logic levels of the ladder (the radix `n`).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The levels of the ladder, in digit order.
    #[must_use]
    pub fn levels(&self) -> &[DopingLevel] {
        &self.levels
    }

    /// The level of a digit.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::LevelOutOfRange`] when the digit has no level.
    pub fn level(&self, digit: u8) -> Result<DopingLevel> {
        self.levels
            .get(usize::from(digit))
            .copied()
            .ok_or(PhysicsError::LevelOutOfRange {
                digit,
                levels: self.levels.len(),
            })
    }

    /// The threshold voltage of a digit (`g` in Proposition 1).
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::LevelOutOfRange`] when the digit has no level.
    pub fn threshold(&self, digit: u8) -> Result<Volts> {
        Ok(self.level(digit)?.threshold)
    }

    /// The doping level of a digit (`h = f ∘ g` in Proposition 1).
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::LevelOutOfRange`] when the digit has no level.
    pub fn doping(&self, digit: u8) -> Result<DopantConcentration> {
        Ok(self.level(digit)?.doping)
    }

    /// The digit whose doping level is closest to `doping` — the inverse of
    /// `h`, used to verify bijectivity and to decode fabricated profiles.
    #[must_use]
    pub fn digit_for_doping(&self, doping: DopantConcentration) -> u8 {
        let mut best = 0u8;
        let mut best_err = f64::INFINITY;
        for (digit, level) in self.levels.iter().enumerate() {
            let err = (level.doping.value() - doping.value()).abs();
            if err < best_err {
                best_err = err;
                best = digit as u8;
            }
        }
        best
    }

    /// The decision-window half-width implied by the ladder: half the
    /// smallest separation between adjacent threshold levels. A region is
    /// considered addressable when its actual threshold stays within this
    /// window of the nominal level (Section 6.1, following ref. \[2\]).
    #[must_use]
    pub fn window_half_width(&self) -> Volts {
        let min_sep = self
            .levels
            .windows(2)
            .map(|pair| pair[1].threshold.value() - pair[0].threshold.value())
            .fold(f64::INFINITY, f64::min);
        Volts::new(min_sep / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_construction_validates_inputs() {
        assert!(ThresholdModel::new(Nanometers::new(0.0), Volts::ZERO).is_err());
        assert!(ThresholdModel::new(Nanometers::new(-1.0), Volts::ZERO).is_err());
        assert!(ThresholdModel::new(Nanometers::new(2.0), Volts::new(f64::NAN)).is_err());
        assert!(ThresholdModel::new(Nanometers::new(2.0), Volts::new(-1.0)).is_ok());
        assert_eq!(ThresholdModel::default(), ThresholdModel::default_mspt());
    }

    #[test]
    fn threshold_is_monotone_in_doping() {
        let model = ThresholdModel::default_mspt();
        let mut previous = f64::NEG_INFINITY;
        for exp in [16.0, 17.0, 17.5, 18.0, 18.5, 19.0, 19.5, 20.0] {
            let vt = model
                .threshold_for_doping(DopantConcentration::new(10f64.powf(exp)))
                .value();
            assert!(vt > previous, "V_T must increase with doping");
            previous = vt;
        }
    }

    #[test]
    fn default_model_puts_sub_volt_thresholds_in_the_1e18_decade() {
        let model = ThresholdModel::default_mspt();
        for target in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let doping = model.doping_for_threshold(Volts::new(target)).unwrap();
            assert!(
                doping.value() > 1e17 && doping.value() < 2e19,
                "V_T = {target} V solved to {} cm^-3",
                doping.value()
            );
        }
    }

    #[test]
    fn forward_and_inverse_roundtrip() {
        let model = ThresholdModel::default_mspt();
        for target in [0.05, 0.2, 0.45, 0.8, 1.0] {
            let doping = model.doping_for_threshold(Volts::new(target)).unwrap();
            let back = model.threshold_for_doping(doping).value();
            assert!((back - target).abs() < 1e-6, "target {target}, got {back}");
        }
    }

    #[test]
    fn unreachable_thresholds_are_rejected() {
        let model = ThresholdModel::default_mspt();
        assert!(matches!(
            model.doping_for_threshold(Volts::new(-5.0)),
            Err(PhysicsError::ThresholdOutOfRange { .. })
        ));
        assert!(matches!(
            model.doping_for_threshold(Volts::new(50.0)),
            Err(PhysicsError::ThresholdOutOfRange { .. })
        ));
    }

    /// Three pins on the solver: the paper-default ladders (the default
    /// model over 0–1 V) of radix 2, 3 and 4 stay within 1e-9 relative of
    /// the dopings a bisection solve gave them; targets one ulp outside the
    /// reachable range get `ThresholdOutOfRange` with that range's bounds
    /// (taken from the same bisection build), while the bounds themselves
    /// solve; and a NaN target is an error.
    #[test]
    fn solver_pins_default_ladders_range_errors_and_nan_targets() {
        const LADDER_BITS: [&[u64]; 3] = [
            &[0x43ab_1038_4162_8f5a, 0x43d0_a12c_1ad6_6e63],
            &[
                0x43a1_f0bc_7255_ddeb,
                0x43c1_2f58_7513_cff8,
                0x43d3_f404_df58_4fc9,
            ],
            &[
                0x439c_6e4b_409a_77b6,
                0x43b6_92c0_ed1c_a980,
                0x43c8_8046_ea63_9c7e,
                0x43d5_bca2_44c0_7c93,
            ],
        ];
        const MIN_VOLTS_BITS: u64 = 0xbfda_9eb9_f87a_1bc8;
        const MAX_VOLTS_BITS: u64 = 0x4021_3965_3cad_7b45;

        let model = ThresholdModel::default_mspt();
        for (radix, pinned) in (2..=4).zip(LADDER_BITS) {
            let ladder =
                DopingLadder::from_model(&model, radix, (Volts::new(0.0), Volts::new(1.0)))
                    .unwrap();
            assert_eq!(ladder.level_count(), pinned.len());
            for (level, &bits) in ladder.levels().iter().zip(pinned) {
                let expected = f64::from_bits(bits);
                let relative = (level.doping.value() - expected).abs() / expected;
                assert!(
                    relative <= 1e-9,
                    "radix {radix}: {} cm^-3 against {expected} cm^-3",
                    level.doping.value()
                );
            }
        }

        let (min, max) = (
            f64::from_bits(MIN_VOLTS_BITS),
            f64::from_bits(MAX_VOLTS_BITS),
        );
        for target in [min.next_down(), max.next_up()] {
            assert_eq!(
                model.doping_for_threshold(Volts::new(target)),
                Err(PhysicsError::ThresholdOutOfRange {
                    requested_volts: target,
                    min_volts: min,
                    max_volts: max,
                })
            );
        }
        for target in [min, max] {
            let doping = model.doping_for_threshold(Volts::new(target)).unwrap();
            let back = model.threshold_for_doping(doping).value();
            assert!((back - target).abs() <= SOLVER_TOLERANCE * target.abs().max(1.0));
        }

        assert!(model.doping_for_threshold(Volts::new(f64::NAN)).is_err());
    }

    #[test]
    fn ladder_from_model_is_monotone_and_windowed() {
        let model = ThresholdModel::default_mspt();
        let ladder =
            DopingLadder::from_model(&model, 4, (Volts::new(0.0), Volts::new(1.0))).unwrap();
        assert_eq!(ladder.level_count(), 4);
        // Levels at 0.125, 0.375, 0.625, 0.875 V.
        assert!((ladder.threshold(0).unwrap().value() - 0.125).abs() < 1e-9);
        assert!((ladder.threshold(3).unwrap().value() - 0.875).abs() < 1e-9);
        // Monotone doping.
        for pair in ladder.levels().windows(2) {
            assert!(pair[1].doping.value() > pair[0].doping.value());
        }
        // Window half-width is half the level separation: 0.125 V.
        assert!((ladder.window_half_width().value() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn ladder_requires_at_least_two_levels_and_a_range() {
        let model = ThresholdModel::default_mspt();
        assert!(DopingLadder::from_model(&model, 1, (Volts::new(0.0), Volts::new(1.0))).is_err());
        assert!(DopingLadder::from_model(&model, 2, (Volts::new(1.0), Volts::new(1.0))).is_err());
    }

    #[test]
    fn paper_example_ladder_matches_the_paper() {
        let ladder = DopingLadder::paper_example();
        assert_eq!(ladder.level_count(), 3);
        assert_eq!(ladder.threshold(0).unwrap().value(), 0.1);
        assert_eq!(ladder.threshold(1).unwrap().value(), 0.3);
        assert_eq!(ladder.threshold(2).unwrap().value(), 0.5);
        assert_eq!(ladder.doping(0).unwrap().in_1e18(), 2.0);
        assert_eq!(ladder.doping(1).unwrap().in_1e18(), 4.0);
        assert_eq!(ladder.doping(2).unwrap().in_1e18(), 9.0);
        assert!(ladder.level(3).is_err());
        // h is invertible on the ladder.
        for digit in 0..3u8 {
            let doping = ladder.doping(digit).unwrap();
            assert_eq!(ladder.digit_for_doping(doping), digit);
        }
        assert!((ladder.window_half_width().value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn explicit_ladder_must_be_strictly_increasing() {
        let bad_threshold = DopingLadder::from_explicit(vec![
            DopingLevel {
                threshold: Volts::new(0.3),
                doping: DopantConcentration::from_1e18(2.0),
            },
            DopingLevel {
                threshold: Volts::new(0.1),
                doping: DopantConcentration::from_1e18(4.0),
            },
        ]);
        assert!(bad_threshold.is_err());
        let bad_doping = DopingLadder::from_explicit(vec![
            DopingLevel {
                threshold: Volts::new(0.1),
                doping: DopantConcentration::from_1e18(4.0),
            },
            DopingLevel {
                threshold: Volts::new(0.3),
                doping: DopantConcentration::from_1e18(2.0),
            },
        ]);
        assert!(bad_doping.is_err());
        assert!(DopingLadder::from_explicit(vec![]).is_err());
    }
}
