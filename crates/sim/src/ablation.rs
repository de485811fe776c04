//! Sensitivity (ablation) sweeps over the calibration constants the
//! reproduction had to choose where the paper does not pin a value: the
//! per-dose variability σ_T, the addressability decision window, the contact
//! alignment tolerance and the half-cave size.
//!
//! Each sweep evaluates its TC/BGC pairs as one batch on the caller's
//! [`ExecutionEngine`]. `mspt_experiments::sensitivity_report` runs them
//! and the `sensitivity` and `run_all` binaries print them: the paper's
//! qualitative conclusions (optimised arrangements win, longer codes help
//! up to a point) must hold across the plausible range of every constant,
//! not just at the chosen default.

use serde::{Deserialize, Serialize};

use crossbar_array::LayoutRules;
use device_physics::{Nanometers, Volts};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

use crate::config::SimConfig;
use crate::engine::ExecutionEngine;
use crate::error::{Result, SimError};

/// One point of a sensitivity sweep: the swept parameter value and the
/// resulting crossbar yield / bit area of a pair of designs (a baseline code
/// and its optimised arrangement).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// The value of the swept parameter (unit depends on the sweep).
    pub parameter: f64,
    /// Crossbar yield of the baseline code (TC or HC).
    pub baseline_yield: f64,
    /// Crossbar yield of the optimised code (BGC or AHC).
    pub optimised_yield: f64,
    /// Effective bit area of the baseline code in nm².
    pub baseline_bit_area: f64,
    /// Effective bit area of the optimised code in nm².
    pub optimised_bit_area: f64,
}

impl SensitivityPoint {
    /// Whether the optimised arrangement still wins at this parameter value
    /// (the paper's central qualitative claim).
    #[must_use]
    pub fn optimised_wins(&self) -> bool {
        self.optimised_yield >= self.baseline_yield
            && self.optimised_bit_area <= self.baseline_bit_area
    }
}

/// A full sensitivity sweep of one calibration constant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivitySweep {
    /// Human-readable name of the swept parameter.
    pub parameter_name: String,
    /// The swept points, in increasing parameter order.
    pub points: Vec<SensitivityPoint>,
}

impl SensitivitySweep {
    /// Whether the optimised arrangement wins at every swept value.
    #[must_use]
    pub fn optimised_always_wins(&self) -> bool {
        self.points.iter().all(SensitivityPoint::optimised_wins)
    }
}

/// The one body of the four sweeps: `configure` maps each swept value to
/// its parameter and the base configuration at that value, and the TC and
/// BGC reports of every value are evaluated as one batch on `engine`.
fn sensitivity_sweep<T: Copy>(
    engine: &ExecutionEngine,
    parameter_name: &str,
    values: &[T],
    code_length: usize,
    configure: impl Fn(T) -> Result<(f64, SimConfig)>,
) -> Result<SensitivitySweep> {
    if values.is_empty() {
        return Err(SimError::EmptySweep);
    }
    let baseline = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, code_length)?;
    let optimised = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, code_length)?;
    let mut parameters = Vec::with_capacity(values.len());
    let mut configs = Vec::with_capacity(2 * values.len());
    for &value in values {
        let (parameter, config) = configure(value)?;
        parameters.push(parameter);
        configs.push(config.clone().with_code(baseline));
        configs.push(config.with_code(optimised));
    }
    let reports = engine.reports_for(&configs)?;
    let points = parameters
        .into_iter()
        .zip(reports.chunks_exact(2))
        .map(|(parameter, pair)| SensitivityPoint {
            parameter,
            baseline_yield: pair[0].crossbar_yield,
            optimised_yield: pair[1].crossbar_yield,
            baseline_bit_area: pair[0].effective_bit_area,
            optimised_bit_area: pair[1].effective_bit_area,
        })
        .collect();
    Ok(SensitivitySweep {
        parameter_name: parameter_name.to_string(),
        points,
    })
}

/// Sweeps the per-dose threshold-voltage deviation σ_T (in millivolts).
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] for an empty value list, or propagates
/// evaluation errors.
pub fn sigma_sensitivity(
    engine: &ExecutionEngine,
    base: &SimConfig,
    sigma_millivolts: &[f64],
    code_length: usize,
) -> Result<SensitivitySweep> {
    sensitivity_sweep(
        engine,
        "sigma_per_dose_mv",
        sigma_millivolts,
        code_length,
        |sigma| {
            let config = base
                .clone()
                .with_sigma_per_dose(Volts::from_millivolts(sigma))?;
            Ok((sigma, config))
        },
    )
}

/// Sweeps the addressability decision window (in millivolts).
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] for an empty value list, or propagates
/// evaluation errors.
pub fn window_sensitivity(
    engine: &ExecutionEngine,
    base: &SimConfig,
    window_millivolts: &[f64],
    code_length: usize,
) -> Result<SensitivitySweep> {
    sensitivity_sweep(
        engine,
        "decision_window_mv",
        window_millivolts,
        code_length,
        |window| {
            let config = base.clone().with_window(Volts::from_millivolts(window));
            Ok((window, config))
        },
    )
}

/// Sweeps the contact alignment tolerance (in nanometres) — the constant
/// behind the boundary-nanowire losses of ref. \[6\]. Only the tolerance
/// of the base's layout changes.
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] for an empty value list, or propagates
/// layout and evaluation errors.
pub fn alignment_sensitivity(
    engine: &ExecutionEngine,
    base: &SimConfig,
    tolerance_nanometers: &[f64],
    code_length: usize,
) -> Result<SensitivitySweep> {
    let layout = base.layout();
    sensitivity_sweep(
        engine,
        "alignment_tolerance_nm",
        tolerance_nanometers,
        code_length,
        |tolerance| {
            let rules = LayoutRules::new(
                layout.litho_pitch(),
                layout.nanowire_pitch(),
                layout.min_contact_width_factor(),
                Nanometers::new(tolerance),
            )?;
            Ok((tolerance, base.clone().with_layout(rules)))
        },
    )
}

/// Sweeps the number of nanowires per half cave — the constant the paper
/// leaves implicit ("fixed according to the raw crosspoint density").
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] for an empty value list, or propagates
/// evaluation errors.
pub fn half_cave_sensitivity(
    engine: &ExecutionEngine,
    base: &SimConfig,
    nanowire_counts: &[usize],
    code_length: usize,
) -> Result<SensitivitySweep> {
    sensitivity_sweep(
        engine,
        "nanowires_per_half_cave",
        nanowire_counts,
        code_length,
        |count| {
            let config = base.clone().with_nanowires_per_half_cave(count)?;
            Ok((count as f64, config))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    fn engine() -> ExecutionEngine {
        ExecutionEngine::serial()
    }

    #[test]
    fn sigma_sweep_is_monotone_and_preserves_the_ordering() {
        let sweep = sigma_sensitivity(&engine(), &base(), &[20.0, 50.0, 80.0, 110.0], 8).unwrap();
        assert_eq!(sweep.points.len(), 4);
        assert!(sweep.optimised_always_wins());
        // Yields fall as σ_T grows, for both designs.
        for pair in sweep.points.windows(2) {
            assert!(pair[1].baseline_yield <= pair[0].baseline_yield + 1e-12);
            assert!(pair[1].optimised_yield <= pair[0].optimised_yield + 1e-12);
        }
    }

    #[test]
    fn window_sweep_is_monotone_and_preserves_the_ordering() {
        let sweep = window_sensitivity(&engine(), &base(), &[150.0, 250.0, 350.0], 8).unwrap();
        assert!(sweep.optimised_always_wins());
        // Wider windows can only help.
        for pair in sweep.points.windows(2) {
            assert!(pair[1].baseline_yield >= pair[0].baseline_yield - 1e-12);
            assert!(pair[1].optimised_yield >= pair[0].optimised_yield - 1e-12);
        }
    }

    #[test]
    fn alignment_sweep_preserves_the_ordering_and_hurts_short_codes_more() {
        let sweep = alignment_sensitivity(&engine(), &base(), &[0.0, 16.0, 32.0], 8).unwrap();
        assert!(sweep.optimised_always_wins());
        // More alignment uncertainty can only reduce the yield.
        for pair in sweep.points.windows(2) {
            assert!(pair[1].baseline_yield <= pair[0].baseline_yield + 1e-12);
        }
    }

    #[test]
    fn sweeps_change_only_their_constant_of_the_base() {
        let base = base()
            .with_window(Volts::from_millivolts(120.0))
            .with_defects(crate::DefectKind::sampled(0.05, 0.02, 7).unwrap());
        let engine = engine();
        // The point the base's TC code and its BGC twin give for `config`.
        let point = |parameter, config: &SimConfig| {
            let bgc = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 8).unwrap();
            let configs = [config.clone(), config.clone().with_code(bgc)];
            let [tc, bgc] = &engine.reports_for(&configs).unwrap()[..] else {
                panic!("two reports");
            };
            SensitivityPoint {
                parameter,
                baseline_yield: tc.crossbar_yield,
                optimised_yield: bgc.crossbar_yield,
                baseline_bit_area: tc.effective_bit_area,
                optimised_bit_area: bgc.effective_bit_area,
            }
        };
        // Each alignment point is the base with only the tolerance changed.
        let sweep = alignment_sensitivity(&engine, &base, &[0.0, 16.0, 32.0], 8).unwrap();
        let layout = base.layout();
        for swept in &sweep.points {
            let rules = LayoutRules::new(
                layout.litho_pitch(),
                layout.nanowire_pitch(),
                layout.min_contact_width_factor(),
                Nanometers::new(swept.parameter),
            )
            .unwrap();
            let expected = point(swept.parameter, &base.clone().with_layout(rules));
            assert_eq!(*swept, expected);
        }
        // At the base's own value every sweep reads the base's reports.
        let at_base = [
            (sigma_sensitivity(&engine, &base, &[50.0], 8), 50.0),
            (window_sensitivity(&engine, &base, &[120.0], 8), 120.0),
            (alignment_sensitivity(&engine, &base, &[16.0], 8), 16.0),
            (half_cave_sensitivity(&engine, &base, &[20], 8), 20.0),
        ];
        for (sweep, value) in at_base {
            let sweep = sweep.unwrap();
            assert_eq!(
                sweep.points,
                [point(value, &base)],
                "{}",
                sweep.parameter_name
            );
        }
    }

    #[test]
    fn half_cave_sweep_preserves_the_ordering() {
        let sweep = half_cave_sensitivity(&engine(), &base(), &[10, 20, 40], 8).unwrap();
        assert!(sweep.optimised_always_wins());
        assert_eq!(sweep.parameter_name, "nanowires_per_half_cave");
        // Larger half caves accumulate more doses and can only reduce yield.
        for pair in sweep.points.windows(2) {
            assert!(pair[1].optimised_yield <= pair[0].optimised_yield + 1e-12);
        }
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        assert!(matches!(
            sigma_sensitivity(&engine(), &base(), &[], 8),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            window_sensitivity(&engine(), &base(), &[], 8),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            alignment_sensitivity(&engine(), &base(), &[], 8),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            half_cave_sensitivity(&engine(), &base(), &[], 8),
            Err(SimError::EmptySweep)
        ));
    }
}
