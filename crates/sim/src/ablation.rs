//! Sensitivity (ablation) sweeps over the calibration constants the
//! reproduction had to choose where the paper does not pin a value: the
//! per-dose variability σ_T, the addressability decision window, the contact
//! alignment tolerance and the half-cave size.
//!
//! The `sensitivity` binary of `mspt-experiments` prints these sweeps: the
//! paper's qualitative conclusions (optimised arrangements win, longer codes
//! help up to a point) must hold across the plausible range of every
//! constant, not just at the chosen default.

use serde::{Deserialize, Serialize};

use crossbar_array::LayoutRules;
use device_physics::{Nanometers, Volts};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

use crate::config::SimConfig;
use crate::error::{Result, SimError};
use crate::platform::SimulationPlatform;

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

fn evaluate_pair(
    base: &SimConfig,
    baseline: CodeSpec,
    optimised: CodeSpec,
    parameter: f64,
) -> Result<SensitivityPoint> {
    let baseline_report = SimulationPlatform::new(base.clone().with_code(baseline)).evaluate()?;
    let optimised_report = SimulationPlatform::new(base.clone().with_code(optimised)).evaluate()?;
    Ok(SensitivityPoint {
        parameter,
        baseline_yield: baseline_report.crossbar_yield,
        optimised_yield: optimised_report.crossbar_yield,
        baseline_bit_area: baseline_report.effective_bit_area,
        optimised_bit_area: optimised_report.effective_bit_area,
    })
}

fn default_pair(radix: LogicLevel, code_length: usize) -> Result<(CodeSpec, CodeSpec)> {
    Ok((
        CodeSpec::new(CodeKind::Tree, radix, code_length)?,
        CodeSpec::new(CodeKind::BalancedGray, radix, code_length)?,
    ))
}

/// Sweeps the per-dose threshold-voltage deviation σ_T (in millivolts).
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] for an empty value list, or propagates
/// evaluation errors.
pub fn sigma_sensitivity(
    base: &SimConfig,
    sigma_millivolts: &[f64],
    code_length: usize,
) -> Result<SensitivitySweep> {
    if sigma_millivolts.is_empty() {
        return Err(SimError::EmptySweep);
    }
    let (baseline, optimised) = default_pair(LogicLevel::BINARY, code_length)?;
    let mut points = Vec::with_capacity(sigma_millivolts.len());
    for &sigma in sigma_millivolts {
        let config = base
            .clone()
            .with_sigma_per_dose(Volts::from_millivolts(sigma))?;
        points.push(evaluate_pair(&config, baseline, optimised, sigma)?);
    }
    Ok(SensitivitySweep {
        parameter_name: "sigma_per_dose_mv".to_string(),
        points,
    })
}

/// Sweeps the addressability decision window (in millivolts).
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] for an empty value list, or propagates
/// evaluation errors.
pub fn window_sensitivity(
    base: &SimConfig,
    window_millivolts: &[f64],
    code_length: usize,
) -> Result<SensitivitySweep> {
    if window_millivolts.is_empty() {
        return Err(SimError::EmptySweep);
    }
    let (baseline, optimised) = default_pair(LogicLevel::BINARY, code_length)?;
    let mut points = Vec::with_capacity(window_millivolts.len());
    for &window in window_millivolts {
        let config = base.clone().with_window(Volts::from_millivolts(window));
        points.push(evaluate_pair(&config, baseline, optimised, window)?);
    }
    Ok(SensitivitySweep {
        parameter_name: "decision_window_mv".to_string(),
        points,
    })
}

/// Sweeps the contact alignment tolerance (in nanometres) — the constant
/// behind the boundary-nanowire losses of ref. \[6\].
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] for an empty value list, or propagates
/// evaluation errors.
pub fn alignment_sensitivity(
    base: &SimConfig,
    tolerance_nanometers: &[f64],
    code_length: usize,
) -> Result<SensitivitySweep> {
    if tolerance_nanometers.is_empty() {
        return Err(SimError::EmptySweep);
    }
    let (baseline, optimised) = default_pair(LogicLevel::BINARY, code_length)?;
    let mut points = Vec::with_capacity(tolerance_nanometers.len());
    for &tolerance in tolerance_nanometers {
        let rules = LayoutRules::new(
            base.layout().litho_pitch(),
            base.layout().nanowire_pitch(),
            base.layout().min_contact_width_factor(),
            Nanometers::new(tolerance),
        )?;
        let config = SimConfig::new(
            base.code(),
            base.nanowires_per_half_cave(),
            base.raw_bits(),
            rules,
            *base.threshold_model(),
            base.sigma_per_dose(),
            base.supply_range(),
        )?;
        points.push(evaluate_pair(&config, baseline, optimised, tolerance)?);
    }
    Ok(SensitivitySweep {
        parameter_name: "alignment_tolerance_nm".to_string(),
        points,
    })
}

/// Sweeps the number of nanowires per half cave — the constant the paper
/// leaves implicit ("fixed according to the raw crosspoint density").
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] for an empty value list, or propagates
/// evaluation errors.
pub fn half_cave_sensitivity(
    base: &SimConfig,
    nanowire_counts: &[usize],
    code_length: usize,
) -> Result<SensitivitySweep> {
    if nanowire_counts.is_empty() {
        return Err(SimError::EmptySweep);
    }
    let (baseline, optimised) = default_pair(LogicLevel::BINARY, code_length)?;
    let mut points = Vec::with_capacity(nanowire_counts.len());
    for &count in nanowire_counts {
        let config = base.clone().with_nanowires_per_half_cave(count)?;
        points.push(evaluate_pair(&config, baseline, optimised, count as f64)?);
    }
    Ok(SensitivitySweep {
        parameter_name: "nanowires_per_half_cave".to_string(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    #[test]
    fn sigma_sweep_is_monotone_and_preserves_the_ordering() {
        let sweep = sigma_sensitivity(&base(), &[20.0, 50.0, 80.0, 110.0], 8).unwrap();
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
        let sweep = window_sensitivity(&base(), &[150.0, 250.0, 350.0], 8).unwrap();
        assert!(sweep.optimised_always_wins());
        // Wider windows can only help.
        for pair in sweep.points.windows(2) {
            assert!(pair[1].baseline_yield >= pair[0].baseline_yield - 1e-12);
            assert!(pair[1].optimised_yield >= pair[0].optimised_yield - 1e-12);
        }
    }

    #[test]
    fn alignment_sweep_preserves_the_ordering_and_hurts_short_codes_more() {
        let sweep = alignment_sensitivity(&base(), &[0.0, 16.0, 32.0], 8).unwrap();
        assert!(sweep.optimised_always_wins());
        // More alignment uncertainty can only reduce the yield.
        for pair in sweep.points.windows(2) {
            assert!(pair[1].baseline_yield <= pair[0].baseline_yield + 1e-12);
        }
    }

    #[test]
    fn half_cave_sweep_preserves_the_ordering() {
        let sweep = half_cave_sensitivity(&base(), &[10, 20, 40], 8).unwrap();
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
            sigma_sensitivity(&base(), &[], 8),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            window_sensitivity(&base(), &[], 8),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            alignment_sensitivity(&base(), &[], 8),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            half_cave_sensitivity(&base(), &[], 8),
            Err(SimError::EmptySweep)
        ));
    }
}
