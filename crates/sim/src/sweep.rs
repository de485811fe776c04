//! The design points of the parameter sweeps over code type, logic radix
//! and code length behind Figs. 5–8 of the paper. A design point is one
//! [`SimConfig`]: [`design_points`] lists the configurations of a (kind,
//! length) grid, which [`ExecutionEngine::reports_for`] evaluates as one
//! batch (Fig. 5 on a half cave of 10 nanowires, Figs. 7 and 8, the
//! headline numbers, the design-space exploration). Fig. 6's
//! [`variability_map`] keeps a form of its own, the per-region matrix no
//! report carries, and reads the code and the half cave from its config.
//!
//! [`ExecutionEngine::reports_for`]: crate::ExecutionEngine::reports_for

use serde::{Deserialize, Serialize};

use mspt_fabrication::Matrix;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

use crate::config::SimConfig;
use crate::error::Result;
use crate::platform::SimulationPlatform;

/// The configurations of a (kind, length) grid over `base`: one per valid
/// code, kinds outer and lengths inner. A length that is invalid for a
/// family and radix is skipped, so hot-code families can share a length
/// list with tree-code families.
#[must_use]
pub fn design_points(
    base: &SimConfig,
    kinds: &[CodeKind],
    radix: LogicLevel,
    code_lengths: &[usize],
) -> Vec<SimConfig> {
    kinds
        .iter()
        .flat_map(|&kind| {
            code_lengths
                .iter()
                .filter_map(move |&length| CodeSpec::new(kind, radix, length).ok())
        })
        .map(|code| base.clone().with_code(code))
        .collect()
}

/// One variability map (one panel of Fig. 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariabilityMap {
    /// Code family.
    pub kind: CodeKind,
    /// Code length `M`.
    pub code_length: usize,
    /// Number of nanowires `N`.
    pub nanowires: usize,
    /// Normalised deviations `sqrt(ν_i^j) = sqrt(Σ_i^j)/σ_T`, indexed by
    /// (nanowire, digit).
    pub normalized_sigma: Matrix<f64>,
    /// Average variability `‖Σ‖₁/(N·M)` in units of σ_T².
    pub mean_variability: f64,
    /// Largest normalised deviation of the map.
    pub max_normalized_sigma: f64,
}

/// Computes the variability map of the configured code over the configured
/// half cave (one panel of Fig. 6; the paper uses `N = 20` nanowires).
///
/// # Errors
///
/// Propagates code, fabrication and device-physics errors.
pub fn variability_map(config: &SimConfig) -> Result<VariabilityMap> {
    let variability = SimulationPlatform::new(config.clone()).variability()?;
    let normalized = variability.normalized_map();
    Ok(VariabilityMap {
        kind: config.code().kind(),
        code_length: config.code().code_length(),
        nanowires: config.nanowires_per_half_cave(),
        mean_variability: variability.mean_in_sigma_units(),
        max_normalized_sigma: normalized.max(),
        normalized_sigma: normalized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionEngine;

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    #[test]
    fn complexity_sweep_reproduces_fig5_shape() {
        // Fig. 5: TC and GC of length 8 on a half cave of N = 10 nanowires,
        // radix outer and kind inner, evaluated as one batch.
        let base = base().with_nanowires_per_half_cave(10).unwrap();
        let radices = [
            LogicLevel::BINARY,
            LogicLevel::TERNARY,
            LogicLevel::QUATERNARY,
        ];
        let configs: Vec<SimConfig> = radices
            .into_iter()
            .flat_map(|radix| design_points(&base, &[CodeKind::Tree, CodeKind::Gray], radix, &[8]))
            .collect();
        let points = ExecutionEngine::serial().reports_for(&configs).unwrap();
        assert_eq!(points.len(), 6);
        let phi = |kind: CodeKind, radix: LogicLevel| {
            points
                .iter()
                .find(|p| p.code.kind() == kind && p.code.radix() == radix)
                .unwrap()
                .fabrication_steps
        };
        // Binary codes: Φ = 2N regardless of the arrangement.
        assert_eq!(phi(CodeKind::Tree, LogicLevel::BINARY), 20);
        assert_eq!(phi(CodeKind::Gray, LogicLevel::BINARY), 20);
        // Higher radix: the tree code pays extra steps, the Gray code does not.
        assert!(phi(CodeKind::Tree, LogicLevel::TERNARY) > 20);
        assert!(
            phi(CodeKind::Gray, LogicLevel::TERNARY) < phi(CodeKind::Tree, LogicLevel::TERNARY)
        );
        assert!(
            phi(CodeKind::Gray, LogicLevel::QUATERNARY)
                < phi(CodeKind::Tree, LogicLevel::QUATERNARY)
        );
        // The six bars of Fig. 5 in batch order.
        let steps: Vec<usize> = points.iter().map(|p| p.fabrication_steps).collect();
        assert_eq!(steps, [20, 20, 27, 21, 26, 22]);
    }

    #[test]
    fn variability_map_matches_fig6_structure() {
        let map_of = |kind: CodeKind| {
            let code = CodeSpec::new(kind, LogicLevel::BINARY, 8).unwrap();
            variability_map(&base().with_code(code)).unwrap()
        };
        let map = map_of(CodeKind::Tree);
        assert_eq!(
            (map.kind, map.code_length, map.nanowires),
            (CodeKind::Tree, 8, 20)
        );
        assert_eq!(map.normalized_sigma.rows(), 20);
        assert_eq!(map.normalized_sigma.columns(), 8);
        // The lexicographic tree code toggles its least-significant digit at
        // every step, so the earliest-defined nanowire accumulates ~N doses
        // there: sqrt(20) ≈ 4.5, the peak of Fig. 6.a/b.
        assert!(map.max_normalized_sigma > 4.0);
        let gray = map_of(CodeKind::Gray);
        assert!(gray.max_normalized_sigma < map.max_normalized_sigma);
        assert!(gray.mean_variability < map.mean_variability);
        let balanced = map_of(CodeKind::BalancedGray);
        assert!(balanced.max_normalized_sigma <= gray.max_normalized_sigma);
    }

    #[test]
    fn yield_sweep_skips_invalid_lengths_and_stays_in_bounds() {
        let configs = design_points(&base(), &[CodeKind::Hot], LogicLevel::BINARY, &[4, 5, 6, 8]);
        // Length 5 is invalid for a binary hot code and must be skipped.
        let lengths: Vec<usize> = configs.iter().map(|c| c.code().code_length()).collect();
        assert_eq!(lengths, [4, 6, 8]);
        for report in ExecutionEngine::serial().reports_for(&configs).unwrap() {
            assert!(report.cave_yield > 0.0 && report.cave_yield <= 1.0);
            assert!((report.crossbar_yield - report.cave_yield.powi(2)).abs() < 1e-12);
        }
    }

    #[test]
    fn bit_area_sweep_produces_positive_areas() {
        let configs = design_points(
            &base(),
            &[CodeKind::BalancedGray],
            LogicLevel::BINARY,
            &[6, 8, 10],
        );
        let reports = ExecutionEngine::serial().reports_for(&configs).unwrap();
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert!(report.effective_bit_area > 100.0);
        }
        // Fig. 8: longer codes shrink the bit area over this range.
        assert!(reports[2].effective_bit_area < reports[0].effective_bit_area);
    }

    #[test]
    fn full_sweep_covers_valid_combinations() {
        let base = base().with_window(device_physics::Volts::new(0.2));
        let configs = design_points(
            &base,
            &[CodeKind::Tree, CodeKind::Hot],
            LogicLevel::BINARY,
            &[4, 5, 8],
        );
        // Kinds outer, lengths inner; neither binary family has length 5.
        let codes: Vec<(CodeKind, usize)> = configs
            .iter()
            .map(|c| (c.code().kind(), c.code().code_length()))
            .collect();
        assert_eq!(
            codes,
            [
                (CodeKind::Tree, 4),
                (CodeKind::Tree, 8),
                (CodeKind::Hot, 4),
                (CodeKind::Hot, 8)
            ]
        );
        // Every point keeps the rest of the base.
        for config in &configs {
            assert_eq!(config.clone().with_code(base.code()), base);
        }
        assert!(design_points(&base, &[], LogicLevel::BINARY, &[8]).is_empty());
        assert!(design_points(&base, &[CodeKind::Tree], LogicLevel::BINARY, &[]).is_empty());
    }
}
