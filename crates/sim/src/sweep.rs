//! The points of the parameter sweeps over code type, logic radix and code
//! length behind Figs. 5–8 of the paper — the [`ExecutionEngine`] sweep
//! methods produce them — and the Fig. 6 variability map, which has no
//! engine form.
//!
//! [`ExecutionEngine`]: crate::ExecutionEngine

use serde::{Deserialize, Serialize};

use mspt_fabrication::Matrix;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

use crate::config::SimConfig;
use crate::defect::DefectKind;
use crate::error::Result;
use crate::platform::SimulationPlatform;

/// One point of the fabrication-complexity sweep (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComplexityPoint {
    /// Code family.
    pub kind: CodeKind,
    /// Logic radix.
    pub radix: LogicLevel,
    /// Code length `M` used for the sweep.
    pub code_length: usize,
    /// Number of nanowires per half cave.
    pub nanowires: usize,
    /// Total number of additional lithography/doping steps `Φ`.
    pub fabrication_steps: usize,
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

/// One point of the yield sweep (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct YieldPoint {
    /// Code family.
    pub kind: CodeKind,
    /// Code length `M`.
    pub code_length: usize,
    /// Cave (nanowire) yield `Y`.
    pub cave_yield: f64,
    /// Crossbar (crosspoint) yield `Y²`.
    pub crossbar_yield: f64,
}

/// One point of the defect-axis yield sweep (the Fig. 7 extension): the
/// decoder yield of one code composed with one fabrication-defect selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefectYieldPoint {
    /// Code family.
    pub kind: CodeKind,
    /// Code length `M`.
    pub code_length: usize,
    /// The fabrication-defect selection of the point.
    pub defects: DefectKind,
    /// Decoder-limited crossbar yield `Y²` (defect-free).
    pub decoder_yield: f64,
    /// Fraction of crosspoints surviving the sampled defect map.
    pub defect_survival: f64,
    /// Composite crossbar yield: `Y²` × survival.
    pub composite_yield: f64,
}

/// One point of the bit-area sweep (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BitAreaPoint {
    /// Code family.
    pub kind: CodeKind,
    /// Code length `M`.
    pub code_length: usize,
    /// Effective area per functional bit in nm².
    pub bit_area: f64,
    /// Crossbar yield `Y²` behind the bit area.
    pub crossbar_yield: f64,
}

/// Computes the variability map of one code family and length (one panel of
/// Fig. 6; the paper uses `N = 20` nanowires).
///
/// # Errors
///
/// Propagates code, fabrication and device-physics errors.
pub fn variability_map(
    base: &SimConfig,
    kind: CodeKind,
    radix: LogicLevel,
    code_length: usize,
    nanowires: usize,
) -> Result<VariabilityMap> {
    let code = CodeSpec::new(kind, radix, code_length)?;
    let config = base.clone().with_code(code);
    let platform = SimulationPlatform::new(config);
    let variability = platform.variability_for(nanowires)?;
    let normalized = variability.normalized_map();
    Ok(VariabilityMap {
        kind,
        code_length,
        nanowires,
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
        let points = ExecutionEngine::serial()
            .complexity_sweep(
                &base(),
                &[CodeKind::Tree, CodeKind::Gray],
                &[
                    LogicLevel::BINARY,
                    LogicLevel::TERNARY,
                    LogicLevel::QUATERNARY,
                ],
                8,
                10,
            )
            .unwrap();
        assert_eq!(points.len(), 6);
        let phi = |kind: CodeKind, radix: LogicLevel| {
            points
                .iter()
                .find(|p| p.kind == kind && p.radix == radix)
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
    }

    #[test]
    fn variability_map_matches_fig6_structure() {
        let map = variability_map(&base(), CodeKind::Tree, LogicLevel::BINARY, 8, 20).unwrap();
        assert_eq!(map.normalized_sigma.rows(), 20);
        assert_eq!(map.normalized_sigma.columns(), 8);
        // The lexicographic tree code toggles its least-significant digit at
        // every step, so the earliest-defined nanowire accumulates ~N doses
        // there: sqrt(20) ≈ 4.5, the peak of Fig. 6.a/b.
        assert!(map.max_normalized_sigma > 4.0);
        let gray = variability_map(&base(), CodeKind::Gray, LogicLevel::BINARY, 8, 20).unwrap();
        assert!(gray.max_normalized_sigma < map.max_normalized_sigma);
        assert!(gray.mean_variability < map.mean_variability);
        let balanced =
            variability_map(&base(), CodeKind::BalancedGray, LogicLevel::BINARY, 8, 20).unwrap();
        assert!(balanced.max_normalized_sigma <= gray.max_normalized_sigma);
    }

    #[test]
    fn yield_sweep_skips_invalid_lengths_and_stays_in_bounds() {
        let points = ExecutionEngine::serial()
            .yield_sweep(&base(), CodeKind::Hot, LogicLevel::BINARY, &[4, 5, 6, 8])
            .unwrap();
        // Length 5 is invalid for a binary hot code and must be skipped.
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.cave_yield > 0.0 && p.cave_yield <= 1.0);
            assert!((p.crossbar_yield - p.cave_yield.powi(2)).abs() < 1e-12);
        }
    }

    #[test]
    fn bit_area_sweep_produces_positive_areas() {
        let points = ExecutionEngine::serial()
            .bit_area_sweep(
                &base(),
                CodeKind::BalancedGray,
                LogicLevel::BINARY,
                &[6, 8, 10],
            )
            .unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.bit_area > 100.0);
        }
        // Fig. 8: longer codes shrink the bit area over this range.
        assert!(points[2].bit_area < points[0].bit_area);
    }

    #[test]
    fn full_sweep_covers_valid_combinations() {
        let reports = ExecutionEngine::serial()
            .full_sweep(
                &base(),
                &[CodeKind::Tree, CodeKind::Hot],
                LogicLevel::BINARY,
                &[6, 8],
            )
            .unwrap();
        assert_eq!(reports.len(), 4);
    }
}
