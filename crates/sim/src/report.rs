//! Figure-shaped reports: the data series of Figs. 5–8 bundled with plain
//! text rendering, so experiments, benches and EXPERIMENTS.md all print the
//! same rows. The sensitivity sweeps render here too.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ablation::SensitivitySweep;
use crate::platform::PlatformReport;
use crate::sweep::VariabilityMap;

/// Fig. 5 — fabrication complexity per code type and logic radix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Report {
    /// The evaluated design points, one per (radix, code type); each
    /// report's `fabrication_steps` is the plotted `Φ`.
    pub points: Vec<PlatformReport>,
}

impl fmt::Display for Fig5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 5 — fabrication complexity (additional lithography/doping steps)"
        )?;
        writeln!(f, "{:<12} {:<6} {:>6}", "logic", "code", "steps")?;
        for point in &self.points {
            writeln!(
                f,
                "{:<12} {:<6} {:>6}",
                point.code.radix().to_string(),
                point.code.kind().label(),
                point.fabrication_steps
            )?;
        }
        Ok(())
    }
}

/// Fig. 6 — variability maps per code type and length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Report {
    /// One map per (code type, length) panel.
    pub maps: Vec<VariabilityMap>,
}

impl fmt::Display for Fig6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6 — normalised variability sqrt(Σ)/σ_T per doping region"
        )?;
        for map in &self.maps {
            writeln!(
                f,
                "{} (L = {}, N = {}): mean Σ/σ_T² = {:.3}, max sqrt(ν) = {:.3}",
                map.kind.label(),
                map.code_length,
                map.nanowires,
                map.mean_variability,
                map.max_normalized_sigma
            )?;
            // Print a compact per-digit profile (averaged over nanowires), one
            // row per panel, matching the digit axis of the figure.
            let columns = map.normalized_sigma.columns();
            let rows = map.normalized_sigma.rows();
            write!(f, "  per-digit mean sqrt(ν):")?;
            for j in 0..columns {
                let mean: f64 = (0..rows)
                    .map(|i| *map.normalized_sigma.get(i, j).expect("in range"))
                    .sum::<f64>()
                    / rows as f64;
                write!(f, " {mean:.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Fig. 7 — crossbar yield per code type and length, plus the beyond-paper
/// defect axis: composite yield under the expected survival of
/// fabrication defects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Report {
    /// One report per (code, length) point of the paper's figure, in row
    /// order.
    pub points: Vec<PlatformReport>,
    /// One report per (code, defect selection) point of the defect axis, in
    /// row order (empty when the axis was not swept — the paper assumes
    /// defect-free arrays).
    pub defect_points: Vec<PlatformReport>,
}

impl fmt::Display for Fig7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 7 — crossbar yield (fraction of addressable crosspoints)"
        )?;
        if !self.points.is_empty() {
            writeln!(
                f,
                "{:<6} {:>8} {:>12} {:>14}",
                "code", "length", "cave yield", "crossbar yield"
            )?;
            for report in &self.points {
                writeln!(
                    f,
                    "{:<6} {:>8} {:>11.1}% {:>13.1}%",
                    report.code.kind().label(),
                    report.code.code_length(),
                    report.cave_yield * 100.0,
                    report.crossbar_yield * 100.0
                )?;
            }
        }
        if !self.defect_points.is_empty() {
            writeln!(
                f,
                "defect axis — composite yield under fabrication defects (expected survival)"
            )?;
            writeln!(
                f,
                "{:<6} {:>8} {:>8} {:>8} {:>10} {:>10} {:>11}",
                "code", "length", "break", "stuck", "decoder", "survival", "composite"
            )?;
            for report in &self.defect_points {
                writeln!(
                    f,
                    "{:<6} {:>8} {:>7.2}% {:>7.2}% {:>9.2}% {:>9.2}% {:>10.2}%",
                    report.code.kind().label(),
                    report.code.code_length(),
                    report.defects.nanowire_breakage() * 100.0,
                    report.defects.crosspoint_defect() * 100.0,
                    report.crossbar_yield * 100.0,
                    report.defect_survival * 100.0,
                    report.composite_yield * 100.0
                )?;
            }
        }
        Ok(())
    }
}

/// Fig. 8 — effective bit area per code type and length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Report {
    /// One report per (code, length) point, in row order.
    pub points: Vec<PlatformReport>,
}

impl Fig8Report {
    /// The point with the smallest bit area (the first of equals) — the
    /// paper's headline "169 nm² for the balanced Gray code".
    #[must_use]
    pub fn best(&self) -> Option<&PlatformReport> {
        self.points.iter().min_by(|a, b| {
            a.effective_bit_area
                .partial_cmp(&b.effective_bit_area)
                .expect("finite areas")
        })
    }
}

impl fmt::Display for Fig8Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8 — average area per functional bit")?;
        writeln!(
            f,
            "{:<6} {:>8} {:>14} {:>14}",
            "code", "length", "bit area [nm²]", "crossbar yield"
        )?;
        for report in &self.points {
            writeln!(
                f,
                "{:<6} {:>8} {:>14.1} {:>13.1}%",
                report.code.kind().label(),
                report.code.code_length(),
                report.effective_bit_area,
                report.crossbar_yield * 100.0
            )?;
        }
        if let Some(best) = self.best() {
            writeln!(
                f,
                "best: {} at M = {} with {:.1} nm²",
                best.code.kind().label(),
                best.code.code_length(),
                best.effective_bit_area
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for SensitivitySweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sensitivity to {}:", self.parameter_name)?;
        writeln!(
            f,
            "{:>12} {:>12} {:>12} {:>14} {:>14}",
            "value", "TC yield", "BGC yield", "TC area[nm²]", "BGC area[nm²]"
        )?;
        for point in &self.points {
            writeln!(
                f,
                "{:>12.1} {:>11.1}% {:>11.1}% {:>14.1} {:>14.1}",
                point.parameter,
                point.baseline_yield * 100.0,
                point.optimised_yield * 100.0,
                point.baseline_bit_area,
                point.optimised_bit_area
            )?;
        }
        writeln!(
            f,
            "optimised arrangement wins at every value: {}",
            self.optimised_always_wins()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::ExecutionEngine;
    use crate::sweep::{design_points, variability_map};
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    #[test]
    fn fig5_report_renders_every_point() {
        let base = base().with_nanowires_per_half_cave(10).unwrap();
        let mut configs = Vec::new();
        for radix in [LogicLevel::BINARY, LogicLevel::TERNARY] {
            configs.extend(design_points(
                &base,
                &[CodeKind::Tree, CodeKind::Gray],
                radix,
                &[8],
            ));
        }
        let report = Fig5Report {
            points: ExecutionEngine::serial().reports_for(&configs).unwrap(),
        };
        let text = report.to_string();
        assert!(text.contains("Fig. 5"));
        assert!(text.contains("ternary      GC"));
        assert_eq!(text.lines().count(), 2 + configs.len());
    }

    #[test]
    fn fig6_report_renders_per_digit_profiles() {
        let map_of = |kind: CodeKind| {
            let code = CodeSpec::new(kind, LogicLevel::BINARY, 8).unwrap();
            variability_map(&base().with_code(code)).unwrap()
        };
        let maps = vec![map_of(CodeKind::Tree), map_of(CodeKind::Gray)];
        let report = Fig6Report { maps };
        let text = report.to_string();
        assert!(text.contains("TC (L = 8, N = 20)"));
        assert!(text.contains("GC (L = 8, N = 20)"));
        assert!(text.contains("per-digit mean"));
    }

    #[test]
    fn fig7_report_renders_series() {
        let configs = design_points(
            &base(),
            &[CodeKind::Tree, CodeKind::BalancedGray],
            LogicLevel::BINARY,
            &[6, 8, 10],
        );
        let report = Fig7Report {
            points: ExecutionEngine::serial().reports_for(&configs).unwrap(),
            defect_points: vec![],
        };
        let text = report.to_string();
        assert!(text.contains("Fig. 7"));
        assert!(text.contains("BGC"));
        assert!(text.contains('%'));
        assert!(!text.contains("defect axis"));
        assert_eq!(text.lines().count(), 2 + configs.len());
    }

    #[test]
    fn fig7_report_renders_the_defect_axis() {
        use crate::defect::DefectKind;
        let configs: Vec<SimConfig> = [
            DefectKind::None,
            DefectKind::sampled(0.05, 0.02, 2_009).unwrap(),
        ]
        .into_iter()
        .map(|defects| base().with_defects(defects))
        .collect();
        let report = Fig7Report {
            points: vec![],
            defect_points: ExecutionEngine::serial().reports_for(&configs).unwrap(),
        };
        let text = report.to_string();
        assert!(text.contains("defect axis"));
        assert!(text.contains("survival"));
        assert!(text.contains("composite"));
        // The defect-free row keeps composite == decoder; the defective row
        // loses yield.
        let [clean, defective] = &report.defect_points[..] else {
            panic!("two defect points");
        };
        assert!(defective.composite_yield < defective.crossbar_yield);
        assert_eq!(clean.composite_yield, clean.crossbar_yield);
    }

    #[test]
    fn fig8_report_finds_the_best_bit_area() {
        let configs = design_points(
            &base(),
            &[CodeKind::Tree, CodeKind::BalancedGray],
            LogicLevel::BINARY,
            &[6, 10],
        );
        let report = Fig8Report {
            points: ExecutionEngine::serial().reports_for(&configs).unwrap(),
        };
        let best = report.best().unwrap();
        // The balanced Gray code at the longer length must not lose to the
        // short tree code.
        assert_eq!(best.code.kind(), CodeKind::BalancedGray);
        assert_eq!(best.code.code_length(), 10);
        assert!(report.to_string().contains("best: BGC at M = 10"));
    }

    #[test]
    fn empty_fig8_report_has_no_best() {
        let report = Fig8Report { points: vec![] };
        assert!(report.best().is_none());
    }
}
