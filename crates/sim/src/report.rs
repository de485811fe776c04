//! Figure-shaped reports: the data series of Figs. 5–8 bundled with plain
//! text rendering, so experiments, benches and EXPERIMENTS.md all print the
//! same rows.

use std::fmt;

use serde::{Deserialize, Serialize};

use nanowire_codes::CodeKind;

use crate::sweep::{BitAreaPoint, ComplexityPoint, DefectYieldPoint, VariabilityMap, YieldPoint};

/// Fig. 5 — fabrication complexity per code type and logic radix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Report {
    /// The swept points.
    pub points: Vec<ComplexityPoint>,
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
                point.radix.to_string(),
                point.kind.label(),
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
/// defect axis: composite yield under sampled fabrication defects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Report {
    /// One series per code family (the paper's figure).
    pub series: Vec<(CodeKind, Vec<YieldPoint>)>,
    /// One yield-vs-defect-rate series per code family (empty when the
    /// defect axis was not swept — the paper assumes defect-free arrays).
    pub defect_series: Vec<(CodeKind, Vec<DefectYieldPoint>)>,
}

impl fmt::Display for Fig7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 7 — crossbar yield (fraction of addressable crosspoints)"
        )?;
        if !self.series.is_empty() {
            writeln!(
                f,
                "{:<6} {:>8} {:>12} {:>14}",
                "code", "length", "cave yield", "crossbar yield"
            )?;
            for (kind, points) in &self.series {
                for point in points {
                    writeln!(
                        f,
                        "{:<6} {:>8} {:>11.1}% {:>13.1}%",
                        kind.label(),
                        point.code_length,
                        point.cave_yield * 100.0,
                        point.crossbar_yield * 100.0
                    )?;
                }
            }
        }
        if !self.defect_series.is_empty() {
            writeln!(
                f,
                "defect axis — composite yield under sampled fabrication defects"
            )?;
            writeln!(
                f,
                "{:<6} {:>8} {:>8} {:>8} {:>10} {:>10} {:>11}",
                "code", "length", "break", "stuck", "decoder", "survival", "composite"
            )?;
            for (kind, points) in &self.defect_series {
                for point in points {
                    writeln!(
                        f,
                        "{:<6} {:>8} {:>7.2}% {:>7.2}% {:>9.2}% {:>9.2}% {:>10.2}%",
                        kind.label(),
                        point.code_length,
                        point.defects.nanowire_breakage() * 100.0,
                        point.defects.crosspoint_defect() * 100.0,
                        point.decoder_yield * 100.0,
                        point.defect_survival * 100.0,
                        point.composite_yield * 100.0
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Fig. 8 — effective bit area per code type and length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Report {
    /// One series per code family.
    pub series: Vec<(CodeKind, Vec<BitAreaPoint>)>,
}

impl Fig8Report {
    /// The smallest bit area across every series, with its code and length —
    /// the paper's headline "169 nm² for the balanced Gray code".
    #[must_use]
    pub fn best(&self) -> Option<(CodeKind, usize, f64)> {
        self.series
            .iter()
            .flat_map(|(kind, points)| {
                points
                    .iter()
                    .map(move |p| (*kind, p.code_length, p.bit_area))
            })
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite areas"))
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
        for (kind, points) in &self.series {
            for point in points {
                writeln!(
                    f,
                    "{:<6} {:>8} {:>14.1} {:>13.1}%",
                    kind.label(),
                    point.code_length,
                    point.bit_area,
                    point.crossbar_yield * 100.0
                )?;
            }
        }
        if let Some((kind, length, area)) = self.best() {
            writeln!(
                f,
                "best: {} at M = {length} with {area:.1} nm²",
                kind.label()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::ExecutionEngine;
    use crate::sweep::variability_map;
    use nanowire_codes::{CodeSpec, LogicLevel};

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    #[test]
    fn fig5_report_renders_every_point() {
        let points = ExecutionEngine::serial()
            .complexity_sweep(
                &base(),
                &[CodeKind::Tree, CodeKind::Gray],
                &[LogicLevel::BINARY, LogicLevel::TERNARY],
                8,
                10,
            )
            .unwrap();
        let report = Fig5Report { points };
        let text = report.to_string();
        assert!(text.contains("Fig. 5"));
        assert!(text.contains("ternary"));
        assert!(text.lines().count() >= 6);
    }

    #[test]
    fn fig6_report_renders_per_digit_profiles() {
        let maps = vec![
            variability_map(&base(), CodeKind::Tree, LogicLevel::BINARY, 8, 20).unwrap(),
            variability_map(&base(), CodeKind::Gray, LogicLevel::BINARY, 8, 20).unwrap(),
        ];
        let report = Fig6Report { maps };
        let text = report.to_string();
        assert!(text.contains("TC (L = 8, N = 20)"));
        assert!(text.contains("GC (L = 8, N = 20)"));
        assert!(text.contains("per-digit mean"));
    }

    #[test]
    fn fig7_report_renders_series() {
        let engine = ExecutionEngine::serial();
        let series = vec![
            (
                CodeKind::Tree,
                engine
                    .yield_sweep(&base(), CodeKind::Tree, LogicLevel::BINARY, &[6, 8, 10])
                    .unwrap(),
            ),
            (
                CodeKind::BalancedGray,
                engine
                    .yield_sweep(
                        &base(),
                        CodeKind::BalancedGray,
                        LogicLevel::BINARY,
                        &[6, 8, 10],
                    )
                    .unwrap(),
            ),
        ];
        let report = Fig7Report {
            series,
            defect_series: vec![],
        };
        let text = report.to_string();
        assert!(text.contains("Fig. 7"));
        assert!(text.contains("BGC"));
        assert!(text.contains('%'));
        assert!(!text.contains("defect axis"));
    }

    #[test]
    fn fig7_report_renders_the_defect_axis() {
        use crate::defect::DefectKind;
        let defects = [
            DefectKind::None,
            DefectKind::sampled(0.05, 0.02, 2_009).unwrap(),
        ];
        let points = ExecutionEngine::serial()
            .defect_yield_sweep(&base(), CodeKind::Tree, LogicLevel::BINARY, 8, &defects)
            .unwrap();
        let report = Fig7Report {
            series: vec![],
            defect_series: vec![(CodeKind::Tree, points)],
        };
        let text = report.to_string();
        assert!(text.contains("defect axis"));
        assert!(text.contains("survival"));
        assert!(text.contains("composite"));
        // The defect-free row keeps composite == decoder; the defective row
        // loses yield.
        let defective = &report.defect_series[0].1[1];
        assert!(defective.composite_yield < defective.decoder_yield);
        let clean = &report.defect_series[0].1[0];
        assert_eq!(clean.composite_yield, clean.decoder_yield);
    }

    #[test]
    fn fig8_report_finds_the_best_bit_area() {
        let engine = ExecutionEngine::serial();
        let series = vec![
            (
                CodeKind::Tree,
                engine
                    .bit_area_sweep(&base(), CodeKind::Tree, LogicLevel::BINARY, &[6, 10])
                    .unwrap(),
            ),
            (
                CodeKind::BalancedGray,
                engine
                    .bit_area_sweep(
                        &base(),
                        CodeKind::BalancedGray,
                        LogicLevel::BINARY,
                        &[6, 10],
                    )
                    .unwrap(),
            ),
        ];
        let report = Fig8Report { series };
        let best = report.best().unwrap();
        assert!(best.2 > 0.0);
        // The balanced Gray code at the longer length must not lose to the
        // short tree code.
        assert!(report.to_string().contains("best:"));
    }

    #[test]
    fn empty_fig8_report_has_no_best() {
        let report = Fig8Report { series: vec![] };
        assert!(report.best().is_none());
    }
}
