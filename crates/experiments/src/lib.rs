//! # mspt-experiments
//!
//! The experiment definitions that regenerate every figure of the DAC 2009
//! MSPT-decoder paper, plus the headline numbers quoted in its abstract and
//! conclusions. The binaries in `src/bin/` are thin wrappers that print the
//! reports produced here; integration tests and the benchmark harness call
//! the same functions so every consumer sees identical rows. Every report
//! except Fig. 6 runs on an [`ExecutionEngine`] the caller passes —
//! [`paper_engine`] for the experiments' default — so several reports can
//! share one engine and its report cache.
//!
//! | Experiment | Paper artefact | Function |
//! |---|---|---|
//! | FIG5 | Fig. 5 — fabrication complexity vs code & logic type | [`fig5_report`] |
//! | FIG6 | Fig. 6 — variability maps | [`fig6_report`] |
//! | FIG7 | Fig. 7 — crossbar yield vs code length | [`fig7_report`] |
//! | FIG7D | Beyond the paper — Fig. 7 defect axis (yield vs defect rate) | [`fig7_defects_report`] |
//! | FIG8 | Fig. 8 — bit area vs code type & length | [`fig8_report`] |
//! | HEAD | Abstract / Section 7 headline claims | [`headline_numbers`] |
//! | DIST | Beyond the paper — Monte-Carlo addressability under non-Gaussian disturbances | [`disturbance_report`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use serde::{Deserialize, Serialize};

use decoder_sim::{
    variability_map, DefectKind, DisturbanceKind, EngineConfig, Evaluation, ExecutionEngine,
    Fig5Report, Fig6Report, Fig7Report, Fig8Report, MonteCarloConfig, Result, SimConfig,
    SimulationPlatform, Stage,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// The baseline configuration every experiment starts from: the paper's
/// platform parameters with a placeholder code (each experiment swaps in the
/// codes it sweeps).
///
/// # Errors
///
/// Never fails in practice; propagates configuration validation errors.
pub fn paper_base_config() -> Result<SimConfig> {
    let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8)?;
    SimConfig::paper_defaults(code)
}

/// The execution engine the experiments run on: default knobs (thread count
/// from `MSPT_ENGINE_THREADS` or the machine's available parallelism). Share
/// one engine across several reports to reuse its memoized report cache —
/// Figs. 7 and 8 and the headline numbers revisit the same (kind, length)
/// points.
#[must_use]
pub fn paper_engine() -> ExecutionEngine {
    ExecutionEngine::new(EngineConfig::default())
}

/// Number of nanowires per half cave used by Fig. 5 (fabrication
/// complexity).
pub const FIG5_NANOWIRES: usize = 10;
/// Code length used by Fig. 5.
pub const FIG5_CODE_LENGTH: usize = 8;
/// Number of nanowires per half cave used by Fig. 6 (variability maps).
pub const FIG6_NANOWIRES: usize = 20;
/// Code lengths used by Figs. 6–8 for the tree-code family.
pub const TREE_FAMILY_LENGTHS: [usize; 3] = [6, 8, 10];
/// Code lengths used by Fig. 7 for the hot-code family.
pub const HOT_FAMILY_LENGTHS: [usize; 3] = [4, 6, 8];

/// Regenerates Fig. 5: fabrication complexity of TC and GC for binary,
/// ternary and quaternary logic with `N = 10` nanowires per half cave.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn fig5_report(engine: &ExecutionEngine) -> Result<Fig5Report> {
    let base = paper_base_config()?;
    let points = engine.complexity_sweep(
        &base,
        &[CodeKind::Tree, CodeKind::Gray],
        &[
            LogicLevel::BINARY,
            LogicLevel::TERNARY,
            LogicLevel::QUATERNARY,
        ],
        FIG5_CODE_LENGTH,
        FIG5_NANOWIRES,
    )?;
    Ok(Fig5Report { points })
}

/// Regenerates Fig. 6: the normalised variability maps of binary TC, GC and
/// BGC at code lengths 8 and 10 with `N = 20`.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn fig6_report() -> Result<Fig6Report> {
    let base = paper_base_config()?;
    let mut maps = Vec::new();
    for kind in [CodeKind::Tree, CodeKind::Gray, CodeKind::BalancedGray] {
        for length in [8usize, 10] {
            maps.push(variability_map(
                &base,
                kind,
                LogicLevel::BINARY,
                length,
                FIG6_NANOWIRES,
            )?);
        }
    }
    Ok(Fig6Report { maps })
}

/// Regenerates Fig. 7: crossbar yield against code length for TC/BGC
/// (lengths 6, 8, 10) and HC/AHC (lengths 4, 6, 8).
///
/// # Errors
///
/// Propagates sweep errors.
pub fn fig7_report(engine: &ExecutionEngine) -> Result<Fig7Report> {
    let base = paper_base_config()?;
    let mut series = Vec::new();
    for kind in [CodeKind::Tree, CodeKind::BalancedGray] {
        series.push((
            kind,
            engine.yield_sweep(&base, kind, LogicLevel::BINARY, &TREE_FAMILY_LENGTHS)?,
        ));
    }
    for kind in [CodeKind::Hot, CodeKind::ArrangedHot] {
        series.push((
            kind,
            engine.yield_sweep(&base, kind, LogicLevel::BINARY, &HOT_FAMILY_LENGTHS)?,
        ));
    }
    Ok(Fig7Report {
        series,
        defect_series: vec![],
    })
}

/// Nanowire-breakage rates swept by the `fig7_defects` experiment (the
/// stuck-crosspoint rate rides along at half the breakage rate — switching
/// layers fail less often than high-aspect-ratio spacers break).
pub const DEFECT_RATE_AXIS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.1];

/// Default defect-map seed of the `fig7_defects` experiment (override with
/// the `MSPT_DEFECT_SEED` environment variable in the binary).
pub const FIG7_DEFECT_SEED: u64 = 2_009;

/// The (family, length) pairs the defect axis is swept for: the paper's
/// best-yielding configuration per optimised family, plus the tree-code
/// baseline.
pub const FIG7_DEFECT_CODES: [(CodeKind, usize); 3] = [
    (CodeKind::Tree, 10),
    (CodeKind::BalancedGray, 10),
    (CodeKind::ArrangedHot, 8),
];

/// The defect selections of one `fig7_defects` sweep: [`DefectKind::None`]
/// as the paper baseline, then one sampled selection per
/// [`DEFECT_RATE_AXIS`] rate (breakage = rate, stuck crosspoints = rate/2),
/// all drawing their maps from `seed`.
///
/// # Errors
///
/// Never fails for the built-in axis; propagates rate-validation errors.
pub fn defect_axis(seed: u64) -> Result<Vec<DefectKind>> {
    let mut axis = Vec::with_capacity(DEFECT_RATE_AXIS.len());
    for &rate in &DEFECT_RATE_AXIS {
        axis.push(if rate == 0.0 {
            DefectKind::None
        } else {
            DefectKind::sampled(rate, rate / 2.0, seed)?
        });
    }
    Ok(axis)
}

/// Beyond the paper — Fig. 7's defect axis: composite crossbar yield against
/// the fabrication-defect rate for the best code of each family, with
/// deterministic defect maps sampled from `seed` (the experiment's default
/// is [`FIG7_DEFECT_SEED`]) composed onto the decoder yield.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn fig7_defects_report(engine: &ExecutionEngine, seed: u64) -> Result<Fig7Report> {
    let base = paper_base_config()?;
    let axis = defect_axis(seed)?;
    let mut defect_series = Vec::with_capacity(FIG7_DEFECT_CODES.len());
    for (kind, code_length) in FIG7_DEFECT_CODES {
        defect_series.push((
            kind,
            engine.defect_yield_sweep(&base, kind, LogicLevel::BINARY, code_length, &axis)?,
        ));
    }
    Ok(Fig7Report {
        series: vec![],
        defect_series,
    })
}

/// Regenerates Fig. 8: effective bit area for every code family at lengths
/// 6, 8 and 10 (hot-family lengths 4, 6, 8 are included as well so the HC/AHC
/// bars exist at their valid lengths).
///
/// # Errors
///
/// Propagates sweep errors.
pub fn fig8_report(engine: &ExecutionEngine) -> Result<Fig8Report> {
    let base = paper_base_config()?;
    let mut series = Vec::new();
    for kind in [CodeKind::Tree, CodeKind::Gray, CodeKind::BalancedGray] {
        series.push((
            kind,
            engine.bit_area_sweep(&base, kind, LogicLevel::BINARY, &TREE_FAMILY_LENGTHS)?,
        ));
    }
    for kind in [CodeKind::Hot, CodeKind::ArrangedHot] {
        let mut lengths = HOT_FAMILY_LENGTHS.to_vec();
        lengths.push(10);
        series.push((
            kind,
            engine.bit_area_sweep(&base, kind, LogicLevel::BINARY, &lengths)?,
        ));
    }
    Ok(Fig8Report { series })
}

/// Code length of the disturbance-model comparison (the paper's
/// best-yielding balanced-Gray configuration).
pub const DISTURBANCE_CODE_LENGTH: usize = 10;
/// Monte-Carlo samples per disturbance model in the comparison.
pub const DISTURBANCE_SAMPLES: usize = 4_000;
/// Fixed seed of the disturbance-model comparison — identical across models,
/// so the three estimates are common-random-number comparable where their
/// draw disciplines overlap.
pub const DISTURBANCE_SEED: u64 = 2_009;

/// One row of the disturbance-model comparison: the Monte-Carlo
/// addressability of the platform under one disturbance distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbancePoint {
    /// The sampled disturbance distribution.
    pub kind: DisturbanceKind,
    /// Mean per-nanowire addressability probability.
    pub mean_addressability: f64,
    /// Worst per-nanowire addressability probability.
    pub min_addressability: f64,
}

/// Beyond the paper: the same decoder evaluated under Gaussian, heavy-tailed
/// and correlated dose disturbances — the regimes the analytic model cannot
/// integrate in closed form (see [`disturbance_report`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceReport {
    /// The evaluated code family.
    pub code_kind: CodeKind,
    /// The evaluated code length.
    pub code_length: usize,
    /// Nanowires per half cave.
    pub nanowires: usize,
    /// Monte-Carlo samples per model.
    pub samples: usize,
    /// The analytic (closed-form Gaussian) mean addressability, the anchor
    /// the Gaussian Monte-Carlo row validates against.
    pub analytic_gaussian_mean: f64,
    /// One row per disturbance model.
    pub points: Vec<DisturbancePoint>,
}

impl fmt::Display for DisturbanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Beyond the paper — Monte-Carlo addressability per disturbance model"
        )?;
        writeln!(
            f,
            "{} (M = {}, N = {}), {} samples/model; analytic Gaussian mean: {:.1}%",
            self.code_kind.label(),
            self.code_length,
            self.nanowires,
            self.samples,
            self.analytic_gaussian_mean * 100.0
        )?;
        writeln!(f, "{:<20} {:>10} {:>12}", "model", "mean", "worst wire")?;
        for point in &self.points {
            writeln!(
                f,
                "{:<20} {:>9.1}% {:>11.1}%",
                point.kind.to_string(),
                point.mean_addressability * 100.0,
                point.min_addressability * 100.0
            )?;
        }
        Ok(())
    }
}

/// Compares the Monte-Carlo addressability of the paper's best
/// balanced-Gray decoder under the three stock disturbance models —
/// Gaussian (validating the analytic integration), heavy-tailed Laplace,
/// and correlated inter-region noise with half the variance shared per
/// nanowire. Same seed and sample count for every model.
///
/// # Errors
///
/// Propagates configuration and sampling errors.
pub fn disturbance_report(engine: &ExecutionEngine) -> Result<DisturbanceReport> {
    let code_kind = CodeKind::BalancedGray;
    let code = CodeSpec::new(code_kind, LogicLevel::BINARY, DISTURBANCE_CODE_LENGTH)?;
    let base = paper_base_config()?.with_code(code);
    let analytic_gaussian_mean = SimulationPlatform::new(base.clone())
        .addressability()?
        .mean();
    let mc = MonteCarloConfig::fixed(DISTURBANCE_SAMPLES, DISTURBANCE_SEED);
    let mut points = Vec::new();
    for kind in [
        DisturbanceKind::Gaussian,
        DisturbanceKind::Laplace,
        DisturbanceKind::Correlated {
            shared_fraction: 0.5,
        },
    ] {
        // One builder run per distribution. The disturbance kind is outside
        // the variability stage's read set, so the engine's stage cache
        // derives the variability matrix once and serves the second and
        // third models from the memo slot — only the sampling pass re-runs
        // per row.
        let outcome = Evaluation::builder(base.clone().with_disturbance(kind))
            .stages(&[Stage::MonteCarlo])
            .monte_carlo(mc)
            .run(engine)?
            .monte_carlo
            .expect("the Monte-Carlo stage was requested");
        let probabilities = outcome.profile.probabilities();
        points.push(DisturbancePoint {
            kind,
            mean_addressability: outcome.profile.mean(),
            min_addressability: probabilities.iter().copied().fold(f64::INFINITY, f64::min),
        });
    }
    Ok(DisturbanceReport {
        code_kind,
        code_length: DISTURBANCE_CODE_LENGTH,
        nanowires: base.nanowires_per_half_cave(),
        samples: DISTURBANCE_SAMPLES,
        analytic_gaussian_mean,
        points,
    })
}

/// The serving-layer stress mix: every Fig. 7/8 sweep configuration (the
/// four code families at their valid lengths) plus one Laplace-disturbance
/// variant and one sampled-defect variant. The Laplace override hits the
/// Gaussian BGC entry (no report stage reads the disturbance kind); the
/// defect override keys its own entry and exercises the engine's sharded
/// defect-map sampling under concurrent load. This is the
/// repeated-`SimConfig` workload the shared warm cache is built for — the
/// request population of the `serve_stress` binary and the CI serving gate.
///
/// # Errors
///
/// Propagates configuration validation errors (none occur for the paper's
/// parameters).
pub fn stress_mix() -> Result<Vec<mspt_serve::ReportRequest>> {
    use mspt_serve::ReportRequest;
    let base = paper_base_config()?;
    let mut mix = Vec::new();
    for (kind, lengths) in [
        (CodeKind::Tree, &TREE_FAMILY_LENGTHS),
        (CodeKind::BalancedGray, &TREE_FAMILY_LENGTHS),
        (CodeKind::Hot, &HOT_FAMILY_LENGTHS),
        (CodeKind::ArrangedHot, &HOT_FAMILY_LENGTHS),
    ] {
        for &length in lengths {
            let code = CodeSpec::new(kind, LogicLevel::BINARY, length)?;
            mix.push(ReportRequest::new(base.clone().with_code(code)));
        }
    }
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10)?;
    mix.push(
        ReportRequest::builder(base.clone().with_code(code))
            .disturbance(DisturbanceKind::Laplace)
            .build(),
    );
    mix.push(
        ReportRequest::builder(base.with_code(code))
            .defects(DefectKind::sampled(0.02, 0.01, FIG7_DEFECT_SEED)?)
            .build(),
    );
    Ok(mix)
}

/// The headline numbers of the abstract and Section 7, computed from the same
/// sweeps that regenerate the figures. All values are fractions (0.17 means
/// 17 %), except the two bit areas which are in nm².
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadlineNumbers {
    /// Fabrication-complexity saving of GC over TC for ternary logic
    /// (paper: ~17 %).
    pub gray_complexity_saving_ternary: f64,
    /// Fabrication-complexity saving of GC over TC for quaternary logic.
    pub gray_complexity_saving_quaternary: f64,
    /// Average-variability reduction of BGC over TC at N = 20
    /// (paper: ~18 %).
    pub bgc_variability_reduction: f64,
    /// Relative yield gain of the tree code when the length grows from 6 to
    /// 10 (paper: ~40 %).
    pub tc_yield_gain_6_to_10: f64,
    /// Relative yield gain of the arranged hot code when the length grows
    /// from 4 to 8 (paper: ~40 %).
    pub ahc_yield_gain_4_to_8: f64,
    /// Relative yield gain of BGC over TC at length 8 (paper: ~42 %).
    pub bgc_vs_tc_yield_gain_at_8: f64,
    /// Relative yield gain of AHC over HC at length 8 (paper: ~19 %).
    pub ahc_vs_hc_yield_gain_at_8: f64,
    /// Bit-area saving of the tree code when the length grows from 6 to 10
    /// (paper: ~51 %).
    pub tc_bit_area_saving_6_to_10: f64,
    /// Density gain (bits per area) of BGC over TC at length 8
    /// (paper: ~30 %).
    pub bgc_vs_tc_density_gain_at_8: f64,
    /// Bit-area saving of AHC over HC at length 6 (paper: ~13 %).
    pub ahc_vs_hc_area_saving_at_6: f64,
    /// Smallest bit area reached by the balanced Gray code, nm²
    /// (paper: ~169 nm²).
    pub best_bgc_bit_area: f64,
    /// Smallest bit area reached by the arranged hot code, nm²
    /// (paper: ~175 nm²).
    pub best_ahc_bit_area: f64,
}

impl fmt::Display for HeadlineNumbers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Headline numbers (paper value in parentheses)")?;
        writeln!(
            f,
            "GC vs TC fabrication-step saving, ternary:    {:5.1}%  (17%)",
            self.gray_complexity_saving_ternary * 100.0
        )?;
        writeln!(
            f,
            "GC vs TC fabrication-step saving, quaternary: {:5.1}%  (~20%)",
            self.gray_complexity_saving_quaternary * 100.0
        )?;
        writeln!(
            f,
            "BGC vs TC average-variability reduction:      {:5.1}%  (18%)",
            self.bgc_variability_reduction * 100.0
        )?;
        writeln!(
            f,
            "TC yield gain, code length 6 -> 10:            {:5.1}%  (~40%)",
            self.tc_yield_gain_6_to_10 * 100.0
        )?;
        writeln!(
            f,
            "AHC yield gain, code length 4 -> 8:            {:5.1}%  (~40%)",
            self.ahc_yield_gain_4_to_8 * 100.0
        )?;
        writeln!(
            f,
            "BGC vs TC yield gain at M = 8:                 {:5.1}%  (42%)",
            self.bgc_vs_tc_yield_gain_at_8 * 100.0
        )?;
        writeln!(
            f,
            "AHC vs HC yield gain at M = 8:                 {:5.1}%  (19%)",
            self.ahc_vs_hc_yield_gain_at_8 * 100.0
        )?;
        writeln!(
            f,
            "TC bit-area saving, code length 6 -> 10:       {:5.1}%  (51%)",
            self.tc_bit_area_saving_6_to_10 * 100.0
        )?;
        writeln!(
            f,
            "BGC vs TC density gain at M = 8:               {:5.1}%  (30%)",
            self.bgc_vs_tc_density_gain_at_8 * 100.0
        )?;
        writeln!(
            f,
            "AHC vs HC bit-area saving at M = 6:            {:5.1}%  (13%)",
            self.ahc_vs_hc_area_saving_at_6 * 100.0
        )?;
        writeln!(
            f,
            "Best BGC bit area:                             {:5.1} nm² (169 nm²)",
            self.best_bgc_bit_area
        )?;
        writeln!(
            f,
            "Best AHC bit area:                             {:5.1} nm² (175 nm²)",
            self.best_ahc_bit_area
        )?;
        Ok(())
    }
}

/// Computes every headline number from the figure sweeps. The headline
/// numbers revisit the Fig. 7 and Fig. 8 sweep points, so the engine's
/// memoized report cache (and any cache warmed by earlier figure reports on
/// the same engine) evaluates each distinct (kind, length) configuration
/// once.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn headline_numbers(engine: &ExecutionEngine) -> Result<HeadlineNumbers> {
    let base = paper_base_config()?;

    // Fig. 5 inputs: complexity of TC vs GC at higher radices.
    let complexity = engine.complexity_sweep(
        &base,
        &[CodeKind::Tree, CodeKind::Gray],
        &[LogicLevel::TERNARY, LogicLevel::QUATERNARY],
        FIG5_CODE_LENGTH,
        FIG5_NANOWIRES,
    )?;
    let phi = |kind: CodeKind, radix: LogicLevel| -> f64 {
        complexity
            .iter()
            .find(|p| p.kind == kind && p.radix == radix)
            .map(|p| p.fabrication_steps as f64)
            .unwrap_or(f64::NAN)
    };
    let saving = |radix: LogicLevel| -> f64 {
        let tc = phi(CodeKind::Tree, radix);
        let gc = phi(CodeKind::Gray, radix);
        (tc - gc) / tc
    };

    // Fig. 6 inputs: mean variability of TC vs BGC at N = 20, averaged over
    // the two lengths the paper plots.
    let mean_variability = |kind: CodeKind| -> Result<f64> {
        let mut total = 0.0;
        for length in [8usize, 10] {
            total += variability_map(&base, kind, LogicLevel::BINARY, length, FIG6_NANOWIRES)?
                .mean_variability;
        }
        Ok(total / 2.0)
    };
    let tc_variability = mean_variability(CodeKind::Tree)?;
    let bgc_variability = mean_variability(CodeKind::BalancedGray)?;

    // Fig. 7 inputs.
    let tc_yield = engine.yield_sweep(
        &base,
        CodeKind::Tree,
        LogicLevel::BINARY,
        &TREE_FAMILY_LENGTHS,
    )?;
    let bgc_yield = engine.yield_sweep(
        &base,
        CodeKind::BalancedGray,
        LogicLevel::BINARY,
        &TREE_FAMILY_LENGTHS,
    )?;
    let hc_yield = engine.yield_sweep(
        &base,
        CodeKind::Hot,
        LogicLevel::BINARY,
        &HOT_FAMILY_LENGTHS,
    )?;
    let ahc_yield = engine.yield_sweep(
        &base,
        CodeKind::ArrangedHot,
        LogicLevel::BINARY,
        &HOT_FAMILY_LENGTHS,
    )?;
    let yield_at = |points: &[decoder_sim::YieldPoint], length: usize| -> f64 {
        points
            .iter()
            .find(|p| p.code_length == length)
            .map(|p| p.crossbar_yield)
            .unwrap_or(f64::NAN)
    };

    // Fig. 8 inputs (cache hits: the same configurations the yield sweeps
    // above just evaluated).
    let tc_area = engine.bit_area_sweep(
        &base,
        CodeKind::Tree,
        LogicLevel::BINARY,
        &TREE_FAMILY_LENGTHS,
    )?;
    let bgc_area = engine.bit_area_sweep(
        &base,
        CodeKind::BalancedGray,
        LogicLevel::BINARY,
        &[6, 8, 10],
    )?;
    let hc_area = engine.bit_area_sweep(
        &base,
        CodeKind::Hot,
        LogicLevel::BINARY,
        &HOT_FAMILY_LENGTHS,
    )?;
    let ahc_area = engine.bit_area_sweep(
        &base,
        CodeKind::ArrangedHot,
        LogicLevel::BINARY,
        &HOT_FAMILY_LENGTHS,
    )?;
    let area_at = |points: &[decoder_sim::BitAreaPoint], length: usize| -> f64 {
        points
            .iter()
            .find(|p| p.code_length == length)
            .map(|p| p.bit_area)
            .unwrap_or(f64::NAN)
    };
    let best_area = |points: &[decoder_sim::BitAreaPoint]| -> f64 {
        points
            .iter()
            .map(|p| p.bit_area)
            .fold(f64::INFINITY, f64::min)
    };

    Ok(HeadlineNumbers {
        gray_complexity_saving_ternary: saving(LogicLevel::TERNARY),
        gray_complexity_saving_quaternary: saving(LogicLevel::QUATERNARY),
        bgc_variability_reduction: (tc_variability - bgc_variability) / tc_variability,
        tc_yield_gain_6_to_10: (yield_at(&tc_yield, 10) - yield_at(&tc_yield, 6))
            / yield_at(&tc_yield, 6),
        ahc_yield_gain_4_to_8: (yield_at(&ahc_yield, 8) - yield_at(&ahc_yield, 4))
            / yield_at(&ahc_yield, 4),
        bgc_vs_tc_yield_gain_at_8: (yield_at(&bgc_yield, 8) - yield_at(&tc_yield, 8))
            / yield_at(&tc_yield, 8),
        ahc_vs_hc_yield_gain_at_8: (yield_at(&ahc_yield, 8) - yield_at(&hc_yield, 8))
            / yield_at(&hc_yield, 8),
        tc_bit_area_saving_6_to_10: (area_at(&tc_area, 6) - area_at(&tc_area, 10))
            / area_at(&tc_area, 6),
        bgc_vs_tc_density_gain_at_8: area_at(&tc_area, 8) / area_at(&bgc_area, 8) - 1.0,
        ahc_vs_hc_area_saving_at_6: (area_at(&hc_area, 6) - area_at(&ahc_area, 6))
            / area_at(&hc_area, 6),
        best_bgc_bit_area: best_area(&bgc_area),
        best_ahc_bit_area: best_area(&ahc_area),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_has_six_points_with_the_expected_ordering() {
        let report = fig5_report(&paper_engine()).unwrap();
        assert_eq!(report.points.len(), 6);
        let phi = |kind: CodeKind, radix: LogicLevel| {
            report
                .points
                .iter()
                .find(|p| p.kind == kind && p.radix == radix)
                .unwrap()
                .fabrication_steps
        };
        assert_eq!(phi(CodeKind::Tree, LogicLevel::BINARY), 20);
        assert!(
            phi(CodeKind::Gray, LogicLevel::TERNARY) <= phi(CodeKind::Tree, LogicLevel::TERNARY)
        );
    }

    #[test]
    fn fig6_has_six_panels() {
        let report = fig6_report().unwrap();
        assert_eq!(report.maps.len(), 6);
        assert!(report.maps.iter().all(|m| m.nanowires == 20));
    }

    #[test]
    fn fig7_series_cover_four_families() {
        let report = fig7_report(&paper_engine()).unwrap();
        assert_eq!(report.series.len(), 4);
        for (_, points) in &report.series {
            assert_eq!(points.len(), 3);
        }
    }

    #[test]
    fn fig7_defects_covers_the_rate_axis_and_degrades_monotonically() {
        let report = fig7_defects_report(&paper_engine(), FIG7_DEFECT_SEED).unwrap();
        assert!(report.series.is_empty());
        assert_eq!(report.defect_series.len(), FIG7_DEFECT_CODES.len());
        for (kind, points) in &report.defect_series {
            assert_eq!(points.len(), DEFECT_RATE_AXIS.len());
            // The rate-0 baseline is the paper's defect-free yield...
            assert_eq!(points[0].defects, DefectKind::None);
            assert_eq!(points[0].defect_survival, 1.0);
            assert_eq!(points[0].composite_yield, points[0].decoder_yield);
            // ...and the composite yield falls as the defect rate grows
            // (sampled maps, but the axis steps are far above the sampling
            // noise of a 363×363 map).
            for pair in points.windows(2) {
                assert!(
                    pair[1].composite_yield < pair[0].composite_yield,
                    "{kind:?}: composite yield did not fall from {:?} to {:?}",
                    pair[0].defects,
                    pair[1].defects
                );
            }
            // The decoder yield is the same defect-free quantity at every
            // point of a series.
            for point in points {
                assert_eq!(point.decoder_yield, points[0].decoder_yield);
            }
        }
        let text = report.to_string();
        assert!(text.contains("defect axis"));
        assert!(text.contains("BGC"));
    }

    #[test]
    fn stress_mix_exercises_disturbance_and_defect_keying() {
        let mix = stress_mix().unwrap();
        assert!(mix.iter().any(|request| request.disturbance.is_some()));
        assert!(mix.iter().any(|request| request.defects.is_some()));
    }

    #[test]
    fn fig8_best_is_an_optimised_code() {
        let report = fig8_report(&paper_engine()).unwrap();
        let (kind, _, area) = report.best().unwrap();
        assert!(kind.is_optimised(), "best code {kind:?}");
        assert!(area > 100.0 && area < 300.0, "best bit area {area}");
    }

    #[test]
    fn disturbance_report_compares_the_three_stock_models() {
        let report = disturbance_report(&paper_engine()).unwrap();
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.points[0].kind, DisturbanceKind::Gaussian);
        for point in &report.points {
            assert!(point.mean_addressability > 0.0 && point.mean_addressability <= 1.0);
            assert!(point.min_addressability <= point.mean_addressability);
        }
        // The Gaussian Monte-Carlo row validates the analytic integration.
        assert!(
            (report.points[0].mean_addressability - report.analytic_gaussian_mean).abs() < 0.02,
            "Monte-Carlo {} vs analytic {}",
            report.points[0].mean_addressability,
            report.analytic_gaussian_mean
        );
        // The non-Gaussian rows genuinely sample different distributions.
        assert_ne!(
            report.points[0].mean_addressability,
            report.points[1].mean_addressability
        );
        let text = report.to_string();
        assert!(text.contains("laplace"));
        assert!(text.contains("correlated(ρ=0.50)"));
        assert!(text.contains("worst wire"));
    }

    #[test]
    fn headline_numbers_have_the_papers_signs_and_orders() {
        let headline = headline_numbers(&paper_engine()).unwrap();
        // Savings and gains must all be positive (the optimised codes win).
        assert!(headline.gray_complexity_saving_ternary > 0.05);
        assert!(headline.gray_complexity_saving_quaternary > 0.05);
        assert!(headline.bgc_variability_reduction > 0.05);
        assert!(headline.tc_yield_gain_6_to_10 > 0.1);
        assert!(headline.ahc_yield_gain_4_to_8 > 0.0);
        assert!(headline.bgc_vs_tc_yield_gain_at_8 > 0.0);
        assert!(headline.ahc_vs_hc_yield_gain_at_8 > 0.0);
        assert!(headline.tc_bit_area_saving_6_to_10 > 0.1);
        assert!(headline.bgc_vs_tc_density_gain_at_8 > 0.0);
        assert!(headline.ahc_vs_hc_area_saving_at_6 > 0.0);
        // The best optimised-code bit areas land in the paper's ballpark.
        assert!(headline.best_bgc_bit_area > 120.0 && headline.best_bgc_bit_area < 260.0);
        assert!(headline.best_ahc_bit_area > 120.0 && headline.best_ahc_bit_area < 280.0);
        // Rendering mentions the paper values.
        let text = headline.to_string();
        assert!(text.contains("169 nm²"));
        assert!(text.contains("(42%)"));
    }
}
