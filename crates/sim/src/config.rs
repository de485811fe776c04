//! Simulation configuration: the parameters of the paper's Section 6.1
//! platform, with the paper's values as defaults.

use serde::{Deserialize, Serialize};

use crossbar_array::{CrossbarSpec, LayoutRules, PAPER_RAW_BITS};
use device_physics::{DopingLadder, ThresholdModel, VariabilityModel, Volts};
use nanowire_codes::{CodeBudgets, CodeSpec};

use crate::defect::DefectKind;
use crate::disturbance::DisturbanceKind;
use crate::error::{Result, SimError};
use crate::schema::{blank_code, Field, Record, Wire};

/// The largest [`SimConfig::nanowires_per_half_cave`] a configuration
/// accepts. A half cave of `N` nanowires takes `N` code words and an
/// `N`-row variability matrix, so the bound keeps one configuration from a
/// client from allocating or computing without limit; the paper's figures
/// use at most 40.
pub const MAX_NANOWIRES_PER_HALF_CAVE: usize = 1_024;

/// Checks a half-cave size against `1..=MAX_NANOWIRES_PER_HALF_CAVE`.
fn check_nanowires_per_half_cave(nanowires: usize) -> Result<()> {
    if nanowires == 0 || nanowires > MAX_NANOWIRES_PER_HALF_CAVE {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "nanowires per half cave must be in 1..={MAX_NANOWIRES_PER_HALF_CAVE}, got {nanowires}"
            ),
        });
    }
    Ok(())
}

/// Full configuration of one decoder/crossbar simulation.
///
/// # Examples
///
/// ```
/// use decoder_sim::SimConfig;
/// use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10)?;
/// let config = SimConfig::paper_defaults(code)?;
/// assert_eq!(config.nanowires_per_half_cave(), 20);
/// assert_eq!(config.raw_bits(), 16 * 1024 * 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    code: CodeSpec,
    nanowires_per_half_cave: usize,
    raw_bits: u64,
    layout: LayoutRules,
    threshold_model: ThresholdModel,
    sigma_per_dose: Volts,
    supply_range: (Volts, Volts),
    window_override: Option<Volts>,
    // Defaulted so configurations serialized before this field existed
    // still deserialize (Gaussian is exactly the pre-field behaviour).
    #[serde(default)]
    disturbance: DisturbanceKind,
    // Defaulted for the same reason: None is exactly the pre-field
    // (defect-free) behaviour.
    #[serde(default)]
    defects: DefectKind,
}

impl SimConfig {
    /// Creates a configuration with the paper's platform parameters:
    /// 16 kB raw density, `P_L = 32 nm`, `P_N = 10 nm`, `σ_T = 50 mV`,
    /// thresholds spread over 0–1 V, and 20 nanowires per half cave — the
    /// half-cave size the paper's own variability analysis uses (Fig. 6),
    /// consistent with caves defined by the same lithography generation as
    /// the 32 nm mesowires rather than the 0.8 µm academic process.
    ///
    /// # Errors
    ///
    /// Never fails for a valid [`CodeSpec`]; kept fallible for API
    /// consistency with [`SimConfig::new`].
    pub fn paper_defaults(code: CodeSpec) -> Result<Self> {
        Ok(SimConfig::paper(code))
    }

    /// The paper's platform for `code`, valid by construction.
    fn paper(code: CodeSpec) -> SimConfig {
        SimConfig {
            code,
            nanowires_per_half_cave: 20,
            raw_bits: PAPER_RAW_BITS,
            layout: LayoutRules::paper_default(),
            threshold_model: ThresholdModel::default_mspt(),
            sigma_per_dose: Volts::from_millivolts(50.0),
            supply_range: (Volts::new(0.0), Volts::new(1.0)),
            window_override: None,
            disturbance: DisturbanceKind::default(),
            defects: DefectKind::default(),
        }
    }

    /// Creates a fully explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the nanowire count is zero or
    /// above [`MAX_NANOWIRES_PER_HALF_CAVE`], the raw capacity is zero, the
    /// supply range is degenerate, or σ_T is negative.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        code: CodeSpec,
        nanowires_per_half_cave: usize,
        raw_bits: u64,
        layout: LayoutRules,
        threshold_model: ThresholdModel,
        sigma_per_dose: Volts,
        supply_range: (Volts, Volts),
    ) -> Result<Self> {
        let config = SimConfig {
            code,
            nanowires_per_half_cave,
            raw_bits,
            layout,
            threshold_model,
            sigma_per_dose,
            supply_range,
            ..SimConfig::paper(code)
        };
        config.check()?;
        Ok(config)
    }

    /// The configuration a decoder starts from: the paper defaults, whose
    /// defect-free selection is the default of the field added after the
    /// JSON format shipped.
    pub(crate) fn blank() -> SimConfig {
        SimConfig::paper(blank_code())
    }

    /// The checks [`SimConfig::new`] runs over its arguments jointly.
    fn check(&self) -> Result<()> {
        check_nanowires_per_half_cave(self.nanowires_per_half_cave)?;
        if self.raw_bits == 0 {
            return Err(SimError::InvalidConfig {
                reason: "raw capacity must be positive".to_string(),
            });
        }
        let (low, high) = self.supply_range;
        // `partial_cmp` keeps NaN bounds on the error path (NaN is not
        // Greater), matching the previous negated comparison.
        if high.value().partial_cmp(&low.value()) != Some(std::cmp::Ordering::Greater) {
            return Err(SimError::InvalidConfig {
                reason: format!("supply range [{low}, {high}] is degenerate"),
            });
        }
        if self.sigma_per_dose.value() < 0.0 {
            return Err(SimError::InvalidConfig {
                reason: format!("σ_T must be non-negative, got {}", self.sigma_per_dose),
            });
        }
        Ok(())
    }

    /// Replaces the code specification, keeping every other parameter — the
    /// operation parameter sweeps perform for every point.
    #[must_use]
    pub fn with_code(mut self, code: CodeSpec) -> Self {
        self.code = code;
        self
    }

    /// Replaces the layout rules, keeping every other parameter — the
    /// operation the contact-alignment sensitivity sweep performs for every
    /// point.
    #[must_use]
    pub fn with_layout(mut self, layout: LayoutRules) -> Self {
        self.layout = layout;
        self
    }

    /// Overrides the number of nanowires per half cave.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the count is zero or above
    /// [`MAX_NANOWIRES_PER_HALF_CAVE`].
    pub fn with_nanowires_per_half_cave(mut self, nanowires: usize) -> Result<Self> {
        check_nanowires_per_half_cave(nanowires)?;
        self.nanowires_per_half_cave = nanowires;
        Ok(self)
    }

    /// Overrides the per-dose threshold-voltage deviation σ_T.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a negative deviation.
    pub fn with_sigma_per_dose(mut self, sigma: Volts) -> Result<Self> {
        if sigma.value() < 0.0 {
            return Err(SimError::InvalidConfig {
                reason: format!("σ_T must be non-negative, got {sigma}"),
            });
        }
        self.sigma_per_dose = sigma;
        Ok(self)
    }

    /// Overrides the addressability decision window (defaults to half the
    /// threshold-level separation).
    #[must_use]
    pub fn with_window(mut self, window: Volts) -> Self {
        self.window_override = Some(window);
        self
    }

    /// Selects the dose-disturbance distribution the Monte-Carlo path
    /// samples under (defaults to [`DisturbanceKind::Gaussian`], the only
    /// distribution the analytic path can integrate in closed form).
    #[must_use]
    pub fn with_disturbance(mut self, disturbance: DisturbanceKind) -> Self {
        self.disturbance = disturbance;
        self
    }

    /// Selects the fabrication-defect model the evaluation composes with
    /// the decoder yield (defaults to [`DefectKind::None`], the paper's
    /// defect-free assumption). The selection is part of the configuration's
    /// identity and every report reads it: defect-free and defective runs
    /// never alias in the report cache or on disk.
    #[must_use]
    pub fn with_defects(mut self, defects: DefectKind) -> Self {
        self.defects = defects;
        self
    }

    /// The code specification under evaluation.
    #[must_use]
    pub fn code(&self) -> CodeSpec {
        self.code
    }

    /// The number of nanowires per half cave `N`.
    #[must_use]
    pub fn nanowires_per_half_cave(&self) -> usize {
        self.nanowires_per_half_cave
    }

    /// The raw crosspoint capacity `D_RAW` in bits.
    #[must_use]
    pub fn raw_bits(&self) -> u64 {
        self.raw_bits
    }

    /// The layout rules.
    #[must_use]
    pub fn layout(&self) -> &LayoutRules {
        &self.layout
    }

    /// The threshold-voltage model.
    #[must_use]
    pub fn threshold_model(&self) -> &ThresholdModel {
        &self.threshold_model
    }

    /// The per-dose threshold-voltage deviation σ_T.
    #[must_use]
    pub fn sigma_per_dose(&self) -> Volts {
        self.sigma_per_dose
    }

    /// The supply-voltage range over which threshold levels are spread.
    #[must_use]
    pub fn supply_range(&self) -> (Volts, Volts) {
        self.supply_range
    }

    /// The search budgets every code is generated with: always
    /// [`CodeBudgets::default`], the most the balanced-Gray search accepts.
    /// They are not part of a configuration, so no request can lower a
    /// budget and be served a budget-starved fallback under the family's
    /// name.
    #[must_use]
    pub fn code_budgets(&self) -> CodeBudgets {
        CodeBudgets::default()
    }

    /// The dose-disturbance distribution of the Monte-Carlo path.
    #[must_use]
    pub fn disturbance(&self) -> DisturbanceKind {
        self.disturbance
    }

    /// The fabrication-defect selection of the evaluation.
    #[must_use]
    pub fn defects(&self) -> DefectKind {
        self.defects
    }

    /// The crossbar specification implied by this configuration.
    ///
    /// # Errors
    ///
    /// Propagates crossbar-specification errors. For a validated
    /// configuration only a `raw_bits` whose square array's crosspoint count
    /// overflows a `u64` fails.
    pub fn crossbar_spec(&self) -> Result<CrossbarSpec> {
        Ok(CrossbarSpec::new(
            self.raw_bits,
            self.nanowires_per_half_cave,
            self.layout,
        )?)
    }

    /// The variability model implied by σ_T.
    ///
    /// # Errors
    ///
    /// Propagates device-physics validation errors.
    pub fn variability_model(&self) -> Result<VariabilityModel> {
        Ok(VariabilityModel::new(self.sigma_per_dose)?)
    }

    /// The doping ladder implied by the code radix, threshold model and
    /// supply range.
    ///
    /// # Errors
    ///
    /// Propagates device-physics errors (unreachable thresholds).
    pub fn doping_ladder(&self) -> Result<DopingLadder> {
        Ok(DopingLadder::from_model(
            &self.threshold_model,
            self.code.radix().radix_usize(),
            self.supply_range,
        )?)
    }

    /// The explicit decision-window override, when one was set with
    /// [`SimConfig::with_window`] (the serializer needs the raw option to
    /// round-trip a configuration without forcing the derived default).
    #[must_use]
    pub fn window_override(&self) -> Option<Volts> {
        self.window_override
    }

    /// The addressability decision window: the explicit override if set,
    /// otherwise the ladder's [`DopingLadder::window_half_width`].
    ///
    /// The window is the **half-width** of the decision interval — a doping
    /// region is in-window iff `|ΔV_T| ≤ window`. Both the analytic path
    /// (`AddressabilityProfile::from_variability`) and the Monte-Carlo
    /// validator consume this same convention.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a NaN or negative override
    /// (`-0.0` passes), or propagates device-physics errors from ladder
    /// construction.
    pub fn decision_window(&self) -> Result<Volts> {
        match self.window_override {
            Some(window) => check_window(window),
            None => Ok(self.doping_ladder()?.window_half_width()),
        }
    }

    /// [`SimConfig::decision_window`] with the ladder's half-width already
    /// at hand (the variability stage carries it), so the ladder is not
    /// solved again.
    pub(crate) fn decision_window_given(&self, ladder_window: Volts) -> Result<Volts> {
        match self.window_override {
            Some(window) => check_window(window),
            None => Ok(ladder_window),
        }
    }
}

/// Rejects a NaN or negative decision-window half-width: `NaN < 0.0` is
/// false, and a NaN window would otherwise reject every region silently.
/// `-0.0` passes.
pub(crate) fn check_window(window: Volts) -> Result<Volts> {
    if window.value().is_nan() || window.value() < 0.0 {
        return Err(SimError::InvalidConfig {
            reason: format!("decision window must be non-negative, got {window}"),
        });
    }
    Ok(window)
}

/// The configuration's wire fields, in [`ConfigField`](crate::ConfigField)
/// order: a field's stage-key bytes are its binary encoding here. The list
/// sits beside the private fields it visits.
impl Record for SimConfig {
    /// The code-search budgets, which every configuration now leaves at
    /// their defaults, and the Monte-Carlo sampling knobs, which no report
    /// read.
    const RETIRED: &'static [Field] = &[
        Field::section("code_budgets", 0x07),
        Field::section("monte_carlo", 0x0a),
    ];

    fn fields<W: Wire>(&mut self, wire: &mut W) -> Result<()> {
        wire.field(Field::section("code", 0x01), &mut self.code)?;
        wire.field(
            Field::section("nanowires_per_half_cave", 0x02),
            &mut self.nanowires_per_half_cave,
        )?;
        wire.field(Field::section("raw_bits", 0x02), &mut self.raw_bits)?;
        wire.field(Field::section("layout", 0x03), &mut self.layout)?;
        wire.field(
            Field::section("threshold_model", 0x04),
            &mut self.threshold_model,
        )?;
        wire.field(
            Field::section("sigma_per_dose_v", 0x05),
            &mut self.sigma_per_dose,
        )?;
        wire.field(
            Field::section("supply_range_v", 0x05),
            &mut self.supply_range,
        )?;
        wire.when_set(
            Field::section("window_override_v", 0x06),
            &mut self.window_override,
        )?;
        wire.field(Field::section("disturbance", 0x08), &mut self.disturbance)?;
        // Added after the JSON format shipped; the default is defect-free.
        wire.field(
            Field::section("defects", 0x09).json_default(),
            &mut self.defects,
        )
    }

    /// Runs the joint checks of [`SimConfig::new`] over a decoded
    /// configuration; its nested records validated themselves as they were
    /// decoded.
    fn finish(&mut self) -> Result<()> {
        self.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionEngine;
    use crate::monte_carlo::MonteCarloConfig;
    use crate::platform::SimulationPlatform;
    use nanowire_codes::{CodeKind, LogicLevel};

    fn code() -> CodeSpec {
        CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap()
    }

    #[test]
    fn paper_defaults_match_section_6_1() {
        let config = SimConfig::paper_defaults(code()).unwrap();
        assert_eq!(config.nanowires_per_half_cave(), 20);
        assert_eq!(config.raw_bits(), 131_072);
        assert_eq!(config.sigma_per_dose(), Volts::from_millivolts(50.0));
        assert_eq!(config.layout().litho_pitch().value(), 32.0);
        assert_eq!(config.layout().nanowire_pitch().value(), 10.0);
        assert_eq!(config.supply_range().1.value(), 1.0);
        // Binary levels at 0.25/0.75 V -> window half-width 0.25 V.
        assert!((config.decision_window().unwrap().value() - 0.25).abs() < 1e-9);
        assert_eq!(config.code(), code());
    }

    #[test]
    fn half_cave_sizes_are_bounded() {
        let base = SimConfig::paper_defaults(code()).unwrap();
        let explicit = |nanowires| {
            SimConfig::new(
                code(),
                nanowires,
                PAPER_RAW_BITS,
                LayoutRules::paper_default(),
                ThresholdModel::default_mspt(),
                Volts::from_millivolts(50.0),
                (Volts::new(0.0), Volts::new(1.0)),
            )
        };
        let at_bound = base
            .clone()
            .with_nanowires_per_half_cave(MAX_NANOWIRES_PER_HALF_CAVE)
            .unwrap();
        assert_eq!(
            at_bound.nanowires_per_half_cave(),
            MAX_NANOWIRES_PER_HALF_CAVE
        );
        assert_eq!(explicit(MAX_NANOWIRES_PER_HALF_CAVE).unwrap(), at_bound);
        for nanowires in [MAX_NANOWIRES_PER_HALF_CAVE + 1, usize::MAX] {
            assert!(matches!(
                base.clone().with_nanowires_per_half_cave(nanowires),
                Err(SimError::InvalidConfig { .. })
            ));
            assert!(matches!(
                explicit(nanowires),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(SimConfig::paper_defaults(code())
            .unwrap()
            .with_nanowires_per_half_cave(0)
            .is_err());
        assert!(SimConfig::paper_defaults(code())
            .unwrap()
            .with_sigma_per_dose(Volts::new(-0.1))
            .is_err());
        assert!(SimConfig::new(
            code(),
            40,
            0,
            LayoutRules::paper_default(),
            ThresholdModel::default_mspt(),
            Volts::from_millivolts(50.0),
            (Volts::new(0.0), Volts::new(1.0)),
        )
        .is_err());
        assert!(SimConfig::new(
            code(),
            40,
            1024,
            LayoutRules::paper_default(),
            ThresholdModel::default_mspt(),
            Volts::from_millivolts(50.0),
            (Volts::new(1.0), Volts::new(1.0)),
        )
        .is_err());
    }

    #[test]
    fn overrides_apply() {
        let config = SimConfig::paper_defaults(code())
            .unwrap()
            .with_nanowires_per_half_cave(24)
            .unwrap()
            .with_sigma_per_dose(Volts::from_millivolts(30.0))
            .unwrap()
            .with_window(Volts::new(0.2));
        assert_eq!(config.nanowires_per_half_cave(), 24);
        assert_eq!(config.sigma_per_dose(), Volts::from_millivolts(30.0));
        assert_eq!(config.decision_window().unwrap(), Volts::new(0.2));
        let other = CodeSpec::new(CodeKind::Hot, LogicLevel::BINARY, 6).unwrap();
        assert_eq!(config.with_code(other).code(), other);
    }

    #[test]
    fn bad_window_overrides_get_one_error_on_both_paths() {
        let engine = ExecutionEngine::serial();
        let sampling = MonteCarloConfig::fixed(64, 1);
        let windowed = |window: f64| {
            SimConfig::paper_defaults(code())
                .unwrap()
                .with_window(Volts::new(window))
        };
        for window in [-0.1, f64::NAN] {
            let config = windowed(window);
            let expected = format!(
                "decision window must be non-negative, got {}",
                Volts::new(window)
            );
            let report = SimulationPlatform::new(config.clone()).evaluate();
            let sampled = engine.monte_carlo_for_config(&config, sampling);
            for result in [report.map(drop), sampled.map(drop)] {
                assert!(
                    matches!(&result, Err(SimError::InvalidConfig { reason }) if *reason == expected),
                    "{window}: {result:?}"
                );
            }
        }
        // -0.0 is a zero-width window like 0.0, not a negative one.
        assert_eq!(windowed(-0.0).decision_window().unwrap(), Volts::new(-0.0));
        assert!(engine
            .monte_carlo_for_config(&windowed(-0.0), sampling)
            .is_ok());
        assert_eq!(
            SimulationPlatform::new(windowed(-0.0)).evaluate(),
            SimulationPlatform::new(windowed(0.0)).evaluate()
        );
    }

    #[test]
    fn disturbance_defaults_to_gaussian_and_overrides() {
        let config = SimConfig::paper_defaults(code()).unwrap();
        assert_eq!(config.disturbance(), DisturbanceKind::Gaussian);
        let heavy = config.with_disturbance(DisturbanceKind::Laplace);
        assert_eq!(heavy.disturbance(), DisturbanceKind::Laplace);
        // The disturbance choice is part of the configuration's identity
        // (it keys the engine's Monte-Carlo stage; no report reads it).
        assert_ne!(
            heavy,
            heavy.clone().with_disturbance(DisturbanceKind::Gaussian)
        );
    }

    #[test]
    fn defects_default_to_none_and_are_part_of_the_identity() {
        let config = SimConfig::paper_defaults(code()).unwrap();
        assert_eq!(config.defects(), DefectKind::None);
        let defective = config
            .clone()
            .with_defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap());
        assert_eq!(defective.defects().nanowire_breakage(), 0.02);
        // The defect selection is part of the configuration's identity (it
        // keys the engine's defect-map stage and report cache).
        assert_ne!(config, defective);
    }

    #[test]
    fn no_field_takes_a_retired_key_or_section() {
        let mut fields = crate::codec::FieldList(Vec::new());
        crate::schema::encode(&SimConfig::paper(code()), &mut fields);
        for retired in SimConfig::RETIRED {
            for field in &fields.0 {
                assert_ne!(field.key, retired.key);
                assert_ne!(field.tag, retired.tag, "{} and {}", field.key, retired.key);
            }
        }
    }

    #[test]
    fn derived_objects_are_consistent() {
        let config = SimConfig::paper_defaults(code()).unwrap();
        let spec = config.crossbar_spec().unwrap();
        assert_eq!(spec.nanowires_per_half_cave(), 20);
        let ladder = config.doping_ladder().unwrap();
        assert_eq!(ladder.level_count(), 2);
        let model = config.variability_model().unwrap();
        assert_eq!(model.sigma_per_dose(), Volts::from_millivolts(50.0));
    }
}
