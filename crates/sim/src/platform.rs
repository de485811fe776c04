//! The simulation platform of Section 6.1: one call takes a code choice to
//! every quantity the paper's figures report — fabrication complexity,
//! variability statistics, cave and crossbar yield, and effective bit area.

use serde::{Deserialize, Serialize};

use crossbar_array::{
    survival_fraction, AddressabilityProfile, CaveYield, CompositeYield, ContactGroupLayout,
    CrossbarArea, DefectMap, DefectModel, HalfCave,
};
use mspt_fabrication::{
    DoseCountMatrix, FabricationCost, PatternMatrix, StepDopingMatrix, VariabilityMatrix,
};
use nanowire_codes::{CodeSequence, CodeSpec};

use crate::config::SimConfig;
use crate::defect::DefectKind;
use crate::error::{Result, SimError};
use crate::stage::VariabilityStage;

/// The outcome of evaluating one decoder design on the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformReport {
    /// The evaluated code.
    pub code: CodeSpec,
    /// Number of nanowires per half cave used in the evaluation.
    pub nanowires_per_half_cave: usize,
    /// Total fabrication complexity `Φ` of one half cave.
    pub fabrication_steps: usize,
    /// Average variability `‖Σ‖₁ / (N·M)` in units of σ_T².
    pub mean_variability: f64,
    /// Largest normalised region deviation `sqrt(ν)` of the half cave.
    pub max_normalized_sigma: f64,
    /// Cave (nanowire) yield `Y`.
    pub cave_yield: f64,
    /// Crossbar (crosspoint) yield `Y²`.
    pub crossbar_yield: f64,
    /// Effective density `D_EFF = D_RAW · Y²` in bits.
    pub effective_bits: f64,
    /// Raw area per crosspoint in nm².
    pub raw_bit_area: f64,
    /// Effective area per functional bit in nm² (Fig. 8).
    pub effective_bit_area: f64,
    /// Number of contact groups per half cave.
    pub contact_groups: usize,
    /// The fabrication-defect selection the report was evaluated under.
    pub defects: DefectKind,
    /// Fraction of crosspoints surviving the sampled defect map — `1` for a
    /// defect-free ([`DefectKind::None`]) evaluation.
    pub defect_survival: f64,
    /// Composite crossbar yield: decoder yield `Y²` × defect survival.
    /// Equals [`crossbar_yield`](PlatformReport::crossbar_yield) exactly for
    /// a defect-free evaluation.
    pub composite_yield: f64,
    /// Composite effective density `D_RAW · Y² · survival` in bits.
    pub composite_effective_bits: f64,
}

/// The Section 6.1 simulation platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationPlatform {
    config: SimConfig,
}

impl SimulationPlatform {
    /// Creates a platform around a configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        SimulationPlatform { config }
    }

    /// The configuration of the platform.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Generates the code sequence of the configured code.
    ///
    /// # Errors
    ///
    /// Propagates code-generation errors.
    pub fn code_sequence(&self) -> Result<CodeSequence> {
        Ok(self
            .config
            .code()
            .generate_with(self.config.code_budgets())?)
    }

    /// The first `nanowires` words of the configured code's cyclic
    /// extension, built without enumerating the whole code where the family
    /// allows it ([`CodeSpec::generate_cyclic`]).
    fn cyclic_sequence(&self, nanowires: usize) -> Result<CodeSequence> {
        Ok(self
            .config
            .code()
            .generate_cyclic(self.config.code_budgets(), nanowires)?)
    }

    /// The half-cave assignment (the configured code applied cyclically to
    /// the configured number of nanowires).
    ///
    /// # Errors
    ///
    /// Propagates code errors.
    pub fn half_cave(&self) -> Result<HalfCave> {
        Ok(HalfCave::from_assignment(
            self.cyclic_sequence(self.config.nanowires_per_half_cave())?,
        ))
    }

    /// The variability matrix `Σ` of the configured half cave.
    ///
    /// # Errors
    ///
    /// Propagates fabrication and device-physics errors.
    pub fn variability(&self) -> Result<VariabilityMatrix> {
        let pattern = self.half_cave()?.pattern()?;
        Ok(VariabilityMatrix::from_pattern(
            &pattern,
            &self.config.doping_ladder()?,
            &self.config.variability_model()?,
        )?)
    }

    /// The fabrication complexity `Φ` of the configured half cave.
    ///
    /// # Errors
    ///
    /// Propagates fabrication and device-physics errors.
    pub fn fabrication_cost(&self) -> Result<FabricationCost> {
        let pattern = self.half_cave()?.pattern()?;
        Ok(FabricationCost::from_pattern(
            &pattern,
            &self.config.doping_ladder()?,
        )?)
    }

    /// The fabrication complexity of a half cave with an explicit nanowire
    /// count (Fig. 5 uses `N = 10` independently of the crossbar geometry).
    ///
    /// # Errors
    ///
    /// Propagates code, fabrication and device-physics errors.
    pub fn fabrication_cost_for(&self, nanowires: usize) -> Result<FabricationCost> {
        let pattern = PatternMatrix::from_sequence(&self.cyclic_sequence(nanowires)?)?;
        Ok(FabricationCost::from_pattern(
            &pattern,
            &self.config.doping_ladder()?,
        )?)
    }

    /// The variability matrix of a half cave with an explicit nanowire count
    /// (Fig. 6 uses `N = 20`).
    ///
    /// # Errors
    ///
    /// Propagates code, fabrication and device-physics errors.
    pub fn variability_for(&self, nanowires: usize) -> Result<VariabilityMatrix> {
        let pattern = PatternMatrix::from_sequence(&self.cyclic_sequence(nanowires)?)?;
        Ok(VariabilityMatrix::from_pattern(
            &pattern,
            &self.config.doping_ladder()?,
            &self.config.variability_model()?,
        )?)
    }

    /// The contact-group layout of the configured half cave.
    ///
    /// # Errors
    ///
    /// Propagates crossbar errors.
    pub fn contact_layout(&self) -> Result<ContactGroupLayout> {
        Ok(ContactGroupLayout::new(
            self.config.nanowires_per_half_cave(),
            self.config.code().space_size(),
            *self.config.layout(),
        )?)
    }

    /// The analytic per-nanowire addressability profile of the configured
    /// half cave.
    ///
    /// # Errors
    ///
    /// Propagates crossbar and device-physics errors.
    pub fn addressability(&self) -> Result<AddressabilityProfile> {
        Ok(AddressabilityProfile::from_variability(
            &self.variability()?,
            &self.config.variability_model()?,
            self.config.decision_window()?,
        )?)
    }

    /// The cave and crossbar yield of the configured design.
    ///
    /// # Errors
    ///
    /// Propagates crossbar errors.
    pub fn cave_yield(&self) -> Result<CaveYield> {
        Ok(CaveYield::compute(
            &self.addressability()?,
            &self.contact_layout()?,
        )?)
    }

    /// Samples the defect map of the configured [`DefectKind`] serially —
    /// `None` for a defect-free configuration — for callers that want the
    /// instance; reports read only its usable-crosspoint count, which they
    /// stream without building the map. Bit-identical to the engine-sharded
    /// [`ExecutionEngine::sample_defect_map`](crate::ExecutionEngine::sample_defect_map)
    /// of the same model and seed, because both assemble the same
    /// independently seeded chunks.
    ///
    /// # Errors
    ///
    /// Propagates crossbar-specification errors, including a crossbar over
    /// the defect layer's size bound
    /// ([`MAX_DEFECT_CROSSPOINTS`](crossbar_array::MAX_DEFECT_CROSSPOINTS)).
    pub fn sample_defect_map(&self) -> Result<Option<DefectMap>> {
        self.sample_defect_map_with(|model, rows, columns, seed| {
            Ok(model.sample_map(rows, columns, seed)?)
        })
    }

    /// Draws the configured defect instance with an explicit sampler — the
    /// single place that decides *whether* defects are drawn and *which*
    /// dimensions and seed they get, for the map
    /// ([`SimulationPlatform::sample_defect_map`],
    /// [`ExecutionEngine::sample_defect_map`](crate::ExecutionEngine::sample_defect_map))
    /// and for the usable-crosspoint count the report path draws
    /// ([`DefectModel::count_usable`],
    /// [`ExecutionEngine::count_usable`](crate::ExecutionEngine::count_usable)),
    /// so no two of them can diverge in dispatch. `None` for a defect-free
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates crossbar-specification and sampler errors.
    pub fn sample_defect_map_with<T, F>(&self, sampler: F) -> Result<Option<T>>
    where
        F: FnOnce(&DefectModel, usize, usize, u64) -> Result<T>,
    {
        match self.config.defects() {
            DefectKind::None => Ok(None),
            DefectKind::Sampled(defects) => {
                let edge = self.config.crossbar_spec()?.nanowires_per_layer();
                Ok(Some(sampler(&defects.model(), edge, edge, defects.seed())?))
            }
        }
    }

    /// The defect survival of the configured instance from a usable-crosspoint
    /// counter — `None` for a defect-free configuration. The survival is
    /// [`survival_fraction`], the expression
    /// [`DefectMap::usable_fraction`] uses, so it is bit-identical to the
    /// survival of the sampled map.
    pub(crate) fn defect_survival_with<F>(&self, count: F) -> Result<Option<f64>>
    where
        F: FnOnce(&DefectModel, usize, usize, u64) -> Result<usize>,
    {
        self.sample_defect_map_with(|model, rows, columns, seed| {
            Ok(survival_fraction(
                count(model, rows, columns, seed)?,
                rows,
                columns,
            ))
        })
    }

    /// Runs the full evaluation and collects every reported quantity. A
    /// defect-configured evaluation counts the usable crosspoints serially,
    /// band by band, without building the map.
    ///
    /// Callers holding an [`ExecutionEngine`](crate::ExecutionEngine) should
    /// prefer [`ExecutionEngine::report_for`](crate::ExecutionEngine::report_for),
    /// which runs the same pipeline through the engine's memo slots.
    ///
    /// # Errors
    ///
    /// Propagates errors from every stage of the pipeline, including a
    /// crossbar over the defect layer's size bound.
    pub fn evaluate(&self) -> Result<PlatformReport> {
        let survival = self.defect_survival_with(|model, rows, columns, seed| {
            Ok(model.count_usable(rows, columns, seed)?)
        })?;
        self.staged_report(|| self.variability_stage(), survival)
    }

    /// The variability stage: the variability matrix and the fabrication
    /// cost, which share one pattern/ladder build. This is the root stage
    /// both the report pipeline and the Monte-Carlo validator hang off, and
    /// the engine memoizes it, so a sweep over the defect axis (or the
    /// disturbance kind) does not regenerate the pattern per point.
    pub(crate) fn variability_stage(&self) -> Result<VariabilityStage> {
        // Σ and Φ share the pattern and the doping ladder, so one stage
        // computes both from a single step-matrix build.
        let pattern = self.half_cave()?.pattern()?;
        let ladder = self.config.doping_ladder()?;
        let model = self.config.variability_model()?;
        let steps = StepDopingMatrix::from_pattern(&pattern, &ladder)?;
        Ok(VariabilityStage {
            variability: VariabilityMatrix::new(DoseCountMatrix::from_steps(&steps), &model),
            cost: FabricationCost::from_steps(&steps),
            ladder_window: ladder.window_half_width(),
        })
    }

    /// The report pipeline below the `Composite` slot: the variability
    /// stage from `variability` (the engine's memo slot, or a plain
    /// computation), the contact layout, addressability, cave yield and
    /// crossbar area computed inline, then composed with the defect
    /// `survival` (`None` for a defect-free configuration). Runs as the
    /// report lookup's leader, so it never consults the `Composite` slot
    /// itself.
    pub(crate) fn staged_report<F>(
        &self,
        variability: F,
        survival: Option<f64>,
    ) -> Result<PlatformReport>
    where
        F: FnOnce() -> Result<VariabilityStage>,
    {
        let spec = self.config.crossbar_spec()?;
        let code = self.config.code();
        let staged = variability()?;
        let layout = self.contact_layout()?;
        let profile = AddressabilityProfile::from_variability(
            &staged.variability,
            &self.config.variability_model()?,
            self.config.decision_window_given(staged.ladder_window)?,
        )?;
        let yield_ = CaveYield::compute(&profile, &layout)?;
        let area = CrossbarArea::compute(&spec, code.code_length(), &layout)?;
        let effective_bit_area = area.effective_bit_area(&spec, &yield_)?;
        let effective_bits = yield_.effective_bits(spec.raw_crosspoints());

        let (defect_survival, composite_yield, composite_effective_bits) = match survival {
            // A defect-free evaluation reports the decoder quantities
            // bit-for-bit (no multiplication by `1.0` that could perturb them).
            None => (1.0, yield_.crossbar_yield(), effective_bits),
            Some(survival) => {
                let composite = CompositeYield::new(&yield_, survival);
                (
                    composite.defect_survival,
                    composite.crossbar_yield,
                    composite.effective_bits(spec.raw_crosspoints()),
                )
            }
        };

        let report = PlatformReport {
            code,
            nanowires_per_half_cave: self.config.nanowires_per_half_cave(),
            fabrication_steps: staged.cost.total(),
            mean_variability: staged.variability.mean_in_sigma_units(),
            max_normalized_sigma: staged.variability.normalized_map().max(),
            cave_yield: yield_.nanowire_yield(),
            crossbar_yield: yield_.crossbar_yield(),
            effective_bits,
            raw_bit_area: area.raw_bit_area(&spec).value(),
            effective_bit_area: effective_bit_area.value(),
            contact_groups: layout.group_count(),
            defects: self.config.defects(),
            defect_survival,
            composite_yield,
            composite_effective_bits,
        };
        // A finite but absurd input (a litho pitch of 10¹⁵⁵ nm) can overflow
        // a quantity to infinity, and a non-finite report has no encoding in
        // either wire codec.
        let quantities = [
            report.mean_variability,
            report.max_normalized_sigma,
            report.cave_yield,
            report.crossbar_yield,
            report.effective_bits,
            report.raw_bit_area,
            report.effective_bit_area,
            report.defect_survival,
            report.composite_yield,
            report.composite_effective_bits,
        ];
        if quantities.iter().all(|quantity| quantity.is_finite()) {
            Ok(report)
        } else {
            Err(SimError::InvalidConfig {
                reason: format!("the configuration's report overflows: {quantities:?}"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbar_array::LayoutRules;
    use device_physics::Nanometers;
    use nanowire_codes::{CodeKind, LogicLevel};

    fn platform(kind: CodeKind, length: usize) -> SimulationPlatform {
        let code = CodeSpec::new(kind, LogicLevel::BINARY, length).unwrap();
        SimulationPlatform::new(SimConfig::paper_defaults(code).unwrap())
    }

    #[test]
    fn evaluation_produces_consistent_quantities() {
        let report = platform(CodeKind::BalancedGray, 10).evaluate().unwrap();
        assert!(report.cave_yield > 0.0 && report.cave_yield <= 1.0);
        assert!((report.crossbar_yield - report.cave_yield.powi(2)).abs() < 1e-12);
        assert!(report.effective_bits > 0.0);
        assert!(report.effective_bit_area >= report.raw_bit_area);
        assert!(report.fabrication_steps >= 2 * report.nanowires_per_half_cave - 1);
        assert!(report.mean_variability >= 1.0);
        assert!(report.max_normalized_sigma >= 1.0);
        assert!(report.contact_groups >= 1);
    }

    #[test]
    fn reports_that_overflow_are_typed_errors() {
        // A litho pitch of 4.3·10¹⁵⁵ nm passes the layout rules, but the
        // crossbar area overflows to infinity, which no wire codec encodes.
        let base = platform(CodeKind::Gray, 10).config().clone();
        let rules = base.layout();
        let layout = LayoutRules::new(
            Nanometers::new(4.3e155),
            rules.nanowire_pitch(),
            rules.min_contact_width_factor(),
            rules.contact_alignment_tolerance(),
        )
        .unwrap();
        let config = SimConfig::new(
            base.code(),
            base.nanowires_per_half_cave(),
            base.raw_bits(),
            layout,
            *base.threshold_model(),
            base.sigma_per_dose(),
            base.supply_range(),
        )
        .unwrap();
        assert!(matches!(
            SimulationPlatform::new(config).evaluate(),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn defect_free_reports_keep_composite_equal_to_decoder_quantities() {
        let report = platform(CodeKind::Tree, 8).evaluate().unwrap();
        assert_eq!(report.defects, DefectKind::None);
        assert_eq!(report.defect_survival, 1.0);
        assert_eq!(
            report.composite_yield.to_bits(),
            report.crossbar_yield.to_bits()
        );
        assert_eq!(
            report.composite_effective_bits.to_bits(),
            report.effective_bits.to_bits()
        );
    }

    #[test]
    fn defect_composition_reduces_yield_and_bits() {
        let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
        let defects = DefectKind::sampled(0.05, 0.02, 2_009).unwrap();
        let config = SimConfig::paper_defaults(code)
            .unwrap()
            .with_defects(defects);
        let report = SimulationPlatform::new(config).evaluate().unwrap();
        assert_eq!(report.defects, defects);
        assert!(report.defect_survival > 0.0 && report.defect_survival < 1.0);
        assert!(
            (report.composite_yield - report.crossbar_yield * report.defect_survival).abs() < 1e-15
        );
        assert!(report.composite_yield < report.crossbar_yield);
        assert!(report.composite_effective_bits < report.effective_bits);
        // The survival lands near the analytic expectation for these rates
        // (a single sampled instance; broken wires kill whole rows, so the
        // variance is dominated by the 363-wire breakage draw).
        let expected = 0.95 * 0.95 * 0.98;
        assert!(
            (report.defect_survival - expected).abs() < 0.05,
            "survival {} vs expected {expected}",
            report.defect_survival
        );
    }

    #[test]
    fn defect_free_configurations_sample_no_map() {
        assert!(platform(CodeKind::Tree, 8)
            .sample_defect_map()
            .unwrap()
            .is_none());
    }

    #[test]
    fn gray_never_does_worse_than_tree_on_the_platform() {
        let tree = platform(CodeKind::Tree, 8).evaluate().unwrap();
        let gray = platform(CodeKind::Gray, 8).evaluate().unwrap();
        assert!(gray.fabrication_steps <= tree.fabrication_steps);
        assert!(gray.mean_variability <= tree.mean_variability);
        assert!(gray.crossbar_yield >= tree.crossbar_yield);
        assert!(gray.effective_bit_area <= tree.effective_bit_area);
    }

    #[test]
    fn longer_tree_codes_improve_yield_in_the_paper_range() {
        // Fig. 7: yield increases with code length up to M ≈ 10 for TC.
        let short = platform(CodeKind::Tree, 6).evaluate().unwrap();
        let long = platform(CodeKind::Tree, 10).evaluate().unwrap();
        assert!(long.crossbar_yield > short.crossbar_yield);
        // Fig. 8: and the effective bit area shrinks accordingly.
        assert!(long.effective_bit_area < short.effective_bit_area);
    }

    #[test]
    fn intermediate_accessors_agree_with_the_report() {
        let p = platform(CodeKind::Hot, 6);
        let report = p.evaluate().unwrap();
        assert_eq!(
            p.fabrication_cost().unwrap().total(),
            report.fabrication_steps
        );
        let yield_ = p.cave_yield().unwrap();
        assert!((yield_.crossbar_yield() - report.crossbar_yield).abs() < 1e-12);
        assert_eq!(
            p.contact_layout().unwrap().group_count(),
            report.contact_groups
        );
        assert_eq!(p.half_cave().unwrap().nanowire_count(), 20);
        assert_eq!(p.config().nanowires_per_half_cave(), 20);
    }

    #[test]
    fn explicit_nanowire_counts_for_standalone_figures() {
        let p = platform(CodeKind::Gray, 8);
        let cost = p.fabrication_cost_for(10).unwrap();
        assert_eq!(cost.step_count(), 10);
        let variability = p.variability_for(20).unwrap();
        assert_eq!(variability.nanowire_count(), 20);
        assert_eq!(variability.region_count(), 8);
    }
}
