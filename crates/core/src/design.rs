//! The decoder design: the paper's contribution packaged as a single object —
//! pick a code family, a code length and a logic radix, and obtain the
//! fabrication recipe, the address map and the full evaluation of the
//! resulting MSPT nanowire decoder.

use crossbar_array::LayoutRules;
use decoder_sim::{PlatformReport, SimConfig, SimulationPlatform};
use device_physics::{ThresholdModel, Volts};
use nanowire_codes::{CodeKind, CodeSequence, CodeSpec, LogicLevel};

use crate::error::{DecoderError, Result};

/// The code families available to the decoder designer.
///
/// This is a re-export of [`CodeKind`] under the name the design layer uses;
/// the paper's design space is exactly these five families.
pub type CodeSelection = CodeKind;

/// A fully specified MSPT nanowire-decoder design.
///
/// # Examples
///
/// ```
/// use mspt_decoder::{CodeSelection, DecoderDesign};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = DecoderDesign::builder()
///     .code(CodeSelection::BalancedGray)
///     .code_length(10)
///     .nanowires_per_half_cave(20)
///     .build()?;
/// let report = design.evaluate()?;
/// assert!(report.crossbar_yield > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderDesign {
    config: SimConfig,
}

impl DecoderDesign {
    /// Starts building a design with the paper's platform defaults.
    #[must_use]
    pub fn builder() -> DecoderDesignBuilder {
        DecoderDesignBuilder::default()
    }

    /// Wraps an explicit simulation configuration as a design.
    #[must_use]
    pub fn from_config(config: SimConfig) -> Self {
        DecoderDesign { config }
    }

    /// The code specification of the design.
    #[must_use]
    pub fn code(&self) -> CodeSpec {
        self.config.code()
    }

    /// The underlying simulation configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The simulation platform for this design.
    #[must_use]
    pub fn platform(&self) -> SimulationPlatform {
        SimulationPlatform::new(self.config.clone())
    }

    /// The ordered code sequence the design assigns to successive nanowires.
    ///
    /// # Errors
    ///
    /// Propagates code-generation errors.
    pub fn code_sequence(&self) -> Result<CodeSequence> {
        Ok(self.platform().code_sequence()?)
    }

    /// Evaluates the design: fabrication complexity, variability, yield and
    /// bit area on the paper's platform. The fabrication recipe and its
    /// pass and dose counts come from
    /// [`DecoderRecipe::for_design`](crate::DecoderRecipe::for_design).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the simulation layer.
    pub fn evaluate(&self) -> Result<PlatformReport> {
        Ok(self.platform().evaluate()?)
    }
}

/// Builder for [`DecoderDesign`], pre-loaded with the paper's platform
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderDesignBuilder {
    code_kind: CodeKind,
    radix: LogicLevel,
    code_length: usize,
    nanowires_per_half_cave: usize,
    raw_bits: u64,
    layout: LayoutRules,
    threshold_model: ThresholdModel,
    sigma_per_dose: Volts,
    supply_range: (Volts, Volts),
    window: Option<Volts>,
}

impl Default for DecoderDesignBuilder {
    fn default() -> Self {
        DecoderDesignBuilder {
            code_kind: CodeKind::BalancedGray,
            radix: LogicLevel::BINARY,
            code_length: 10,
            nanowires_per_half_cave: 20,
            raw_bits: crossbar_array::PAPER_RAW_BITS,
            layout: LayoutRules::paper_default(),
            threshold_model: ThresholdModel::default_mspt(),
            sigma_per_dose: Volts::from_millivolts(50.0),
            supply_range: (Volts::new(0.0), Volts::new(1.0)),
            window: None,
        }
    }
}

impl DecoderDesignBuilder {
    /// Selects the code family.
    #[must_use]
    pub fn code(mut self, kind: CodeSelection) -> Self {
        self.code_kind = kind;
        self
    }

    /// Selects the logic radix.
    #[must_use]
    pub fn radix(mut self, radix: LogicLevel) -> Self {
        self.radix = radix;
        self
    }

    /// Selects the code length `M` (doping regions per nanowire).
    #[must_use]
    pub fn code_length(mut self, code_length: usize) -> Self {
        self.code_length = code_length;
        self
    }

    /// Sets the number of nanowires per half cave.
    #[must_use]
    pub fn nanowires_per_half_cave(mut self, nanowires: usize) -> Self {
        self.nanowires_per_half_cave = nanowires;
        self
    }

    /// Sets the raw crossbar capacity in bits.
    #[must_use]
    pub fn raw_bits(mut self, raw_bits: u64) -> Self {
        self.raw_bits = raw_bits;
        self
    }

    /// Sets the layout rules.
    #[must_use]
    pub fn layout(mut self, layout: LayoutRules) -> Self {
        self.layout = layout;
        self
    }

    /// Sets the threshold-voltage model.
    #[must_use]
    pub fn threshold_model(mut self, model: ThresholdModel) -> Self {
        self.threshold_model = model;
        self
    }

    /// Sets the per-dose threshold deviation σ_T.
    #[must_use]
    pub fn sigma_per_dose(mut self, sigma: Volts) -> Self {
        self.sigma_per_dose = sigma;
        self
    }

    /// Sets the supply-voltage range over which threshold levels are spread.
    #[must_use]
    pub fn supply_range(mut self, low: Volts, high: Volts) -> Self {
        self.supply_range = (low, high);
        self
    }

    /// Overrides the addressability decision window.
    #[must_use]
    pub fn decision_window(mut self, window: Volts) -> Self {
        self.window = Some(window);
        self
    }

    /// Validates the parameters and builds the design.
    ///
    /// # Errors
    ///
    /// Returns [`DecoderError::InvalidDesign`] (or a wrapped lower-layer
    /// error) when the code length is incompatible with the family/radix or
    /// any platform parameter is invalid.
    pub fn build(self) -> Result<DecoderDesign> {
        let code = CodeSpec::new(self.code_kind, self.radix, self.code_length).map_err(|err| {
            DecoderError::InvalidDesign {
                reason: format!(
                    "code length {} is invalid for {} over {}: {err}",
                    self.code_length, self.code_kind, self.radix
                ),
            }
        })?;
        let mut config = SimConfig::new(
            code,
            self.nanowires_per_half_cave,
            self.raw_bits,
            self.layout,
            self.threshold_model,
            self.sigma_per_dose,
            self.supply_range,
        )?;
        if let Some(window) = self.window {
            config = config.with_window(window);
        }
        Ok(DecoderDesign { config })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_paper_platform() {
        let design = DecoderDesign::builder().build().unwrap();
        assert_eq!(design.code().kind(), CodeKind::BalancedGray);
        assert_eq!(design.code().code_length(), 10);
        assert_eq!(design.config().nanowires_per_half_cave(), 20);
        assert_eq!(design.config().raw_bits(), 131_072);
    }

    #[test]
    fn builder_rejects_incompatible_code_lengths() {
        let odd = DecoderDesign::builder()
            .code(CodeSelection::Gray)
            .code_length(7)
            .build();
        assert!(matches!(odd, Err(DecoderError::InvalidDesign { .. })));
        let bad_hot = DecoderDesign::builder()
            .code(CodeSelection::Hot)
            .radix(LogicLevel::TERNARY)
            .code_length(7)
            .build();
        assert!(bad_hot.is_err());
        let zero_nanowires = DecoderDesign::builder().nanowires_per_half_cave(0).build();
        assert!(zero_nanowires.is_err());
    }

    #[test]
    fn evaluation_report_is_internally_consistent() {
        let design = DecoderDesign::builder()
            .code(CodeSelection::Gray)
            .code_length(8)
            .nanowires_per_half_cave(20)
            .build()
            .unwrap();
        let report = design.evaluate().unwrap();
        let recipe = crate::encode::DecoderRecipe::for_design(&design).unwrap();
        assert_eq!(recipe.lithography_passes(), report.fabrication_steps);
        assert!(!recipe.distinct_doses().is_empty());
        assert!((report.crossbar_yield - report.cave_yield.powi(2)).abs() < 1e-12);
        assert!(report.effective_bit_area >= report.raw_bit_area);
        assert_eq!(report.nanowires_per_half_cave, 20);
    }

    #[test]
    fn builder_setters_apply() {
        let design = DecoderDesign::builder()
            .code(CodeSelection::Hot)
            .radix(LogicLevel::TERNARY)
            .code_length(6)
            .nanowires_per_half_cave(30)
            .raw_bits(65_536)
            .sigma_per_dose(Volts::from_millivolts(30.0))
            .supply_range(Volts::new(0.0), Volts::new(0.9))
            .decision_window(Volts::new(0.12))
            .build()
            .unwrap();
        assert_eq!(design.code().kind(), CodeKind::Hot);
        assert_eq!(design.code().radix(), LogicLevel::TERNARY);
        assert_eq!(design.config().raw_bits(), 65_536);
        assert_eq!(
            design.config().sigma_per_dose(),
            Volts::from_millivolts(30.0)
        );
        assert_eq!(design.config().decision_window().unwrap(), Volts::new(0.12));
    }

    #[test]
    fn from_config_roundtrips() {
        let design = DecoderDesign::builder().build().unwrap();
        let clone = DecoderDesign::from_config(design.config().clone());
        assert_eq!(design, clone);
        assert_eq!(
            design.code_sequence().unwrap().word_length(),
            design.code().code_length()
        );
        assert_eq!(clone.evaluate().unwrap(), design.evaluate().unwrap());
    }
}
