//! Fabrication-defect configuration: the serializable selection that makes
//! broken nanowires and stuck crosspoints a first-class dimension of every
//! report.
//!
//! The paper assumes defect-free arrays ("a yield close to unit"); the
//! crossbar layer's [`DefectModel`] models the two first-order defect
//! mechanisms beyond that assumption. This module is the `SimConfig`-side
//! selector: [`DefectKind::None`] reproduces the paper exactly, while
//! [`DefectKind::Sampled`] composes the expected defect survival of its
//! rates, the closed form `(1 − b)²(1 − s)`
//! ([`DefectModel::crosspoint_survival`]), with the decoder yield into the
//! report's composite quantities. A report draws no instance, so the
//! selection's seed decides no report value: it seeds the instances
//! [`SimulationPlatform::sample_defect_map`](crate::SimulationPlatform::sample_defect_map)
//! draws (independently of the Monte-Carlo streams, through the defect
//! layer's domain tag), whose mean survival over seeds is the closed form.

use std::fmt;

use serde::{Deserialize, Serialize};

use crossbar_array::DefectModel;

use crate::error::Result;

/// Validated fabrication-defect rates plus the defect-map seed — the
/// parameters of one [`DefectKind::Sampled`] selection.
///
/// Construction rejects rates that are NaN or outside `[0, 1]`, so a held
/// `DefectConfig` always instantiates a valid [`DefectModel`].
///
/// # Examples
///
/// ```
/// use decoder_sim::DefectConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let defects = DefectConfig::new(0.02, 0.01, 7)?;
/// assert_eq!(defects.nanowire_breakage(), 0.02);
/// assert!(DefectConfig::new(f64::NAN, 0.0, 7).is_err());
/// assert!(DefectConfig::new(0.0, 1.5, 7).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefectConfig {
    nanowire_breakage: f64,
    crosspoint_defect: f64,
    seed: u64,
}

impl DefectConfig {
    /// Creates a validated defect configuration.
    ///
    /// # Errors
    ///
    /// Returns the crossbar layer's typed
    /// [`InvalidProbability`](crossbar_array::CrossbarError::InvalidProbability)
    /// (as [`SimError::Crossbar`](crate::SimError::Crossbar)) when either rate is NaN or outside
    /// `[0, 1]`.
    pub fn new(nanowire_breakage: f64, crosspoint_defect: f64, seed: u64) -> Result<Self> {
        // Validation lives in the crossbar layer's constructor; building the
        // model here means a stored DefectConfig can never hold rates the
        // model would reject.
        DefectModel::new(nanowire_breakage, crosspoint_defect)?;
        Ok(DefectConfig {
            nanowire_breakage,
            crosspoint_defect,
            seed,
        })
    }

    /// The nanowire breakage probability.
    #[must_use]
    pub fn nanowire_breakage(&self) -> f64 {
        self.nanowire_breakage
    }

    /// The stuck-crosspoint (switching-layer defect) probability.
    #[must_use]
    pub fn crosspoint_defect(&self) -> f64 {
        self.crosspoint_defect
    }

    /// The defect-map run seed of sampled instances; no report value
    /// depends on it. The defect layer mixes its own domain tag into this
    /// seed before chunk derivation, so a seed shared with a Monte-Carlo
    /// estimation never replays its uniform stream.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The crossbar-layer defect model of these rates.
    #[must_use]
    pub fn model(&self) -> DefectModel {
        DefectModel::new(self.nanowire_breakage, self.crosspoint_defect)
            .expect("rates validated at construction")
    }
}

/// The serializable fabrication-defect selection of a
/// [`SimConfig`](crate::SimConfig) — part of a configuration's identity, so
/// defect-free and defective runs never alias in the report cache or on
/// disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum DefectKind {
    /// The paper's assumption: no broken nanowires, no stuck crosspoints.
    /// The default, and the behaviour of every configuration serialized
    /// before this field existed.
    #[default]
    None,
    /// Broken nanowires and stuck crosspoints at the configured rates: a
    /// report composes their expected survival with the decoder yield, and
    /// [`SimulationPlatform::sample_defect_map`](crate::SimulationPlatform::sample_defect_map)
    /// draws an instance from the seed.
    Sampled(DefectConfig),
}

impl DefectKind {
    /// Convenience constructor for a sampled selection.
    ///
    /// # Errors
    ///
    /// Propagates [`DefectConfig::new`] validation errors.
    pub fn sampled(nanowire_breakage: f64, crosspoint_defect: f64, seed: u64) -> Result<Self> {
        Ok(DefectKind::Sampled(DefectConfig::new(
            nanowire_breakage,
            crosspoint_defect,
            seed,
        )?))
    }

    /// Whether this is the defect-free selection.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, DefectKind::None)
    }

    /// The sampled configuration, when one is selected.
    #[must_use]
    pub fn config(&self) -> Option<&DefectConfig> {
        match self {
            DefectKind::None => None,
            DefectKind::Sampled(config) => Some(config),
        }
    }

    /// The nanowire-breakage rate of the selection (`0` for
    /// [`DefectKind::None`]) — the x-axis of the defect sweeps.
    #[must_use]
    pub fn nanowire_breakage(&self) -> f64 {
        self.config().map_or(0.0, DefectConfig::nanowire_breakage)
    }

    /// The stuck-crosspoint rate of the selection (`0` for
    /// [`DefectKind::None`]).
    #[must_use]
    pub fn crosspoint_defect(&self) -> f64 {
        self.config().map_or(0.0, DefectConfig::crosspoint_defect)
    }
}

impl fmt::Display for DefectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefectKind::None => write!(f, "none"),
            DefectKind::Sampled(config) => write!(
                f,
                "sampled(break={:.4}, stuck={:.4}, seed={})",
                config.nanowire_breakage(),
                config.crosspoint_defect(),
                config.seed()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crossbar_array::CrossbarError;

    #[test]
    fn construction_validates_rates_with_a_typed_error() {
        for (breakage, stuck) in [
            (-0.1, 0.0),
            (0.0, -0.1),
            (1.5, 0.0),
            (0.0, 1.5),
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 0.0),
        ] {
            let error = DefectConfig::new(breakage, stuck, 1).unwrap_err();
            assert!(
                matches!(
                    error,
                    SimError::Crossbar(CrossbarError::InvalidProbability { .. })
                ),
                "({breakage}, {stuck}) produced {error:?}"
            );
            assert!(DefectKind::sampled(breakage, stuck, 1).is_err());
        }
        assert!(DefectConfig::new(0.0, 0.0, 1).is_ok());
        assert!(DefectConfig::new(1.0, 1.0, 1).is_ok());
    }

    #[test]
    fn accessors_and_model_round_trip_the_rates() {
        let config = DefectConfig::new(0.05, 0.02, 42).unwrap();
        assert_eq!(config.nanowire_breakage(), 0.05);
        assert_eq!(config.crosspoint_defect(), 0.02);
        assert_eq!(config.seed(), 42);
        let model = config.model();
        assert_eq!(model.nanowire_breakage(), 0.05);
        assert_eq!(model.crosspoint_defect(), 0.02);
    }

    #[test]
    fn kind_defaults_to_none_and_exposes_rates() {
        assert_eq!(DefectKind::default(), DefectKind::None);
        assert!(DefectKind::None.is_none());
        assert_eq!(DefectKind::None.nanowire_breakage(), 0.0);
        let sampled = DefectKind::sampled(0.1, 0.05, 7).unwrap();
        assert!(!sampled.is_none());
        assert_eq!(sampled.nanowire_breakage(), 0.1);
        assert_eq!(sampled.crosspoint_defect(), 0.05);
        assert_eq!(sampled.config().unwrap().seed(), 7);
    }

    #[test]
    fn kinds_render_for_report_rows() {
        assert_eq!(DefectKind::None.to_string(), "none");
        assert_eq!(
            DefectKind::sampled(0.02, 0.01, 2_009).unwrap().to_string(),
            "sampled(break=0.0200, stuck=0.0100, seed=2009)"
        );
    }
}
