//! The fabrication recipe of a decoder design: the concrete, ordered list of
//! MSPT process events (spacer definitions and lithography/implantation
//! passes with their doses) that realises the chosen encoding, plus summary
//! statistics a process engineer would ask for.

use serde::{Deserialize, Serialize};

use decoder_sim::{SimConfig, SimulationPlatform};
use device_physics::DopantConcentration;
use mspt_fabrication::{FabricationCost, FabricationPlan, ProcessEvent};

use crate::error::Result;

/// The concrete fabrication recipe of one decoder design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecoderRecipe {
    plan: FabricationPlan,
    cost: FabricationCost,
    distinct_doses: Vec<f64>,
}

impl DecoderRecipe {
    /// Builds the recipe for a design point: generates the configured code,
    /// assigns it to the configured half cave, derives the step doses and
    /// lays out the process events.
    ///
    /// # Errors
    ///
    /// Propagates code, fabrication and device-physics errors.
    pub fn for_config(config: &SimConfig) -> Result<Self> {
        let pattern = SimulationPlatform::new(config.clone())
            .half_cave()?
            .pattern()?;
        let ladder = config.doping_ladder()?;
        let plan = FabricationPlan::for_pattern(&pattern, &ladder)?;
        let cost = FabricationCost::from_pattern(&pattern, &ladder)?;
        let distinct_doses = collect_distinct_doses(&plan);
        Ok(DecoderRecipe {
            plan,
            cost,
            distinct_doses,
        })
    }

    /// The ordered process events of the recipe.
    #[must_use]
    pub fn plan(&self) -> &FabricationPlan {
        &self.plan
    }

    /// The per-step and total lithography/doping cost.
    #[must_use]
    pub fn cost(&self) -> &FabricationCost {
        &self.cost
    }

    /// Total number of lithography/implantation passes of the recipe (`Φ`).
    #[must_use]
    pub fn lithography_passes(&self) -> usize {
        self.plan.lithography_pass_count()
    }

    /// The distinct implant doses the recipe uses, in cm⁻³ (signed).
    ///
    /// A small dose menu is desirable in practice: every distinct dose needs
    /// its own implanter setup and qualification.
    #[must_use]
    pub fn distinct_doses(&self) -> &[f64] {
        &self.distinct_doses
    }

    /// The distinct implant doses as typed concentrations.
    #[must_use]
    pub fn distinct_doses_typed(&self) -> Vec<DopantConcentration> {
        self.distinct_doses
            .iter()
            .map(|&d| DopantConcentration::new(d))
            .collect()
    }

    /// The largest dose magnitude of the recipe — nanowires are fragile and
    /// the paper stresses that they should be doped with light doses.
    #[must_use]
    pub fn max_dose_magnitude(&self) -> f64 {
        self.distinct_doses
            .iter()
            .fold(0.0f64, |acc, &d| acc.max(d.abs()))
    }
}

fn collect_distinct_doses(plan: &FabricationPlan) -> Vec<f64> {
    let mut doses: Vec<f64> = Vec::new();
    for event in plan.events() {
        if let ProcessEvent::LithographyDoping { dose, .. } = event {
            if !doses
                .iter()
                .any(|&d| (d - dose).abs() <= 1e-9 * dose.abs().max(1.0))
            {
                doses.push(*dose);
            }
        }
    }
    doses.sort_by(|a, b| a.partial_cmp(b).expect("finite doses"));
    doses
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn config() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code)
            .unwrap()
            .with_nanowires_per_half_cave(16)
            .unwrap()
    }

    #[test]
    fn recipe_matches_the_fabrication_cost() {
        let recipe = DecoderRecipe::for_config(&config()).unwrap();
        assert_eq!(recipe.lithography_passes(), recipe.cost().total());
        assert_eq!(recipe.plan().nanowire_count(), 16);
        assert_eq!(recipe.plan().region_count(), 8);
        assert!(!recipe.distinct_doses().is_empty());
        assert!(recipe.max_dose_magnitude() > 0.0);
        assert_eq!(
            recipe.distinct_doses_typed().len(),
            recipe.distinct_doses().len()
        );
    }

    #[test]
    fn binary_recipes_use_a_small_dose_menu() {
        // For binary codes the dose menu is tiny: ±(N_D(1) − N_D(0)) plus the
        // two absolute levels of the last spacer's patterning.
        let recipe = DecoderRecipe::for_config(&config()).unwrap();
        assert!(recipe.distinct_doses().len() <= 4);
    }

    #[test]
    fn doses_are_sorted_and_distinct() {
        let recipe = DecoderRecipe::for_config(&config()).unwrap();
        let doses = recipe.distinct_doses();
        for pair in doses.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
