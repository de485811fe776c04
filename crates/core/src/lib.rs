//! # mspt-decoder
//!
//! The decoder design style for MSPT-fabricated nanowire crossbar arrays —
//! the primary contribution of *"Decoding Nanowire Arrays Fabricated with the
//! Multi-Spacer Patterning Technique"* (DAC 2009) as a library.
//!
//! A design point is one [`SimConfig`](decoder_sim::SimConfig): the paper
//! defaults ([`SimConfig::paper_defaults`](decoder_sim::SimConfig::paper_defaults))
//! with the three decisions the paper identifies —
//!
//! 1. **Code family** ([`CodeKind`](nanowire_codes::CodeKind)) — tree, Gray,
//!    balanced Gray, hot or arranged hot codes. The Gray-style arrangements
//!    minimise both the fabrication complexity `Φ` and the accumulated
//!    variability `‖Σ‖₁` (Propositions 4 and 5), which
//!    [`verify_gray_arrangement_optimality`] checks empirically.
//! 2. **Code length `M`** — longer codes need fewer contact groups (less
//!    boundary loss) but more doping regions; the sweet spot is found by
//!    [`optimize`] / [`best_bit_area_design`].
//! 3. **Logic radix** — binary through quaternary threshold levels.
//!
//! From a configuration you can obtain the concrete fabrication recipe
//! ([`DecoderRecipe::for_config`]), the mesowire address map
//! ([`AddressMap::for_config`]) and the full evaluation on the paper's
//! simulation platform
//! ([`SimulationPlatform::evaluate`](decoder_sim::SimulationPlatform::evaluate)).
//! A design-space exploration evaluates its candidates as one batch on the
//! caller's [`ExecutionEngine`](decoder_sim::ExecutionEngine) and returns
//! the winning configuration.
//!
//! # Examples
//!
//! ```
//! use decoder_sim::{SimConfig, SimulationPlatform};
//! use mspt_decoder::DecoderRecipe;
//! use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10)?;
//! let config = SimConfig::paper_defaults(code)?;
//!
//! // Evaluate the design on the 16 kB crossbar platform of the paper.
//! let report = SimulationPlatform::new(config.clone()).evaluate()?;
//! assert!(report.crossbar_yield > 0.3);
//!
//! // The fabrication recipe: every lithography/implantation pass, in order.
//! let recipe = DecoderRecipe::for_config(&config)?;
//! assert_eq!(recipe.lithography_passes(), report.fabrication_steps);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addressing;
mod encode;
mod error;
mod optimize;

pub use addressing::{AddressAssignment, AddressMap};
pub use encode::DecoderRecipe;
pub use error::{DecoderError, Result};
pub use optimize::{
    best_bit_area_design, optimize, verify_gray_arrangement_optimality, DesignSpace, Objective,
    OptimizationOutcome, RankedDesign,
};

#[cfg(test)]
mod crate_tests {
    use super::*;
    use decoder_sim::{SimConfig, SimulationPlatform};
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecoderRecipe>();
        assert_send_sync::<AddressMap>();
        assert_send_sync::<DesignSpace>();
        assert_send_sync::<OptimizationOutcome>();
        assert_send_sync::<DecoderError>();
    }

    #[test]
    fn end_to_end_design_flow() {
        let code = CodeSpec::new(CodeKind::ArrangedHot, LogicLevel::BINARY, 6).unwrap();
        let config = SimConfig::paper_defaults(code).unwrap();
        let report = SimulationPlatform::new(config.clone()).evaluate().unwrap();
        let recipe = DecoderRecipe::for_config(&config).unwrap();
        let map = AddressMap::for_config(&config).unwrap();
        assert_eq!(recipe.lithography_passes(), report.fabrication_steps);
        map.verify_unique_addressing().unwrap();
    }

    #[test]
    fn evaluation_report_is_internally_consistent() {
        let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
        let config = SimConfig::paper_defaults(code)
            .unwrap()
            .with_nanowires_per_half_cave(20)
            .unwrap();
        let report = SimulationPlatform::new(config.clone()).evaluate().unwrap();
        let recipe = DecoderRecipe::for_config(&config).unwrap();
        assert_eq!(recipe.lithography_passes(), report.fabrication_steps);
        assert!(!recipe.distinct_doses().is_empty());
        assert!((report.crossbar_yield - report.cave_yield.powi(2)).abs() < 1e-12);
        assert!(report.effective_bit_area >= report.raw_bit_area);
        assert_eq!(report.nanowires_per_half_cave, 20);
    }
}
