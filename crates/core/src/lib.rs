//! # mspt-decoder
//!
//! The decoder design style for MSPT-fabricated nanowire crossbar arrays —
//! the primary contribution of *"Decoding Nanowire Arrays Fabricated with the
//! Multi-Spacer Patterning Technique"* (DAC 2009) as a library.
//!
//! A [`DecoderDesign`] bundles the three decisions the paper identifies:
//!
//! 1. **Code family** ([`CodeSelection`]) — tree, Gray, balanced Gray, hot or
//!    arranged hot codes. The Gray-style arrangements minimise both the
//!    fabrication complexity `Φ` and the accumulated variability `‖Σ‖₁`
//!    (Propositions 4 and 5), which [`verify_gray_arrangement_optimality`]
//!    checks empirically.
//! 2. **Code length `M`** — longer codes need fewer contact groups (less
//!    boundary loss) but more doping regions; the sweet spot is found by
//!    [`optimize`] / [`best_bit_area_design`].
//! 3. **Logic radix** — binary through quaternary threshold levels.
//!
//! From a design you can obtain the concrete fabrication recipe
//! ([`DecoderRecipe`]), the mesowire address map ([`AddressMap`]) and the full
//! evaluation on the paper's simulation platform
//! ([`PlatformReport`](decoder_sim::PlatformReport)). A design-space
//! exploration evaluates its candidates as one batch on the caller's
//! [`ExecutionEngine`](decoder_sim::ExecutionEngine).
//!
//! # Examples
//!
//! ```
//! use mspt_decoder::{CodeSelection, DecoderDesign, DecoderRecipe};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = DecoderDesign::builder()
//!     .code(CodeSelection::BalancedGray)
//!     .code_length(10)
//!     .build()?;
//!
//! // Evaluate the design on the 16 kB crossbar platform of the paper.
//! let report = design.evaluate()?;
//! assert!(report.crossbar_yield > 0.3);
//!
//! // The fabrication recipe: every lithography/implantation pass, in order.
//! let recipe = DecoderRecipe::for_design(&design)?;
//! assert_eq!(recipe.lithography_passes(), report.fabrication_steps);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addressing;
mod design;
mod encode;
mod error;
mod optimize;

pub use addressing::{AddressAssignment, AddressMap};
pub use design::{CodeSelection, DecoderDesign, DecoderDesignBuilder};
pub use encode::DecoderRecipe;
pub use error::{DecoderError, Result};
pub use optimize::{
    best_bit_area_design, optimize, verify_gray_arrangement_optimality, DesignSpace, Objective,
    OptimizationOutcome, RankedDesign,
};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecoderDesign>();
        assert_send_sync::<DecoderDesignBuilder>();
        assert_send_sync::<DecoderRecipe>();
        assert_send_sync::<AddressMap>();
        assert_send_sync::<DesignSpace>();
        assert_send_sync::<DecoderError>();
    }

    #[test]
    fn end_to_end_design_flow() {
        let design = DecoderDesign::builder()
            .code(CodeSelection::ArrangedHot)
            .code_length(6)
            .nanowires_per_half_cave(20)
            .build()
            .unwrap();
        let report = design.evaluate().unwrap();
        let recipe = DecoderRecipe::for_design(&design).unwrap();
        let map = AddressMap::for_design(&design).unwrap();
        assert_eq!(recipe.lithography_passes(), report.fabrication_steps);
        map.verify_unique_addressing().unwrap();
    }
}
