//! # crossbar-array
//!
//! Crossbar geometry, contact groups, electrical addressing, yield and area
//! models for MSPT nanowire arrays — the Section 6.1 simulation substrate of
//! the DAC 2009 paper.
//!
//! The chain from a code choice to the paper's figures is:
//!
//! 1. [`LayoutRules`] fixes the lithography pitch `P_L = 32 nm`, the nanowire
//!    pitch `P_N = 10 nm` and the contact design rules.
//! 2. [`ContactGroupLayout`] partitions the `N` nanowires of a half cave into
//!    the fewest possible contact groups given the code-space size `Ω`, and
//!    accounts for the nanowires lost at group boundaries.
//! 3. [`AddressabilityProfile`] turns the accumulated variability `Σ` of the
//!    fabrication model into a per-nanowire probability of being electrically
//!    addressable.
//! 4. [`CaveYield`] combines both into the cave yield `Y` and the crossbar
//!    yield `Y²` (Fig. 7), and [`CrossbarArea`] adds the footprint model that
//!    produces the effective bit area (Fig. 8).
//!
//! # Examples
//!
//! ```
//! use crossbar_array::{
//!     AddressabilityProfile, CaveYield, ContactGroupLayout, CrossbarArea, CrossbarSpec,
//!     LayoutRules,
//! };
//! use device_physics::{DopingLadder, ThresholdModel, VariabilityModel, Volts};
//! use mspt_fabrication::{PatternMatrix, VariabilityMatrix};
//! use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CrossbarSpec::paper_default()?;
//! let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10)?;
//! let sequence = code.generate()?.take_cyclic(spec.nanowires_per_half_cave())?;
//!
//! let ladder = DopingLadder::from_model(
//!     &ThresholdModel::default_mspt(), 2, (Volts::new(0.0), Volts::new(1.0)))?;
//! let sigma = VariabilityModel::paper_default();
//! let variability = VariabilityMatrix::from_pattern(
//!     &PatternMatrix::from_sequence(&sequence)?, &ladder, &sigma)?;
//!
//! let layout = ContactGroupLayout::new(
//!     spec.nanowires_per_half_cave(), code.space_size(), *spec.rules())?;
//! let profile = AddressabilityProfile::from_variability_with_ladder(&variability, &sigma, &ladder)?;
//! let yield_ = CaveYield::compute(&profile, &layout)?;
//! let area = CrossbarArea::compute(&spec, code.code_length(), &layout)?;
//! let bit_area = area.effective_bit_area(&spec, &yield_)?;
//! assert!(bit_area.value() > 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addressing;
mod area;
mod array;
mod cave;
mod contact;
mod defects;
mod error;
mod geometry;
mod memory;
mod yield_model;

pub use addressing::{
    addressable_prefix_len, apply_address, check_unique_addressing, conducts,
    is_uniquely_addressable, AddressOutcome,
};
pub use area::CrossbarArea;
pub use array::{CrossbarSpec, PAPER_RAW_BITS};
pub use cave::{Cave, HalfCave};
pub use contact::{ContactGroupLayout, PositionKind};
pub use defects::{
    check_defect_dimensions, chunk_seed, defect_band_count, survival_fraction, CompositeYield,
    DefectMap, DefectModel, UsableCounter, DEFECT_BAND_ROWS, MAX_DEFECT_CROSSPOINTS,
};
pub use error::{CrossbarError, Result};
pub use geometry::LayoutRules;
pub use memory::CrossbarMemory;
pub use yield_model::{AddressabilityProfile, CaveYield};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LayoutRules>();
        assert_send_sync::<ContactGroupLayout>();
        assert_send_sync::<CrossbarSpec>();
        assert_send_sync::<HalfCave>();
        assert_send_sync::<AddressabilityProfile>();
        assert_send_sync::<CaveYield>();
        assert_send_sync::<CrossbarArea>();
        assert_send_sync::<CrossbarMemory>();
        assert_send_sync::<DefectModel>();
        assert_send_sync::<UsableCounter>();
        assert_send_sync::<CrossbarError>();
    }
}
