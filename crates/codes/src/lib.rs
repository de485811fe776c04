//! # nanowire-codes
//!
//! Multi-valued code spaces and arrangements for nanowire-decoder design,
//! reproducing the encoding machinery of *"Decoding Nanowire Arrays
//! Fabricated with the Multi-Spacer Patterning Technique"* (Ben Jamaa,
//! Leblebici, De Micheli — DAC 2009).
//!
//! A nanowire in an MSPT crossbar is identified by a *code word*: one digit
//! per doping region, each digit selecting a threshold-voltage level out of
//! `n` (the logic radix). The paper evaluates five code families:
//!
//! | Family | Constructor | Property |
//! |---|---|---|
//! | Tree code (TC) | [`reflected_tree_code`] | full `n^(M/2)` space, lexicographic, reflected |
//! | Gray code (GC) | [`reflected_gray_code`] | one digit change per step (two after reflection) |
//! | Balanced Gray code (BGC) | [`reflected_balanced_gray_code`] | Gray + per-digit transition counts balanced |
//! | Hot code (HC) | [`hot_code`] | every value appears exactly `k` times, `M = k·n` |
//! | Arranged hot code (AHC) | [`arranged_hot_code`] | hot code ordered with two digit changes per step |
//!
//! The ordering of the code words matters because in the MSPT flow every
//! doping step applied to nanowire `i` also hits every nanowire defined
//! before it: both the fabrication complexity `Φ` and the accumulated
//! variability `‖Σ‖₁` grow with the number of digit *transitions* between
//! successive words ([`CodeSequence::total_transitions`]). The Gray-style
//! arrangements minimise exactly that quantity (Propositions 4 and 5 of the
//! paper).
//!
//! # Examples
//!
//! ```
//! use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Compare the transition cost of the tree code and the Gray code over
//! // the same binary space of length M = 8.
//! let tree = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8)?.generate()?;
//! let gray = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8)?.generate()?;
//! assert!(gray.total_transitions() < tree.total_transitions());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arranged;
mod arrangement;
mod balanced;
mod cyclic;
mod digit;
mod error;
mod gray;
mod hot;
mod sequence;
mod space;
mod tree;
mod word;

pub use arranged::arranged_hot_code;
pub use arrangement::{check_is_permutation, MAX_ARRANGED_WORDS};
pub use balanced::{
    balance_report, balanced_gray_code, reflected_balanced_gray_code, BalanceBudget, BalanceReport,
};
pub use digit::{Digit, LogicLevel, MAX_RADIX, MIN_RADIX};
pub use error::{CodeError, Result};
pub use gray::{gray_code, is_complete_gray_arrangement, reflected_gray_code};
pub use hot::{hot_code, hot_space_size, HotCodeParams};
pub use sequence::CodeSequence;
pub use space::{CodeBudgets, CodeKind, CodeSpec};
pub use tree::{
    base_length_of, reflected_tree_code, tree_code, tree_space_size, MAX_ENUMERATED_WORDS,
};
pub use word::CodeWord;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CodeWord>();
        assert_send_sync::<CodeSequence>();
        assert_send_sync::<CodeSpec>();
        assert_send_sync::<CodeError>();
    }
}
