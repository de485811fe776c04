//! High-level description of a code choice: which family, which radix, which
//! code length — and generation of the corresponding ordered code sequence.
//!
//! [`CodeSpec`] is the main entry point used by the decoder design layer: the
//! paper's design space is exactly the cross-product of [`CodeKind`], the
//! logic radix and the code length `M`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::arranged::{arranged_hot_code, ArrangedHotBudget};
use crate::balanced::{reflected_balanced_gray_code, BalanceBudget};
use crate::cyclic::{hot_prefix, reflected_prefix};
use crate::digit::LogicLevel;
use crate::error::{CodeError, Result};
use crate::gray::reflected_gray_code;
use crate::hot::hot_code;
use crate::hot::{hot_space_size, HotCodeParams};
use crate::sequence::CodeSequence;
use crate::tree::{base_length_of, reflected_tree_code, tree_space_size};

/// The five code families evaluated by the paper (Section 2.3 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodeKind {
    /// Tree code (TC): the full `n^(M/2)` space in lexicographic order,
    /// reflected.
    Tree,
    /// Gray code (GC): the tree-code space in Gray order, reflected.
    Gray,
    /// Balanced Gray code (BGC): a Gray arrangement with per-digit transition
    /// counts balanced, reflected.
    BalancedGray,
    /// Hot code (HC): constant-composition words (`M = k·n`), lexicographic.
    Hot,
    /// Arranged hot code (AHC): the hot-code space ordered with two digit
    /// transitions per step.
    ArrangedHot,
}

impl CodeKind {
    /// All code kinds, in the order the paper's figures present them.
    pub const ALL: [CodeKind; 5] = [
        CodeKind::Tree,
        CodeKind::Gray,
        CodeKind::BalancedGray,
        CodeKind::Hot,
        CodeKind::ArrangedHot,
    ];

    /// Whether this family is built on the tree-code space (and therefore
    /// used in reflected form, `M = 2·m`).
    #[must_use]
    pub fn is_tree_family(self) -> bool {
        matches!(
            self,
            CodeKind::Tree | CodeKind::Gray | CodeKind::BalancedGray
        )
    }

    /// Whether this family is built on a hot-code space (`M = k·n`).
    #[must_use]
    pub fn is_hot_family(self) -> bool {
        matches!(self, CodeKind::Hot | CodeKind::ArrangedHot)
    }

    /// Whether the family is one of the transition-optimised arrangements
    /// (GC, BGC, AHC) rather than a baseline order (TC, HC).
    #[must_use]
    pub fn is_optimised(self) -> bool {
        matches!(
            self,
            CodeKind::Gray | CodeKind::BalancedGray | CodeKind::ArrangedHot
        )
    }

    /// The short label used by the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CodeKind::Tree => "TC",
            CodeKind::Gray => "GC",
            CodeKind::BalancedGray => "BGC",
            CodeKind::Hot => "HC",
            CodeKind::ArrangedHot => "AHC",
        }
    }
}

impl fmt::Display for CodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CodeKind::Tree => "tree code",
            CodeKind::Gray => "Gray code",
            CodeKind::BalancedGray => "balanced Gray code",
            CodeKind::Hot => "hot code",
            CodeKind::ArrangedHot => "arranged hot code",
        };
        write!(f, "{name}")
    }
}

/// Search budgets for the code families that are built by search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CodeBudgets {
    /// Budget of the balanced-Gray-code search.
    pub balance: BalanceBudget,
    /// Budget of the arranged-hot-code search.
    pub arranged_hot: ArrangedHotBudget,
}

/// A complete description of a code choice: family, radix and code length.
///
/// # Examples
///
/// ```
/// use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8)?;
/// let sequence = spec.generate()?;
/// assert_eq!(sequence.word_length(), 8);
/// assert_eq!(spec.space_size(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodeSpec {
    kind: CodeKind,
    radix: LogicLevel,
    code_length: usize,
}

impl CodeSpec {
    /// Creates a code specification, validating the code length against the
    /// family's constraints.
    ///
    /// # Errors
    ///
    /// * [`CodeError::OddReflectedLength`] for tree-family codes with an odd
    ///   length.
    /// * [`CodeError::InvalidHotLength`] for hot-family codes whose length is
    ///   not a multiple of the radix.
    /// * [`CodeError::InvalidLength`] for a zero length.
    pub fn new(kind: CodeKind, radix: LogicLevel, code_length: usize) -> Result<Self> {
        if code_length == 0 {
            return Err(CodeError::InvalidLength { length: 0 });
        }
        if kind.is_tree_family() {
            base_length_of(code_length)?;
        } else {
            HotCodeParams::for_length(code_length, radix)?;
        }
        Ok(CodeSpec {
            kind,
            radix,
            code_length,
        })
    }

    /// The code family.
    #[must_use]
    pub fn kind(&self) -> CodeKind {
        self.kind
    }

    /// The logic radix.
    #[must_use]
    pub fn radix(&self) -> LogicLevel {
        self.radix
    }

    /// The full code length `M` (number of doping regions per nanowire).
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.code_length
    }

    /// The number of distinct code words (the code-space size `Ω`), i.e. the
    /// number of nanowires one contact group can address uniquely.
    #[must_use]
    pub fn space_size(&self) -> u128 {
        if self.kind.is_tree_family() {
            tree_space_size(self.radix, self.code_length / 2)
        } else {
            hot_space_size(self.radix, self.code_length).unwrap_or(0)
        }
    }

    /// Generates the ordered code sequence with default search budgets.
    ///
    /// # Errors
    ///
    /// Propagates generation errors (space too large, arrangement not found).
    pub fn generate(&self) -> Result<CodeSequence> {
        self.generate_with(CodeBudgets::default())
    }

    /// Generates the ordered code sequence with explicit search budgets.
    ///
    /// # Errors
    ///
    /// Propagates generation errors (space too large, arrangement not found).
    pub fn generate_with(&self, budgets: CodeBudgets) -> Result<CodeSequence> {
        match self.kind {
            CodeKind::Tree => reflected_tree_code(self.radix, self.code_length),
            CodeKind::Gray => reflected_gray_code(self.radix, self.code_length),
            CodeKind::BalancedGray => {
                reflected_balanced_gray_code(self.radix, self.code_length, budgets.balance)
            }
            CodeKind::Hot => hot_code(self.radix, self.code_length),
            CodeKind::ArrangedHot => {
                arranged_hot_code(self.radix, self.code_length, budgets.arranged_hot)
            }
        }
    }

    /// The first `count` words of the code's cyclic extension (word `i` is
    /// word `i mod Ω` of the sequence): what a half cave of `count`
    /// nanowires reads. Equal, word for word and error for error, to
    /// `self.generate_with(budgets)?.take_cyclic(count)`. Tree, Gray and hot
    /// codes build only the `count` words they return; the searched
    /// families (BGC, AHC) generate their whole arrangement first.
    ///
    /// # Errors
    ///
    /// Propagates generation errors, then returns
    /// [`CodeError::InvalidLength`] when `count == 0`.
    pub fn generate_cyclic(&self, budgets: CodeBudgets, count: usize) -> Result<CodeSequence> {
        match self.kind {
            CodeKind::Tree => reflected_prefix(self.radix, self.code_length, count, false),
            CodeKind::Gray => reflected_prefix(self.radix, self.code_length, count, true),
            CodeKind::Hot => hot_prefix(self.radix, self.code_length, count),
            CodeKind::BalancedGray | CodeKind::ArrangedHot => {
                self.generate_with(budgets)?.take_cyclic(count)
            }
        }
    }

    /// The valid code lengths of this family and radix within a range,
    /// convenient for parameter sweeps (Figs. 7 and 8 sweep `M`).
    #[must_use]
    pub fn valid_lengths(
        kind: CodeKind,
        radix: LogicLevel,
        range: std::ops::RangeInclusive<usize>,
    ) -> Vec<usize> {
        range
            .filter(|&m| CodeSpec::new(kind, radix, m).is_ok())
            .collect()
    }
}

impl fmt::Display for CodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, M = {})",
            self.kind.label(),
            self.radix,
            self.code_length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_family_requires_even_length() {
        assert!(CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).is_ok());
        assert!(CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 7).is_err());
        assert!(CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 0).is_err());
    }

    #[test]
    fn hot_family_requires_multiple_of_radix() {
        assert!(CodeSpec::new(CodeKind::Hot, LogicLevel::BINARY, 6).is_ok());
        assert!(CodeSpec::new(CodeKind::Hot, LogicLevel::TERNARY, 6).is_ok());
        assert!(CodeSpec::new(CodeKind::ArrangedHot, LogicLevel::TERNARY, 7).is_err());
    }

    #[test]
    fn space_sizes_match_families() {
        assert_eq!(
            CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 10)
                .unwrap()
                .space_size(),
            32
        );
        assert_eq!(
            CodeSpec::new(CodeKind::Gray, LogicLevel::TERNARY, 8)
                .unwrap()
                .space_size(),
            81
        );
        assert_eq!(
            CodeSpec::new(CodeKind::Hot, LogicLevel::BINARY, 8)
                .unwrap()
                .space_size(),
            70
        );
    }

    #[test]
    fn generation_matches_kind_properties() {
        let gray = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8)
            .unwrap()
            .generate()
            .unwrap();
        assert!(gray.has_uniform_distance(2));

        let tree = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8)
            .unwrap()
            .generate()
            .unwrap();
        assert!(tree.total_transitions() > gray.total_transitions());

        let ahc = CodeSpec::new(CodeKind::ArrangedHot, LogicLevel::BINARY, 6)
            .unwrap()
            .generate()
            .unwrap();
        assert!(ahc.has_uniform_distance(2));
    }

    #[test]
    fn kind_classification() {
        assert!(CodeKind::Tree.is_tree_family());
        assert!(CodeKind::BalancedGray.is_tree_family());
        assert!(CodeKind::Hot.is_hot_family());
        assert!(!CodeKind::Hot.is_tree_family());
        assert!(CodeKind::Gray.is_optimised());
        assert!(!CodeKind::Tree.is_optimised());
        assert_eq!(CodeKind::ALL.len(), 5);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(CodeKind::BalancedGray.label(), "BGC");
        assert_eq!(CodeKind::ArrangedHot.to_string(), "arranged hot code");
        let spec = CodeSpec::new(CodeKind::Gray, LogicLevel::TERNARY, 8).unwrap();
        assert_eq!(spec.to_string(), "GC (ternary, M = 8)");
    }

    #[test]
    fn valid_lengths_sweep() {
        assert_eq!(
            CodeSpec::valid_lengths(CodeKind::Tree, LogicLevel::BINARY, 4..=10),
            vec![4, 6, 8, 10]
        );
        assert_eq!(
            CodeSpec::valid_lengths(CodeKind::Hot, LogicLevel::TERNARY, 4..=10),
            vec![6, 9]
        );
    }

    #[test]
    fn accessors_return_inputs() {
        let spec = CodeSpec::new(CodeKind::Hot, LogicLevel::QUATERNARY, 8).unwrap();
        assert_eq!(spec.kind(), CodeKind::Hot);
        assert_eq!(spec.radix(), LogicLevel::QUATERNARY);
        assert_eq!(spec.code_length(), 8);
    }
}
