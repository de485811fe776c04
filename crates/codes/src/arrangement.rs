//! Arrangement machinery shared by the arranged code families: the bound on
//! the words an arrangement may order, the balanced-Gray budget check, and
//! the permutation check.
//!
//! The Gray code is the closed-form answer for full tree-code spaces; the
//! arranged hot codes above binary (Section 5.2) are walked over their
//! distance-2 graph, and the balancing objective relies on search.

use crate::error::{CodeError, Result};
use crate::sequence::CodeSequence;
use crate::word::CodeWord;

/// The most words a balanced Gray code or an arranged hot code may order; a
/// larger space is [`CodeError::SpaceTooLarge`] before any word is
/// generated. The bound holds two costs down. A balanced-Gray search that
/// exhausts its default budget takes about 1 s (0.9–1.2 s for binary
/// M = 16 and 20, ternary M = 12, quaternary M = 10, radix-5 M = 8 and
/// radix-10 M = 6; release build, 2-vCPU Xeon). An arranged hot code above
/// binary compares all Ω(Ω−1)/2 word pairs to build its distance-2 graph:
/// 258,840 pairs for the largest admitted one, radix-6 M = 6, generated in
/// 1.4–2.1 ms on the same host. The experiments' largest such codes have
/// 32 (BGC) and 252 (AHC) words.
pub const MAX_ARRANGED_WORDS: u128 = 1 << 10;

/// Rejects a balanced-Gray budget above `limit`, its default value: the
/// budgets bound the search's running time, so the defaults are the most a
/// search accepts.
pub(crate) fn check_budget(budget: &'static str, value: u64, limit: u64) -> Result<()> {
    if value > limit {
        return Err(CodeError::BudgetTooLarge {
            budget,
            value,
            limit,
        });
    }
    Ok(())
}

/// Returns an error if the words of `sequence` are not a permutation of
/// `words`.
///
/// # Errors
///
/// Returns [`CodeError::WordNotInSpace`] naming the first word that is
/// missing from either side.
pub fn check_is_permutation(sequence: &CodeSequence, words: &[CodeWord]) -> Result<()> {
    let mut expected: Vec<&CodeWord> = words.iter().collect();
    expected.sort();
    let mut actual: Vec<&CodeWord> = sequence.words().iter().collect();
    actual.sort();
    if expected.len() != actual.len() {
        return Err(CodeError::WordNotInSpace {
            word: format!(
                "sequence has {} words, space has {}",
                actual.len(),
                expected.len()
            ),
        });
    }
    for (e, a) in expected.iter().zip(actual.iter()) {
        if e != a {
            return Err(CodeError::WordNotInSpace {
                word: a.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digit::LogicLevel;
    use crate::tree::tree_code;

    #[test]
    fn permutation_check_detects_mismatch() {
        let tc = tree_code(LogicLevel::BINARY, 2).unwrap();
        let other = tree_code(LogicLevel::BINARY, 2)
            .unwrap()
            .take_prefix(3)
            .unwrap();
        assert!(check_is_permutation(&other, tc.words()).is_err());
        assert!(check_is_permutation(&tc, tc.words()).is_ok());
    }
}
