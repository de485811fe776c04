//! Arrangement machinery shared by the searched code families: the bound on
//! the words a search may arrange, the budget checks, the permutation
//! check, and the greedy nearest-neighbour ordering improved by 2-opt that
//! an arranged hot code falls back to when its distance-2 search runs out
//! of nodes.
//!
//! The Gray code is the closed-form answer for full tree-code spaces; for
//! hot codes (Section 5.2) and for balancing objectives the paper relies on
//! search.

use serde::{Deserialize, Serialize};

use crate::error::{CodeError, Result};
use crate::sequence::CodeSequence;
use crate::word::CodeWord;

/// The most words a balanced-Gray-code or arranged-hot-code search may
/// arrange; a larger space is [`CodeError::SpaceTooLarge`] before any word
/// is generated. Both searches recurse once per word on the caller's
/// thread: a 1 024-word search needs ~0.3 MiB of stack optimized, and a
/// 729-word one ~0.5 MiB unoptimized, well inside a 2 MiB thread stack (a
/// server worker's); the default budgets' worst case at this size is
/// ~15 s (a 1 000-word radix-10 BGC, 2-vCPU Xeon). The experiments'
/// largest such codes have 32 (BGC) and 252 (AHC) words.
pub const MAX_ARRANGED_WORDS: u128 = 1 << 10;

/// Rejects a search budget above `limit`, its default value: the budgets
/// bound a search's running time, so the defaults are the most a search
/// accepts.
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

/// Limits of the greedy/2-opt fallback of the arranged hot code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchBudget {
    /// Checked against its default and kept on the wire
    /// (`arranged_hot.fallback.max_nodes`), but read by no search: the
    /// fallback expands no search nodes.
    pub max_nodes: u64,
    /// Maximum number of full 2-opt sweeps.
    pub max_two_opt_sweeps: u32,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_nodes: 2_000_000,
            max_two_opt_sweeps: 64,
        }
    }
}

/// Orders `words` so that successive words differ in few digits: the
/// cheapest greedy nearest-neighbour path over every start word, improved
/// by at most `max_sweeps` 2-opt sweeps.
///
/// # Errors
///
/// * [`CodeError::EmptySequence`] when `words` is empty.
/// * [`CodeError::LengthMismatch`] / [`CodeError::RadixMismatch`] when the
///   words are not mutually compatible.
pub(crate) fn arrange_greedy_two_opt(
    words: Vec<CodeWord>,
    max_sweeps: u32,
) -> Result<CodeSequence> {
    // Validate compatibility up-front by building a sequence.
    let words = CodeSequence::new(words)?.into_words();
    let distances = distance_matrix(&words)?;
    let mut order = greedy_order(&distances);
    two_opt(&mut order, &distances, max_sweeps);
    CodeSequence::new(order.into_iter().map(|i| words[i].clone()).collect())
}

/// The pairwise digit-transition (Hamming) distance matrix of a word set.
fn distance_matrix(words: &[CodeWord]) -> Result<Vec<Vec<usize>>> {
    let n = words.len();
    let mut matrix = vec![vec![0usize; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = words[i].transitions_to(&words[j])?;
            matrix[i][j] = d;
            matrix[j][i] = d;
        }
    }
    Ok(matrix)
}

fn path_cost(order: &[usize], distances: &[Vec<usize>]) -> usize {
    order
        .windows(2)
        .map(|pair| distances[pair[0]][pair[1]])
        .sum()
}

/// Greedy nearest-neighbour path starting from every possible node, keeping
/// the cheapest result.
fn greedy_order(distances: &[Vec<usize>]) -> Vec<usize> {
    let n = distances.len();
    let mut best: Option<(usize, Vec<usize>)> = None;
    for start in 0..n {
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        visited[start] = true;
        order.push(start);
        let mut current = start;
        for _ in 1..n {
            let mut next = None;
            let mut next_dist = usize::MAX;
            for (candidate, seen) in visited.iter().enumerate() {
                if !seen && distances[current][candidate] < next_dist {
                    next = Some(candidate);
                    next_dist = distances[current][candidate];
                }
            }
            let next = next.expect("unvisited node must exist");
            visited[next] = true;
            order.push(next);
            current = next;
        }
        let cost = path_cost(&order, distances);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, order));
        }
    }
    best.expect("at least one start").1
}

/// 2-opt local improvement: repeatedly reverse sub-paths while that reduces
/// the path cost.
fn two_opt(order: &mut [usize], distances: &[Vec<usize>], max_sweeps: u32) {
    let n = order.len();
    if n < 4 {
        return;
    }
    for _ in 0..max_sweeps {
        let mut improved = false;
        for i in 0..(n - 2) {
            for j in (i + 2)..n {
                // Reversing order[i+1..=j] replaces edges (i, i+1) and
                // (j, j+1) with (i, j) and (i+1, j+1).
                let before = distances[order[i]][order[i + 1]]
                    + if j + 1 < n {
                        distances[order[j]][order[j + 1]]
                    } else {
                        0
                    };
                let after = distances[order[i]][order[j]]
                    + if j + 1 < n {
                        distances[order[i + 1]][order[j + 1]]
                    } else {
                        0
                    };
                if after < before {
                    order[i + 1..=j].reverse();
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
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
    use crate::hot::hot_code;
    use crate::tree::tree_code;

    const SWEEPS: u32 = 64;

    #[test]
    fn single_word_is_trivially_optimal() {
        let word = CodeWord::from_values(&[0, 1], LogicLevel::BINARY).unwrap();
        let arranged = arrange_greedy_two_opt(vec![word.clone()], SWEEPS).unwrap();
        assert_eq!(arranged.words(), [word]);
        assert_eq!(arranged.total_transitions(), 0);
    }

    #[test]
    fn greedy_never_worse_than_lexicographic() {
        // No 2-opt sweeps: the greedy order alone.
        let hc = hot_code(LogicLevel::BINARY, 6).unwrap();
        let arranged = arrange_greedy_two_opt(hc.words().to_vec(), 0).unwrap();
        assert!(arranged.total_transitions() <= hc.total_transitions());
        check_is_permutation(&arranged, hc.words()).unwrap();
    }

    #[test]
    fn two_opt_never_worse_than_greedy() {
        let hc = hot_code(LogicLevel::TERNARY, 6).unwrap();
        let greedy = arrange_greedy_two_opt(hc.words().to_vec(), 0).unwrap();
        let two_opt = arrange_greedy_two_opt(hc.words().to_vec(), SWEEPS).unwrap();
        assert!(two_opt.total_transitions() <= greedy.total_transitions());
        check_is_permutation(&two_opt, hc.words()).unwrap();
    }

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

    #[test]
    fn incompatible_words_rejected() {
        let words = vec![
            CodeWord::from_values(&[0, 1], LogicLevel::BINARY).unwrap(),
            CodeWord::from_values(&[0, 1, 1], LogicLevel::BINARY).unwrap(),
        ];
        assert!(arrange_greedy_two_opt(words, SWEEPS).is_err());
        assert!(arrange_greedy_two_opt(vec![], SWEEPS).is_err());
    }
}
