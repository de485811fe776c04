//! Generic arrangement search: ordering a set of code words so that the total
//! number of digit transitions between successive words is minimised.
//!
//! The Gray code is the closed-form answer for full tree-code spaces; for hot
//! codes (Section 5.2) and for balancing objectives the paper relies on
//! search. This module provides the shared machinery: exhaustive
//! (branch-and-bound Hamiltonian-path) search for small spaces, greedy
//! nearest-neighbour construction and 2-opt local improvement for larger
//! ones.

use std::collections::HashSet;

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

/// Strategy used to arrange a set of code words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum ArrangementStrategy {
    /// Branch-and-bound search for a provably minimal arrangement. Falls back
    /// to [`ArrangementStrategy::GreedyTwoOpt`] when the search budget is
    /// exhausted.
    Exhaustive,
    /// Greedy nearest-neighbour construction.
    Greedy,
    /// Greedy construction followed by 2-opt local improvement.
    #[default]
    GreedyTwoOpt,
}

/// Tunable limits for arrangement search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchBudget {
    /// Maximum number of branch-and-bound nodes expanded before giving up on
    /// exact search.
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

/// Outcome of an arrangement search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrangement {
    /// The arranged sequence.
    pub sequence: CodeSequence,
    /// Total number of digit transitions of the arranged sequence.
    pub total_transitions: usize,
    /// Whether the result is provably optimal (exhaustive search completed).
    pub proven_optimal: bool,
}

/// Arranges `words` to minimise the total number of digit transitions between
/// successive words.
///
/// # Errors
///
/// * [`CodeError::EmptySequence`] when `words` is empty.
/// * [`CodeError::LengthMismatch`] / [`CodeError::RadixMismatch`] when the
///   words are not mutually compatible.
///
/// # Examples
///
/// ```
/// use nanowire_codes::{arrange_min_transitions, hot_code, ArrangementStrategy, LogicLevel, SearchBudget};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let hc = hot_code(LogicLevel::BINARY, 4)?;
/// let arranged = arrange_min_transitions(
///     hc.words().to_vec(),
///     ArrangementStrategy::Exhaustive,
///     SearchBudget::default(),
/// )?;
/// // Constant-weight words can never differ in fewer than two digits, so the
/// // optimum is two transitions per step.
/// assert_eq!(arranged.total_transitions, 2 * (hc.len() - 1));
/// # Ok(())
/// # }
/// ```
pub fn arrange_min_transitions(
    words: Vec<CodeWord>,
    strategy: ArrangementStrategy,
    budget: SearchBudget,
) -> Result<Arrangement> {
    // Validate compatibility up-front by building a sequence.
    let baseline = CodeSequence::new(words)?;
    let words = baseline.into_words();
    if words.len() == 1 {
        let sequence = CodeSequence::new(words)?;
        return Ok(Arrangement {
            total_transitions: 0,
            sequence,
            proven_optimal: true,
        });
    }

    let distances = distance_matrix(&words)?;
    match strategy {
        ArrangementStrategy::Greedy => {
            let order = greedy_order(&distances);
            finish(words, order, &distances, false)
        }
        ArrangementStrategy::GreedyTwoOpt => {
            let mut order = greedy_order(&distances);
            two_opt(&mut order, &distances, budget.max_two_opt_sweeps);
            finish(words, order, &distances, false)
        }
        ArrangementStrategy::Exhaustive => {
            let mut initial = greedy_order(&distances);
            two_opt(&mut initial, &distances, budget.max_two_opt_sweeps);
            let upper_bound = path_cost(&initial, &distances);
            match branch_and_bound(&distances, upper_bound, budget.max_nodes) {
                Some((order, _cost, completed)) => finish(words, order, &distances, completed),
                None => finish(words, initial, &distances, false),
            }
        }
    }
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

/// Branch-and-bound Hamiltonian-path search minimising the path cost.
///
/// Returns the best order found, its cost, and whether the search space was
/// fully explored (so the result is provably optimal).
fn branch_and_bound(
    distances: &[Vec<usize>],
    initial_upper_bound: usize,
    max_nodes: u64,
) -> Option<(Vec<usize>, usize, bool)> {
    let n = distances.len();
    // Minimum outgoing edge per node, used for an admissible lower bound.
    let min_edge: Vec<usize> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i)
                .map(|j| distances[i][j])
                .min()
                .unwrap_or(0)
        })
        .collect();

    struct SearchState<'a> {
        distances: &'a [Vec<usize>],
        min_edge: &'a [usize],
        best_cost: usize,
        best_order: Option<Vec<usize>>,
        nodes: u64,
        max_nodes: u64,
        aborted: bool,
    }

    fn dfs(
        state: &mut SearchState<'_>,
        order: &mut Vec<usize>,
        visited: &mut Vec<bool>,
        cost: usize,
    ) {
        if state.aborted {
            return;
        }
        state.nodes += 1;
        if state.nodes > state.max_nodes {
            state.aborted = true;
            return;
        }
        let n = state.distances.len();
        if order.len() == n {
            if cost < state.best_cost {
                state.best_cost = cost;
                state.best_order = Some(order.clone());
            }
            return;
        }
        // Lower bound: current cost plus the cheapest outgoing edge of every
        // unvisited node except one (the path end has no outgoing edge).
        let mut remaining_bound: usize = 0;
        let mut max_single = 0usize;
        for (node, seen) in visited.iter().enumerate() {
            if !seen {
                remaining_bound += state.min_edge[node];
                max_single = max_single.max(state.min_edge[node]);
            }
        }
        let bound = cost + remaining_bound.saturating_sub(max_single);
        if bound >= state.best_cost {
            return;
        }
        let current = *order.last().expect("non-empty order");
        // Expand cheapest edges first so good solutions are found early.
        let mut candidates: Vec<usize> = (0..n).filter(|&j| !visited[j]).collect();
        candidates.sort_by_key(|&j| state.distances[current][j]);
        for j in candidates {
            visited[j] = true;
            order.push(j);
            dfs(state, order, visited, cost + state.distances[current][j]);
            order.pop();
            visited[j] = false;
        }
    }

    let mut state = SearchState {
        distances,
        min_edge: &min_edge,
        best_cost: initial_upper_bound + 1,
        best_order: None,
        nodes: 0,
        max_nodes,
        aborted: false,
    };

    for start in 0..n {
        let mut visited = vec![false; n];
        visited[start] = true;
        let mut order = vec![start];
        dfs(&mut state, &mut order, &mut visited, 0);
        if state.aborted {
            break;
        }
    }

    state
        .best_order
        .map(|order| (order, state.best_cost, !state.aborted))
}

fn finish(
    words: Vec<CodeWord>,
    order: Vec<usize>,
    distances: &[Vec<usize>],
    proven_optimal: bool,
) -> Result<Arrangement> {
    // mspt-analyze: allow(determinism-unsafe-calls) debug-only cardinality check; only len() is read, never iteration order
    debug_assert_eq!(order.iter().collect::<HashSet<_>>().len(), words.len());
    let total_transitions = path_cost(&order, distances);
    let arranged: Vec<CodeWord> = order.into_iter().map(|i| words[i].clone()).collect();
    let sequence = CodeSequence::new(arranged)?;
    Ok(Arrangement {
        sequence,
        total_transitions,
        proven_optimal,
    })
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

    #[test]
    fn single_word_is_trivially_optimal() {
        let word = CodeWord::from_values(&[0, 1], LogicLevel::BINARY).unwrap();
        let arranged = arrange_min_transitions(
            vec![word],
            ArrangementStrategy::Exhaustive,
            SearchBudget::default(),
        )
        .unwrap();
        assert_eq!(arranged.total_transitions, 0);
        assert!(arranged.proven_optimal);
    }

    #[test]
    fn exhaustive_reaches_gray_optimum_on_small_tree_code() {
        let tc = tree_code(LogicLevel::BINARY, 3).unwrap();
        let arranged = arrange_min_transitions(
            tc.words().to_vec(),
            ArrangementStrategy::Exhaustive,
            SearchBudget::default(),
        )
        .unwrap();
        // The optimum over the full binary space is the Gray code: 1 digit
        // change per step.
        assert_eq!(arranged.total_transitions, tc.len() - 1);
        assert!(arranged.sequence.is_gray());
        check_is_permutation(&arranged.sequence, tc.words()).unwrap();
    }

    #[test]
    fn exhaustive_reaches_swap_optimum_on_small_hot_code() {
        let hc = hot_code(LogicLevel::BINARY, 4).unwrap();
        let arranged = arrange_min_transitions(
            hc.words().to_vec(),
            ArrangementStrategy::Exhaustive,
            SearchBudget::default(),
        )
        .unwrap();
        assert_eq!(arranged.total_transitions, 2 * (hc.len() - 1));
        assert!(arranged.sequence.has_uniform_distance(2));
        check_is_permutation(&arranged.sequence, hc.words()).unwrap();
    }

    #[test]
    fn greedy_never_worse_than_lexicographic() {
        let hc = hot_code(LogicLevel::BINARY, 6).unwrap();
        let arranged = arrange_min_transitions(
            hc.words().to_vec(),
            ArrangementStrategy::Greedy,
            SearchBudget::default(),
        )
        .unwrap();
        assert!(arranged.total_transitions <= hc.total_transitions());
        check_is_permutation(&arranged.sequence, hc.words()).unwrap();
    }

    #[test]
    fn two_opt_never_worse_than_greedy() {
        let hc = hot_code(LogicLevel::TERNARY, 6).unwrap();
        let greedy = arrange_min_transitions(
            hc.words().to_vec(),
            ArrangementStrategy::Greedy,
            SearchBudget::default(),
        )
        .unwrap();
        let two_opt = arrange_min_transitions(
            hc.words().to_vec(),
            ArrangementStrategy::GreedyTwoOpt,
            SearchBudget::default(),
        )
        .unwrap();
        assert!(two_opt.total_transitions <= greedy.total_transitions);
    }

    #[test]
    fn exhausted_budget_falls_back_gracefully() {
        let hc = hot_code(LogicLevel::BINARY, 8).unwrap();
        let tight = SearchBudget {
            max_nodes: 10,
            max_two_opt_sweeps: 4,
        };
        let arranged =
            arrange_min_transitions(hc.words().to_vec(), ArrangementStrategy::Exhaustive, tight)
                .unwrap();
        // With an absurdly small budget the result is still a valid
        // permutation, just not proven optimal.
        assert!(!arranged.proven_optimal);
        check_is_permutation(&arranged.sequence, hc.words()).unwrap();
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
        assert!(arrange_min_transitions(
            words,
            ArrangementStrategy::Greedy,
            SearchBudget::default()
        )
        .is_err());
        assert!(arrange_min_transitions(
            vec![],
            ArrangementStrategy::Greedy,
            SearchBudget::default()
        )
        .is_err());
    }
}
