//! Arranged hot codes (AHC): hot-code spaces ordered so that successive words
//! differ in the minimum possible number of digits — two, since the
//! composition of a hot word is fixed (Section 5.2).
//!
//! For binary hot codes the arrangement is built constructively with the
//! *revolving-door* combination Gray code; for higher radices a backtracking
//! search over the distance-2 graph is used, with a greedy fallback.

use serde::{Deserialize, Serialize};

use crate::arrangement::{
    arrange_min_transitions, check_budget, ArrangementStrategy, SearchBudget, MAX_ARRANGED_WORDS,
};
use crate::digit::{Digit, LogicLevel};
use crate::error::{CodeError, Result};
use crate::hot::{hot_code, HotCodeParams};
use crate::sequence::CodeSequence;
use crate::word::CodeWord;

/// Search limits for the arranged-hot-code construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrangedHotBudget {
    /// Maximum number of DFS nodes expanded while searching for a
    /// distance-2 Hamiltonian path (non-binary radices only).
    pub max_nodes: u64,
    /// Budget of the greedy/2-opt fallback.
    pub fallback: SearchBudget,
}

impl Default for ArrangedHotBudget {
    fn default() -> Self {
        ArrangedHotBudget {
            max_nodes: 4_000_000,
            fallback: SearchBudget::default(),
        }
    }
}

/// Generates the arranged hot code for a word length and radix: the hot-code
/// space ordered with (whenever possible) exactly two digit transitions
/// between successive words.
///
/// # Errors
///
/// * [`CodeError::InvalidHotLength`] when the length is not a positive
///   multiple of the radix.
/// * [`CodeError::SpaceTooLarge`] when the space exceeds
///   [`MAX_ARRANGED_WORDS`].
/// * [`CodeError::BudgetTooLarge`] when a node or sweep budget exceeds its
///   default.
///
/// # Examples
///
/// ```
/// use nanowire_codes::{arranged_hot_code, ArrangedHotBudget, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ahc = arranged_hot_code(LogicLevel::BINARY, 6, ArrangedHotBudget::default())?;
/// assert_eq!(ahc.len(), 20);
/// assert!(ahc.has_uniform_distance(2));
/// # Ok(())
/// # }
/// ```
pub fn arranged_hot_code(
    radix: LogicLevel,
    word_length: usize,
    budget: ArrangedHotBudget,
) -> Result<CodeSequence> {
    let params = HotCodeParams::for_length(word_length, radix)?;
    let words = params.space_size();
    if words > MAX_ARRANGED_WORDS {
        return Err(CodeError::SpaceTooLarge {
            words,
            limit: MAX_ARRANGED_WORDS,
        });
    }
    let default = ArrangedHotBudget::default();
    check_budget("max_nodes", budget.max_nodes, default.max_nodes)?;
    check_budget(
        "fallback.max_nodes",
        budget.fallback.max_nodes,
        default.fallback.max_nodes,
    )?;
    check_budget(
        "fallback.max_two_opt_sweeps",
        u64::from(budget.fallback.max_two_opt_sweeps),
        u64::from(default.fallback.max_two_opt_sweeps),
    )?;
    if radix == LogicLevel::BINARY {
        let sequence = revolving_door_code(params)?;
        if sequence.has_uniform_distance(2) {
            return Ok(sequence);
        }
        // The constructive property failed (should not happen); fall through
        // to the search-based arrangement below.
    }

    let space = hot_code(radix, word_length)?;
    if let Some(sequence) = search_distance_two_path(&space, budget.max_nodes)? {
        return Ok(sequence);
    }
    // Fallback: best-effort minimal-transition arrangement.
    Ok(arrange_min_transitions(
        space.into_words(),
        ArrangementStrategy::GreedyTwoOpt,
        budget.fallback,
    )?
    .sequence)
}

/// The revolving-door (Nijenhuis–Wilf) Gray code for `k`-combinations of
/// `m` positions, rendered as binary hot-code words: successive words swap
/// exactly one `1` with one `0`, i.e. differ in exactly two digits.
fn revolving_door_code(params: HotCodeParams) -> Result<CodeSequence> {
    let m = params.word_length;
    let k = params.multiplicity;

    // Recursive construction over index sets.
    fn combinations(m: usize, k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![vec![]];
        }
        if k == m {
            return vec![(0..m).collect()];
        }
        // A(m, k) = A(m-1, k) followed by reverse(A(m-1, k-1)) each ∪ {m-1}.
        let mut result = combinations(m - 1, k);
        let mut tail = combinations(m - 1, k - 1);
        tail.reverse();
        for set in tail {
            let mut set = set;
            set.push(m - 1);
            result.push(set);
        }
        result
    }

    let sets = combinations(m, k);
    let words: Result<Vec<CodeWord>> = sets
        .into_iter()
        .map(|set| {
            let mut values = vec![Digit::new(0); m];
            for index in set {
                values[index] = Digit::new(1);
            }
            CodeWord::new(values, LogicLevel::BINARY)
        })
        .collect();
    CodeSequence::new(words?)
}

/// Backtracking search for a Hamiltonian path of the distance-2 graph of a
/// hot-code space. Returns `Ok(None)` when the node budget is exhausted.
fn search_distance_two_path(space: &CodeSequence, max_nodes: u64) -> Result<Option<CodeSequence>> {
    let words = space.words();
    let count = words.len();
    if count <= 1 {
        return Ok(Some(space.clone()));
    }

    // Adjacency lists of the distance-2 graph.
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); count];
    for i in 0..count {
        for j in (i + 1)..count {
            if words[i].transitions_to(&words[j])? == 2 {
                adjacency[i].push(j);
                adjacency[j].push(i);
            }
        }
    }

    struct Ctx<'a> {
        adjacency: &'a [Vec<usize>],
        count: usize,
        max_nodes: u64,
    }

    fn dfs(ctx: &Ctx<'_>, visited: &mut Vec<bool>, path: &mut Vec<usize>, nodes: &mut u64) -> bool {
        if path.len() == ctx.count {
            return true;
        }
        *nodes += 1;
        if *nodes > ctx.max_nodes {
            return false;
        }
        let current = *path.last().expect("non-empty path");
        // Prefer neighbours with few remaining options (Warnsdorff-style), a
        // strong heuristic for Hamiltonian paths on dense structured graphs.
        let mut candidates: Vec<(usize, usize)> = ctx.adjacency[current]
            .iter()
            .copied()
            .filter(|&next| !visited[next])
            .map(|next| {
                let remaining = ctx.adjacency[next].iter().filter(|&&n| !visited[n]).count();
                (remaining, next)
            })
            .collect();
        candidates.sort_unstable();
        for (_, next) in candidates {
            visited[next] = true;
            path.push(next);
            if dfs(ctx, visited, path, nodes) {
                return true;
            }
            path.pop();
            visited[next] = false;
            if *nodes > ctx.max_nodes {
                return false;
            }
        }
        false
    }

    let ctx = Ctx {
        adjacency: &adjacency,
        count,
        max_nodes,
    };
    let mut nodes = 0u64;
    for start in 0..count {
        let mut visited = vec![false; count];
        visited[start] = true;
        let mut path = vec![start];
        if dfs(&ctx, &mut visited, &mut path, &mut nodes) {
            let sequence: Result<Vec<CodeWord>> =
                path.into_iter().map(|i| Ok(words[i].clone())).collect();
            return Ok(Some(CodeSequence::new(sequence?)?));
        }
        if nodes > max_nodes {
            return Ok(None);
        }
    }
    Ok(None)
}

/// Convenience wrapper returning both the lexicographic hot code and its
/// arranged version, for side-by-side comparisons (Figs. 7 and 8 compare HC
/// against AHC at equal code length).
///
/// # Errors
///
/// Same as [`hot_code`] and [`arranged_hot_code`].
pub fn hot_code_pair(
    radix: LogicLevel,
    word_length: usize,
    budget: ArrangedHotBudget,
) -> Result<(CodeSequence, CodeSequence)> {
    Ok((
        hot_code(radix, word_length)?,
        arranged_hot_code(radix, word_length, budget)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::check_is_permutation;

    #[test]
    fn binary_arranged_hot_codes_have_distance_two() {
        for length in [4usize, 6, 8, 10] {
            let ahc = arranged_hot_code(LogicLevel::BINARY, length, ArrangedHotBudget::default())
                .unwrap();
            assert!(ahc.has_uniform_distance(2), "length {length}");
            assert!(ahc.all_words_distinct());
            let hc = hot_code(LogicLevel::BINARY, length).unwrap();
            assert_eq!(ahc.len(), hc.len());
            check_is_permutation(&ahc, hc.words()).unwrap();
        }
    }

    #[test]
    fn arranged_hot_code_never_has_more_transitions_than_lexicographic() {
        for (radix, length) in [
            (LogicLevel::BINARY, 6),
            (LogicLevel::BINARY, 8),
            (LogicLevel::TERNARY, 6),
            (LogicLevel::QUATERNARY, 4),
        ] {
            let (hc, ahc) = hot_code_pair(radix, length, ArrangedHotBudget::default()).unwrap();
            assert!(
                ahc.total_transitions() <= hc.total_transitions(),
                "{radix} length {length}"
            );
        }
    }

    #[test]
    fn ternary_arranged_hot_code_reaches_distance_two() {
        // The ternary (6, 2) hot code has 90 words; the distance-2 graph is
        // dense enough for the search to find a revolving-door-style path.
        let ahc = arranged_hot_code(LogicLevel::TERNARY, 6, ArrangedHotBudget::default()).unwrap();
        assert!(ahc.has_uniform_distance(2));
        assert_eq!(ahc.len(), 90);
    }

    #[test]
    fn quaternary_permutation_code_is_arranged() {
        // Quaternary (4, 1): 24 permutations of 0123; adjacent transpositions
        // give distance 2.
        let ahc =
            arranged_hot_code(LogicLevel::QUATERNARY, 4, ArrangedHotBudget::default()).unwrap();
        assert!(ahc.has_uniform_distance(2));
        assert_eq!(ahc.len(), 24);
    }

    #[test]
    fn exhausted_budget_still_returns_valid_permutation() {
        let budget = ArrangedHotBudget {
            max_nodes: 1,
            fallback: SearchBudget {
                max_nodes: 1,
                max_two_opt_sweeps: 1,
            },
        };
        let ahc = arranged_hot_code(LogicLevel::TERNARY, 6, budget).unwrap();
        let hc = hot_code(LogicLevel::TERNARY, 6).unwrap();
        check_is_permutation(&ahc, hc.words()).unwrap();
    }

    #[test]
    fn oversized_spaces_and_budgets_are_rejected_before_any_search() {
        let default = ArrangedHotBudget::default();
        // C(14, 7) = 3432, 9! / (3!)^3 = 1680 and 12! / (4!)^3 = 34650
        // words: all past the arrangement bound.
        for (radix, length) in [
            (LogicLevel::BINARY, 14),
            (LogicLevel::TERNARY, 9),
            (LogicLevel::TERNARY, 12),
        ] {
            assert!(
                matches!(
                    arranged_hot_code(radix, length, default),
                    Err(CodeError::SpaceTooLarge { .. })
                ),
                "{radix} length {length}"
            );
        }
        let fallback = default.fallback;
        for budget in [
            ArrangedHotBudget {
                max_nodes: default.max_nodes + 1,
                ..default
            },
            ArrangedHotBudget {
                fallback: SearchBudget {
                    max_nodes: fallback.max_nodes + 1,
                    ..fallback
                },
                ..default
            },
            ArrangedHotBudget {
                fallback: SearchBudget {
                    max_two_opt_sweeps: fallback.max_two_opt_sweeps + 1,
                    ..fallback
                },
                ..default
            },
        ] {
            assert!(matches!(
                arranged_hot_code(LogicLevel::TERNARY, 6, budget),
                Err(CodeError::BudgetTooLarge { .. })
            ));
        }
    }

    #[test]
    fn invalid_lengths_are_rejected() {
        assert!(matches!(
            arranged_hot_code(LogicLevel::BINARY, 5, ArrangedHotBudget::default()),
            Err(CodeError::InvalidHotLength { .. })
        ));
    }

    #[test]
    fn revolving_door_starts_with_lowest_combination() {
        let params = HotCodeParams::for_length(6, LogicLevel::BINARY).unwrap();
        let seq = revolving_door_code(params).unwrap();
        // First word has the k lowest positions set.
        assert_eq!(seq[0].to_string(), "111000");
    }
}
