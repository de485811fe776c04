//! Arranged hot codes (AHC): hot-code spaces ordered so that successive words
//! differ in the minimum possible number of digits — two, since the
//! composition of a hot word is fixed (Section 5.2).
//!
//! For binary hot codes the arrangement is built constructively with the
//! *revolving-door* combination Gray code; for higher radices a backtracking
//! search over the distance-2 graph is used, with a greedy fallback.

use serde::{Deserialize, Serialize};

use crate::arrangement::{arrange_greedy_two_opt, check_budget, SearchBudget, MAX_ARRANGED_WORDS};
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
    // Fallback: the greedy order, improved by 2-opt.
    arrange_greedy_two_opt(space.into_words(), budget.fallback.max_two_opt_sweeps)
}

/// The revolving-door (Nijenhuis–Wilf) Gray code for `k`-combinations of
/// `m` positions, rendered as binary hot-code words: successive words swap
/// exactly one `1` with one `0`, i.e. differ in exactly two digits.
///
/// The sequence is `A(m, k) = A(m-1, k)` followed by the reverse of
/// `A(m-1, k-1)` with position `m-1` added to every set. It is written out
/// word by word by walking that recursion forwards or backwards over one
/// working word: each level sets position `m-1` for its two halves, and a
/// base case fills positions `0..m`.
fn revolving_door_code(params: HotCodeParams) -> Result<CodeSequence> {
    fn emit(
        m: usize,
        k: usize,
        backwards: bool,
        word: &mut [u8],
        out: &mut Vec<CodeWord>,
    ) -> Result<()> {
        if k == 0 || k == m {
            // The one set of A(m, 0) is empty, and that of A(m, m) is full.
            word[..m].fill(u8::from(k == m));
            out.push(CodeWord::new(
                word.iter().copied().map(Digit::new).collect(),
                LogicLevel::BINARY,
            )?);
            return Ok(());
        }
        // Forwards: A(m-1, k) with position m-1 clear, then A(m-1, k-1)
        // backwards with it set. Backwards: the same halves in reverse.
        if backwards {
            word[m - 1] = 1;
            emit(m - 1, k - 1, false, word, out)?;
            word[m - 1] = 0;
            emit(m - 1, k, true, word, out)
        } else {
            word[m - 1] = 0;
            emit(m - 1, k, false, word, out)?;
            word[m - 1] = 1;
            emit(m - 1, k - 1, true, word, out)
        }
    }

    let mut word = vec![0u8; params.word_length];
    let mut words = Vec::with_capacity(usize::try_from(params.space_size()).unwrap_or(0));
    emit(
        params.word_length,
        params.multiplicity,
        false,
        &mut word,
        &mut words,
    )?;
    CodeSequence::new(words)
}

/// Backtracking search for a Hamiltonian path of the distance-2 graph of a
/// hot-code space, trying every start word in order. Returns `Ok(None)`
/// when the node budget, shared by all starts, is exhausted.
///
/// At every node the unvisited neighbours are tried in `(remaining, next)`
/// order, where `remaining` is the neighbour's own count of unvisited
/// neighbours (Warnsdorff's rule, a strong heuristic for Hamiltonian paths
/// on dense structured graphs). The search runs on an explicit stack,
/// keeps every word's unvisited-neighbour count up to date as words are
/// visited, and fills one candidate buffer per depth, so it allocates
/// nothing per node.
fn search_distance_two_path(space: &CodeSequence, max_nodes: u64) -> Result<Option<CodeSequence>> {
    let words = space.words();
    let count = words.len();
    if count <= 1 {
        return Ok(Some(space.clone()));
    }

    // Adjacency lists of the distance-2 graph. The words of one sequence
    // share their length, so digits compare position by position, and a
    // pair stops at its third difference.
    let two_apart = |a: &CodeWord, b: &CodeWord| {
        let differences = a.digits().iter().zip(b.digits()).filter(|(x, y)| x != y);
        differences.take(3).count() == 2
    };
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); count];
    for i in 0..count {
        for j in (i + 1)..count {
            if two_apart(&words[i], &words[j]) {
                adjacency[i].push(j);
                adjacency[j].push(i);
            }
        }
    }
    let adjacent = |word: usize| adjacency[word].as_slice();
    let width = adjacency.iter().map(Vec::len).max().unwrap_or(0);

    // Depth d's candidates, (remaining, next), live in
    // candidates[d * width ..][.. filled[d]]; tried[d] of them are taken.
    let mut candidates = vec![(0usize, 0usize); count * width];
    let mut filled = vec![0usize; count];
    let mut tried = vec![0usize; count];
    let mut visited = vec![false; count];
    let mut unvisited: Vec<usize> = adjacency.iter().map(Vec::len).collect();
    let mut path: Vec<usize> = Vec::with_capacity(count);
    let mut nodes = 0u64;

    let visit = |word: usize, visited: &mut [bool], unvisited: &mut [usize]| {
        visited[word] = true;
        for &other in adjacent(word) {
            unvisited[other] -= 1;
        }
    };
    let leave = |word: usize, visited: &mut [bool], unvisited: &mut [usize]| {
        visited[word] = false;
        for &other in adjacent(word) {
            unvisited[other] += 1;
        }
    };
    let expand = |depth: usize,
                  current: usize,
                  visited: &[bool],
                  unvisited: &[usize],
                  candidates: &mut [(usize, usize)]|
     -> usize {
        let buffer = &mut candidates[depth * width..(depth + 1) * width];
        let mut len = 0;
        for &next in adjacent(current) {
            if visited[next] {
                continue;
            }
            let candidate = (unvisited[next], next);
            let mut slot = len;
            while slot > 0 && buffer[slot - 1] > candidate {
                buffer[slot] = buffer[slot - 1];
                slot -= 1;
            }
            buffer[slot] = candidate;
            len += 1;
        }
        len
    };

    for start in 0..count {
        visit(start, &mut visited, &mut unvisited);
        path.push(start);
        nodes += 1;
        if nodes > max_nodes {
            return Ok(None);
        }
        filled[0] = expand(0, start, &visited, &unvisited, &mut candidates);
        tried[0] = 0;
        let mut depth = 0;
        loop {
            if tried[depth] < filled[depth] {
                let (_, next) = candidates[depth * width + tried[depth]];
                tried[depth] += 1;
                visit(next, &mut visited, &mut unvisited);
                path.push(next);
                if path.len() == count {
                    let arranged = path.iter().map(|&word| words[word].clone()).collect();
                    return Ok(Some(CodeSequence::new(arranged)?));
                }
                nodes += 1;
                if nodes > max_nodes {
                    return Ok(None);
                }
                depth += 1;
                tried[depth] = 0;
                filled[depth] = expand(depth, next, &visited, &unvisited, &mut candidates);
            } else {
                let word = path.pop().expect("the start word stays on the path");
                leave(word, &mut visited, &mut unvisited);
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
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
