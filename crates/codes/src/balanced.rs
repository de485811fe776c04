//! Balanced Gray codes (BGC): Gray arrangements whose digit-transition counts
//! are spread as evenly as possible over the digit positions (Section 2.3,
//! ref. [3] Bhat & Savage).
//!
//! In the decoder this evens out the accumulated threshold-voltage
//! variability over the doping regions (Fig. 6 e/f of the paper), which in
//! turn improves the worst-case addressability of a nanowire.

use serde::{Deserialize, Serialize};

use crate::arrangement::{check_budget, MAX_ARRANGED_WORDS};
use crate::digit::{Digit, LogicLevel};
use crate::error::{CodeError, Result};
use crate::gray::gray_code;
use crate::sequence::CodeSequence;
use crate::tree::base_length_of;
use crate::word::CodeWord;

/// Search limits for the balanced-Gray-code construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BalanceBudget {
    /// Maximum number of DFS nodes expanded per per-digit limit attempt.
    pub max_nodes_per_limit: u64,
    /// Largest slack added to the ideal per-digit limit before giving up and
    /// falling back to the standard reflected Gray code. Every extra limit
    /// reruns a search of up to `max_nodes_per_limit` nodes, so a slack
    /// above the default is refused; slack beyond the point where the limit
    /// stops constraining the search is not tried.
    pub max_limit_slack: usize,
}

impl Default for BalanceBudget {
    fn default() -> Self {
        BalanceBudget {
            max_nodes_per_limit: 4_000_000,
            max_limit_slack: 4,
        }
    }
}

/// Per-digit balance statistics of a code sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BalanceReport {
    /// Transition count of every digit position.
    pub per_digit: Vec<usize>,
    /// Smallest per-digit transition count.
    pub min: usize,
    /// Largest per-digit transition count.
    pub max: usize,
    /// `max - min`: zero for a perfectly balanced sequence.
    pub spread: usize,
    /// Total number of transitions.
    pub total: usize,
}

/// Computes the balance statistics of a sequence.
#[must_use]
pub fn balance_report(sequence: &CodeSequence) -> BalanceReport {
    let per_digit = sequence.transitions_per_digit();
    let min = per_digit.iter().copied().min().unwrap_or(0);
    let max = per_digit.iter().copied().max().unwrap_or(0);
    let total = per_digit.iter().sum();
    BalanceReport {
        spread: max - min,
        per_digit,
        min,
        max,
        total,
    }
}

/// Generates a balanced Gray code of `base_length` digits over `radix`
/// (without reflection): a Gray arrangement of the full tree-code space whose
/// maximum per-digit transition count is as small as the search budget allows.
///
/// The construction searches for a Hamiltonian path of the "one digit
/// differs" graph under a per-digit change limit, starting from the ideal
/// limit `ceil((n^m - 1) / m)` and relaxing it one unit at a time. If no
/// balanced path is found within the budget the standard reflected Gray code
/// is returned (which is still a valid Gray arrangement, just less balanced);
/// callers that need to know can compare [`balance_report`]s.
///
/// # Errors
///
/// * [`CodeError::InvalidLength`] when `base_length == 0`.
/// * [`CodeError::SpaceTooLarge`] when the space exceeds
///   [`MAX_ARRANGED_WORDS`].
/// * [`CodeError::BudgetTooLarge`] when the node budget or the limit slack
///   exceeds its default.
///
/// # Examples
///
/// ```
/// use nanowire_codes::{balanced_gray_code, balance_report, BalanceBudget, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bgc = balanced_gray_code(LogicLevel::BINARY, 4, BalanceBudget::default())?;
/// assert!(bgc.is_gray());
/// let report = balance_report(&bgc);
/// // 15 transitions over 4 digits: the best possible maximum is 4.
/// assert_eq!(report.max, 4);
/// # Ok(())
/// # }
/// ```
pub fn balanced_gray_code(
    radix: LogicLevel,
    base_length: usize,
    budget: BalanceBudget,
) -> Result<CodeSequence> {
    if base_length == 0 {
        return Err(CodeError::InvalidLength { length: 0 });
    }
    let count = radix.word_count(base_length);
    if count > MAX_ARRANGED_WORDS {
        return Err(CodeError::SpaceTooLarge {
            words: count,
            limit: MAX_ARRANGED_WORDS,
        });
    }
    let default = BalanceBudget::default();
    check_budget(
        "max_nodes_per_limit",
        budget.max_nodes_per_limit,
        default.max_nodes_per_limit,
    )?;
    check_budget(
        "max_limit_slack",
        u64::try_from(budget.max_limit_slack).unwrap_or(u64::MAX),
        u64::try_from(default.max_limit_slack).unwrap_or(u64::MAX),
    )?;
    let count = count as usize;
    let transitions = count - 1;
    let ideal_limit = transitions.div_ceil(base_length);
    // No digit can change `transitions` times before the path is complete,
    // so from that limit on every attempt is the same unconstrained search.
    let last_limit = ideal_limit
        .saturating_add(budget.max_limit_slack)
        .min(transitions);

    for limit in ideal_limit..=last_limit {
        if let Some(sequence) =
            search_balanced_path(radix, base_length, limit, budget.max_nodes_per_limit)
        {
            return CodeSequence::new(sequence);
        }
    }
    // Fallback: the plain reflected Gray code.
    gray_code(radix, base_length)
}

/// Generates the *reflected* balanced Gray code with full code length
/// `code_length = 2 · base_length`.
///
/// # Errors
///
/// * [`CodeError::OddReflectedLength`] when `code_length` is odd.
/// * Any error of [`balanced_gray_code`].
pub fn reflected_balanced_gray_code(
    radix: LogicLevel,
    code_length: usize,
    budget: BalanceBudget,
) -> Result<CodeSequence> {
    let base_length = base_length_of(code_length)?;
    Ok(balanced_gray_code(radix, base_length, budget)?.reflected())
}

/// DFS for a Hamiltonian path of the one-digit-difference graph in which no
/// digit position changes more than `limit` times, starting from the
/// all-zero word like every other code of the crate.
///
/// Words are their tree-code indices. At every node the candidate moves
/// (change one digit to another value) are ordered stably by the changes
/// their digit has accumulated, so the balance target is met early. The
/// search runs on an explicit stack over a precomputed digit table, with
/// one candidate buffer per depth, and allocates nothing per node.
fn search_balanced_path(
    radix: LogicLevel,
    base_length: usize,
    limit: usize,
    max_nodes: u64,
) -> Option<Vec<CodeWord>> {
    let n = radix.radix_usize();
    let total: usize = n.pow(base_length as u32);
    // digits[w * base_length + j] is digit j (most significant first) of
    // word w, and place[j] is that digit's place value.
    let mut digits = vec![0u8; total * base_length];
    for (word, row) in digits.chunks_exact_mut(base_length).enumerate() {
        let mut rest = word;
        for slot in row.iter_mut().rev() {
            *slot = (rest % n) as u8;
            rest /= n;
        }
    }
    let mut place = vec![1usize; base_length];
    for j in (0..base_length - 1).rev() {
        place[j] = place[j + 1] * n;
    }

    // Depth d's candidates, (digit, neighbour), live in
    // candidates[d * width ..][.. filled[d]]; tried[d] of them are taken.
    let width = base_length * (n - 1);
    let mut candidates = vec![(0usize, 0usize); total * width];
    let mut filled = vec![0usize; total];
    let mut tried = vec![0usize; total];
    let mut visited = vec![false; total];
    let mut digit_changes = vec![0usize; base_length];
    let mut path: Vec<usize> = Vec::with_capacity(total);
    let mut nodes: u64 = 0;

    let expand = |depth: usize,
                  current: usize,
                  visited: &[bool],
                  digit_changes: &[usize],
                  candidates: &mut [(usize, usize)]|
     -> usize {
        let buffer = &mut candidates[depth * width..(depth + 1) * width];
        let mut len = 0;
        for (j, &value) in digits[current * base_length..(current + 1) * base_length]
            .iter()
            .enumerate()
        {
            if digit_changes[j] >= limit {
                continue;
            }
            let base = current - usize::from(value) * place[j];
            for other in (0..n).filter(|&other| other != usize::from(value)) {
                let neighbour = base + other * place[j];
                if visited[neighbour] {
                    continue;
                }
                // Stable insertion: after every candidate whose digit has
                // changed as often or less.
                let mut slot = len;
                while slot > 0 && digit_changes[buffer[slot - 1].0] > digit_changes[j] {
                    buffer[slot] = buffer[slot - 1];
                    slot -= 1;
                }
                buffer[slot] = (j, neighbour);
                len += 1;
            }
        }
        len
    };

    visited[0] = true;
    path.push(0);
    if path.len() < total {
        nodes += 1;
        if nodes > max_nodes {
            return None;
        }
        filled[0] = expand(0, 0, &visited, &digit_changes, &mut candidates);
        let mut depth = 0;
        loop {
            if tried[depth] < filled[depth] {
                let (j, neighbour) = candidates[depth * width + tried[depth]];
                tried[depth] += 1;
                visited[neighbour] = true;
                digit_changes[j] += 1;
                path.push(neighbour);
                if path.len() == total {
                    break;
                }
                nodes += 1;
                if nodes > max_nodes {
                    return None;
                }
                depth += 1;
                tried[depth] = 0;
                filled[depth] = expand(depth, neighbour, &visited, &digit_changes, &mut candidates);
            } else {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
                let (j, neighbour) = candidates[depth * width + tried[depth] - 1];
                path.pop();
                digit_changes[j] -= 1;
                visited[neighbour] = false;
            }
        }
    }
    path.into_iter()
        .map(|word| {
            let row = &digits[word * base_length..(word + 1) * base_length];
            CodeWord::new(row.iter().copied().map(Digit::new).collect(), radix).ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gray::is_complete_gray_arrangement;

    #[test]
    fn binary_balanced_gray_codes_are_gray_and_complete() {
        for base_length in 2..=5 {
            let bgc = balanced_gray_code(LogicLevel::BINARY, base_length, BalanceBudget::default())
                .unwrap();
            assert!(is_complete_gray_arrangement(&bgc), "m = {base_length}");
        }
    }

    #[test]
    fn binary_balanced_gray_code_is_more_balanced_than_reflected() {
        for base_length in 4..=5 {
            let bgc = balanced_gray_code(LogicLevel::BINARY, base_length, BalanceBudget::default())
                .unwrap();
            let gc = gray_code(LogicLevel::BINARY, base_length).unwrap();
            let balanced = balance_report(&bgc);
            let standard = balance_report(&gc);
            assert!(
                balanced.max <= standard.max,
                "m = {base_length}: balanced max {} vs standard {}",
                balanced.max,
                standard.max
            );
            assert!(balanced.spread <= standard.spread);
        }
    }

    #[test]
    fn balanced_m4_reaches_ideal_maximum() {
        let bgc = balanced_gray_code(LogicLevel::BINARY, 4, BalanceBudget::default()).unwrap();
        let report = balance_report(&bgc);
        assert_eq!(report.total, 15);
        assert_eq!(report.max, 4);
    }

    #[test]
    fn ternary_balanced_gray_code_is_gray() {
        let bgc = balanced_gray_code(LogicLevel::TERNARY, 3, BalanceBudget::default()).unwrap();
        assert!(bgc.is_gray());
        assert!(bgc.all_words_distinct());
        assert_eq!(bgc.len(), 27);
    }

    #[test]
    fn reflected_balanced_gray_code_has_even_length_and_distance_two() {
        let bgc =
            reflected_balanced_gray_code(LogicLevel::BINARY, 8, BalanceBudget::default()).unwrap();
        assert_eq!(bgc.word_length(), 8);
        assert!(bgc.has_uniform_distance(2));
    }

    #[test]
    fn tiny_budget_falls_back_to_gray_code() {
        let budget = BalanceBudget {
            max_nodes_per_limit: 1,
            max_limit_slack: 0,
        };
        let bgc = balanced_gray_code(LogicLevel::BINARY, 4, budget).unwrap();
        // Still a valid complete Gray arrangement (the fallback).
        assert!(is_complete_gray_arrangement(&bgc));
    }

    #[test]
    fn oversized_spaces_and_budgets_are_rejected_before_any_search() {
        // 2^11 words: twice the arrangement bound.
        assert!(matches!(
            balanced_gray_code(LogicLevel::BINARY, 11, BalanceBudget::default()),
            Err(CodeError::SpaceTooLarge { words: 2048, .. })
        ));
        let budget = BalanceBudget {
            max_nodes_per_limit: BalanceBudget::default().max_nodes_per_limit + 1,
            ..BalanceBudget::default()
        };
        assert!(matches!(
            balanced_gray_code(LogicLevel::BINARY, 2, budget),
            Err(CodeError::BudgetTooLarge { .. })
        ));
    }

    #[test]
    fn slack_past_an_unconstraining_limit_is_not_tried() {
        // One and two binary digits: ideal limits of 1 and 2 for paths of
        // 1 and 3 transitions, so a slack of at most 1 reaches the limit
        // that constrains nothing. With no nodes to expand every attempt
        // fails at once; each slack up to the default stops there and falls
        // back to the Gray code.
        for base_length in 1..=2 {
            for max_limit_slack in 0..=BalanceBudget::default().max_limit_slack {
                let budget = BalanceBudget {
                    max_nodes_per_limit: 0,
                    max_limit_slack,
                };
                let bgc = balanced_gray_code(LogicLevel::BINARY, base_length, budget).unwrap();
                assert_eq!(bgc, gray_code(LogicLevel::BINARY, base_length).unwrap());
            }
        }
        // A larger slack is refused before any search: each extra limit
        // would rerun a search of up to `max_nodes_per_limit` nodes.
        for max_limit_slack in [5, 16, 64, usize::MAX] {
            let budget = BalanceBudget {
                max_limit_slack,
                ..BalanceBudget::default()
            };
            assert!(matches!(
                balanced_gray_code(LogicLevel::BINARY, 8, budget),
                Err(CodeError::BudgetTooLarge {
                    budget: "max_limit_slack",
                    limit: 4,
                    ..
                })
            ));
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(balanced_gray_code(LogicLevel::BINARY, 0, BalanceBudget::default()).is_err());
        assert!(
            reflected_balanced_gray_code(LogicLevel::BINARY, 7, BalanceBudget::default()).is_err()
        );
    }

    #[test]
    fn balance_report_fields_are_consistent() {
        let gc = gray_code(LogicLevel::BINARY, 4).unwrap();
        let report = balance_report(&gc);
        // The reflected binary Gray code at M = 4, counted by hand: the most
        // significant digit flips once, each next digit twice as often.
        assert_eq!(report.per_digit, vec![1, 2, 4, 8]);
        // `total_transitions` counts word-pair distances, independently of
        // the per-digit counts the total is summed from.
        assert_eq!(report.total, gc.total_transitions());
        assert_eq!(report.total, 15);
        assert_eq!(report.spread, report.max - report.min);
    }
}
