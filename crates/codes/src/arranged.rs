//! Arranged hot codes (AHC): hot-code spaces ordered so that successive words
//! differ in the minimum possible number of digits — two, since the
//! composition of a hot word is fixed (Section 5.2).
//!
//! For binary hot codes the arrangement is built constructively with the
//! *revolving-door* combination Gray code; for higher radices a single
//! Warnsdorff walk over the distance-2 graph finds it.

use crate::arrangement::MAX_ARRANGED_WORDS;
use crate::digit::{Digit, LogicLevel};
use crate::error::{CodeError, Result};
use crate::hot::{hot_code, HotCodeParams};
use crate::sequence::CodeSequence;
use crate::word::CodeWord;

/// Generates the arranged hot code for a word length and radix: the hot-code
/// space ordered with exactly two digit transitions between successive
/// words.
///
/// # Errors
///
/// * [`CodeError::InvalidHotLength`] when the length is not a positive
///   multiple of the radix.
/// * [`CodeError::SpaceTooLarge`] when the space exceeds
///   [`MAX_ARRANGED_WORDS`].
/// * [`CodeError::ArrangementNotFound`] when the walk over a space above
///   binary dead-ends; no admitted space does.
///
/// # Examples
///
/// ```
/// use nanowire_codes::{arranged_hot_code, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ahc = arranged_hot_code(LogicLevel::BINARY, 6)?;
/// assert_eq!(ahc.len(), 20);
/// assert!(ahc.has_uniform_distance(2));
/// # Ok(())
/// # }
/// ```
pub fn arranged_hot_code(radix: LogicLevel, word_length: usize) -> Result<CodeSequence> {
    let params = HotCodeParams::for_length(word_length, radix)?;
    let words = params.space_size();
    if words > MAX_ARRANGED_WORDS {
        return Err(CodeError::SpaceTooLarge {
            words,
            limit: MAX_ARRANGED_WORDS,
        });
    }
    if radix == LogicLevel::BINARY {
        return revolving_door_code(params);
    }
    distance_two_walk(&hot_code(radix, word_length)?)
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

/// Orders `space` along a Hamiltonian path of its distance-2 graph by
/// Warnsdorff's rule: start at word 0, and step to the unvisited neighbour
/// with the fewest unvisited neighbours of its own, the lower index on a
/// tie.
///
/// # Errors
///
/// [`CodeError::ArrangementNotFound`] when the walk reaches a word whose
/// neighbours are all visited before it has visited every word.
fn distance_two_walk(space: &CodeSequence) -> Result<CodeSequence> {
    let words = space.words();
    let count = words.len();

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

    let mut visited = vec![false; count];
    let mut unvisited: Vec<usize> = adjacency.iter().map(Vec::len).collect();
    let mut path = Vec::with_capacity(count);
    let mut current = 0;
    loop {
        visited[current] = true;
        path.push(words[current].clone());
        for &other in &adjacency[current] {
            unvisited[other] -= 1;
        }
        if path.len() == count {
            return CodeSequence::new(path);
        }
        current = adjacency[current]
            .iter()
            .copied()
            .filter(|&next| !visited[next])
            .min_by_key(|&next| (unvisited[next], next))
            .ok_or_else(|| CodeError::ArrangementNotFound {
                reason: format!(
                    "the distance-2 walk dead-ends after {} of {count} words",
                    path.len()
                ),
            })?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::check_is_permutation;

    #[test]
    fn binary_arranged_hot_codes_have_distance_two() {
        for length in [4usize, 6, 8, 10] {
            let ahc = arranged_hot_code(LogicLevel::BINARY, length).unwrap();
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
            let hc = hot_code(radix, length).unwrap();
            let ahc = arranged_hot_code(radix, length).unwrap();
            assert!(
                ahc.total_transitions() <= hc.total_transitions(),
                "{radix} length {length}"
            );
        }
    }

    #[test]
    fn ternary_arranged_hot_code_reaches_distance_two() {
        // The ternary (6, 2) hot code has 90 words; the distance-2 graph is
        // dense enough for the walk to find a revolving-door-style path.
        let ahc = arranged_hot_code(LogicLevel::TERNARY, 6).unwrap();
        assert!(ahc.has_uniform_distance(2));
        assert_eq!(ahc.len(), 90);
    }

    #[test]
    fn quaternary_permutation_code_is_arranged() {
        // Quaternary (4, 1): 24 permutations of 0123; adjacent transpositions
        // give distance 2.
        let ahc = arranged_hot_code(LogicLevel::QUATERNARY, 4).unwrap();
        assert!(ahc.has_uniform_distance(2));
        assert_eq!(ahc.len(), 24);
    }

    #[test]
    fn a_dead_ended_walk_is_an_error() {
        // Word 0 neighbours both others, which do not neighbour each other:
        // the walk steps to word 1 and finds no unvisited neighbour.
        let words = [[0, 0, 1, 2], [0, 0, 2, 1], [0, 1, 0, 2]]
            .iter()
            .map(|values| CodeWord::from_values(values, LogicLevel::TERNARY).unwrap())
            .collect();
        let space = CodeSequence::new(words).unwrap();
        assert!(matches!(
            distance_two_walk(&space),
            Err(CodeError::ArrangementNotFound { .. })
        ));
    }

    #[test]
    fn oversized_spaces_are_rejected_before_any_search() {
        // C(14, 7) = 3432, 9! / (3!)^3 = 1680 and 12! / (4!)^3 = 34650
        // words: all past the arrangement bound.
        for (radix, length) in [
            (LogicLevel::BINARY, 14),
            (LogicLevel::TERNARY, 9),
            (LogicLevel::TERNARY, 12),
        ] {
            assert!(
                matches!(
                    arranged_hot_code(radix, length),
                    Err(CodeError::SpaceTooLarge { .. })
                ),
                "{radix} length {length}"
            );
        }
    }

    #[test]
    fn invalid_lengths_are_rejected() {
        assert!(matches!(
            arranged_hot_code(LogicLevel::BINARY, 5),
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
