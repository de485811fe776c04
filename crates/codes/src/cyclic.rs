//! Cyclic prefixes of the enumerated code families, built word by word.
//!
//! A half cave of `N` nanowires reads words `0 .. N` of its code's cyclic
//! extension (word `i mod Ω`), and `N` is usually far below the code-space
//! size `Ω`. The tree, Gray and hot codes have closed-form successors, so
//! these generators step from word to word instead of enumerating the whole
//! space: a base-`n` odometer for the tree code, reflected-Gray digits read
//! off that odometer for the Gray code, and the next multiset permutation
//! for the hot code. Each word costs one allocation and no `u128` division,
//! and the result equals `generate_with(budgets)?.take_cyclic(count)` word
//! for word and error for error.

use crate::digit::{Digit, LogicLevel};
use crate::error::{CodeError, Result};
use crate::hot::HotCodeParams;
use crate::sequence::CodeSequence;
use crate::tree::{base_length_of, MAX_ENUMERATED_WORDS};
use crate::word::CodeWord;

/// Rejects a code space the full generators would refuse to enumerate.
fn check_enumerable(words: u128) -> Result<()> {
    if words > MAX_ENUMERATED_WORDS {
        return Err(CodeError::SpaceTooLarge {
            words,
            limit: MAX_ENUMERATED_WORDS,
        });
    }
    Ok(())
}

/// The first `count` words of the cyclic extension of the reflected tree
/// code (`gray == false`) or reflected Gray code (`gray == true`) of full
/// length `code_length`.
pub(crate) fn reflected_prefix(
    radix: LogicLevel,
    code_length: usize,
    count: usize,
    gray: bool,
) -> Result<CodeSequence> {
    let base_length = base_length_of(code_length)?;
    check_enumerable(radix.word_count(base_length))?;
    if count == 0 {
        return Err(CodeError::InvalidLength { length: 0 });
    }
    let top = radix.max_digit();
    // The tree-code index of word `i mod Ω`, most significant digit first;
    // incrementing past the last word carries out and wraps to word 0.
    let mut odometer = vec![0u8; base_length];
    let mut words = Vec::with_capacity(count);
    for _ in 0..count {
        let mut digits = Vec::with_capacity(code_length);
        if gray {
            // The reflected construction visits the sub-code backwards under
            // an odd leading digit, so every odd Gray digit complements the
            // index digits after it.
            let mut reversed = false;
            for &index_digit in &odometer {
                let digit = if reversed {
                    top - index_digit
                } else {
                    index_digit
                };
                reversed ^= digit % 2 == 1;
                digits.push(Digit::new(digit));
            }
        } else {
            digits.extend(odometer.iter().copied().map(Digit::new));
        }
        for k in 0..base_length {
            let mirrored = top - digits[k].value();
            digits.push(Digit::new(mirrored));
        }
        words.push(CodeWord::new(digits, radix)?);
        for digit in odometer.iter_mut().rev() {
            if *digit < top {
                *digit += 1;
                break;
            }
            *digit = 0;
        }
    }
    CodeSequence::new(words)
}

/// The first `count` words of the cyclic extension of the lexicographic hot
/// code of length `word_length`.
pub(crate) fn hot_prefix(
    radix: LogicLevel,
    word_length: usize,
    count: usize,
) -> Result<CodeSequence> {
    let params = HotCodeParams::for_length(word_length, radix)?;
    check_enumerable(params.space_size())?;
    if count == 0 {
        return Err(CodeError::InvalidLength { length: 0 });
    }
    // The smallest word: every value `k` times, in ascending order.
    let mut current: Vec<u8> = (0..radix.radix())
        .flat_map(|value| std::iter::repeat_n(value, params.multiplicity))
        .collect();
    let mut words = Vec::with_capacity(count);
    for _ in 0..count {
        words.push(CodeWord::new(
            current.iter().copied().map(Digit::new).collect(),
            radix,
        )?);
        next_multiset_permutation(&mut current);
    }
    CodeSequence::new(words)
}

/// Steps `values` to its lexicographic successor among the permutations of
/// the same multiset; the largest permutation wraps to the smallest.
fn next_multiset_permutation(values: &mut [u8]) {
    let Some(pivot) = values.windows(2).rposition(|pair| pair[0] < pair[1]) else {
        values.reverse();
        return;
    };
    let successor = values
        .iter()
        .rposition(|&value| value > values[pivot])
        .expect("the pivot has a larger value after it");
    values.swap(pivot, successor);
    values[pivot + 1..].reverse();
}
