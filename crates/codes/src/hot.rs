//! Hot codes (HC): constant-composition codes in which every logic value
//! appears exactly `k` times in every word, so `M = k · n` (Section 2.3).
//!
//! For binary logic these are the classical constant-weight (`k`-out-of-`2k`)
//! codes. Hot codes need no reflection: their composition is balanced by
//! construction, which is what the nanowire addressing scheme requires.

use crate::digit::{Digit, LogicLevel};
use crate::error::{CodeError, Result};
use crate::sequence::CodeSequence;
use crate::tree::MAX_ENUMERATED_WORDS;
use crate::word::CodeWord;

/// Parameters of a hot code: word length `M`, per-value multiplicity `k` and
/// radix `n`, tied together by `M = k · n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HotCodeParams {
    /// Word length `M`.
    pub word_length: usize,
    /// Number of occurrences `k` of every value in every word.
    pub multiplicity: usize,
    /// Logic radix `n`.
    pub radix: LogicLevel,
}

impl HotCodeParams {
    /// Derives the hot-code parameters for a word length and radix.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidHotLength`] when `word_length` is zero or
    /// not a multiple of the radix.
    pub fn for_length(word_length: usize, radix: LogicLevel) -> Result<Self> {
        if word_length == 0 || !word_length.is_multiple_of(radix.radix_usize()) {
            return Err(CodeError::InvalidHotLength {
                length: word_length,
                radix: radix.radix(),
            });
        }
        Ok(HotCodeParams {
            word_length,
            multiplicity: word_length / radix.radix_usize(),
            radix,
        })
    }

    /// The number of words in the code space: the multinomial coefficient
    /// `M! / (k!)^n`, or `u128::MAX` when that does not fit a `u128`.
    #[must_use]
    pub fn space_size(&self) -> u128 {
        multinomial_equal_parts(
            self.word_length,
            self.multiplicity,
            self.radix.radix_usize(),
        )
    }
}

/// `M! / (k!)^n` for `M = n·k`, as the product of binomial coefficients
/// `C(M, k) · C(M−k, k) ⋯ C(k, k)`; `u128::MAX` when it does not fit a
/// `u128`.
fn multinomial_equal_parts(m: usize, k: usize, n: usize) -> u128 {
    (0..n)
        .try_fold(1u128, |total, part| {
            total.checked_mul(binomial(m - part * k, k))
        })
        .unwrap_or(u128::MAX)
}

/// The binomial coefficient `C(n, k)`, or `u128::MAX` when it does not fit
/// a `u128`.
fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    // C(n, i + 1) = C(n, i) · (n − i) / (i + 1), exactly: after dividing out
    // g = gcd(C(n, i), i + 1), the rest of i + 1 divides n − i. The value at
    // least doubles while i ≤ (n − 2)/3, so for n ≥ 383 the loop overflows
    // and stops within 128 steps; for smaller n it ends within 191.
    let mut value: u128 = 1;
    for i in 0..k {
        let denominator = (i + 1) as u128;
        let common = gcd(value, denominator);
        let factor = (n - i) as u128 / (denominator / common);
        match (value / common).checked_mul(factor) {
            Some(next) => value = next,
            None => return u128::MAX,
        }
    }
    value
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Generates the hot code with word length `word_length` over `radix`, in
/// lexicographic order.
///
/// # Errors
///
/// * [`CodeError::InvalidHotLength`] when `word_length` is not a positive
///   multiple of the radix.
/// * [`CodeError::SpaceTooLarge`] when the code space exceeds the
///   enumeration limit.
///
/// # Examples
///
/// ```
/// use nanowire_codes::{hot_code, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Binary (4, 2)-hot code: all words with exactly two 1s: C(4,2) = 6 words.
/// let hc = hot_code(LogicLevel::BINARY, 4)?;
/// assert_eq!(hc.len(), 6);
/// assert!(hc.words().iter().all(|w| w.is_hot(2)));
/// # Ok(())
/// # }
/// ```
pub fn hot_code(radix: LogicLevel, word_length: usize) -> Result<CodeSequence> {
    let params = HotCodeParams::for_length(word_length, radix)?;
    let size = params.space_size();
    if size > MAX_ENUMERATED_WORDS {
        return Err(CodeError::SpaceTooLarge {
            words: size,
            limit: MAX_ENUMERATED_WORDS,
        });
    }

    let mut remaining = vec![params.multiplicity; radix.radix_usize()];
    let mut current: Vec<u8> = Vec::with_capacity(word_length);
    let mut words: Vec<CodeWord> = Vec::with_capacity(usize::try_from(size).unwrap_or(0));
    enumerate_hot(&mut remaining, &mut current, word_length, radix, &mut words)?;
    CodeSequence::new(words)
}

fn enumerate_hot(
    remaining: &mut [usize],
    current: &mut Vec<u8>,
    word_length: usize,
    radix: LogicLevel,
    out: &mut Vec<CodeWord>,
) -> Result<()> {
    if current.len() == word_length {
        out.push(CodeWord::new(
            current.iter().copied().map(Digit::new).collect(),
            radix,
        )?);
        return Ok(());
    }
    for value in 0..radix.radix() {
        let slot = usize::from(value);
        if remaining[slot] > 0 {
            remaining[slot] -= 1;
            current.push(value);
            enumerate_hot(remaining, current, word_length, radix, out)?;
            current.pop();
            remaining[slot] += 1;
        }
    }
    Ok(())
}

/// The number of words in the hot-code space for a word length and radix.
///
/// # Errors
///
/// Returns [`CodeError::InvalidHotLength`] when the length is not a positive
/// multiple of the radix.
pub fn hot_space_size(radix: LogicLevel, word_length: usize) -> Result<u128> {
    Ok(HotCodeParams::for_length(word_length, radix)?.space_size())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_require_multiple_of_radix() {
        assert!(HotCodeParams::for_length(6, LogicLevel::TERNARY).is_ok());
        assert!(matches!(
            HotCodeParams::for_length(5, LogicLevel::TERNARY),
            Err(CodeError::InvalidHotLength {
                length: 5,
                radix: 3
            })
        ));
        assert!(HotCodeParams::for_length(0, LogicLevel::BINARY).is_err());
    }

    #[test]
    fn space_sizes_match_combinatorics() {
        // Binary: C(2k, k).
        assert_eq!(hot_space_size(LogicLevel::BINARY, 4).unwrap(), 6);
        assert_eq!(hot_space_size(LogicLevel::BINARY, 6).unwrap(), 20);
        assert_eq!(hot_space_size(LogicLevel::BINARY, 8).unwrap(), 70);
        // Ternary (6, 2): 6! / (2!)^3 = 90.
        assert_eq!(hot_space_size(LogicLevel::TERNARY, 6).unwrap(), 90);
        // Quaternary (4, 1): 4! = 24.
        assert_eq!(hot_space_size(LogicLevel::QUATERNARY, 4).unwrap(), 24);
    }

    #[test]
    fn enumeration_matches_space_size_and_is_hot() {
        for (radix, length) in [
            (LogicLevel::BINARY, 4),
            (LogicLevel::BINARY, 6),
            (LogicLevel::BINARY, 8),
            (LogicLevel::TERNARY, 6),
            (LogicLevel::QUATERNARY, 4),
        ] {
            let params = HotCodeParams::for_length(length, radix).unwrap();
            let hc = hot_code(radix, length).unwrap();
            assert_eq!(hc.len() as u128, params.space_size());
            assert!(hc.all_words_distinct());
            assert!(hc.iter().all(|w| w.is_hot(params.multiplicity)));
        }
    }

    #[test]
    fn paper_hot_code_membership_example() {
        // Section 2.3: 001122 and 012120 belong to the ternary (6, 2) hot
        // code; 000121 does not.
        let hc = hot_code(LogicLevel::TERNARY, 6).unwrap();
        let contains = |s: &str| hc.iter().any(|w| w.to_string() == s);
        assert!(contains("001122"));
        assert!(contains("012120"));
        assert!(!contains("000121"));
    }

    #[test]
    fn lexicographic_order() {
        let hc = hot_code(LogicLevel::BINARY, 4).unwrap();
        let rendered: Vec<String> = hc.iter().map(ToString::to_string).collect();
        assert_eq!(
            rendered,
            vec!["0011", "0101", "0110", "1001", "1010", "1100"]
        );
    }

    #[test]
    fn binomial_helper() {
        assert_eq!(binomial(8, 4), 70);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn too_large_spaces_are_rejected() {
        // Binary hot code with M = 80 has C(80, 40) >> 2^20 words; at
        // M = 1000 and 2·10⁶ the space does not fit a u128.
        for length in [80, 1_000, 2_000_000] {
            assert!(matches!(
                hot_code(LogicLevel::BINARY, length),
                Err(CodeError::SpaceTooLarge { .. })
            ));
        }
        assert_eq!(
            hot_space_size(LogicLevel::BINARY, 1_000).unwrap(),
            u128::MAX
        );
        assert_eq!(hot_space_size(LogicLevel::BINARY, 200).unwrap(), u128::MAX);
    }

    /// Rows `0..rows` of Pascal's triangle in checked arithmetic: `None`
    /// where the entry does not fit a `u128`.
    fn pascal(rows: usize) -> Vec<Vec<Option<u128>>> {
        let mut triangle: Vec<Vec<Option<u128>>> = vec![vec![Some(1)]];
        for n in 1..rows {
            let above = &triangle[n - 1];
            let row = (0..=n)
                .map(|k| {
                    let left = if k == 0 { Some(0) } else { above[k - 1] };
                    let right = above.get(k).copied().unwrap_or(Some(0));
                    left?.checked_add(right?)
                })
                .collect();
            triangle.push(row);
        }
        triangle
    }

    #[test]
    fn binomials_and_multinomials_are_exact_or_max() {
        // C(200, 100) ≈ 9·10⁵⁸ is past the u128 range, and every radix's
        // multinomial overflows below M = 200.
        let triangle = pascal(201);
        for (n, row) in triangle.iter().enumerate() {
            for (k, &expected) in row.iter().enumerate() {
                assert_eq!(binomial(n, k), expected.unwrap_or(u128::MAX), "C({n}, {k})");
            }
        }
        for radix in 2..=16usize {
            let mut overflowed = false;
            for k in 1..=200 / radix {
                let m = k * radix;
                let expected = (0..radix)
                    .try_fold(1u128, |total, part| {
                        total.checked_mul(triangle[m - part * k][k]?)
                    })
                    .unwrap_or(u128::MAX);
                overflowed |= expected == u128::MAX;
                assert_eq!(
                    multinomial_equal_parts(m, k, radix),
                    expected,
                    "radix {radix}, M = {m}"
                );
            }
            assert!(overflowed, "radix {radix} never overflows below M = 200");
        }
    }
}
