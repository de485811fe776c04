//! Logic levels (radix) and digits of multi-valued code words.
//!
//! The paper addresses nanowires with a multi-valued logic of `n` values: the
//! threshold voltage of every doping region is one of `n` discrete levels.
//! [`LogicLevel`] captures the radix `n` and [`Digit`] a single value in
//! `0..n`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{CodeError, Result};

/// The smallest supported logic radix.
pub const MIN_RADIX: u8 = 2;
/// The largest supported logic radix.
///
/// Sixteen levels is far beyond anything the paper evaluates (it stops at
/// quaternary logic) but keeps digit rendering to a single character.
pub const MAX_RADIX: u8 = 16;

/// The radix (number of logic values) of a multi-valued code.
///
/// The paper evaluates binary (`n = 2`), ternary (`n = 3`) and quaternary
/// (`n = 4`) logic; the type supports any radix in `2..=16`.
///
/// # Examples
///
/// ```
/// use nanowire_codes::LogicLevel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ternary = LogicLevel::new(3)?;
/// assert_eq!(ternary.radix(), 3);
/// assert_eq!(ternary.max_digit(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LogicLevel(u8);

impl LogicLevel {
    /// Binary logic (`n = 2`).
    pub const BINARY: LogicLevel = LogicLevel(2);
    /// Ternary logic (`n = 3`).
    pub const TERNARY: LogicLevel = LogicLevel(3);
    /// Quaternary logic (`n = 4`).
    pub const QUATERNARY: LogicLevel = LogicLevel(4);

    /// Creates a logic level with the given radix.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidRadix`] if `radix` is outside `2..=16`.
    pub fn new(radix: u8) -> Result<Self> {
        if (MIN_RADIX..=MAX_RADIX).contains(&radix) {
            Ok(LogicLevel(radix))
        } else {
            Err(CodeError::InvalidRadix { radix })
        }
    }

    /// The radix `n`.
    #[must_use]
    pub fn radix(self) -> u8 {
        self.0
    }

    /// The radix as a `usize`, convenient for sizing computations.
    #[must_use]
    pub fn radix_usize(self) -> usize {
        usize::from(self.0)
    }

    /// The largest digit value representable in this radix (`n - 1`).
    #[must_use]
    pub fn max_digit(self) -> u8 {
        self.0 - 1
    }

    /// Checks that a digit value fits in this radix.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::DigitOutOfRange`] when `digit >= radix`.
    pub fn check_digit(self, digit: u8) -> Result<()> {
        if digit < self.0 {
            Ok(())
        } else {
            Err(CodeError::DigitOutOfRange {
                digit,
                radix: self.0,
            })
        }
    }

    /// Iterates over all digit values of this radix, in increasing order.
    ///
    /// ```
    /// use nanowire_codes::LogicLevel;
    /// let values: Vec<u8> = LogicLevel::TERNARY.digit_values().map(|d| d.value()).collect();
    /// assert_eq!(values, vec![0, 1, 2]);
    /// ```
    pub fn digit_values(self) -> impl Iterator<Item = Digit> {
        (0..self.0).map(Digit)
    }

    /// Number of distinct words of `len` digits in this radix (`n^len`),
    /// or `u128::MAX` when that does not fit a `u128`. Exponentiation by
    /// squaring takes `O(log len)` steps, so a hostile length costs nothing.
    #[must_use]
    pub fn word_count(self, len: usize) -> u128 {
        u32::try_from(len)
            .ok()
            .and_then(|len| u128::from(self.0).checked_pow(len))
            .unwrap_or(u128::MAX)
    }
}

impl fmt::Display for LogicLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            2 => write!(f, "binary"),
            3 => write!(f, "ternary"),
            4 => write!(f, "quaternary"),
            n => write!(f, "{n}-ary"),
        }
    }
}

impl TryFrom<u8> for LogicLevel {
    type Error = CodeError;

    fn try_from(value: u8) -> Result<Self> {
        LogicLevel::new(value)
    }
}

impl From<LogicLevel> for u8 {
    fn from(value: LogicLevel) -> Self {
        value.0
    }
}

/// A single digit of a multi-valued code word.
///
/// A digit is only meaningful together with the [`LogicLevel`] of the word
/// that contains it; [`crate::CodeWord`] enforces that every digit fits the
/// word radix.
///
/// ```
/// use nanowire_codes::Digit;
/// let d = Digit::new(2);
/// assert_eq!(d.value(), 2);
/// assert_eq!(d.to_string(), "2");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Digit(u8);

impl Digit {
    /// The zero digit.
    pub const ZERO: Digit = Digit(0);

    /// Creates a digit with the given value.
    ///
    /// The value is not bounded here; bounds are enforced when the digit is
    /// placed into a [`crate::CodeWord`] with a concrete radix.
    #[must_use]
    pub fn new(value: u8) -> Self {
        Digit(value)
    }

    /// The numeric value of the digit.
    #[must_use]
    pub fn value(self) -> u8 {
        self.0
    }

    /// The complement of this digit with respect to a radix: `(n-1) - d`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::DigitOutOfRange`] if the digit does not fit the
    /// radix.
    pub fn complement(self, radix: LogicLevel) -> Result<Digit> {
        radix.check_digit(self.0)?;
        Ok(Digit(radix.max_digit() - self.0))
    }
}

impl fmt::Display for Digit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 10 {
            write!(f, "{}", self.0)
        } else {
            // Render 10..=15 as a..f so words stay one character per digit.
            write!(f, "{}", (b'a' + (self.0 - 10)) as char)
        }
    }
}

impl From<u8> for Digit {
    fn from(value: u8) -> Self {
        Digit(value)
    }
}

impl From<Digit> for u8 {
    fn from(value: Digit) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_bounds_are_enforced() {
        assert!(LogicLevel::new(1).is_err());
        assert!(LogicLevel::new(0).is_err());
        assert!(LogicLevel::new(17).is_err());
        for n in MIN_RADIX..=MAX_RADIX {
            assert_eq!(LogicLevel::new(n).unwrap().radix(), n);
        }
    }

    #[test]
    fn named_levels_have_expected_radices() {
        assert_eq!(LogicLevel::BINARY.radix(), 2);
        assert_eq!(LogicLevel::TERNARY.radix(), 3);
        assert_eq!(LogicLevel::QUATERNARY.radix(), 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(LogicLevel::BINARY.to_string(), "binary");
        assert_eq!(LogicLevel::TERNARY.to_string(), "ternary");
        assert_eq!(LogicLevel::QUATERNARY.to_string(), "quaternary");
        assert_eq!(LogicLevel::new(5).unwrap().to_string(), "5-ary");
    }

    #[test]
    fn digit_check_respects_radix() {
        let ternary = LogicLevel::TERNARY;
        assert!(ternary.check_digit(0).is_ok());
        assert!(ternary.check_digit(2).is_ok());
        assert_eq!(
            ternary.check_digit(3),
            Err(CodeError::DigitOutOfRange { digit: 3, radix: 3 })
        );
    }

    #[test]
    fn digit_values_enumerates_all() {
        let digits: Vec<u8> = LogicLevel::QUATERNARY
            .digit_values()
            .map(Digit::value)
            .collect();
        assert_eq!(digits, vec![0, 1, 2, 3]);
    }

    #[test]
    fn word_count_matches_powers() {
        assert_eq!(LogicLevel::BINARY.word_count(10), 1024);
        assert_eq!(LogicLevel::TERNARY.word_count(4), 81);
        assert_eq!(LogicLevel::QUATERNARY.word_count(0), 1);
    }

    #[test]
    fn word_count_saturates() {
        assert_eq!(LogicLevel::new(16).unwrap().word_count(64), u128::MAX);
    }

    #[test]
    fn word_counts_are_exact_or_max_in_bounded_time() {
        // Against repeated checked multiplication, past each radix's
        // overflow length (2¹²⁸ overflows at length 128).
        for radix in 2..=16u8 {
            let level = LogicLevel::new(radix).unwrap();
            let mut expected = Some(1u128);
            for len in 0..=200 {
                assert_eq!(level.word_count(len), expected.unwrap_or(u128::MAX));
                expected = expected.and_then(|count| count.checked_mul(u128::from(radix)));
            }
            for len in [2_000_000_000, usize::MAX] {
                assert_eq!(level.word_count(len), u128::MAX);
            }
        }
    }

    #[test]
    fn digit_complement() {
        let ternary = LogicLevel::TERNARY;
        assert_eq!(Digit::new(0).complement(ternary).unwrap(), Digit::new(2));
        assert_eq!(Digit::new(1).complement(ternary).unwrap(), Digit::new(1));
        assert_eq!(Digit::new(2).complement(ternary).unwrap(), Digit::new(0));
        assert!(Digit::new(3).complement(ternary).is_err());
    }

    #[test]
    fn digit_display_uses_letters_above_nine() {
        assert_eq!(Digit::new(9).to_string(), "9");
        assert_eq!(Digit::new(10).to_string(), "a");
        assert_eq!(Digit::new(15).to_string(), "f");
    }

    #[test]
    fn conversions_roundtrip() {
        let level = LogicLevel::try_from(4).unwrap();
        assert_eq!(u8::from(level), 4);
        let digit = Digit::from(3u8);
        assert_eq!(u8::from(digit), 3);
    }
}
