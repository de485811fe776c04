//! Error types for the `nanowire-codes` crate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or manipulating code words, code
/// spaces and arrangements.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodeError {
    /// The requested logic radix is outside the supported range `2..=16`.
    InvalidRadix {
        /// The offending radix.
        radix: u8,
    },
    /// A code word was constructed with no digits.
    EmptyWord,
    /// A digit value is not representable in the given radix.
    DigitOutOfRange {
        /// The offending digit value.
        digit: u8,
        /// The radix the digit had to fit in.
        radix: u8,
    },
    /// Two code words that must have the same length (and radix) do not.
    LengthMismatch {
        /// Length of the left-hand operand.
        left: usize,
        /// Length of the right-hand operand.
        right: usize,
    },
    /// Two code words that must share a radix do not.
    RadixMismatch {
        /// Radix of the left-hand operand.
        left: u8,
        /// Radix of the right-hand operand.
        right: u8,
    },
    /// A hot code was requested whose word length is not a multiple of the
    /// radix (`M = k · n` is required).
    InvalidHotLength {
        /// Requested word length `M`.
        length: usize,
        /// Radix `n`.
        radix: u8,
    },
    /// A tree-family code was requested with an odd reflected length.
    OddReflectedLength {
        /// Requested (reflected) code length.
        length: usize,
    },
    /// A code word length of zero (or otherwise unusable) was requested.
    InvalidLength {
        /// Requested length.
        length: usize,
    },
    /// The requested code space would be too large to enumerate.
    SpaceTooLarge {
        /// Number of words the space would contain.
        words: u128,
        /// Enumeration limit.
        limit: u128,
    },
    /// A search budget exceeds its default value, the largest the code
    /// searches accept.
    BudgetTooLarge {
        /// Name of the budget field.
        budget: &'static str,
        /// The requested value.
        value: u64,
        /// The largest accepted value.
        limit: u64,
    },
    /// No arrangement satisfying the requested constraints was found within
    /// the search budget.
    ArrangementNotFound {
        /// Human-readable description of the constraint that failed.
        reason: String,
    },
    /// A word was expected to belong to a code space but does not.
    WordNotInSpace {
        /// Display form of the offending word.
        word: String,
    },
    /// A sequence operation required a non-empty sequence.
    EmptySequence,
    /// An index into a code word or sequence was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The container length.
        len: usize,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidRadix { radix } => {
                write!(f, "invalid logic radix {radix}, supported range is 2..=16")
            }
            CodeError::EmptyWord => write!(f, "code word must contain at least one digit"),
            CodeError::DigitOutOfRange { digit, radix } => {
                write!(f, "digit {digit} is out of range for radix {radix}")
            }
            CodeError::LengthMismatch { left, right } => {
                write!(f, "code word lengths differ: {left} vs {right}")
            }
            CodeError::RadixMismatch { left, right } => {
                write!(f, "code word radices differ: {left} vs {right}")
            }
            CodeError::InvalidHotLength { length, radix } => write!(
                f,
                "hot code length {length} is not a positive multiple of radix {radix}"
            ),
            CodeError::OddReflectedLength { length } => write!(
                f,
                "reflected code length {length} must be an even number of digits"
            ),
            CodeError::InvalidLength { length } => {
                write!(f, "invalid code word length {length}")
            }
            CodeError::SpaceTooLarge { words, limit } => write!(
                f,
                "code space with {words} words exceeds the enumeration limit of {limit}"
            ),
            CodeError::BudgetTooLarge {
                budget,
                value,
                limit,
            } => write!(
                f,
                "search budget {budget} = {value} exceeds its default of {limit}"
            ),
            CodeError::ArrangementNotFound { reason } => {
                write!(f, "no code arrangement found: {reason}")
            }
            CodeError::WordNotInSpace { word } => {
                write!(f, "code word {word} does not belong to the code space")
            }
            CodeError::EmptySequence => write!(f, "code sequence must contain at least one word"),
            CodeError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
        }
    }
}

impl Error for CodeError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CodeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let samples = vec![
            CodeError::InvalidRadix { radix: 1 },
            CodeError::EmptyWord,
            CodeError::DigitOutOfRange { digit: 7, radix: 3 },
            CodeError::LengthMismatch { left: 3, right: 4 },
            CodeError::RadixMismatch { left: 2, right: 3 },
            CodeError::InvalidHotLength {
                length: 5,
                radix: 2,
            },
            CodeError::OddReflectedLength { length: 7 },
            CodeError::InvalidLength { length: 0 },
            CodeError::SpaceTooLarge {
                words: 1 << 40,
                limit: 1 << 20,
            },
            CodeError::BudgetTooLarge {
                budget: "max_nodes",
                value: u64::MAX,
                limit: 4_000_000,
            },
            CodeError::ArrangementNotFound {
                reason: "budget exhausted".to_string(),
            },
            CodeError::WordNotInSpace {
                word: "0120".to_string(),
            },
            CodeError::EmptySequence,
            CodeError::IndexOutOfBounds { index: 9, len: 3 },
        ];
        for err in samples {
            let text = err.to_string();
            assert!(!text.is_empty());
            let first = text.chars().next().unwrap();
            assert!(first.is_lowercase() || first.is_numeric());
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error>() {}
        assert_error::<CodeError>();
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CodeError>();
    }
}
