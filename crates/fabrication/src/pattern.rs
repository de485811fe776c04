//! The pattern matrix `P` (Definition 1): the `N × M` matrix of
//! threshold-voltage digits of the `N` nanowires of a half cave, each with
//! `M` doping regions.

use serde::{Deserialize, Serialize};

use nanowire_codes::{CodeSequence, CodeWord, LogicLevel};

use crate::error::{FabricationError, Result};
use crate::matrix::Matrix;

/// The pattern matrix `P ∈ {0, …, n−1}^{N×M}` of a half cave.
///
/// Row `i` is the pattern (code word) of nanowire `i`; nanowire `0` is the
/// one defined *first* by the MSPT flow, which is why it accumulates the most
/// doping operations.
///
/// # Examples
///
/// ```
/// use mspt_fabrication::PatternMatrix;
/// use nanowire_codes::LogicLevel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Example 1 of the paper (n = 3, N = 3, M = 4).
/// let pattern = PatternMatrix::from_rows(
///     vec![vec![0, 1, 2, 1], vec![0, 2, 2, 0], vec![1, 0, 1, 2]],
///     LogicLevel::TERNARY,
/// )?;
/// assert_eq!(pattern.nanowire_count(), 3);
/// assert_eq!(pattern.region_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternMatrix {
    digits: Matrix<u8>,
    radix: LogicLevel,
}

impl PatternMatrix {
    /// Creates a pattern matrix from raw digit rows.
    ///
    /// # Errors
    ///
    /// * [`FabricationError::InvalidMatrixShape`] when the rows are ragged or
    ///   empty.
    /// * [`FabricationError::Code`] when a digit does not fit the radix.
    pub fn from_rows(rows: Vec<Vec<u8>>, radix: LogicLevel) -> Result<Self> {
        for row in &rows {
            for &digit in row {
                radix.check_digit(digit)?;
            }
        }
        Ok(PatternMatrix {
            digits: Matrix::from_rows(rows)?,
            radix,
        })
    }

    /// Creates a pattern matrix from an ordered code sequence: word `i`
    /// becomes the pattern of nanowire `i`.
    ///
    /// # Errors
    ///
    /// None: a sequence holds at least one word, and its words share one
    /// length and the radix their digits were checked against.
    pub fn from_sequence(sequence: &CodeSequence) -> Result<Self> {
        let digits = sequence
            .iter()
            .flat_map(|word| word.digits().iter().map(|digit| digit.value()))
            .collect();
        Ok(PatternMatrix {
            digits: Matrix::from_row_major(sequence.len(), sequence.word_length(), digits),
            radix: sequence.radix(),
        })
    }

    /// The number of nanowires `N` (matrix rows).
    #[must_use]
    pub fn nanowire_count(&self) -> usize {
        self.digits.rows()
    }

    /// The number of doping regions `M` per nanowire (matrix columns).
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.digits.columns()
    }

    /// The logic radix `n`.
    #[must_use]
    pub fn radix(&self) -> LogicLevel {
        self.radix
    }

    /// The digit `P_i^j` of nanowire `i`, region `j`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::IndexOutOfBounds`] when the position is
    /// outside the matrix.
    pub fn digit(&self, nanowire: usize, region: usize) -> Result<u8> {
        Ok(*self.digits.get(nanowire, region)?)
    }

    /// The pattern of nanowire `i` as a digit slice.
    ///
    /// # Panics
    ///
    /// Panics when `nanowire >= nanowire_count()`.
    #[must_use]
    pub fn nanowire_pattern(&self, nanowire: usize) -> &[u8] {
        self.digits.row(nanowire)
    }

    /// The pattern of nanowire `i` as a [`CodeWord`].
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::IndexOutOfBounds`] when the nanowire does
    /// not exist.
    pub fn nanowire_word(&self, nanowire: usize) -> Result<CodeWord> {
        if nanowire >= self.nanowire_count() {
            return Err(FabricationError::IndexOutOfBounds {
                row: nanowire,
                column: 0,
                rows: self.nanowire_count(),
                columns: self.region_count(),
            });
        }
        Ok(CodeWord::from_values(
            self.digits.row(nanowire),
            self.radix,
        )?)
    }

    /// The underlying digit matrix.
    #[must_use]
    pub fn digits(&self) -> &Matrix<u8> {
        &self.digits
    }

    /// The rows of the matrix as a [`CodeSequence`], in nanowire order.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::Code`] if the rows are not mutually
    /// compatible (cannot happen for a constructed matrix).
    pub fn to_sequence(&self) -> Result<CodeSequence> {
        let words: std::result::Result<Vec<CodeWord>, _> = self
            .digits
            .iter_rows()
            .map(|row| CodeWord::from_values(row, self.radix))
            .collect();
        Ok(CodeSequence::new(words?)?)
    }

    /// Number of positions at which the patterns of nanowires `i` and `i+1`
    /// differ, for every `i` — the transition profile that drives both cost
    /// functions.
    #[must_use]
    pub fn row_transitions(&self) -> Vec<usize> {
        (0..self.nanowire_count().saturating_sub(1))
            .map(|i| {
                self.digits
                    .row(i)
                    .iter()
                    .zip(self.digits.row(i + 1))
                    .filter(|(a, b)| a != b)
                    .count()
            })
            .collect()
    }

    /// Whether the digit of region `j` differs between nanowires `i` and
    /// `i+1` (used by the variability and complexity derivations).
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::IndexOutOfBounds`] for invalid positions.
    pub fn changes_between(&self, nanowire: usize, region: usize) -> Result<bool> {
        let here = self.digit(nanowire, region)?;
        let next = self.digit(nanowire + 1, region)?;
        Ok(here != next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanowire_codes::{reflected_gray_code, CodeKind, CodeSpec};

    fn paper_pattern() -> PatternMatrix {
        PatternMatrix::from_rows(
            vec![vec![0, 1, 2, 1], vec![0, 2, 2, 0], vec![1, 0, 1, 2]],
            LogicLevel::TERNARY,
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_digits_and_shape() {
        assert!(paper_pattern().nanowire_count() == 3);
        assert!(PatternMatrix::from_rows(vec![vec![0, 3]], LogicLevel::TERNARY).is_err());
        assert!(PatternMatrix::from_rows(vec![vec![0, 1], vec![1]], LogicLevel::TERNARY).is_err());
        assert!(PatternMatrix::from_rows(vec![], LogicLevel::BINARY).is_err());
    }

    #[test]
    fn accessors_match_paper_example() {
        let p = paper_pattern();
        assert_eq!(p.region_count(), 4);
        assert_eq!(p.radix(), LogicLevel::TERNARY);
        assert_eq!(p.digit(0, 2).unwrap(), 2);
        assert_eq!(p.digit(2, 0).unwrap(), 1);
        assert!(p.digit(3, 0).is_err());
        assert_eq!(p.nanowire_pattern(1), &[0, 2, 2, 0]);
        assert_eq!(p.nanowire_word(2).unwrap().to_string(), "1012");
        assert!(p.nanowire_word(5).is_err());
    }

    #[test]
    fn sequence_roundtrip() {
        let gc = reflected_gray_code(LogicLevel::BINARY, 8).unwrap();
        let pattern = PatternMatrix::from_sequence(&gc).unwrap();
        assert_eq!(pattern.nanowire_count(), gc.len());
        assert_eq!(pattern.region_count(), 8);
        let back = pattern.to_sequence().unwrap();
        assert_eq!(back, gc);
    }

    #[test]
    fn row_transitions_match_code_transitions() {
        let spec = CodeSpec::new(CodeKind::Gray, LogicLevel::TERNARY, 6).unwrap();
        let seq = spec.generate().unwrap();
        let pattern = PatternMatrix::from_sequence(&seq).unwrap();
        assert_eq!(
            pattern.row_transitions().iter().sum::<usize>(),
            seq.total_transitions()
        );
    }

    #[test]
    fn change_detection() {
        let p = paper_pattern();
        // Between nanowires 0 and 1: digits 1 and 3 change (values 1->2, 1->0).
        assert!(!p.changes_between(0, 0).unwrap());
        assert!(p.changes_between(0, 1).unwrap());
        assert!(!p.changes_between(0, 2).unwrap());
        assert!(p.changes_between(0, 3).unwrap());
        assert!(p.changes_between(2, 0).is_err());
    }
}
