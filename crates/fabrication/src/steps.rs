//! The step doping matrix `S` (Definition 3) and Proposition 2: the doses
//! applied by the lithography/doping procedure that follows the definition of
//! every spacer, and the multi-linear relation `D_i^j = Σ_{k≥i} S_k^j`.
//!
//! Nanowire `i` is defined at MSPT iteration `i`; the doping procedure of
//! iteration `k` also hits every nanowire defined earlier (`i ≤ k`), so the
//! final doping of nanowire `i` is the sum of the doses of steps `i..N`.
//! Inverting the relation gives `S_i = D_i − D_{i+1}` (with `D_N = 0`), which
//! proves constructively that a set of doping profiles exists for *any*
//! pattern — the existence question raised in Section 3.3.

use serde::{Deserialize, Serialize};

use device_physics::DopingLadder;

use crate::doping::FinalDopingMatrix;
use crate::error::Result;
use crate::matrix::Matrix;
use crate::pattern::PatternMatrix;

/// Relative tolerance used when comparing doping doses for equality (doses
/// are differences of ladder levels, so equal doses are bit-identical in
/// practice; the tolerance only guards against accumulated rounding when a
/// ladder is produced by the numeric solver).
pub const DOSE_EQUALITY_TOLERANCE: f64 = 1e-9;

/// The step doping matrix `S ∈ ℝ^{N×M}`: row `i` holds the doses applied by
/// the lithography/doping procedure that follows the definition of nanowire
/// `i`. Positive doses are p-type, negative doses n-type (Example 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepDopingMatrix {
    doses: Matrix<f64>,
}

impl StepDopingMatrix {
    /// Derives the step matrix from a final doping matrix:
    /// `S_i = D_i − D_{i+1}` with `D_N = 0` (the constructive inverse of
    /// Proposition 2).
    #[must_use]
    pub fn from_final(doping: &FinalDopingMatrix) -> Self {
        let n = doping.nanowire_count();
        let m = doping.region_count();
        let d = doping.as_matrix();
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = Vec::with_capacity(m);
            for j in 0..m {
                let here = *d.get(i, j).expect("in range");
                let next = if i + 1 < n {
                    *d.get(i + 1, j).expect("in range")
                } else {
                    0.0
                };
                row.push(here - next);
            }
            rows.push(row);
        }
        StepDopingMatrix {
            doses: Matrix::from_rows(rows).expect("same shape as D"),
        }
    }

    /// Convenience constructor: pattern → doping (via the ladder) → steps.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`FinalDopingMatrix::from_pattern`].
    pub fn from_pattern(pattern: &PatternMatrix, ladder: &DopingLadder) -> Result<Self> {
        Ok(StepDopingMatrix::from_final(
            &FinalDopingMatrix::from_pattern(pattern, ladder)?,
        ))
    }

    /// Builds a step matrix directly from doses given in 10¹⁸ cm⁻³, as
    /// quoted in the paper's worked examples.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FabricationError::InvalidMatrixShape`] for ragged or
    /// empty rows.
    pub fn from_rows_1e18(rows: Vec<Vec<f64>>) -> Result<Self> {
        let scaled: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|row| row.into_iter().map(|v| v * 1e18).collect())
            .collect();
        Ok(StepDopingMatrix {
            doses: Matrix::from_rows(scaled)?,
        })
    }

    /// Number of doping procedures (= number of nanowires `N`).
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.doses.rows()
    }

    /// Number of doping regions `M`.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.doses.columns()
    }

    /// The dose `S_i^j` applied at step `i` to region `j` (cm⁻³, signed).
    ///
    /// # Errors
    ///
    /// Returns [`crate::FabricationError::IndexOutOfBounds`] for invalid
    /// positions.
    pub fn dose(&self, step: usize, region: usize) -> Result<f64> {
        Ok(*self.doses.get(step, region)?)
    }

    /// The doses of step `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `step >= step_count()`.
    #[must_use]
    pub fn step_doses(&self, step: usize) -> &[f64] {
        self.doses.row(step)
    }

    /// The underlying matrix in cm⁻³.
    #[must_use]
    pub fn as_matrix(&self) -> &Matrix<f64> {
        &self.doses
    }

    /// The matrix expressed in units of 10¹⁸ cm⁻³ (the paper's convention).
    #[must_use]
    pub fn in_1e18(&self) -> Matrix<f64> {
        self.doses.map(|v| v / 1e18)
    }

    /// The absolute tolerance at or below which a dose counts as zero:
    /// [`DOSE_EQUALITY_TOLERANCE`] times the largest dose magnitude of the
    /// matrix (at least 1). One scan of the matrix, so callers that classify
    /// many doses compute it once.
    pub(crate) fn zero_dose_tolerance(&self) -> f64 {
        let scale = self
            .doses
            .iter()
            .fold(0.0f64, |acc, &v| acc.max(v.abs()))
            .max(1.0);
        DOSE_EQUALITY_TOLERANCE * scale
    }

    /// Whether a dose is non-zero up to [`DOSE_EQUALITY_TOLERANCE`], relative
    /// to the largest dose magnitude of the matrix. Each call scans the whole
    /// matrix for that magnitude; [`DoseCountMatrix::from_steps`] and
    /// [`StepDopingMatrix::distinct_doses_per_step`] scan it once for all
    /// their doses.
    ///
    /// [`DoseCountMatrix::from_steps`]: crate::DoseCountMatrix::from_steps
    #[must_use]
    pub fn is_nonzero_dose(&self, value: f64) -> bool {
        value.abs() > self.zero_dose_tolerance()
    }

    /// Reconstructs the final doping matrix by accumulating the steps:
    /// `D_i^j = Σ_{k≥i} S_k^j` — Proposition 2 in the forward direction.
    #[must_use]
    pub fn accumulate(&self) -> FinalDopingMatrix {
        let n = self.step_count();
        let m = self.region_count();
        let mut rows = vec![vec![0.0; m]; n];
        // Accumulate from the last step backwards so each row is the suffix
        // sum of the step doses.
        let mut suffix = vec![0.0; m];
        for i in (0..n).rev() {
            for (j, acc) in suffix.iter_mut().enumerate() {
                *acc += *self.doses.get(i, j).expect("in range");
            }
            rows[i] = suffix.clone();
        }
        FinalDopingMatrix::from_rows_1e18(
            rows.into_iter()
                .map(|row| row.into_iter().map(|v| v / 1e18).collect())
                .collect(),
        )
        .expect("shape preserved")
    }

    /// The number of distinct non-zero doses of every step — the per-step
    /// lithography/doping count `φ_i` of Definition 4.
    #[must_use]
    pub fn distinct_doses_per_step(&self) -> Vec<usize> {
        let tol = self.zero_dose_tolerance();
        (0..self.step_count())
            .map(|i| {
                let mut distinct: Vec<f64> = Vec::new();
                for &dose in self.doses.row(i) {
                    if dose.abs() <= tol {
                        continue;
                    }
                    if !distinct.iter().any(|&d| (d - dose).abs() <= tol) {
                        distinct.push(dose);
                    }
                }
                distinct.len()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanowire_codes::LogicLevel;

    fn paper_pattern() -> PatternMatrix {
        PatternMatrix::from_rows(
            vec![vec![0, 1, 2, 1], vec![0, 2, 2, 0], vec![1, 0, 1, 2]],
            LogicLevel::TERNARY,
        )
        .unwrap()
    }

    fn gray_pattern() -> PatternMatrix {
        // Example 5: the Gray-code alternative to the same pattern set.
        PatternMatrix::from_rows(
            vec![vec![0, 1, 2, 1], vec![0, 2, 2, 0], vec![1, 2, 1, 0]],
            LogicLevel::TERNARY,
        )
        .unwrap()
    }

    #[test]
    fn paper_example_2_step_matrix() {
        let steps =
            StepDopingMatrix::from_pattern(&paper_pattern(), &DopingLadder::paper_example())
                .unwrap();
        let s = steps.in_1e18();
        assert_eq!(s.row(0), &[0.0, -5.0, 0.0, 2.0]);
        assert_eq!(s.row(1), &[-2.0, 7.0, 5.0, -7.0]);
        assert_eq!(s.row(2), &[4.0, 2.0, 4.0, 9.0]);
    }

    #[test]
    fn paper_example_5_gray_step_matrix() {
        let steps = StepDopingMatrix::from_pattern(&gray_pattern(), &DopingLadder::paper_example())
            .unwrap();
        let s = steps.in_1e18();
        assert_eq!(s.row(0), &[0.0, -5.0, 0.0, 2.0]);
        assert_eq!(s.row(1), &[-2.0, 0.0, 5.0, 0.0]);
        assert_eq!(s.row(2), &[4.0, 9.0, 4.0, 2.0]);
    }

    #[test]
    fn accumulation_recovers_the_final_doping_matrix() {
        for pattern in [paper_pattern(), gray_pattern()] {
            let ladder = DopingLadder::paper_example();
            let doping = FinalDopingMatrix::from_pattern(&pattern, &ladder).unwrap();
            let steps = StepDopingMatrix::from_final(&doping);
            let reconstructed = steps.accumulate();
            let original = doping.in_1e18();
            let recovered = reconstructed.in_1e18();
            for i in 0..doping.nanowire_count() {
                for j in 0..doping.region_count() {
                    assert!(
                        (original.get(i, j).unwrap() - recovered.get(i, j).unwrap()).abs() < 1e-9,
                        "mismatch at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_dose_counts_match_example_3() {
        let steps =
            StepDopingMatrix::from_pattern(&paper_pattern(), &DopingLadder::paper_example())
                .unwrap();
        // Example 3: φ = (2, 4, 3) — note the paper indexes steps from 1.
        assert_eq!(steps.distinct_doses_per_step(), vec![2, 4, 3]);
    }

    #[test]
    fn distinct_dose_counts_match_example_6_for_the_gray_code() {
        let steps = StepDopingMatrix::from_pattern(&gray_pattern(), &DopingLadder::paper_example())
            .unwrap();
        // Example 6: φ = (2, 2, 3), Φ = 7.
        assert_eq!(steps.distinct_doses_per_step(), vec![2, 2, 3]);
    }

    #[test]
    fn explicit_constructor_and_accessors() {
        let steps = StepDopingMatrix::from_rows_1e18(vec![
            vec![0.0, -5.0, 0.0, 2.0],
            vec![-2.0, 7.0, 5.0, -7.0],
            vec![4.0, 2.0, 4.0, 9.0],
        ])
        .unwrap();
        assert_eq!(steps.step_count(), 3);
        assert_eq!(steps.region_count(), 4);
        assert!((steps.dose(1, 1).unwrap() - 7e18).abs() < 1.0);
        assert!(steps.dose(5, 0).is_err());
        assert_eq!(steps.step_doses(2).len(), 4);
        assert!(steps.is_nonzero_dose(2e18));
        assert!(!steps.is_nonzero_dose(0.0));
        assert!(StepDopingMatrix::from_rows_1e18(vec![]).is_err());
    }

    #[test]
    fn last_step_equals_last_nanowire_doping() {
        // S_{N-1} = D_{N-1}: the last nanowire only receives its own doses.
        let ladder = DopingLadder::paper_example();
        let doping = FinalDopingMatrix::from_pattern(&paper_pattern(), &ladder).unwrap();
        let steps = StepDopingMatrix::from_final(&doping);
        let last = steps.step_count() - 1;
        for j in 0..steps.region_count() {
            assert_eq!(
                steps.dose(last, j).unwrap(),
                doping.level(last, j).unwrap().value()
            );
        }
    }
}
