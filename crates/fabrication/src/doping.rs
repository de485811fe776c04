//! The final doping matrix `D` (Definition 2) and the threshold-voltage
//! matrix `V`: the images of the pattern matrix under the bijections `g`
//! (digit → V_T) and `h = f ∘ g` (digit → N_D) of Proposition 1.

use serde::{Deserialize, Serialize};

use device_physics::{DopantConcentration, DopingLadder, Volts};

use crate::error::{FabricationError, Result};
use crate::matrix::Matrix;
use crate::pattern::PatternMatrix;

/// The final doping matrix `D ∈ ℝ^{N×M}`: the accumulated doping level of
/// every doping region after the whole array has been defined.
///
/// Doping levels are stored in cm⁻³; the paper's examples quote them in
/// units of 10¹⁸ cm⁻³, available through [`FinalDopingMatrix::in_1e18`].
///
/// # Examples
///
/// ```
/// use device_physics::DopingLadder;
/// use mspt_fabrication::{FinalDopingMatrix, PatternMatrix};
/// use nanowire_codes::LogicLevel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pattern = PatternMatrix::from_rows(
///     vec![vec![0, 1, 2, 1], vec![0, 2, 2, 0], vec![1, 0, 1, 2]],
///     LogicLevel::TERNARY,
/// )?;
/// let doping = FinalDopingMatrix::from_pattern(&pattern, &DopingLadder::paper_example())?;
/// // Example 1 of the paper: D[0] = [2, 4, 9, 4] × 10^18 cm^-3.
/// assert_eq!(doping.in_1e18().row(0), &[2.0, 4.0, 9.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinalDopingMatrix {
    levels: Matrix<f64>,
}

impl FinalDopingMatrix {
    /// Builds the final doping matrix from a pattern and a doping ladder —
    /// the application of `h = f ∘ g` element-wise (Proposition 1).
    ///
    /// # Errors
    ///
    /// * [`FabricationError::LadderTooSmall`] when the ladder has fewer
    ///   levels than the pattern radix.
    /// * [`FabricationError::Physics`] when a digit lookup fails.
    pub fn from_pattern(pattern: &PatternMatrix, ladder: &DopingLadder) -> Result<Self> {
        if ladder.level_count() < pattern.radix().radix_usize() {
            return Err(FabricationError::LadderTooSmall {
                levels: ladder.level_count(),
                radix: pattern.radix().radix(),
            });
        }
        // One lookup per digit value: the ladder covers the radix, and every
        // digit of the pattern is below it.
        let by_digit = (0..pattern.radix().radix())
            .map(|digit| Ok(ladder.doping(digit)?.value()))
            .collect::<Result<Vec<f64>>>()?;
        Ok(FinalDopingMatrix {
            levels: pattern.digits().map(|&digit| by_digit[usize::from(digit)]),
        })
    }

    /// Builds a doping matrix directly from levels given in 10¹⁸ cm⁻³, as
    /// quoted in the paper's worked examples.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::InvalidMatrixShape`] for ragged or empty
    /// rows.
    pub fn from_rows_1e18(rows: Vec<Vec<f64>>) -> Result<Self> {
        let scaled: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|row| row.into_iter().map(|v| v * 1e18).collect())
            .collect();
        Ok(FinalDopingMatrix {
            levels: Matrix::from_rows(scaled)?,
        })
    }

    /// Number of nanowires `N`.
    #[must_use]
    pub fn nanowire_count(&self) -> usize {
        self.levels.rows()
    }

    /// Number of doping regions `M` per nanowire.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.levels.columns()
    }

    /// The doping level `D_i^j` of nanowire `i`, region `j`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::IndexOutOfBounds`] for invalid positions.
    pub fn level(&self, nanowire: usize, region: usize) -> Result<DopantConcentration> {
        Ok(DopantConcentration::new(
            *self.levels.get(nanowire, region)?,
        ))
    }

    /// The underlying matrix in cm⁻³.
    #[must_use]
    pub fn as_matrix(&self) -> &Matrix<f64> {
        &self.levels
    }

    /// The matrix expressed in units of 10¹⁸ cm⁻³ (the paper's convention).
    #[must_use]
    pub fn in_1e18(&self) -> Matrix<f64> {
        self.levels.map(|v| v / 1e18)
    }

    /// Decodes the doping matrix back to a pattern matrix using the nearest
    /// ladder level for every region — the inverse of `h`, useful to verify
    /// bijectivity end-to-end.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::Code`] if the decoded digits do not form a
    /// valid pattern (cannot happen when the ladder covers the radix).
    pub fn decode_pattern(&self, ladder: &DopingLadder) -> Result<PatternMatrix> {
        let rows: Vec<Vec<u8>> = self
            .levels
            .iter_rows()
            .map(|row| {
                row.iter()
                    .map(|&v| ladder.digit_for_doping(DopantConcentration::new(v)))
                    .collect()
            })
            .collect();
        let radix = nanowire_codes::LogicLevel::new(ladder.level_count() as u8)?;
        PatternMatrix::from_rows(rows, radix)
    }
}

/// The threshold-voltage matrix `V`: the image of the pattern under `g`
/// alone. The paper's Example 1 writes it in units of 0.1 V.
///
/// # Errors
///
/// * [`FabricationError::LadderTooSmall`] when the ladder has fewer levels
///   than the pattern radix.
/// * [`FabricationError::Physics`] when a digit lookup fails.
pub fn threshold_matrix(pattern: &PatternMatrix, ladder: &DopingLadder) -> Result<Matrix<f64>> {
    if ladder.level_count() < pattern.radix().radix_usize() {
        return Err(FabricationError::LadderTooSmall {
            levels: ladder.level_count(),
            radix: pattern.radix().radix(),
        });
    }
    let mut rows = Vec::with_capacity(pattern.nanowire_count());
    for i in 0..pattern.nanowire_count() {
        let mut row = Vec::with_capacity(pattern.region_count());
        for &digit in pattern.nanowire_pattern(i) {
            row.push(ladder.threshold(digit)?.value());
        }
        rows.push(row);
    }
    Matrix::from_rows(rows)
}

/// The nominal threshold voltage of a single region of a pattern.
///
/// # Errors
///
/// * [`FabricationError::IndexOutOfBounds`] for invalid positions.
/// * [`FabricationError::Physics`] when the digit has no ladder level.
pub fn nominal_threshold(
    pattern: &PatternMatrix,
    ladder: &DopingLadder,
    nanowire: usize,
    region: usize,
) -> Result<Volts> {
    let digit = pattern.digit(nanowire, region)?;
    Ok(ladder.threshold(digit)?)
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

    #[test]
    fn paper_example_1_doping_matrix() {
        let doping =
            FinalDopingMatrix::from_pattern(&paper_pattern(), &DopingLadder::paper_example())
                .unwrap();
        let d = doping.in_1e18();
        assert_eq!(d.row(0), &[2.0, 4.0, 9.0, 4.0]);
        assert_eq!(d.row(1), &[2.0, 9.0, 9.0, 2.0]);
        assert_eq!(d.row(2), &[4.0, 2.0, 4.0, 9.0]);
        assert_eq!(doping.nanowire_count(), 3);
        assert_eq!(doping.region_count(), 4);
    }

    #[test]
    fn paper_example_1_threshold_matrix() {
        let v = threshold_matrix(&paper_pattern(), &DopingLadder::paper_example()).unwrap();
        // The paper writes V in units of 0.1 V: [[1,3,5,3],[1,5,5,1],[3,1,3,5]].
        let in_tenths: Vec<Vec<f64>> = v
            .iter_rows()
            .map(|row| row.iter().map(|&x| (x / 0.1).round()).collect())
            .collect();
        assert_eq!(
            in_tenths,
            vec![
                vec![1.0, 3.0, 5.0, 3.0],
                vec![1.0, 5.0, 5.0, 1.0],
                vec![3.0, 1.0, 3.0, 5.0]
            ]
        );
    }

    #[test]
    fn ladder_must_cover_the_radix() {
        let binary_ladder = DopingLadder::from_model(
            &device_physics::ThresholdModel::default_mspt(),
            2,
            (Volts::new(0.0), Volts::new(1.0)),
        )
        .unwrap();
        assert!(matches!(
            FinalDopingMatrix::from_pattern(&paper_pattern(), &binary_ladder),
            Err(FabricationError::LadderTooSmall {
                levels: 2,
                radix: 3
            })
        ));
        assert!(threshold_matrix(&paper_pattern(), &binary_ladder).is_err());
    }

    #[test]
    fn mapping_is_invertible() {
        let ladder = DopingLadder::paper_example();
        let pattern = paper_pattern();
        let doping = FinalDopingMatrix::from_pattern(&pattern, &ladder).unwrap();
        let decoded = doping.decode_pattern(&ladder).unwrap();
        assert_eq!(decoded, pattern);
    }

    #[test]
    fn explicit_1e18_constructor() {
        let doping =
            FinalDopingMatrix::from_rows_1e18(vec![vec![2.0, 4.0], vec![9.0, 2.0]]).unwrap();
        assert!((doping.level(1, 0).unwrap().value() - 9e18).abs() < 1.0);
        assert!(doping.level(2, 0).is_err());
        assert!(FinalDopingMatrix::from_rows_1e18(vec![]).is_err());
    }

    #[test]
    fn nominal_threshold_lookup() {
        let pattern = paper_pattern();
        let ladder = DopingLadder::paper_example();
        assert_eq!(
            nominal_threshold(&pattern, &ladder, 0, 2).unwrap(),
            Volts::new(0.5)
        );
        assert!(nominal_threshold(&pattern, &ladder, 9, 0).is_err());
    }
}
