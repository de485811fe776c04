//! Decoder variability (Definition 5): the dose-count matrix `ν` and the
//! variance matrix `Σ = σ_T² · ν` of the threshold voltages of every doping
//! region of a half cave.
//!
//! Region `(i, j)` is hit by the doping procedure of every MSPT iteration
//! `k ≥ i` whose step dose `S_k^j` is non-zero; because the doses are
//! independent Gaussian disturbances their variances add, giving
//! `Σ_i^j = σ_T² · ν_i^j`. The Gray arrangement minimises `‖Σ‖₁`
//! (Proposition 4) and the balanced Gray arrangement additionally evens the
//! per-digit distribution (Fig. 6).

use serde::{Deserialize, Serialize};

use device_physics::{DopingLadder, VariabilityModel, Volts};
use nanowire_codes::CodeSequence;

use crate::error::Result;
use crate::matrix::Matrix;
use crate::pattern::PatternMatrix;
use crate::steps::StepDopingMatrix;

/// The dose-count matrix `ν ∈ ℕ^{N×M}`: how many doping operations hit every
/// region over the whole MSPT flow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DoseCountMatrix {
    counts: Matrix<usize>,
}

impl DoseCountMatrix {
    /// Derives the dose counts from a step doping matrix:
    /// `ν_i^j = Σ_{k≥i} [S_k^j ≠ 0]`, where "non-zero" is
    /// [`StepDopingMatrix::is_nonzero_dose`] against a tolerance computed
    /// once, so the count is linear in the matrix size.
    #[must_use]
    pub fn from_steps(steps: &StepDopingMatrix) -> Self {
        let n = steps.step_count();
        let m = steps.region_count();
        let tolerance = steps.zero_dose_tolerance();
        let mut rows = vec![vec![0usize; m]; n];
        let mut suffix = vec![0usize; m];
        for i in (0..n).rev() {
            for (count, dose) in suffix.iter_mut().zip(steps.step_doses(i)) {
                if dose.abs() > tolerance {
                    *count += 1;
                }
            }
            rows[i].copy_from_slice(&suffix);
        }
        DoseCountMatrix {
            counts: Matrix::from_rows(rows).expect("same shape as S"),
        }
    }

    /// Convenience constructor from a pattern and a ladder.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`StepDopingMatrix::from_pattern`].
    pub fn from_pattern(pattern: &PatternMatrix, ladder: &DopingLadder) -> Result<Self> {
        Ok(DoseCountMatrix::from_steps(
            &StepDopingMatrix::from_pattern(pattern, ladder)?,
        ))
    }

    /// Number of nanowires `N`.
    #[must_use]
    pub fn nanowire_count(&self) -> usize {
        self.counts.rows()
    }

    /// Number of doping regions `M`.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.counts.columns()
    }

    /// The dose count `ν_i^j`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FabricationError::IndexOutOfBounds`] for invalid
    /// positions.
    pub fn count(&self, nanowire: usize, region: usize) -> Result<usize> {
        Ok(*self.counts.get(nanowire, region)?)
    }

    /// The underlying matrix.
    #[must_use]
    pub fn as_matrix(&self) -> &Matrix<usize> {
        &self.counts
    }

    /// Sum of all dose counts — equal to `‖Σ‖₁ / σ_T²`.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.sum()
    }

    /// The largest dose count of the half cave.
    #[must_use]
    pub fn max(&self) -> usize {
        self.counts.max()
    }

    /// Mean dose count per region (`‖Σ‖₁ / (N·M·σ_T²)`), the paper's
    /// "average variability" metric.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.total() as f64 / (self.nanowire_count() * self.region_count()) as f64
    }

    /// Mean dose count per digit position (averaged over nanowires): the
    /// profile plotted along the digit axis of Fig. 6.
    #[must_use]
    pub fn mean_per_region(&self) -> Vec<f64> {
        let n = self.nanowire_count() as f64;
        (0..self.region_count())
            .map(|j| self.counts.column(j).iter().sum::<usize>() as f64 / n)
            .collect()
    }
}

/// The variability matrix `Σ = σ_T² · ν` (variances, V²).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariabilityMatrix {
    doses: DoseCountMatrix,
    sigma_per_dose: Volts,
}

impl VariabilityMatrix {
    /// Builds the variability matrix from dose counts and a per-dose
    /// variability model.
    #[must_use]
    pub fn new(doses: DoseCountMatrix, model: &VariabilityModel) -> Self {
        VariabilityMatrix {
            doses,
            sigma_per_dose: model.sigma_per_dose(),
        }
    }

    /// Convenience constructor from a pattern, a ladder and a variability
    /// model.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`DoseCountMatrix::from_pattern`].
    pub fn from_pattern(
        pattern: &PatternMatrix,
        ladder: &DopingLadder,
        model: &VariabilityModel,
    ) -> Result<Self> {
        Ok(VariabilityMatrix::new(
            DoseCountMatrix::from_pattern(pattern, ladder)?,
            model,
        ))
    }

    /// Convenience constructor from a code sequence.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`PatternMatrix::from_sequence`].
    pub fn from_sequence(
        sequence: &CodeSequence,
        ladder: &DopingLadder,
        model: &VariabilityModel,
    ) -> Result<Self> {
        VariabilityMatrix::from_pattern(&PatternMatrix::from_sequence(sequence)?, ladder, model)
    }

    /// The underlying dose counts `ν`.
    #[must_use]
    pub fn dose_counts(&self) -> &DoseCountMatrix {
        &self.doses
    }

    /// Number of nanowires `N`.
    #[must_use]
    pub fn nanowire_count(&self) -> usize {
        self.doses.nanowire_count()
    }

    /// Number of doping regions `M`.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.doses.region_count()
    }

    /// The variance `Σ_i^j` in V².
    ///
    /// # Errors
    ///
    /// Returns [`crate::FabricationError::IndexOutOfBounds`] for invalid
    /// positions.
    pub fn variance(&self, nanowire: usize, region: usize) -> Result<f64> {
        Ok(self.sigma_per_dose.value().powi(2) * self.doses.count(nanowire, region)? as f64)
    }

    /// The standard deviation of region `(i, j)` in volts
    /// (`σ_T · sqrt(ν_i^j)`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::FabricationError::IndexOutOfBounds`] for invalid
    /// positions.
    pub fn std_dev(&self, nanowire: usize, region: usize) -> Result<Volts> {
        Ok(Volts::new(
            self.sigma_per_dose.value() * (self.doses.count(nanowire, region)? as f64).sqrt(),
        ))
    }

    /// The normalised standard deviation `sqrt(Σ_i^j) / σ_T = sqrt(ν_i^j)` —
    /// the quantity plotted on the z-axis of Fig. 6.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FabricationError::IndexOutOfBounds`] for invalid
    /// positions.
    pub fn normalized_std_dev(&self, nanowire: usize, region: usize) -> Result<f64> {
        Ok((self.doses.count(nanowire, region)? as f64).sqrt())
    }

    /// The full normalised map `sqrt(ν)` as a matrix (Fig. 6 surface).
    #[must_use]
    pub fn normalized_map(&self) -> Matrix<f64> {
        self.doses.as_matrix().map(|&c| (c as f64).sqrt())
    }

    /// The entry-wise 1-norm `‖Σ‖₁` in V² (Proposition 3's objective).
    #[must_use]
    pub fn l1_norm(&self) -> f64 {
        self.sigma_per_dose.value().powi(2) * self.doses.total() as f64
    }

    /// `‖Σ‖₁` expressed in units of `σ_T²` — the form the paper's examples
    /// use (e.g. `‖Σ‖₁ = 22·σ_T²` in Example 4).
    #[must_use]
    pub fn l1_norm_in_sigma_units(&self) -> usize {
        self.doses.total()
    }

    /// Average variance per region in units of `σ_T²`
    /// (`‖Σ‖₁ / (N·M·σ_T²)`), the "average variability" of Section 6.2.
    #[must_use]
    pub fn mean_in_sigma_units(&self) -> f64 {
        self.doses.mean()
    }

    /// The per-dose deviation σ_T the matrix was built with.
    #[must_use]
    pub fn sigma_per_dose(&self) -> Volts {
        self.sigma_per_dose
    }
}

/// Relative reduction of the mean variability of `optimised` with respect to
/// `baseline`, as a fraction in `[0, 1]` (the paper reports 18 % on average
/// for the balanced Gray code against the tree code).
#[must_use]
pub fn relative_variability_reduction(
    baseline: &VariabilityMatrix,
    optimised: &VariabilityMatrix,
) -> f64 {
    let base = baseline.mean_in_sigma_units();
    let opt = optimised.mean_in_sigma_units();
    if base <= 0.0 || opt >= base {
        0.0
    } else {
        (base - opt) / base
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
        PatternMatrix::from_rows(
            vec![vec![0, 1, 2, 1], vec![0, 2, 2, 0], vec![1, 2, 1, 0]],
            LogicLevel::TERNARY,
        )
        .unwrap()
    }

    #[test]
    fn paper_example_4_dose_counts() {
        let doses = DoseCountMatrix::from_pattern(&paper_pattern(), &DopingLadder::paper_example())
            .unwrap();
        assert_eq!(
            doses.as_matrix().to_rows(),
            vec![vec![2, 3, 2, 3], vec![2, 2, 2, 2], vec![1, 1, 1, 1],]
        );
        assert_eq!(doses.total(), 22);
        assert_eq!(doses.max(), 3);
        assert_eq!(doses.nanowire_count(), 3);
        assert_eq!(doses.region_count(), 4);
    }

    #[test]
    fn paper_example_5_gray_dose_counts() {
        let doses =
            DoseCountMatrix::from_pattern(&gray_pattern(), &DopingLadder::paper_example()).unwrap();
        assert_eq!(
            doses.as_matrix().to_rows(),
            vec![vec![2, 2, 2, 2], vec![2, 1, 2, 1], vec![1, 1, 1, 1],]
        );
        assert_eq!(doses.total(), 18);
    }

    #[test]
    fn variability_matrix_scales_dose_counts_by_sigma_squared() {
        let model = VariabilityModel::paper_default();
        let sigma = model.sigma_per_dose().value();
        let variability = VariabilityMatrix::from_pattern(
            &paper_pattern(),
            &DopingLadder::paper_example(),
            &model,
        )
        .unwrap();
        assert_eq!(variability.l1_norm_in_sigma_units(), 22);
        assert!((variability.l1_norm() - 22.0 * sigma * sigma).abs() < 1e-12);
        assert!((variability.variance(0, 1).unwrap() - 3.0 * sigma * sigma).abs() < 1e-12);
        assert!((variability.std_dev(0, 1).unwrap().value() - sigma * 3f64.sqrt()).abs() < 1e-12);
        assert!((variability.normalized_std_dev(0, 1).unwrap() - 3f64.sqrt()).abs() < 1e-12);
        assert!(variability.variance(9, 0).is_err());
    }

    #[test]
    fn gray_code_reduces_the_l1_norm() {
        // Example 5: the Gray arrangement reduces ‖Σ‖₁ from 22σ² to 18σ².
        let model = VariabilityModel::paper_default();
        let ladder = DopingLadder::paper_example();
        let tree = VariabilityMatrix::from_pattern(&paper_pattern(), &ladder, &model).unwrap();
        let gray = VariabilityMatrix::from_pattern(&gray_pattern(), &ladder, &model).unwrap();
        assert_eq!(tree.l1_norm_in_sigma_units(), 22);
        assert_eq!(gray.l1_norm_in_sigma_units(), 18);
        let reduction = relative_variability_reduction(&tree, &gray);
        assert!((reduction - 4.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn last_nanowire_always_has_one_dose_per_region() {
        // ν_{N-1}^j = 1 for every j (the proof of Proposition 4 starts here).
        let doses = DoseCountMatrix::from_pattern(&paper_pattern(), &DopingLadder::paper_example())
            .unwrap();
        let last = doses.nanowire_count() - 1;
        for j in 0..doses.region_count() {
            assert_eq!(doses.count(last, j).unwrap(), 1);
        }
    }

    #[test]
    fn dose_counts_decrease_along_the_definition_order() {
        // ν_i^j >= ν_{i+1}^j: earlier nanowires accumulate at least as many
        // doses as later ones.
        let doses = DoseCountMatrix::from_pattern(&paper_pattern(), &DopingLadder::paper_example())
            .unwrap();
        for j in 0..doses.region_count() {
            for i in 0..doses.nanowire_count() - 1 {
                assert!(doses.count(i, j).unwrap() >= doses.count(i + 1, j).unwrap());
            }
        }
    }

    #[test]
    fn aggregate_statistics() {
        let doses =
            DoseCountMatrix::from_pattern(&gray_pattern(), &DopingLadder::paper_example()).unwrap();
        assert!((doses.mean() - 1.5).abs() < 1e-12);
        assert_eq!(doses.mean_per_region().len(), 4);
        let variability = VariabilityMatrix::new(doses, &VariabilityModel::paper_default());
        assert!((variability.mean_in_sigma_units() - 1.5).abs() < 1e-12);
        assert_eq!(variability.normalized_map().rows(), 3);
        assert_eq!(variability.sigma_per_dose(), Volts::from_millivolts(50.0));
        assert_eq!(variability.nanowire_count(), 3);
        assert_eq!(variability.region_count(), 4);
    }

    #[test]
    fn no_reduction_reported_when_baseline_is_not_worse() {
        let model = VariabilityModel::paper_default();
        let ladder = DopingLadder::paper_example();
        let tree = VariabilityMatrix::from_pattern(&paper_pattern(), &ladder, &model).unwrap();
        assert_eq!(relative_variability_reduction(&tree, &tree), 0.0);
    }
}
