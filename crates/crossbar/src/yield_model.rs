//! The crossbar yield model of Section 6.1: the probability that a nanowire
//! is addressable is the probability that *every* doping region's threshold
//! voltage stays inside its decision window, computed from the accumulated
//! variability `Σ`; nanowires at contact-group boundaries are removed; the
//! cave yield `Y` is the expected fraction of addressable nanowires and the
//! crossbar (crosspoint) yield is `Y²` because both layers must address
//! their nanowire for a crosspoint to be usable.

use serde::{Deserialize, Serialize};

use device_physics::{DopingLadder, VariabilityModel, Volts};
use mspt_fabrication::VariabilityMatrix;

use crate::contact::ContactGroupLayout;
use crate::error::{CrossbarError, Result};

/// Per-nanowire addressability probabilities of one half cave.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddressabilityProfile {
    probabilities: Vec<f64>,
}

impl AddressabilityProfile {
    /// Wraps explicit per-nanowire probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidProbability`] when a value is outside
    /// `[0, 1]` or the profile is empty.
    pub fn new(probabilities: Vec<f64>) -> Result<Self> {
        if probabilities.is_empty() {
            return Err(CrossbarError::InvalidSpec {
                reason: "addressability profile needs at least one nanowire".to_string(),
            });
        }
        for &p in &probabilities {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(CrossbarError::InvalidProbability { value: p });
            }
        }
        Ok(AddressabilityProfile { probabilities })
    }

    /// Computes the profile analytically from the variability matrix of a
    /// half cave: nanowire `i` is addressable with probability
    /// `∏_j P(|ΔV_T| ≤ window)` where the deviation of region `(i, j)` is
    /// Gaussian with variance `Σ_i^j` (Section 6.1).
    ///
    /// `window` is the **half-width** of the decision interval (the quantity
    /// `DopingLadder::window_half_width` returns) — a region is in-window iff
    /// `|ΔV_T| ≤ window`. The Monte-Carlo validator in `decoder-sim` applies
    /// the identical convention, so the two estimates are directly
    /// comparable. Pass an explicit `window` to study tighter or looser
    /// sensing margins.
    ///
    /// A region's in-window probability depends only on its dose count, so
    /// it is evaluated once per distinct count, the first time a region in
    /// row-major order has that count. Each nanowire's product multiplies
    /// the same factors in the same order as a per-region evaluation.
    ///
    /// # Errors
    ///
    /// Propagates device-physics errors for invalid windows: the error of
    /// the first region, in row-major order, whose probability fails.
    pub fn from_variability(
        variability: &VariabilityMatrix,
        model: &VariabilityModel,
        window: Volts,
    ) -> Result<Self> {
        let counts = variability.dose_counts().as_matrix();
        let mut by_count: Vec<Option<f64>> = vec![None; counts.max() + 1];
        let mut probabilities = Vec::with_capacity(counts.rows());
        for row in counts.iter_rows() {
            let mut p = 1.0;
            for &doses in row {
                p *= match by_count[doses] {
                    Some(q) => q,
                    None => *by_count[doses].insert(model.in_window_probability(doses, window)?),
                };
            }
            probabilities.push(p);
        }
        Ok(AddressabilityProfile { probabilities })
    }

    /// Convenience wrapper using the ladder's own decision window.
    ///
    /// # Errors
    ///
    /// Same as [`AddressabilityProfile::from_variability`].
    pub fn from_variability_with_ladder(
        variability: &VariabilityMatrix,
        model: &VariabilityModel,
        ladder: &DopingLadder,
    ) -> Result<Self> {
        Self::from_variability(variability, model, ladder.window_half_width())
    }

    /// The per-nanowire probabilities, in definition order.
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// The number of nanowires in the profile.
    #[must_use]
    pub fn nanowire_count(&self) -> usize {
        self.probabilities.len()
    }

    /// The mean addressability probability (ignoring geometric losses).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.probabilities.iter().sum::<f64>() / self.probabilities.len() as f64
    }
}

/// The yield of one cave and of the whole crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaveYield {
    nanowire_yield: f64,
    crossbar_yield: f64,
}

impl CaveYield {
    /// Combines the electrical addressability profile with the contact-group
    /// geometry of the half cave:
    ///
    /// * nanowires beyond the code space of their group contribute nothing;
    /// * every internal group boundary removes (in expectation) the nanowires
    ///   inside the alignment tolerance;
    /// * the remaining nanowires contribute their addressability probability.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when the profile and layout
    /// disagree on the nanowire count.
    pub fn compute(profile: &AddressabilityProfile, layout: &ContactGroupLayout) -> Result<Self> {
        if profile.nanowire_count() != layout.nanowire_count() {
            return Err(CrossbarError::InvalidSpec {
                reason: format!(
                    "profile covers {} nanowires but the layout has {}",
                    profile.nanowire_count(),
                    layout.nanowire_count()
                ),
            });
        }
        let probabilities = profile.probabilities();
        let n = layout.nanowire_count();

        // Electrically weighted sum over the positions that have a code word.
        let mut usable_sum = 0.0;
        for (position, &p) in probabilities.iter().enumerate() {
            let offset = position % layout.nanowires_per_group();
            if offset < layout.addressable_per_group() {
                usable_sum += p;
            }
        }

        // Expected boundary loss: the ambiguous nanowires of every internal
        // boundary, weighted by the local addressability (they would have
        // been usable otherwise).
        let per_boundary = layout.rules().ambiguous_nanowires_per_boundary();
        let mut boundary_loss = 0.0;
        for boundary in layout.internal_boundary_positions() {
            let before = probabilities[boundary.saturating_sub(1)];
            let after = probabilities[boundary.min(n - 1)];
            boundary_loss += per_boundary * 0.5 * (before + after);
        }

        let nanowire_yield = ((usable_sum - boundary_loss) / n as f64).clamp(0.0, 1.0);
        Ok(CaveYield {
            nanowire_yield,
            crossbar_yield: nanowire_yield * nanowire_yield,
        })
    }

    /// The cave (nanowire) yield `Y`: the expected fraction of addressable
    /// nanowires in a half cave.
    #[must_use]
    pub fn nanowire_yield(&self) -> f64 {
        self.nanowire_yield
    }

    /// The crossbar (crosspoint) yield `Y²`: a crosspoint works only if both
    /// the row and the column nanowire are addressable.
    #[must_use]
    pub fn crossbar_yield(&self) -> f64 {
        self.crossbar_yield
    }

    /// The effective density `D_EFF = D_RAW · Y²` (Section 6.1).
    #[must_use]
    pub fn effective_bits(&self, raw_bits: u64) -> f64 {
        raw_bits as f64 * self.crossbar_yield
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::LayoutRules;
    use device_physics::ThresholdModel;
    use mspt_fabrication::PatternMatrix;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn profile_for(kind: CodeKind, code_length: usize, nanowires: usize) -> AddressabilityProfile {
        let radix = LogicLevel::BINARY;
        let seq = CodeSpec::new(kind, radix, code_length)
            .unwrap()
            .generate()
            .unwrap()
            .take_cyclic(nanowires)
            .unwrap();
        let ladder = DopingLadder::from_model(
            &ThresholdModel::default_mspt(),
            2,
            (Volts::new(0.0), Volts::new(1.0)),
        )
        .unwrap();
        let model = VariabilityModel::paper_default();
        let variability = VariabilityMatrix::from_pattern(
            &PatternMatrix::from_sequence(&seq).unwrap(),
            &ladder,
            &model,
        )
        .unwrap();
        AddressabilityProfile::from_variability_with_ladder(&variability, &model, &ladder).unwrap()
    }

    #[test]
    fn profile_construction_validates_probabilities() {
        assert!(AddressabilityProfile::new(vec![]).is_err());
        assert!(AddressabilityProfile::new(vec![0.5, 1.2]).is_err());
        assert!(AddressabilityProfile::new(vec![0.5, f64::NAN]).is_err());
        let p = AddressabilityProfile::new(vec![0.25, 0.75]).unwrap();
        assert_eq!(p.nanowire_count(), 2);
        assert!((p.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn analytic_profile_is_within_bounds_and_ordered_by_definition_order() {
        let profile = profile_for(CodeKind::Gray, 8, 20);
        assert_eq!(profile.nanowire_count(), 20);
        for &p in profile.probabilities() {
            assert!((0.0..=1.0).contains(&p));
        }
        // The last-defined nanowire accumulates the fewest doses, so it is at
        // least as reliable as the first-defined one.
        let first = profile.probabilities()[0];
        let last = *profile.probabilities().last().unwrap();
        assert!(last >= first);
    }

    #[test]
    fn gray_codes_yield_at_least_as_much_as_tree_codes() {
        let layout = ContactGroupLayout::new(20, 16, LayoutRules::paper_default()).unwrap();
        let tree = CaveYield::compute(&profile_for(CodeKind::Tree, 8, 20), &layout).unwrap();
        let gray = CaveYield::compute(&profile_for(CodeKind::Gray, 8, 20), &layout).unwrap();
        assert!(gray.nanowire_yield() >= tree.nanowire_yield());
        assert!(gray.crossbar_yield() >= tree.crossbar_yield());
    }

    #[test]
    fn crossbar_yield_is_the_square_of_the_cave_yield() {
        let layout = ContactGroupLayout::new(20, 16, LayoutRules::paper_default()).unwrap();
        let y = CaveYield::compute(&profile_for(CodeKind::BalancedGray, 8, 20), &layout).unwrap();
        assert!((y.crossbar_yield() - y.nanowire_yield().powi(2)).abs() < 1e-12);
        assert!(y.nanowire_yield() > 0.0 && y.nanowire_yield() <= 1.0);
        let effective = y.effective_bits(131_072);
        assert!(effective > 0.0 && effective <= 131_072.0);
    }

    #[test]
    fn perfect_probabilities_reduce_to_the_geometric_fraction() {
        let layout = ContactGroupLayout::new(40, 8, LayoutRules::paper_default()).unwrap();
        let profile = AddressabilityProfile::new(vec![1.0; 40]).unwrap();
        let y = CaveYield::compute(&profile, &layout).unwrap();
        assert!((y.nanowire_yield() - layout.geometric_addressable_fraction()).abs() < 1e-9);
    }

    #[test]
    fn mismatched_profile_and_layout_are_rejected() {
        let layout = ContactGroupLayout::new(40, 8, LayoutRules::paper_default()).unwrap();
        let profile = AddressabilityProfile::new(vec![1.0; 20]).unwrap();
        assert!(CaveYield::compute(&profile, &layout).is_err());
    }

    #[test]
    fn boundary_losses_reduce_the_yield() {
        // Same probabilities, one layout with a single group and one with
        // many groups: the fragmented layout must yield less.
        let profile = AddressabilityProfile::new(vec![0.95; 64]).unwrap();
        let single = ContactGroupLayout::new(64, 64, LayoutRules::paper_default()).unwrap();
        let fragmented = ContactGroupLayout::new(64, 8, LayoutRules::paper_default()).unwrap();
        let y_single = CaveYield::compute(&profile, &single).unwrap();
        let y_fragmented = CaveYield::compute(&profile, &fragmented).unwrap();
        assert!(y_single.nanowire_yield() > y_fragmented.nanowire_yield());
    }
}
