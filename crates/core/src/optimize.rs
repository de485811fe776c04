//! Design-space exploration: Section 5 of the paper proves which code
//! *arrangement* is optimal (the Gray arrangement, Propositions 4 and 5);
//! Section 6 then picks the code *type and length* by simulation. This module
//! implements both steps: exhaustive evaluation of a declared design space
//! under a chosen objective, and empirical verification of the arrangement
//! optimality on small spaces.

use serde::{Deserialize, Serialize};

use decoder_sim::{design_points, ExecutionEngine, PlatformReport, SimConfig};
use device_physics::DopingLadder;
use mspt_fabrication::{FabricationCost, PatternMatrix, VariabilityMatrix};
use nanowire_codes::{CodeKind, CodeSequence, CodeSpec, LogicLevel};

use crate::error::{DecoderError, Result};

/// The objective a design-space exploration optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimise the fabrication complexity `Φ`.
    FabricationComplexity,
    /// Minimise the average variability `‖Σ‖₁ / (N·M)`.
    Variability,
    /// Maximise the crossbar yield `Y²`.
    CrossbarYield,
    /// Minimise the effective area per functional bit.
    BitArea,
}

/// The design space to explore: code families × code lengths at a fixed
/// radix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// Code families to consider.
    pub kinds: Vec<CodeKind>,
    /// Code lengths to consider (invalid combinations are skipped).
    pub code_lengths: Vec<usize>,
    /// Logic radix.
    pub radix: LogicLevel,
}

impl DesignSpace {
    /// The design space the paper sweeps in Figs. 7 and 8: all five code
    /// families, binary logic, code lengths 4–10.
    #[must_use]
    pub fn paper_default() -> Self {
        DesignSpace {
            kinds: CodeKind::ALL.to_vec(),
            code_lengths: vec![4, 6, 8, 10],
            radix: LogicLevel::BINARY,
        }
    }
}

/// One evaluated candidate of a design-space exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedDesign {
    /// The objective value (lower is better; yields are negated).
    pub objective_value: f64,
    /// The full evaluation report of the candidate; its `code` names the
    /// candidate.
    pub report: PlatformReport,
}

/// The outcome of a design-space exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationOutcome {
    /// The best design point found: the base configuration with the
    /// winning code.
    pub best: SimConfig,
    /// All evaluated candidates, sorted from best to worst.
    pub ranked: Vec<RankedDesign>,
    /// The objective that was optimised.
    pub objective: Objective,
}

/// Explores a design space under an objective, starting from a base
/// configuration whose platform parameters (nanowires per half cave, σ_T,
/// pitches, ...) are kept fixed. The candidates ([`design_points`] of the space) are evaluated
/// as one batch on `engine` ([`ExecutionEngine::reports_for`]) and ranked
/// by a stable sort, so candidates that tie keep the space's order.
///
/// # Errors
///
/// * [`DecoderError::EmptyDesignSpace`] when the space contains no valid
///   candidate.
/// * Propagates evaluation errors.
pub fn optimize(
    engine: &ExecutionEngine,
    base: &SimConfig,
    space: &DesignSpace,
    objective: Objective,
) -> Result<OptimizationOutcome> {
    let configs = design_points(base, &space.kinds, space.radix, &space.code_lengths);
    let mut ranked: Vec<RankedDesign> = engine
        .reports_for(&configs)?
        .into_iter()
        .map(|report| RankedDesign {
            objective_value: objective_value(objective, &report),
            report,
        })
        .collect();
    if ranked.is_empty() {
        return Err(DecoderError::EmptyDesignSpace);
    }
    ranked.sort_by(|a, b| {
        a.objective_value
            .partial_cmp(&b.objective_value)
            .expect("finite objective values")
    });
    let best = base.clone().with_code(ranked[0].report.code);
    Ok(OptimizationOutcome {
        best,
        ranked,
        objective,
    })
}

fn objective_value(objective: Objective, report: &PlatformReport) -> f64 {
    match objective {
        Objective::FabricationComplexity => report.fabrication_steps as f64,
        Objective::Variability => report.mean_variability,
        // Negate so "lower is better" holds for every objective.
        Objective::CrossbarYield => -report.crossbar_yield,
        Objective::BitArea => report.effective_bit_area,
    }
}

/// Empirically verifies Propositions 4 and 5 on a small code space: the Gray
/// arrangement's fabrication complexity and variability are no worse than
/// those of `sample_count` random arrangements of the same words (plus the
/// lexicographic and reversed orders).
///
/// Returns the number of arrangements checked.
///
/// # Errors
///
/// Propagates code, fabrication and device-physics errors.
pub fn verify_gray_arrangement_optimality(
    radix: LogicLevel,
    code_length: usize,
    ladder: &DopingLadder,
    sample_count: usize,
    seed: u64,
) -> Result<usize> {
    let gray = CodeSpec::new(CodeKind::Gray, radix, code_length)?.generate()?;
    let tree = CodeSpec::new(CodeKind::Tree, radix, code_length)?.generate()?;
    let gray_cost = cost_pair(&gray, ladder)?;

    let mut checked = 0usize;
    let mut verify = |sequence: &CodeSequence| -> Result<()> {
        let candidate_cost = cost_pair(sequence, ladder)?;
        if candidate_cost.0 < gray_cost.0 || candidate_cost.1 < gray_cost.1 {
            return Err(DecoderError::InvalidDesign {
                reason: format!(
                    "arrangement beats the Gray code: Φ {} vs {}, ‖Σ‖ {} vs {}",
                    candidate_cost.0, gray_cost.0, candidate_cost.1, gray_cost.1
                ),
            });
        }
        checked += 1;
        Ok(())
    };

    verify(&tree)?;
    verify(&tree.reversed())?;

    // Deterministic pseudo-random permutations of the tree-code words.
    let mut state = seed.max(1);
    let words = tree.words().to_vec();
    for _ in 0..sample_count {
        let mut shuffled = words.clone();
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        verify(&CodeSequence::new(shuffled)?)?;
    }
    Ok(checked)
}

fn cost_pair(sequence: &CodeSequence, ladder: &DopingLadder) -> Result<(usize, usize)> {
    let pattern = PatternMatrix::from_sequence(sequence)?;
    let cost = FabricationCost::from_pattern(&pattern, ladder)?;
    let variability = VariabilityMatrix::from_pattern(
        &pattern,
        ladder,
        &device_physics::VariabilityModel::paper_default(),
    )?;
    Ok((cost.total(), variability.l1_norm_in_sigma_units()))
}

/// Convenience: run the paper's headline optimisation — minimise the bit area
/// over the full binary design space around `base` on `engine` — and return
/// the winning design point.
///
/// # Errors
///
/// Propagates exploration errors.
pub fn best_bit_area_design(
    engine: &ExecutionEngine,
    base: &SimConfig,
) -> Result<OptimizationOutcome> {
    optimize(
        engine,
        base,
        &DesignSpace::paper_default(),
        Objective::BitArea,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoder_sim::bincodec::report_to_bin;
    use decoder_sim::{EngineConfig, SimulationPlatform, DEFAULT_CHUNK_SIZE};

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(EngineConfig {
            threads: 2,
            chunk_size: DEFAULT_CHUNK_SIZE,
        })
    }

    /// Objective values and report bits, in rank order.
    fn ranking(ranked: &[RankedDesign]) -> Vec<(u64, Vec<u8>)> {
        ranked
            .iter()
            .map(|c| (c.objective_value.to_bits(), report_to_bin(&c.report)))
            .collect()
    }

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    #[test]
    fn optimisation_ranks_candidates_and_picks_the_best() {
        let space = DesignSpace {
            kinds: vec![CodeKind::Tree, CodeKind::Gray, CodeKind::BalancedGray],
            code_lengths: vec![6, 8, 10],
            radix: LogicLevel::BINARY,
        };
        let outcome = optimize(&engine(), &base(), &space, Objective::CrossbarYield).unwrap();
        assert_eq!(outcome.ranked.len(), 9);
        // A serial engine ranks the same reports, bit for bit, and each is
        // the candidate's own serial evaluation.
        let serial = optimize(
            &ExecutionEngine::serial(),
            &base(),
            &space,
            Objective::CrossbarYield,
        )
        .unwrap();
        assert_eq!(ranking(&serial.ranked), ranking(&outcome.ranked));
        for candidate in &outcome.ranked {
            let config = base().with_code(candidate.report.code);
            let report = SimulationPlatform::new(config).evaluate().unwrap();
            assert_eq!(report_to_bin(&report), report_to_bin(&candidate.report));
            let value = objective_value(Objective::CrossbarYield, &report);
            assert_eq!(value.to_bits(), candidate.objective_value.to_bits());
        }
        assert_eq!(outcome.objective, Objective::CrossbarYield);
        // Ranked from best to worst.
        for pair in outcome.ranked.windows(2) {
            assert!(pair[0].objective_value <= pair[1].objective_value);
        }
        // The winner is never the plain tree code at the shortest length.
        let best = outcome.best.code();
        assert!(!(best.kind() == CodeKind::Tree && best.code_length() == 6));
        // The best design point is the base with the best ranked code, and
        // evaluates to the best ranked report.
        assert_eq!(
            outcome.best,
            base().with_code(outcome.ranked[0].report.code)
        );
        assert_eq!(
            SimulationPlatform::new(outcome.best.clone())
                .evaluate()
                .unwrap(),
            outcome.ranked[0].report
        );
    }

    #[test]
    fn variability_objective_prefers_gray_arrangements() {
        let space = DesignSpace {
            kinds: vec![CodeKind::Tree, CodeKind::Gray],
            code_lengths: vec![8],
            radix: LogicLevel::BINARY,
        };
        let outcome = optimize(&engine(), &base(), &space, Objective::Variability).unwrap();
        assert_eq!(outcome.best.code().kind(), CodeKind::Gray);
        let complexity =
            optimize(&engine(), &base(), &space, Objective::FabricationComplexity).unwrap();
        // Binary complexity is identical (2N) for both, so either may win;
        // the ranking must still be complete.
        assert_eq!(complexity.ranked.len(), 2);
    }

    #[test]
    fn empty_design_space_is_rejected() {
        let space = DesignSpace {
            kinds: vec![CodeKind::Hot],
            code_lengths: vec![5, 7], // invalid for binary hot codes
            radix: LogicLevel::BINARY,
        };
        assert!(matches!(
            optimize(&engine(), &base(), &space, Objective::BitArea),
            Err(DecoderError::EmptyDesignSpace)
        ));
    }

    #[test]
    fn paper_design_space_has_every_family() {
        let space = DesignSpace::paper_default();
        assert_eq!(space.kinds.len(), 5);
        assert_eq!(space.radix, LogicLevel::BINARY);
    }

    #[test]
    fn gray_arrangement_optimality_holds_on_small_spaces() {
        let ladder = DopingLadder::paper_example();
        for radix in [LogicLevel::BINARY, LogicLevel::TERNARY] {
            let checked =
                verify_gray_arrangement_optimality(radix, 4, &ladder, 50, 0xfeed).unwrap();
            assert_eq!(checked, 52);
        }
    }

    #[test]
    fn best_bit_area_design_prefers_long_optimised_codes() {
        let outcome = best_bit_area_design(&engine(), &base()).unwrap();
        let best = outcome.best.code();
        // Fig. 8: the winners are the optimised codes at generous lengths,
        // never the short tree code.
        assert!(best.code_length() >= 6);
        assert!(
            outcome.ranked[0].report.effective_bit_area
                < outcome.ranked.last().unwrap().report.effective_bit_area
        );
        // GC and BGC at M = 4 tie (660.8 nm²); the tie keeps the space's
        // order, Gray before balanced Gray.
        let rank = |kind: CodeKind| {
            outcome
                .ranked
                .iter()
                .position(|c| c.report.code.kind() == kind && c.report.code.code_length() == 4)
                .unwrap()
        };
        let (gray, balanced) = (rank(CodeKind::Gray), rank(CodeKind::BalancedGray));
        assert_eq!(
            outcome.ranked[gray].objective_value.to_bits(),
            outcome.ranked[balanced].objective_value.to_bits()
        );
        assert_eq!(balanced, gray + 1);
    }
}
