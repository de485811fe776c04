//! One front door for evaluating a configuration: a builder that names
//! *what* to evaluate (a configuration, optionally narrowed to a stage set,
//! optionally with a Monte-Carlo validation pass under its own
//! [`MonteCarloConfig`]) and *where* to run it (an [`ExecutionEngine`]).
//! Everything else about the evaluation — disturbance model, defect
//! selection — is part of the [`SimConfig`] and set through its `with_*`
//! methods:
//!
//! ```
//! use decoder_sim::{Evaluation, ExecutionEngine, SimConfig};
//! use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8)?;
//! let engine = ExecutionEngine::serial();
//! let outcome = Evaluation::builder(SimConfig::paper_defaults(code)?).run(&engine)?;
//! assert!(outcome.report.is_some());
//! # Ok(())
//! # }
//! ```
//!
//! Every run memoizes through the engine's stage memo slots — the report,
//! the variability stage, the defect survival and the Monte-Carlo outcome —
//! so repeating an evaluation (or varying only fields outside a slot's read
//! set) hits those slots instead of recomputing them
//! ([`ExecutionEngine::stage_stats`] counts the hits).

use crate::config::SimConfig;
use crate::engine::ExecutionEngine;
use crate::error::Result;
use crate::monte_carlo::{MonteCarloConfig, MonteCarloOutcome};
use crate::platform::PlatformReport;
use crate::stage::Stage;

/// Namespace of the evaluation API: [`Evaluation::builder`] is the one
/// entry point that runs a configuration's report and its Monte-Carlo
/// validation on an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evaluation;

impl Evaluation {
    /// Starts building an evaluation of `config`. With no further calls the
    /// evaluation produces the full [`PlatformReport`] (the classic
    /// [`SimulationPlatform::evaluate`](crate::SimulationPlatform::evaluate)
    /// semantics, engine-sharded and memoized).
    #[must_use]
    pub fn builder(config: SimConfig) -> EvaluationBuilder {
        EvaluationBuilder {
            config,
            stages: Vec::new(),
            monte_carlo: None,
        }
    }
}

/// Builder of one evaluation: an optional stage narrowing and an optional
/// Monte-Carlo validation pass. Constructed by [`Evaluation::builder`];
/// consumed by [`EvaluationBuilder::run`].
#[derive(Debug, Clone)]
pub struct EvaluationBuilder {
    config: SimConfig,
    stages: Vec<Stage>,
    monte_carlo: Option<MonteCarloConfig>,
}

impl EvaluationBuilder {
    /// Narrows the evaluation to the listed stages (cumulative across
    /// calls). An empty stage list — the default — means the full report
    /// pipeline. Listing only [`Stage::MonteCarlo`] skips the report and
    /// runs just the sampling validator; any other stage keeps the report
    /// (the stage graph evaluates a stage's dependencies as part of
    /// evaluating the stage, so the report is the natural unit of "run
    /// these stages").
    #[must_use]
    pub fn stages(mut self, stages: &[Stage]) -> Self {
        self.stages.extend_from_slice(stages);
        self
    }

    /// Adds a Monte-Carlo validation pass with an explicit sampling
    /// configuration. Listing [`Stage::MonteCarlo`] in
    /// [`EvaluationBuilder::stages`] without calling this runs the pass
    /// under [`MonteCarloConfig::default`].
    #[must_use]
    pub fn monte_carlo(mut self, config: MonteCarloConfig) -> Self {
        self.monte_carlo = Some(config);
        self
    }

    /// Runs the evaluation on `engine`. The report half goes through the
    /// engine's report cache and stage slots
    /// ([`ExecutionEngine::report_for`]); the Monte-Carlo half goes through
    /// the Monte-Carlo stage slot
    /// ([`ExecutionEngine::monte_carlo_for_config`]). Results are
    /// bit-identical to the serial entry points at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates configuration, evaluation and sampling errors (never
    /// cached).
    pub fn run(&self, engine: &ExecutionEngine) -> Result<EvaluationOutcome> {
        let wants_monte_carlo =
            self.monte_carlo.is_some() || self.stages.contains(&Stage::MonteCarlo);
        let wants_report =
            self.stages.is_empty() || self.stages.iter().any(|&stage| stage != Stage::MonteCarlo);
        let report = if wants_report {
            Some(engine.report_for(&self.config)?)
        } else {
            None
        };
        let monte_carlo = if wants_monte_carlo {
            Some(
                engine
                    .monte_carlo_for_config(&self.config, self.monte_carlo.unwrap_or_default())?,
            )
        } else {
            None
        };
        Ok(EvaluationOutcome {
            report,
            monte_carlo,
        })
    }
}

/// What one [`EvaluationBuilder::run`] produced: the halves not requested
/// stay `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationOutcome {
    /// The full platform report, when the evaluation included any report
    /// stage (always, unless the builder narrowed to Monte-Carlo only).
    pub report: Option<PlatformReport>,
    /// The Monte-Carlo addressability outcome, when the evaluation included
    /// a sampling pass.
    pub monte_carlo: Option<MonteCarloOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    #[test]
    fn default_builder_produces_the_classic_report() {
        let engine = ExecutionEngine::serial();
        let outcome = Evaluation::builder(base()).run(&engine).unwrap();
        let classic = crate::platform::SimulationPlatform::new(base())
            .evaluate()
            .unwrap();
        assert_eq!(outcome.report, Some(classic));
        assert!(outcome.monte_carlo.is_none());
    }

    #[test]
    fn monte_carlo_only_skips_the_report() {
        let engine = ExecutionEngine::serial();
        let mc = MonteCarloConfig::fixed(200, 11);
        let outcome = Evaluation::builder(base())
            .stages(&[Stage::MonteCarlo])
            .monte_carlo(mc)
            .run(&engine)
            .unwrap();
        assert!(outcome.report.is_none());
        let direct = engine.monte_carlo_for_config(&base(), mc).unwrap();
        assert_eq!(outcome.monte_carlo, Some(direct));
    }

    #[test]
    fn monte_carlo_stage_without_config_uses_the_default_sampling() {
        let engine = ExecutionEngine::serial();
        let outcome = Evaluation::builder(base())
            .stages(&[Stage::MonteCarlo])
            .run(&engine)
            .unwrap();
        let default = engine
            .monte_carlo_for_config(&base(), MonteCarloConfig::default())
            .unwrap();
        assert_eq!(outcome.monte_carlo, Some(default));
    }

    #[test]
    fn report_and_monte_carlo_run_together() {
        let engine = ExecutionEngine::serial();
        let outcome = Evaluation::builder(base())
            .monte_carlo(MonteCarloConfig::fixed(200, 3))
            .run(&engine)
            .unwrap();
        assert!(outcome.report.is_some());
        assert!(outcome.monte_carlo.is_some());
    }

    #[test]
    fn repeated_runs_hit_the_caches() {
        let engine = ExecutionEngine::serial();
        let builder = Evaluation::builder(base()).monte_carlo(MonteCarloConfig::fixed(200, 5));
        let first = builder.run(&engine).unwrap();
        let second = builder.run(&engine).unwrap();
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let mc_row = engine
            .stage_stats()
            .into_iter()
            .find(|row| row.stage == Stage::MonteCarlo)
            .unwrap();
        assert_eq!((mc_row.stats.hits, mc_row.stats.misses), (1, 1));
    }
}
