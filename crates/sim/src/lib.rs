//! # decoder-sim
//!
//! The simulation platform of Section 6 of the DAC 2009 MSPT-decoder paper:
//! one configuration object ([`SimConfig`]) holding the paper's platform
//! parameters, one orchestrator ([`SimulationPlatform`]) that takes a code
//! choice to fabrication complexity, variability, yield and bit area, the
//! design points behind Figs. 5, 7 and 8 ([`design_points`], evaluated as
//! one batch by [`ExecutionEngine::reports_for`]) and Fig. 6's variability
//! maps ([`variability_map`]), and a Monte-Carlo
//! cross-check of the analytic yield model with pluggable disturbance
//! distributions ([`DisturbanceModel`]: Gaussian, heavy-tailed Laplace,
//! correlated inter-region) — the regimes the closed-form Gaussian
//! integration cannot reach.
//!
//! Both the Monte-Carlo validator and the batches of design points run on a
//! work-sharded parallel [`ExecutionEngine`] whose results are
//! bit-identical for any thread count, [`ExecutionEngine::serial`]
//! included; the engine also
//! shards crossbar defect sampling under the same per-chunk seeding
//! contract: each row of an instance's switch-defect matrix is a chunk of
//! its own, decided 64 crosspoints per draw, so an instance depends on
//! neither the thread count nor the 64-row bands the engine hands out. When
//! a configuration selects defects ([`SimConfig::with_defects`] /
//! [`DefectKind`]), every report composes the sampled instance's survival
//! with the decoder yield — the defect axis of the Fig. 7 extension.
//! Reports count the usable crosspoints band by band
//! ([`ExecutionEngine::count_usable`]) without building the map;
//! [`ExecutionEngine::sample_defect_map`] draws the identical instance as a
//! map for callers that want it.
//! [`Evaluation::builder`] runs one configuration on an engine.
//!
//! Repeated evaluations are served from the engine's sharded, bounded,
//! single-flight [`ReportCache`], which persists to a versioned snapshot:
//! one compact [`bincodec`] document of (config, report) rows, rewritten in
//! full on every save. It is the substrate of the `mspt-serve` concurrent
//! serving layer.
//!
//! # Examples
//!
//! ```
//! use decoder_sim::{SimConfig, SimulationPlatform};
//! use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10)?;
//! let platform = SimulationPlatform::new(SimConfig::paper_defaults(code)?);
//! let report = platform.evaluate()?;
//! assert!(report.crossbar_yield > 0.3);
//! assert!(report.effective_bit_area < 400.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablation;
pub mod bincodec;
mod cache;
pub mod codec;
mod config;
mod defect;
mod disturbance;
mod engine;
mod error;
mod evaluation;
mod monte_carlo;
mod platform;
mod report;
mod schema;
mod stage;
mod stats;
mod sweep;

pub use ablation::{
    alignment_sensitivity, half_cave_sensitivity, sigma_sensitivity, window_sensitivity,
    SensitivityPoint, SensitivitySweep,
};
pub use cache::{
    CacheConfig, CacheStats, ReportCache, CACHE_PATH_ENV, CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_CAPACITY, DEFAULT_CACHE_SHARDS,
};
pub use codec::WireErrorKind;
pub use config::{SimConfig, MAX_NANOWIRES_PER_HALF_CAVE};
pub use defect::{DefectConfig, DefectKind};
pub use disturbance::{
    CorrelatedDisturbance, DisturbanceKind, DisturbanceModel, GaussianDisturbance,
    LaplaceDisturbance,
};
pub use engine::{
    EngineConfig, ExecutionEngine, SamplingStats, DEFAULT_CHUNK_SIZE, ENGINE_THREADS_ENV,
};
pub use error::{Result, SimError};
pub use evaluation::{Evaluation, EvaluationBuilder, EvaluationOutcome};
pub use monte_carlo::{MonteCarloConfig, MonteCarloOutcome, NormalSource, DEFAULT_MC_CONFIDENCE};
pub use stats::{inverse_normal_cdf, wilson_bounds, wilson_half_width, z_for_confidence};

// Re-exported so the sampling and defect-map determinism contracts can be
// referenced from one API: Monte-Carlo chunk `c` draws from
// `chunk_seed(seed, c)`; defect maps derive theirs through a domain tag so
// the two samplers stay decorrelated for a shared run seed.
pub use crossbar_array::chunk_seed;
pub use platform::{PlatformReport, SimulationPlatform};
pub use report::{Fig5Report, Fig6Report, Fig7Report, Fig8Report};
pub use stage::{ConfigField, Stage, StageStats};
pub use sweep::{design_points, variability_map, VariabilityMap};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimConfig>();
        assert_send_sync::<SimulationPlatform>();
        assert_send_sync::<PlatformReport>();
        assert_send_sync::<MonteCarloConfig>();
        assert_send_sync::<SimError>();
        assert_send_sync::<EngineConfig>();
        assert_send_sync::<ExecutionEngine>();
    }
}
