//! # MSPT Nanowire Decoder — facade crate
//!
//! This crate re-exports the public API of the workspace crates that together
//! reproduce *"Decoding Nanowire Arrays Fabricated with the Multi-Spacer
//! Patterning Technique"* (Ben Jamaa, Leblebici, De Micheli — DAC 2009).
//!
//! The individual crates are usable on their own; this facade exists so that
//! examples, integration tests and downstream users can depend on a single
//! crate.
//!
//! * [`codes`] — n-ary code spaces (tree, Gray, balanced Gray, hot, arranged hot)
//! * [`physics`] — threshold-voltage / doping device model and Gaussian statistics
//! * [`fabrication`] — MSPT pattern/doping/step matrices, fabrication complexity Φ and variability Σ
//! * [`crossbar`] — crossbar geometry, contact groups, yield and area models
//! * [`sim`] — the paper's Section 6 simulation platform, parameter sweeps,
//!   pluggable disturbance distributions and the work-sharded parallel
//!   execution engine
//! * [`serve`] — the layered serving stack over the engine's shared,
//!   bounded, single-flight report cache: a transport-agnostic `Handler`
//!   core with JSON and framed-TCP front ends (bounded-queue backpressure,
//!   typed load-shed, graceful draining shutdown) and a p50/p99/p999 TCP
//!   loadgen
//! * [`decoder`] — the decoder design layer over a design point (a
//!   [`SimConfig`](sim::SimConfig)): fabrication recipe, address map and
//!   design-space optimisation
//!
//! # Quickstart
//!
//! ```
//! use mspt_nanowire_decoder::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 8)?;
//! let config = SimConfig::paper_defaults(code)?;
//! let report = SimulationPlatform::new(config).evaluate()?;
//! assert!(report.crossbar_yield > 0.0 && report.crossbar_yield <= 1.0);
//! # Ok(())
//! # }
//! ```

pub use crossbar_array as crossbar;
pub use decoder_sim as sim;
pub use device_physics as physics;
pub use mspt_decoder as decoder;
pub use mspt_fabrication as fabrication;
pub use mspt_serve as serve;
pub use nanowire_codes as codes;

/// Convenience prelude importing the most commonly used types.
pub mod prelude {
    pub use crate::codes::{CodeKind, CodeSequence, CodeSpec, CodeWord, LogicLevel};
    pub use crate::crossbar::{CrossbarSpec, LayoutRules};
    pub use crate::crossbar::{DefectMap, DefectModel};
    pub use crate::decoder::{AddressMap, DecoderRecipe};
    pub use crate::fabrication::{
        FabricationCost, PatternMatrix, StepDopingMatrix, VariabilityMatrix,
    };
    pub use crate::physics::{DopingLadder, ThresholdModel, VariabilityModel, Volts};
    pub use crate::serve::{
        Handler, LatencyHistogram, NetClient, NetServer, NetServerHandle, ReportRequest,
        ReportServer, ServeConfig, ShedPolicy, WireError, WireReply,
    };
    pub use crate::sim::{
        CacheConfig, CacheStats, DefectConfig, DefectKind, DisturbanceKind, DisturbanceModel,
        EngineConfig, ExecutionEngine, ReportCache, SimConfig, SimulationPlatform, WireErrorKind,
    };
}
