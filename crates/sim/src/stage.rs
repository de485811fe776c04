//! The stage graph of the evaluation pipeline: incremental,
//! dependency-aware recomputation.
//!
//! A platform evaluation used to be a monolith — any one-field
//! configuration change re-ran everything. This module splits it into
//! explicit stages, each memoized under a **canonical per-stage
//! fingerprint** derived from only the [`SimConfig`] fields the stage
//! actually reads:
//!
//! ```text
//! Variability ──────► Addressability ──► CaveYield ──┐
//!   (Σ matrix + Φ)       (window)           ▲        │
//! ContactLayout ─────────────────────────────┘        ├─► Composite
//!   └─────────► CrossbarArea ─────────────────────────┤   (PlatformReport)
//! DefectMap ──────────────────────────────────────────┘
//! Variability ──────► MonteCarlo   (+ Disturbance, MonteCarlo knobs, chunk)
//! ```
//!
//! Changing only the defect seed therefore re-runs only the `DefectMap` and
//! `Composite` stages (the `DefectMap` slot memoizes the instance's
//! survival, one `f64`, counted without building the map); changing only
//! the disturbance kind re-runs only the `MonteCarlo` stage — every other
//! stage is a cache hit, with its own hit/miss/eviction counters.
//!
//! # Keys by construction
//!
//! Every [`ConfigField`] is one entry of [`SimConfig`]'s wire field list,
//! and its key bytes are that field's binary encoding (fixed-width
//! little-endian integers, floats as their bits, a leading tag or presence
//! byte on the variable-width fields, so every encoding is
//! self-delimiting). A stage's key is its [`Stage::reads`] fields'
//! encodings concatenated in `reads()` order — so a key covers exactly the
//! declared read set, and the binary config document's sections hold the
//! same bytes. A key's fingerprint is FNV-1a
//! finalized through [`chunk_seed`] under `STAGE_KEY_DOMAIN` at the
//! stage's index, so stage keys never collide across stages or with any
//! sampling seed stream.
//!
//! [`StageCache`] holds one memo slot per stage, so every stage keeps the
//! same per-shard LRU bounds, single-flight semantics and counters. The
//! `Composite` slot is the [`ReportCache`] — the engine's one report memo,
//! which also owns snapshot persistence.

use crossbar_array::{
    chunk_seed, AddressabilityProfile, CaveYield, ContactGroupLayout, CrossbarArea,
};
use device_physics::Volts;
use mspt_fabrication::{FabricationCost, VariabilityMatrix};

use crate::bincodec::{self, BinWriter};
use crate::cache::{CacheConfig, CacheStats, MemoCache, ReportCache};
use crate::config::SimConfig;
use crate::error::Result;
use crate::monte_carlo::{MonteCarloConfig, MonteCarloOutcome};
use crate::schema::Value;

/// Domain-separation tag mixed into stage-key fingerprints before the
/// [`chunk_seed`] finalizer. Keeps the stage memo keys decorrelated from
/// every sampling seed domain.
const STAGE_KEY_DOMAIN: u64 = 0x57a6_e1fd_9b3c_5a21;

/// The [`SimConfig`] fields a stage can declare in its read set — one
/// variant per public accessor that is part of a configuration's identity,
/// in the order of the configuration's wire field list, whose binary
/// encoding of the field is its key bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigField {
    /// [`SimConfig::code`].
    Code,
    /// [`SimConfig::nanowires_per_half_cave`].
    NanowiresPerHalfCave,
    /// [`SimConfig::raw_bits`].
    RawBits,
    /// [`SimConfig::layout`].
    Layout,
    /// [`SimConfig::threshold_model`].
    ThresholdModel,
    /// [`SimConfig::sigma_per_dose`].
    SigmaPerDose,
    /// [`SimConfig::supply_range`].
    SupplyRange,
    /// [`SimConfig::window_override`].
    WindowOverride,
    /// [`SimConfig::code_budgets`].
    CodeBudgets,
    /// [`SimConfig::disturbance`].
    Disturbance,
    /// [`SimConfig::defects`].
    Defects,
    /// [`SimConfig::monte_carlo`].
    MonteCarlo,
}

impl ConfigField {
    /// Every field, in declaration order — what the stage-invalidation
    /// matrix test iterates over.
    pub const ALL: [ConfigField; 12] = [
        ConfigField::Code,
        ConfigField::NanowiresPerHalfCave,
        ConfigField::RawBits,
        ConfigField::Layout,
        ConfigField::ThresholdModel,
        ConfigField::SigmaPerDose,
        ConfigField::SupplyRange,
        ConfigField::WindowOverride,
        ConfigField::CodeBudgets,
        ConfigField::Disturbance,
        ConfigField::Defects,
        ConfigField::MonteCarlo,
    ];
}

/// One stage of the evaluation pipeline — the unit of memoization and
/// invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The variability matrix `Σ` and fabrication complexity `Φ` of the
    /// configured half cave (one stage: both derive from the same pattern
    /// and doping ladder).
    Variability,
    /// The analytic per-nanowire addressability profile.
    Addressability,
    /// The contact-group layout of the half cave.
    ContactLayout,
    /// Cave and crossbar yield from addressability and contact layout.
    CaveYield,
    /// The crossbar area model (raw and effective bit area inputs).
    CrossbarArea,
    /// The sampled fabrication-defect instance, memoized as its survival:
    /// the usable-crosspoint count, streamed band by band without building
    /// the map, over the crosspoint count (`None` for a defect-free
    /// configuration).
    DefectMap,
    /// The fully composed [`PlatformReport`](crate::PlatformReport) —
    /// everything the report carries except Monte-Carlo results. Its slot
    /// is the [`ReportCache`].
    Composite,
    /// The Monte-Carlo addressability estimation under the configured
    /// disturbance (keyed additionally by the explicit sampling
    /// configuration and the chunk size).
    MonteCarlo,
}

impl Stage {
    /// Every stage, in pipeline order — the order
    /// [`StageCache::stats`] reports rows in.
    pub const ALL: [Stage; 8] = [
        Stage::Variability,
        Stage::Addressability,
        Stage::ContactLayout,
        Stage::CaveYield,
        Stage::CrossbarArea,
        Stage::DefectMap,
        Stage::Composite,
        Stage::MonteCarlo,
    ];

    /// The stable kebab-case name of the stage — the `stage` label of
    /// per-stage stats rows in the serve stress artifact.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Variability => "variability",
            Stage::Addressability => "addressability",
            Stage::ContactLayout => "contact-layout",
            Stage::CaveYield => "cave-yield",
            Stage::CrossbarArea => "crossbar-area",
            Stage::DefectMap => "defect-map",
            Stage::Composite => "composite",
            Stage::MonteCarlo => "monte-carlo",
        }
    }

    /// The stages whose outputs this stage consumes — the dependency edges
    /// of the module-level diagram. A stage's read set is the union of its
    /// dependencies' read sets plus its own direct reads, so invalidation
    /// propagates downstream by construction.
    #[must_use]
    pub fn depends_on(self) -> &'static [Stage] {
        match self {
            Stage::Variability | Stage::ContactLayout | Stage::DefectMap => &[],
            Stage::Addressability | Stage::MonteCarlo => &[Stage::Variability],
            Stage::CaveYield => &[Stage::Addressability, Stage::ContactLayout],
            Stage::CrossbarArea => &[Stage::ContactLayout],
            Stage::Composite => &[
                Stage::Variability,
                Stage::CaveYield,
                Stage::CrossbarArea,
                Stage::DefectMap,
            ],
        }
    }

    /// The [`SimConfig`] fields the stage (transitively) reads — exactly
    /// the fields its [`Stage::key`] encodes, so a configuration change
    /// re-runs the stage iff it touches one of these.
    #[must_use]
    pub fn reads(self) -> &'static [ConfigField] {
        match self {
            Stage::Variability => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::CodeBudgets,
            ],
            Stage::Addressability => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::CodeBudgets,
                ConfigField::WindowOverride,
            ],
            Stage::ContactLayout => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::Layout,
            ],
            Stage::CaveYield => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::Layout,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::CodeBudgets,
                ConfigField::WindowOverride,
            ],
            Stage::CrossbarArea => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::RawBits,
                ConfigField::Layout,
            ],
            Stage::DefectMap => &[
                ConfigField::NanowiresPerHalfCave,
                ConfigField::RawBits,
                ConfigField::Layout,
                ConfigField::Defects,
            ],
            Stage::Composite => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::RawBits,
                ConfigField::Layout,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::WindowOverride,
                ConfigField::CodeBudgets,
                ConfigField::Defects,
            ],
            Stage::MonteCarlo => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::CodeBudgets,
                ConfigField::WindowOverride,
                ConfigField::Disturbance,
                ConfigField::MonteCarlo,
            ],
        }
    }

    /// The position of the stage in [`Stage::ALL`] — the fingerprint stream
    /// index, so two stages with identical key bytes still fingerprint
    /// differently.
    fn index(self) -> u64 {
        Stage::ALL
            .iter()
            .position(|&stage| stage == self)
            .expect("every stage appears in ALL") as u64
    }

    /// The canonical memo key of the stage for a configuration: the
    /// [`Stage::reads`] fields' encodings, concatenated in `reads()` order.
    /// ([`Stage::MonteCarlo`] keys carry additional sampling parameters —
    /// see [`StageCache`]'s Monte-Carlo slot — appended by the cache.)
    #[must_use]
    pub fn key(self, config: &SimConfig) -> Vec<u8> {
        bincodec::config_key(config, self.reads())
    }

    /// The memo fingerprint of a stage key: FNV-1a over the key bytes,
    /// finalized through the workspace-wide `chunk_seed` under
    /// `STAGE_KEY_DOMAIN` at the stage's index.
    #[must_use]
    pub fn fingerprint(self, key: &[u8]) -> u64 {
        let hash = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
        });
        chunk_seed(hash ^ STAGE_KEY_DOMAIN, self.index())
    }
}

/// The memoized product of the [`Stage::Variability`] stage: the
/// variability matrix and the fabrication cost ride together because both
/// derive from the same pattern and doping ladder, and the ladder's window
/// rides with them because the ladder is a function of the stage's key.
#[derive(Debug, Clone)]
pub(crate) struct VariabilityStage {
    /// The variability matrix `Σ` of the configured half cave.
    pub variability: VariabilityMatrix,
    /// The fabrication complexity `Φ` of the configured half cave.
    pub cost: FabricationCost,
    /// The ladder's [`DopingLadder::window_half_width`](device_physics::DopingLadder::window_half_width):
    /// the decision window of a configuration without an override.
    pub ladder_window: Volts,
}

/// The counters of one stage's memo slot — a per-stage [`CacheStats`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// The stage the counters belong to.
    pub stage: Stage,
    /// Hit/miss/eviction counters and current entry count of the stage's
    /// memo slot.
    pub stats: CacheStats,
}

/// The per-stage memo table of the evaluation pipeline: one
/// `MemoCache` slot per [`Stage`], each with fingerprint sharding, bounded
/// LRU, single-flight semantics and hit/miss/eviction counters. The
/// `Composite` slot is a [`ReportCache`]: the one report memo, which also
/// persists snapshots. The `DefectMap` slot holds the defect survival
/// (`Option<f64>`), never a `rows × columns` map.
///
/// The [`ExecutionEngine`](crate::ExecutionEngine) owns one; the serial
/// entry points route through a [`StageCache::disabled`] instance, so
/// their behaviour (including every defect-map validation error) is
/// unchanged.
#[derive(Debug)]
pub struct StageCache {
    variability: MemoCache<VariabilityStage>,
    addressability: MemoCache<AddressabilityProfile>,
    contact_layout: MemoCache<ContactGroupLayout>,
    cave_yield: MemoCache<CaveYield>,
    crossbar_area: MemoCache<CrossbarArea>,
    defect_map: MemoCache<Option<f64>>,
    composite: ReportCache,
    monte_carlo: MemoCache<MonteCarloOutcome>,
}

impl Default for StageCache {
    fn default() -> Self {
        StageCache::new(CacheConfig::default())
    }
}

/// One stage-slot lookup: the stage's key for `config`, its fingerprint,
/// and the slot's single-flight get-or-compute.
fn keyed<V, F>(slot: &MemoCache<V>, stage: Stage, config: &SimConfig, compute: F) -> Result<V>
where
    V: Clone,
    F: FnOnce() -> Result<V>,
{
    let key = stage.key(config);
    slot.get_or_compute(stage.fingerprint(&key), &key, compute)
}

impl StageCache {
    /// Creates a stage cache where every stage's memo slot uses `config`
    /// (shards clamped to `1..=capacity`, capacity `0` disables storage).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        StageCache {
            variability: MemoCache::new(config),
            addressability: MemoCache::new(config),
            contact_layout: MemoCache::new(config),
            cave_yield: MemoCache::new(config),
            crossbar_area: MemoCache::new(config),
            defect_map: MemoCache::new(config),
            composite: ReportCache::new(config),
            monte_carlo: MemoCache::new(config),
        }
    }

    /// A cache that stores nothing: every stage lookup is a leader-path
    /// miss that recomputes — the configuration behind the serial entry
    /// points, which must stay bit- and error-identical to the pre-stage
    /// monolith.
    #[must_use]
    pub fn disabled() -> Self {
        StageCache::new(CacheConfig {
            capacity: 0,
            shards: 1,
        })
    }

    /// The per-stage counters, one row per [`Stage`] in [`Stage::ALL`]
    /// order — what `cache_stats` extensions and the serve stress artifact
    /// report.
    #[must_use]
    pub fn stats(&self) -> Vec<StageStats> {
        Stage::ALL
            .iter()
            .map(|&stage| StageStats {
                stage,
                stats: match stage {
                    Stage::Variability => self.variability.stats(),
                    Stage::Addressability => self.addressability.stats(),
                    Stage::ContactLayout => self.contact_layout.stats(),
                    Stage::CaveYield => self.cave_yield.stats(),
                    Stage::CrossbarArea => self.crossbar_area.stats(),
                    Stage::DefectMap => self.defect_map.stats(),
                    Stage::Composite => self.composite.stats(),
                    Stage::MonteCarlo => self.monte_carlo.stats(),
                },
            })
            .collect()
    }

    /// Total entries stored across every stage slot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stats().iter().map(|row| row.stats.entries).sum()
    }

    /// Whether no stage slot stores anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `Composite` slot: the report memo, keyed by
    /// [`Stage::Composite`]'s key.
    pub(crate) fn reports(&self) -> &ReportCache {
        &self.composite
    }

    pub(crate) fn variability<F>(&self, config: &SimConfig, compute: F) -> Result<VariabilityStage>
    where
        F: FnOnce() -> Result<VariabilityStage>,
    {
        keyed(&self.variability, Stage::Variability, config, compute)
    }

    pub(crate) fn addressability<F>(
        &self,
        config: &SimConfig,
        compute: F,
    ) -> Result<AddressabilityProfile>
    where
        F: FnOnce() -> Result<AddressabilityProfile>,
    {
        keyed(&self.addressability, Stage::Addressability, config, compute)
    }

    pub(crate) fn contact_layout<F>(
        &self,
        config: &SimConfig,
        compute: F,
    ) -> Result<ContactGroupLayout>
    where
        F: FnOnce() -> Result<ContactGroupLayout>,
    {
        keyed(&self.contact_layout, Stage::ContactLayout, config, compute)
    }

    pub(crate) fn cave_yield<F>(&self, config: &SimConfig, compute: F) -> Result<CaveYield>
    where
        F: FnOnce() -> Result<CaveYield>,
    {
        keyed(&self.cave_yield, Stage::CaveYield, config, compute)
    }

    pub(crate) fn crossbar_area<F>(&self, config: &SimConfig, compute: F) -> Result<CrossbarArea>
    where
        F: FnOnce() -> Result<CrossbarArea>,
    {
        keyed(&self.crossbar_area, Stage::CrossbarArea, config, compute)
    }

    /// The `DefectMap` slot: the defect survival of the configured instance
    /// (`None` for a defect-free configuration), one `f64` per entry.
    pub(crate) fn defect_survival<F>(&self, config: &SimConfig, compute: F) -> Result<Option<f64>>
    where
        F: FnOnce() -> Result<Option<f64>>,
    {
        keyed(&self.defect_map, Stage::DefectMap, config, compute)
    }

    /// The Monte-Carlo slot keys on the stage key **plus** the explicit
    /// sampling configuration (sample count, run seed and the
    /// adaptive-stopping knobs, through the `MonteCarlo` field encoder) and
    /// the engine chunk size (outcomes are bit-identical across thread
    /// counts but depend on the chunk size).
    pub(crate) fn monte_carlo<F>(
        &self,
        config: &SimConfig,
        mc: MonteCarloConfig,
        chunk_size: usize,
        compute: F,
    ) -> Result<MonteCarloOutcome>
    where
        F: FnOnce() -> Result<MonteCarloOutcome>,
    {
        let mut key = BinWriter::new();
        key.put_bytes(&Stage::MonteCarlo.key(config));
        mc.put(&mut key);
        key.put_usize(chunk_size);
        let key = key.into_bytes();
        self.monte_carlo
            .get_or_compute(Stage::MonteCarlo.fingerprint(&key), &key, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::DefectKind;
    use crate::disturbance::DisturbanceKind;
    use crossbar_array::LayoutRules;
    use device_physics::{Nanometers, ThresholdModel, Volts};
    use nanowire_codes::{
        ArrangedHotBudget, BalanceBudget, CodeBudgets, CodeKind, CodeSpec, LogicLevel,
    };

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    /// A configuration differing from [`base`] in exactly `field`.
    fn varied(field: ConfigField) -> SimConfig {
        let base = base();
        match field {
            ConfigField::Code => {
                base.with_code(CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap())
            }
            ConfigField::NanowiresPerHalfCave => base.with_nanowires_per_half_cave(24).unwrap(),
            ConfigField::RawBits => rebuild(&base, 2 * base.raw_bits(), *base.layout(), None, None),
            ConfigField::Layout => rebuild(
                &base,
                base.raw_bits(),
                LayoutRules::new(
                    Nanometers::new(45.0),
                    Nanometers::new(10.0),
                    1.5,
                    Nanometers::new(16.0),
                )
                .unwrap(),
                None,
                None,
            ),
            ConfigField::ThresholdModel => rebuild(
                &base,
                base.raw_bits(),
                *base.layout(),
                Some(ThresholdModel::new(Nanometers::new(3.0), Volts::new(-1.0)).unwrap()),
                None,
            ),
            ConfigField::SigmaPerDose => base
                .with_sigma_per_dose(Volts::from_millivolts(40.0))
                .unwrap(),
            ConfigField::SupplyRange => rebuild(
                &base,
                base.raw_bits(),
                *base.layout(),
                None,
                Some((Volts::new(0.0), Volts::new(1.2))),
            ),
            ConfigField::WindowOverride => base.with_window(Volts::new(0.2)),
            ConfigField::CodeBudgets => base.with_code_budgets(CodeBudgets {
                balance: BalanceBudget {
                    max_nodes_per_limit: 1_000,
                    max_limit_slack: 2,
                },
                arranged_hot: ArrangedHotBudget::default(),
            }),
            ConfigField::Disturbance => base.with_disturbance(DisturbanceKind::Laplace),
            ConfigField::Defects => {
                base.with_defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap())
            }
            ConfigField::MonteCarlo => base.with_monte_carlo(MonteCarloConfig::fixed(123, 9)),
        }
    }

    /// Rebuilds [`base`] through [`SimConfig::new`] with selected
    /// parameters swapped (the fields without `with_` builders).
    fn rebuild(
        base: &SimConfig,
        raw_bits: u64,
        layout: LayoutRules,
        threshold: Option<ThresholdModel>,
        supply: Option<(Volts, Volts)>,
    ) -> SimConfig {
        SimConfig::new(
            base.code(),
            base.nanowires_per_half_cave(),
            raw_bits,
            layout,
            threshold.unwrap_or(*base.threshold_model()),
            base.sigma_per_dose(),
            supply.unwrap_or(base.supply_range()),
        )
        .unwrap()
    }

    #[test]
    fn keys_change_iff_the_field_is_in_the_read_set() {
        let base = base();
        for field in ConfigField::ALL {
            let varied = varied(field);
            assert_ne!(base, varied, "varied({field:?}) must differ from base");
            for stage in Stage::ALL {
                let declared = stage.reads().contains(&field);
                let changed = stage.key(&base) != stage.key(&varied);
                assert_eq!(
                    declared, changed,
                    "{stage:?} key change={changed} but reads declares {declared} for {field:?}"
                );
            }
        }
    }

    #[test]
    fn stage_fingerprints_are_domain_and_index_separated() {
        let config = base();
        // Identical key bytes under different stages never collide.
        let key = b"same-key";
        let mut fingerprints: Vec<u64> = Stage::ALL
            .iter()
            .map(|stage| stage.fingerprint(key))
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), Stage::ALL.len());
        // The report fingerprint *is* the composite stage's: one report
        // memo, one identity.
        let composite = Stage::Composite.fingerprint(&Stage::Composite.key(&config));
        assert_eq!(crate::cache::ReportCache::fingerprint(&config), composite);
    }

    #[test]
    fn read_sets_cover_dependencies() {
        // A stage's read set must contain every field its dependencies
        // read, or invalidation would not propagate downstream.
        for stage in Stage::ALL {
            for &dependency in stage.depends_on() {
                for field in dependency.reads() {
                    assert!(
                        stage.reads().contains(field),
                        "{stage:?} misses {field:?} read by its dependency {dependency:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn disabled_cache_always_recomputes() {
        let cache = StageCache::disabled();
        let config = base();
        let mut computed = 0;
        for _ in 0..2 {
            cache
                .contact_layout(&config, || {
                    computed += 1;
                    Ok(ContactGroupLayout::new(
                        config.nanowires_per_half_cave(),
                        config.code().space_size(),
                        *config.layout(),
                    )?)
                })
                .unwrap();
        }
        assert_eq!(computed, 2);
        assert!(cache.is_empty());
        let rows = cache.stats();
        let contact = rows
            .iter()
            .find(|row| row.stage == Stage::ContactLayout)
            .unwrap();
        assert_eq!((contact.stats.hits, contact.stats.misses), (0, 2));
    }

    #[test]
    fn enabled_cache_hits_on_repeats_and_counts_per_stage() {
        let cache = StageCache::new(CacheConfig::unsharded(16));
        let config = base();
        for _ in 0..3 {
            cache
                .cave_yield(&config, || {
                    let platform = crate::platform::SimulationPlatform::new(config.clone());
                    platform.cave_yield()
                })
                .unwrap();
        }
        let rows = cache.stats();
        let cave = rows
            .iter()
            .find(|row| row.stage == Stage::CaveYield)
            .unwrap();
        assert_eq!((cave.stats.hits, cave.stats.misses), (2, 1));
        // Other stages are untouched.
        let variability = rows
            .iter()
            .find(|row| row.stage == Stage::Variability)
            .unwrap();
        assert_eq!(variability.stats, CacheStats::default());
    }

    #[test]
    fn monte_carlo_keys_include_sampling_parameters() {
        let cache = StageCache::new(CacheConfig::unsharded(16));
        let config = base();
        let outcome = MonteCarloOutcome {
            profile: crossbar_array::AddressabilityProfile::new(vec![1.0]).unwrap(),
            samples: 1,
            samples_used: 1,
            ci_lower: vec![0.0],
            ci_upper: vec![1.0],
        };
        let mc = MonteCarloConfig::fixed(100, 1);
        let variants = [
            MonteCarloConfig::fixed(100, 1),
            MonteCarloConfig::fixed(200, 1),
            MonteCarloConfig::fixed(100, 2),
            MonteCarloConfig::fixed(100, 1).with_target_half_width(0.05),
            MonteCarloConfig::fixed(100, 1).with_confidence(0.99),
            MonteCarloConfig::fixed(100, 1).with_max_samples(5_000),
        ];
        for (index, variant) in variants.into_iter().enumerate() {
            let chunk = if index == 0 { 128 } else { 256 };
            cache
                .monte_carlo(&config, variant, 256, || Ok(outcome.clone()))
                .unwrap();
            cache
                .monte_carlo(&config, variant, chunk, || Ok(outcome.clone()))
                .unwrap();
        }
        // Every sampling knob (samples, seed, target, confidence, max) and
        // the chunk size are part of the key: seven distinct keys above, and
        // the five repeats with identical (config, chunk) pairs hit.
        let rows = cache.stats();
        let mc_row = rows
            .iter()
            .find(|row| row.stage == Stage::MonteCarlo)
            .unwrap();
        assert_eq!((mc_row.stats.hits, mc_row.stats.misses), (5, 7));
        // And a repeat of the first configuration hits again.
        cache
            .monte_carlo(&config, mc, 256, || Ok(outcome.clone()))
            .unwrap();
        let rows = cache.stats();
        let mc_row = rows
            .iter()
            .find(|row| row.stage == Stage::MonteCarlo)
            .unwrap();
        assert_eq!((mc_row.stats.hits, mc_row.stats.misses), (6, 7));
    }
}
