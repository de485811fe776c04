//! Work-sharded parallel execution engine for the Monte-Carlo validator and
//! the Fig. 5–8 parameter sweeps.
//!
//! # Determinism contract
//!
//! Monte-Carlo sampling is split into fixed-size chunks of
//! [`EngineConfig::chunk_size`] samples. Chunk `c` draws from its own
//! generator seeded as `chunk_seed(seed, c)` — a SplitMix64-style mix of the
//! run seed and the chunk index — so the stream a chunk consumes depends only
//! on `(seed, c)`, never on which thread happens to run it. Chunk results are
//! reduced in chunk order with exact integer addition, which makes every
//! [`MonteCarloOutcome`] **bit-identical for any thread count** (it does
//! depend on `chunk_size`; keep that fixed when comparing runs).
//!
//! The adaptive stopping rule ([`MonteCarloConfig::target_half_width`])
//! preserves the contract: chunks are computed in waves, but the stopping
//! decision is evaluated by a scan over per-chunk counts **in chunk order**,
//! stopping at the first chunk boundary where every nanowire's Wilson
//! half-width meets the target. Per-chunk counts depend only on
//! `(seed, chunk, chunk_size)`, so the stopping chunk — and therefore
//! `samples_used` and the profile — is identical at any thread count; chunks
//! computed past the stopping point are discarded, never folded in.
//!
//! Sweep points are evaluated independently and reassembled in parameter
//! order, so sweep results are element-identical to the serial path.
//!
//! # Memoization
//!
//! The engine carries one [`StageCache`]: a sharded, bounded, single-flight
//! LRU slot per pipeline stage, whose `Composite` slot is the engine's one
//! report memo ([`ReportCache`](crate::ReportCache)). Repeated (kind, radix,
//! length) points across `yield_sweep`, `bit_area_sweep` and `full_sweep`
//! calls on the same engine are evaluated once and served from that slot
//! afterwards, and concurrent identical requests (the serve layer's
//! workload) block on one in-flight evaluation instead of duplicating it.
//! The report memo persists to a versioned binary snapshot
//! ([`ExecutionEngine::save_cache`] / [`ExecutionEngine::load_cache`]) so
//! repeated runs restart warm.

use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

use serde::{Deserialize, Serialize};

use crossbar_array::{
    check_defect_dimensions, defect_band_count, AddressabilityProfile, DefectMap, DefectModel,
};
use device_physics::{VariabilityModel, Volts};
use mspt_fabrication::VariabilityMatrix;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

use crate::cache::{CacheConfig, CacheStats};
use crate::config::SimConfig;
use crate::defect::DefectKind;
use crate::disturbance::DisturbanceModel;
use crate::error::{Result, SimError};
use crate::monte_carlo::{
    chunk_seed, validate_monte_carlo, Kernel, MonteCarloConfig, MonteCarloOutcome, SigmaMatrix,
};
use crate::platform::{PlatformReport, SimulationPlatform};
use crate::stage::{StageCache, StageStats};
use crate::stats::{wilson_bounds, wilson_half_width, z_for_confidence};
use crate::sweep::{BitAreaPoint, ComplexityPoint, DefectYieldPoint, YieldPoint};

/// Environment variable overriding the default engine thread count
/// (CI uses it as a cheap cross-thread determinism gate).
pub const ENGINE_THREADS_ENV: &str = "MSPT_ENGINE_THREADS";

/// Default number of Monte-Carlo samples per work chunk. Fixed (rather than
/// derived from the machine) so default-configured runs are reproducible
/// across hosts.
pub const DEFAULT_CHUNK_SIZE: usize = 256;

/// Knobs of the parallel execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of worker threads. The engine clamps zero to one.
    pub threads: usize,
    /// Monte-Carlo samples per deterministically seeded chunk. Part of the
    /// determinism contract: outcomes depend on this value (but never on
    /// `threads`). The engine clamps zero to one.
    pub chunk_size: usize,
}

impl EngineConfig {
    /// A single-threaded configuration with the default chunk size — the
    /// configuration behind every serial entry point.
    #[must_use]
    pub fn serial() -> Self {
        EngineConfig {
            threads: 1,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl Default for EngineConfig {
    /// Threads: the `MSPT_ENGINE_THREADS` environment variable when set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    /// Chunk size: [`DEFAULT_CHUNK_SIZE`].
    fn default() -> Self {
        EngineConfig {
            threads: default_thread_count(),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

fn default_thread_count() -> usize {
    if let Ok(value) = std::env::var(ENGINE_THREADS_ENV) {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            if parsed >= 1 {
                return parsed;
            }
        }
    }
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The work-sharded execution engine: runs Monte-Carlo estimations and
/// parameter sweeps across a fixed pool of scoped threads, with a memoized
/// stage graph whose `Composite` slot is the report cache.
///
/// # Examples
///
/// ```
/// use decoder_sim::{EngineConfig, ExecutionEngine, SimConfig};
/// use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = ExecutionEngine::new(EngineConfig {
///     threads: 2,
///     chunk_size: 256,
/// });
/// let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8)?;
/// let base = SimConfig::paper_defaults(code)?;
/// let reports = engine.full_sweep(
///     &base,
///     &[CodeKind::Tree, CodeKind::Gray],
///     LogicLevel::BINARY,
///     &[6, 8],
/// )?;
/// assert_eq!(reports.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ExecutionEngine {
    config: EngineConfig,
    stages: StageCache,
    sampling: SamplingCounters,
}

/// Internal atomic tallies behind [`ExecutionEngine::sampling_stats`].
#[derive(Debug, Default)]
struct SamplingCounters {
    runs: AtomicU64,
    samples_requested: AtomicU64,
    samples_used: AtomicU64,
}

/// Cumulative Monte-Carlo sampling counters of one engine: how many
/// estimations actually ran (stage-cache hits do not count), how many
/// samples their configurations requested as a ceiling, and how many the
/// (possibly adaptive) kernel actually drew. The serve stress artifact
/// reports these to make adaptive savings visible in CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingStats {
    /// Number of Monte-Carlo estimations computed (not served from cache).
    pub runs: u64,
    /// Total sample ceiling across runs ([`MonteCarloConfig::sample_cap`]).
    pub samples_requested: u64,
    /// Total samples actually drawn; under adaptive stopping this is the
    /// smaller number the speedup comes from.
    pub samples_used: u64,
}

impl Default for ExecutionEngine {
    fn default() -> Self {
        ExecutionEngine::new(EngineConfig::default())
    }
}

impl ExecutionEngine {
    /// Creates an engine with the default report cache
    /// ([`CacheConfig::default`]: 4096 entries in 8 shards; pass another
    /// [`CacheConfig`] through [`ExecutionEngine::with_cache`]). Zero
    /// `threads` or `chunk_size` are clamped to one so every configuration
    /// is runnable.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        ExecutionEngine::with_cache(config, CacheConfig::default())
    }

    /// Creates an engine with an explicit cache configuration — the
    /// constructor behind cache-bound experiments and the serve layer's
    /// capacity knob. Every slot of the per-stage memo table
    /// ([`ExecutionEngine::stage_cache`]), the report slot included, uses
    /// it.
    #[must_use]
    pub fn with_cache(config: EngineConfig, cache: CacheConfig) -> Self {
        ExecutionEngine {
            config: EngineConfig {
                threads: config.threads.max(1),
                chunk_size: config.chunk_size.max(1),
            },
            stages: StageCache::new(cache),
            sampling: SamplingCounters::default(),
        }
    }

    /// A single-threaded engine with the default chunk size — the serial
    /// path every result is bit-identical to.
    #[must_use]
    pub fn serial() -> Self {
        ExecutionEngine::new(EngineConfig::serial())
    }

    /// The (clamped) configuration of the engine.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of memoized reports — distinct report keys, so
    /// configurations differing only in fields no report reads count once.
    #[must_use]
    pub fn cached_report_count(&self) -> usize {
        self.stages.reports().len()
    }

    /// The report slot's hit/miss/eviction counters — what the serve stress
    /// gate asserts its hit rates on.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.stages.reports().stats()
    }

    /// The (clamped) configuration of the report slot.
    #[must_use]
    pub fn cache_config(&self) -> &CacheConfig {
        self.stages.reports().config()
    }

    /// The engine's per-stage memo table — the stage-graph substrate every
    /// [`ExecutionEngine::report_for`] and
    /// [`ExecutionEngine::monte_carlo_for_config`] call shares. Exposed so
    /// benches and callers can drive
    /// [`SimulationPlatform::evaluate_with_stage_cache`] against a warm
    /// engine directly.
    #[must_use]
    pub fn stage_cache(&self) -> &StageCache {
        &self.stages
    }

    /// Per-stage hit/miss/eviction counters in [`crate::Stage::ALL`] order —
    /// what the stage-invalidation matrix test and the serve stress output
    /// read.
    #[must_use]
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.stages.stats()
    }

    /// Evaluates one configuration through the report cache — one lookup
    /// of the stage graph's `Composite` slot: a repeated configuration is a
    /// hit, concurrent identical requests single-flight onto one
    /// evaluation. This is the serve layer's per-request entry point.
    ///
    /// On a miss the lookup's leader looks up the configured defect survival
    /// in the `DefectMap` slot, counting the usable crosspoints with the
    /// engine's sharded [`ExecutionEngine::count_usable`] (no map is built),
    /// and runs the pipeline through the inner stage slots, so a
    /// configuration that differs from a cached one in only some fields (a
    /// sweep point) recomputes only the stages whose read set changed. The
    /// result is bit-identical to the serial [`SimulationPlatform::evaluate`]
    /// at any thread count, because both count the same independently seeded
    /// chunks and add the counts as integers.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (never cached), including a crossbar over
    /// the defect layer's size bound
    /// ([`MAX_DEFECT_CROSSPOINTS`](crossbar_array::MAX_DEFECT_CROSSPOINTS)).
    pub fn report_for(&self, config: &SimConfig) -> Result<PlatformReport> {
        self.stages.reports().get_or_compute(config, || {
            let platform = SimulationPlatform::new(config.clone());
            let survival = self.stages.defect_survival(config, || {
                platform.defect_survival_with(|model, rows, columns, seed| {
                    self.count_usable(model, rows, columns, seed)
                })
            })?;
            platform.staged_report(&self.stages, survival)
        })
    }

    /// Writes the report memo to a versioned binary snapshot file,
    /// replacing whatever the file held. Returns the number of rows written.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on I/O failure.
    pub fn save_cache(&self, path: &Path) -> Result<usize> {
        self.stages.reports().save_to_path(path)
    }

    /// Restores a warm report memo saved by [`ExecutionEngine::save_cache`].
    /// Returns the number of entries loaded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on I/O failure, a malformed
    /// snapshot or a mismatched snapshot schema version (a file written in
    /// an earlier format).
    pub fn load_cache(&self, path: &Path) -> Result<usize> {
        self.stages.reports().load_from_path(path)
    }

    /// Cumulative Monte-Carlo sampling counters (runs, requested ceiling,
    /// samples actually drawn) — the adaptive kernel's savings, as the
    /// serve stress artifact reports them.
    #[must_use]
    pub fn sampling_stats(&self) -> SamplingStats {
        SamplingStats {
            runs: self.sampling.runs.load(Ordering::Relaxed),
            samples_requested: self.sampling.samples_requested.load(Ordering::Relaxed),
            samples_used: self.sampling.samples_used.load(Ordering::Relaxed),
        }
    }

    /// Runs `count` independent jobs across the engine's threads and returns
    /// their results in index order. Jobs are claimed from a shared atomic
    /// counter; results land in per-index slots, so the output order never
    /// depends on scheduling. On failure the error of the lowest failing
    /// index is returned (every job still runs).
    fn run_indexed<T, F>(&self, count: usize, job: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        if count == 0 {
            return Ok(Vec::new());
        }
        let threads = self.config.threads.min(count);
        if threads <= 1 {
            return (0..count).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<T>>>> = (0..count).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= count {
                        break;
                    }
                    let result = job(index);
                    // Each slot is written exactly once; poison recovery
                    // cannot observe a half-written result.
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                });
            }
        });
        let mut results = Vec::with_capacity(count);
        for slot in slots {
            let result = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index below count is claimed exactly once");
            results.push(result?);
        }
        Ok(results)
    }

    /// Estimates the per-nanowire addressability of a half cave by sampling
    /// the `disturbance` of every doping region, sharded into
    /// deterministically seeded chunks (see the module-level determinism
    /// contract): chunk `c` draws from `chunk_seed(seed, c)` and the model's
    /// fixed per-nanowire consumption keeps outcomes bit-identical for any
    /// thread count. Pass [`GaussianDisturbance`](crate::GaussianDisturbance)
    /// for the paper's model.
    ///
    /// This is the raw-matrix entry point, for callers that construct their
    /// own variability matrices; [`ExecutionEngine::monte_carlo_for_config`]
    /// derives the inputs from a [`SimConfig`] and memoizes through the
    /// engine's stage cache.
    ///
    /// The sampling path follows from the model: when it has an
    /// [`accepted_draws`](DisturbanceModel::accepted_draws) range for every
    /// cell, the ranges are tabulated once for the whole estimate and every
    /// chunk runs the one-draw-one-compare window kernel; when it declares a
    /// [`shared_offset_fraction`](DisturbanceModel::shared_offset_fraction),
    /// every chunk runs the shared-offset kernel over a quantile table built
    /// once; otherwise every chunk samples deviations through
    /// [`sample_regions`](DisturbanceModel::sample_regions) and checks them
    /// against the window.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero samples or a negative or
    /// NaN window, or propagates lower-layer errors.
    pub fn monte_carlo_with_disturbance(
        &self,
        variability: &VariabilityMatrix,
        model: &VariabilityModel,
        window: Volts,
        config: MonteCarloConfig,
        disturbance: &dyn DisturbanceModel,
    ) -> Result<MonteCarloOutcome> {
        validate_monte_carlo(&config, window)?;
        let sigmas = SigmaMatrix::from_variability(variability, model)?;
        let kernel = Kernel::new(&sigmas, window.value(), disturbance);
        let chunk_size = self.config.chunk_size;
        let cap = config.sample_cap();
        let chunk_count = cap.div_ceil(chunk_size);
        let chunk_samples = |chunk: usize| chunk_size.min(cap - chunk * chunk_size);
        let run_chunk = |chunk: usize| {
            Ok(kernel.sample_chunk(chunk_seed(config.seed, chunk as u64), chunk_samples(chunk)))
        };
        let z = z_for_confidence(config.confidence);
        let mut totals = vec![0usize; sigmas.nanowires()];
        let mut samples_used = 0usize;
        if let Some(target) = config.target_half_width {
            // Adaptive mode: compute chunks in waves of `threads`, then scan
            // the wave's per-chunk counts in chunk order, stopping at the
            // first boundary where every nanowire's Wilson half-width meets
            // the target. Per-chunk counts depend only on (seed, chunk,
            // chunk_size), so the stopping chunk is thread-count-invariant;
            // chunks computed past it (wave overshoot) are discarded.
            let wave = self.config.threads.max(1);
            let mut next_chunk = 0usize;
            'waves: while next_chunk < chunk_count {
                let batch = wave.min(chunk_count - next_chunk);
                let first = next_chunk;
                let wave_counts = self.run_indexed(batch, |offset| run_chunk(first + offset))?;
                for (offset, counts) in wave_counts.iter().enumerate() {
                    for (total, &count) in totals.iter_mut().zip(counts) {
                        *total += count;
                    }
                    samples_used += chunk_samples(first + offset);
                    if totals
                        .iter()
                        .all(|&successes| wilson_half_width(successes, samples_used, z) <= target)
                    {
                        break 'waves;
                    }
                }
                next_chunk += batch;
            }
        } else {
            let per_chunk_counts = self.run_indexed(chunk_count, run_chunk)?;
            for counts in per_chunk_counts {
                for (total, count) in totals.iter_mut().zip(counts) {
                    *total += count;
                }
            }
            samples_used = cap;
        }
        self.sampling.runs.fetch_add(1, Ordering::Relaxed);
        self.sampling
            .samples_requested
            .fetch_add(cap as u64, Ordering::Relaxed);
        self.sampling
            .samples_used
            .fetch_add(samples_used as u64, Ordering::Relaxed);
        let (ci_lower, ci_upper): (Vec<f64>, Vec<f64>) = totals
            .iter()
            .map(|&successes| wilson_bounds(successes, samples_used, z))
            .unzip();
        let probabilities: Vec<f64> = totals
            .into_iter()
            .map(|count| count as f64 / samples_used as f64)
            .collect();
        Ok(MonteCarloOutcome {
            profile: AddressabilityProfile::new(probabilities)?,
            samples: cap,
            samples_used,
            ci_lower,
            ci_upper,
        })
    }

    /// Monte-Carlo addressability of a full simulation configuration under
    /// its configured [`DisturbanceKind`](crate::DisturbanceKind): derives
    /// the variability matrix, model and decision window from `sim` and
    /// samples with `sim.disturbance()` — the engine-side entry point the
    /// experiments layer sweeps over (also reachable through
    /// [`Evaluation`](crate::Evaluation)).
    ///
    /// Both the outcome and the underlying variability matrix memoize in the
    /// engine's [`StageCache`]: repeating the estimation is a Monte-Carlo
    /// stage hit, and a sweep that varies only fields outside the
    /// variability stage's read set (defect selection, sampling seed) reuses
    /// the cached matrix instead of regenerating the pattern per point.
    ///
    /// # Errors
    ///
    /// Propagates configuration, code, fabrication and sampling errors.
    pub fn monte_carlo_for_config(
        &self,
        sim: &SimConfig,
        config: MonteCarloConfig,
    ) -> Result<MonteCarloOutcome> {
        self.stages
            .monte_carlo(sim, config, self.config.chunk_size, || {
                let platform = SimulationPlatform::new(sim.clone());
                let staged = platform.variability_stage(&self.stages)?;
                let model = sim.variability_model()?;
                let window = sim.decision_window_given(staged.ladder_window)?;
                let disturbance = sim.disturbance().model()?;
                self.monte_carlo_with_disturbance(
                    &staged.variability,
                    &model,
                    window,
                    config,
                    disturbance.as_ref(),
                )
            })
    }

    /// Samples a crossbar defect map with its bands sharded across the
    /// engine's threads — bit-identical to the serial
    /// [`DefectModel::sample_map`] at any thread count, because both assemble
    /// the same independently seeded chunks (see the layout documented on
    /// `crossbar_array::defects`): the breakage vectors are cheap and drawn
    /// inline, the `O(rows · columns)` crosspoint bands fan out through the
    /// engine and are concatenated in band order. For callers that want the
    /// instance; reports use [`ExecutionEngine::count_usable`].
    ///
    /// # Errors
    ///
    /// Returns the crossbar layer's `InvalidSpec`, before anything is drawn,
    /// when the dimensions fail
    /// [`check_defect_dimensions`](crossbar_array::check_defect_dimensions).
    pub fn sample_defect_map(
        &self,
        model: &DefectModel,
        rows: usize,
        columns: usize,
        seed: u64,
    ) -> Result<DefectMap> {
        check_defect_dimensions(rows, columns)?;
        let bands = self.run_indexed(defect_band_count(rows), |band| {
            Ok(model.sample_defective_band(band, rows, columns, seed))
        })?;
        let defective: Vec<bool> = bands.into_iter().flatten().collect();
        Ok(DefectMap::from_parts(
            rows,
            columns,
            model.sample_row_breakage(rows, seed),
            model.sample_column_breakage(columns, seed),
            defective,
        )?)
    }

    /// Counts the usable crosspoints of the instance
    /// [`ExecutionEngine::sample_defect_map`] would draw, without building
    /// it: the bands of a [`UsableCounter`](crossbar_array::UsableCounter)
    /// fan out through the engine and their counts are added as integers, so
    /// the result equals the serial [`DefectModel::count_usable`] at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns the crossbar layer's `InvalidSpec`, before anything is drawn,
    /// when the dimensions fail
    /// [`check_defect_dimensions`](crossbar_array::check_defect_dimensions).
    pub fn count_usable(
        &self,
        model: &DefectModel,
        rows: usize,
        columns: usize,
        seed: u64,
    ) -> Result<usize> {
        let counter = model.usable_counter(rows, columns, seed)?;
        let counts = self.run_indexed(counter.bands(), |band| Ok(counter.count_band(band)))?;
        Ok(counts.into_iter().sum())
    }

    /// Evaluates every configuration through the report cache, fanning the
    /// batch across the engine's threads. In-batch duplicates are deduped
    /// *before* the fan-out so they never occupy a worker just to block on
    /// another worker's single-flight (and are evaluated once even with a
    /// disabled cache); the single-flight cache still dedups against
    /// concurrent batches and serve-layer requests. Results come back in
    /// input order.
    fn evaluate_batch(&self, configs: &[SimConfig]) -> Result<Vec<PlatformReport>> {
        let mut unique: Vec<&SimConfig> = Vec::new();
        let mut slots = Vec::with_capacity(configs.len());
        for config in configs {
            match unique.iter().position(|&queued| queued == config) {
                Some(position) => slots.push(position),
                None => {
                    unique.push(config);
                    slots.push(unique.len() - 1);
                }
            }
        }
        let reports = self.run_indexed(unique.len(), |index| self.report_for(unique[index]))?;
        Ok(slots
            .into_iter()
            .map(|index| reports[index].clone())
            .collect())
    }

    /// Sweeps the fabrication complexity `Φ` over code families and logic
    /// radices at a fixed half-cave size (Fig. 5 uses `N = 10`), fanning the
    /// points across the engine's threads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySweep`] for empty parameter sets, or
    /// propagates evaluation errors.
    pub fn complexity_sweep(
        &self,
        base: &SimConfig,
        kinds: &[CodeKind],
        radices: &[LogicLevel],
        code_length: usize,
        nanowires: usize,
    ) -> Result<Vec<ComplexityPoint>> {
        if kinds.is_empty() || radices.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let mut pairs = Vec::with_capacity(kinds.len() * radices.len());
        for &radix in radices {
            for &kind in kinds {
                pairs.push((kind, radix));
            }
        }
        let steps = self.run_indexed(pairs.len(), |index| {
            let (kind, radix) = pairs[index];
            let code = CodeSpec::new(kind, radix, code_length)?;
            let platform = SimulationPlatform::new(base.clone().with_code(code));
            Ok(platform.fabrication_cost_for(nanowires)?.total())
        })?;
        Ok(pairs
            .into_iter()
            .zip(steps)
            .map(|((kind, radix), fabrication_steps)| ComplexityPoint {
                kind,
                radix,
                code_length,
                nanowires,
                fabrication_steps,
            })
            .collect())
    }

    /// Sweeps the crossbar yield over code lengths for one code family (one
    /// series of Fig. 7), batched through the report cache. Lengths that are
    /// invalid for the family/radix are skipped silently, so hot-code sweeps
    /// can share length lists with tree-code sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySweep`] for an empty length set, or
    /// propagates evaluation errors.
    pub fn yield_sweep(
        &self,
        base: &SimConfig,
        kind: CodeKind,
        radix: LogicLevel,
        code_lengths: &[usize],
    ) -> Result<Vec<YieldPoint>> {
        if code_lengths.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let (lengths, configs) = valid_length_configs(base, kind, radix, code_lengths);
        let reports = self.evaluate_batch(&configs)?;
        Ok(lengths
            .into_iter()
            .zip(reports)
            .map(|(code_length, report)| YieldPoint {
                kind,
                code_length,
                cave_yield: report.cave_yield,
                crossbar_yield: report.crossbar_yield,
            })
            .collect())
    }

    /// Sweeps the composite crossbar yield of one code over a set of
    /// fabrication-defect selections (the defect axis of the Fig. 7
    /// extension), batched through the report cache. Defect counts are
    /// engine-sharded via [`ExecutionEngine::report_for`], so points stay
    /// bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySweep`] for an empty defect set, or
    /// propagates code and evaluation errors.
    pub fn defect_yield_sweep(
        &self,
        base: &SimConfig,
        kind: CodeKind,
        radix: LogicLevel,
        code_length: usize,
        defects: &[DefectKind],
    ) -> Result<Vec<DefectYieldPoint>> {
        if defects.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let code = CodeSpec::new(kind, radix, code_length)?;
        let configs: Vec<SimConfig> = defects
            .iter()
            .map(|&defect| base.clone().with_code(code).with_defects(defect))
            .collect();
        let reports = self.evaluate_batch(&configs)?;
        Ok(defects
            .iter()
            .zip(reports)
            .map(|(&defect, report)| DefectYieldPoint {
                kind,
                code_length,
                defects: defect,
                decoder_yield: report.crossbar_yield,
                defect_survival: report.defect_survival,
                composite_yield: report.composite_yield,
            })
            .collect())
    }

    /// Sweeps the effective bit area over code lengths for one code family
    /// (one bar group of Fig. 8), batched through the report cache; invalid
    /// lengths for the family are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySweep`] for an empty length set, or
    /// propagates evaluation errors.
    pub fn bit_area_sweep(
        &self,
        base: &SimConfig,
        kind: CodeKind,
        radix: LogicLevel,
        code_lengths: &[usize],
    ) -> Result<Vec<BitAreaPoint>> {
        if code_lengths.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let (lengths, configs) = valid_length_configs(base, kind, radix, code_lengths);
        let reports = self.evaluate_batch(&configs)?;
        Ok(lengths
            .into_iter()
            .zip(reports)
            .map(|(code_length, report)| BitAreaPoint {
                kind,
                code_length,
                bit_area: report.effective_bit_area,
                crossbar_yield: report.crossbar_yield,
            })
            .collect())
    }

    /// Evaluates the full platform report for every (kind, length) pair,
    /// batched through the report cache — for callers that need several
    /// figures at once; invalid (kind, length) pairs are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySweep`] for empty parameter sets, or
    /// propagates evaluation errors.
    pub fn full_sweep(
        &self,
        base: &SimConfig,
        kinds: &[CodeKind],
        radix: LogicLevel,
        code_lengths: &[usize],
    ) -> Result<Vec<PlatformReport>> {
        if kinds.is_empty() || code_lengths.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let mut configs = Vec::new();
        for &kind in kinds {
            for &code_length in code_lengths {
                if let Ok(code) = CodeSpec::new(kind, radix, code_length) {
                    configs.push(base.clone().with_code(code));
                }
            }
        }
        self.evaluate_batch(&configs)
    }
}

/// The (length, config) pairs of the lengths that are valid for the family —
/// the shared skip-silently discipline of the yield and bit-area sweeps.
fn valid_length_configs(
    base: &SimConfig,
    kind: CodeKind,
    radix: LogicLevel,
    code_lengths: &[usize],
) -> (Vec<usize>, Vec<SimConfig>) {
    let mut lengths = Vec::with_capacity(code_lengths.len());
    let mut configs = Vec::with_capacity(code_lengths.len());
    for &code_length in code_lengths {
        if let Ok(code) = CodeSpec::new(kind, radix, code_length) {
            lengths.push(code_length);
            configs.push(base.clone().with_code(code));
        }
    }
    (lengths, configs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    fn engine(threads: usize) -> ExecutionEngine {
        ExecutionEngine::new(EngineConfig {
            threads,
            chunk_size: DEFAULT_CHUNK_SIZE,
        })
    }

    #[test]
    fn zero_knobs_are_clamped_to_one() {
        let engine = ExecutionEngine::new(EngineConfig {
            threads: 0,
            chunk_size: 0,
        });
        assert_eq!(engine.config().threads, 1);
        assert_eq!(engine.config().chunk_size, 1);
    }

    #[test]
    fn default_config_has_at_least_one_thread() {
        assert!(EngineConfig::default().threads >= 1);
        assert_eq!(EngineConfig::default().chunk_size, DEFAULT_CHUNK_SIZE);
        assert_eq!(EngineConfig::serial().threads, 1);
    }

    #[test]
    fn run_indexed_preserves_order_and_reports_lowest_error() {
        let engine = engine(4);
        let squares = engine.run_indexed(100, |i| Ok(i * i)).unwrap();
        assert_eq!(squares.len(), 100);
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));

        let error = engine
            .run_indexed(10, |i| {
                if i >= 3 {
                    Err(SimError::InvalidConfig {
                        reason: format!("job {i}"),
                    })
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(
            error,
            SimError::InvalidConfig {
                reason: "job 3".to_string()
            }
        );
    }

    #[test]
    fn sampling_stats_track_adaptive_savings() {
        let engine = engine(2);
        assert_eq!(engine.sampling_stats().runs, 0);
        let adaptive = MonteCarloConfig::fixed(4_096, 5).with_target_half_width(0.05);
        let outcome = engine.monte_carlo_for_config(&base(), adaptive).unwrap();
        let stats = engine.sampling_stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.samples_requested, 4_096);
        assert_eq!(stats.samples_used, outcome.samples_used as u64);
        assert!(stats.samples_used < stats.samples_requested);
        // A stage-cache hit computes nothing, so the counters stand still.
        engine.monte_carlo_for_config(&base(), adaptive).unwrap();
        assert_eq!(engine.sampling_stats(), stats);
    }

    #[test]
    fn parallel_sweeps_match_the_serial_path() {
        let base = base();
        let kinds = [CodeKind::Tree, CodeKind::Gray, CodeKind::Hot];
        let radices = [LogicLevel::BINARY, LogicLevel::TERNARY];
        let lengths = [4usize, 5, 6, 8];
        let engine = engine(4);
        // A fresh serial engine per sweep, so no comparison is a cache hit.
        let serial = ExecutionEngine::serial;

        assert_eq!(
            engine
                .complexity_sweep(&base, &[CodeKind::Tree, CodeKind::Gray], &radices, 8, 10)
                .unwrap(),
            serial()
                .complexity_sweep(&base, &[CodeKind::Tree, CodeKind::Gray], &radices, 8, 10)
                .unwrap()
        );
        assert_eq!(
            engine
                .yield_sweep(&base, CodeKind::Hot, LogicLevel::BINARY, &lengths)
                .unwrap(),
            serial()
                .yield_sweep(&base, CodeKind::Hot, LogicLevel::BINARY, &lengths)
                .unwrap()
        );
        assert_eq!(
            engine
                .bit_area_sweep(&base, CodeKind::Tree, LogicLevel::BINARY, &[6, 8])
                .unwrap(),
            serial()
                .bit_area_sweep(&base, CodeKind::Tree, LogicLevel::BINARY, &[6, 8])
                .unwrap()
        );
        assert_eq!(
            engine
                .full_sweep(&base, &kinds, LogicLevel::BINARY, &[6, 8])
                .unwrap(),
            serial()
                .full_sweep(&base, &kinds, LogicLevel::BINARY, &[6, 8])
                .unwrap()
        );
        let defects = [
            DefectKind::None,
            DefectKind::sampled(0.05, 0.02, 42).unwrap(),
        ];
        assert_eq!(
            engine
                .defect_yield_sweep(&base, CodeKind::Tree, LogicLevel::BINARY, 8, &defects)
                .unwrap(),
            serial()
                .defect_yield_sweep(&base, CodeKind::Tree, LogicLevel::BINARY, 8, &defects)
                .unwrap()
        );
    }

    #[test]
    fn repeated_points_hit_the_report_cache() {
        let base = base();
        let engine = engine(2);
        let lengths = [6usize, 8];
        let first = engine
            .yield_sweep(&base, CodeKind::Tree, LogicLevel::BINARY, &lengths)
            .unwrap();
        let cached = engine.cached_report_count();
        assert_eq!(cached, 2);
        // The bit-area sweep over the same points evaluates nothing new.
        engine
            .bit_area_sweep(&base, CodeKind::Tree, LogicLevel::BINARY, &lengths)
            .unwrap();
        assert_eq!(engine.cached_report_count(), cached);
        // And a repeated yield sweep returns identical points.
        let second = engine
            .yield_sweep(&base, CodeKind::Tree, LogicLevel::BINARY, &lengths)
            .unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn duplicate_points_in_one_batch_are_evaluated_once() {
        let base = base();
        let engine = engine(2);
        let reports = engine
            .full_sweep(
                &base,
                &[CodeKind::Tree, CodeKind::Tree],
                LogicLevel::BINARY,
                &[8],
            )
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0], reports[1]);
        assert_eq!(engine.cached_report_count(), 1);
    }

    #[test]
    fn oversized_defect_instances_fail_before_any_draw() {
        use crossbar_array::CrossbarError;
        let is_spec_error = |error: SimError| {
            matches!(error, SimError::Crossbar(CrossbarError::InvalidSpec { .. }))
        };
        let model = DefectModel::new(0.02, 0.01).unwrap();
        let engine = engine(2);
        for (rows, columns) in [(4_097, 4_096), (1_000_000, 1_000_000), (usize::MAX, 2)] {
            let map = engine.sample_defect_map(&model, rows, columns, 1);
            assert!(is_spec_error(map.unwrap_err()));
            let count = engine.count_usable(&model, rows, columns, 1);
            assert!(is_spec_error(count.unwrap_err()));
        }
        // A defect-configured report on a 10¹²-bit crossbar (a 10⁶ edge) and
        // on one whose crosspoint count overflows fails the same way.
        let base = base();
        for raw_bits in [1_000_000_000_000, u64::MAX] {
            let config = SimConfig::new(
                base.code(),
                base.nanowires_per_half_cave(),
                raw_bits,
                *base.layout(),
                *base.threshold_model(),
                base.sigma_per_dose(),
                base.supply_range(),
            )
            .unwrap()
            .with_defects(DefectKind::sampled(0.02, 0.01, 1).unwrap());
            assert!(is_spec_error(engine.report_for(&config).unwrap_err()));
            let platform = SimulationPlatform::new(config);
            assert!(is_spec_error(platform.evaluate().unwrap_err()));
            assert!(is_spec_error(platform.sample_defect_map().unwrap_err()));
        }
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        let engine = engine(2);
        assert!(matches!(
            engine.complexity_sweep(&base(), &[], &[LogicLevel::BINARY], 8, 10),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            engine.yield_sweep(&base(), CodeKind::Tree, LogicLevel::BINARY, &[]),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            engine.bit_area_sweep(&base(), CodeKind::Tree, LogicLevel::BINARY, &[]),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            engine.full_sweep(&base(), &[], LogicLevel::BINARY, &[8]),
            Err(SimError::EmptySweep)
        ));
        assert!(matches!(
            engine.defect_yield_sweep(&base(), CodeKind::Tree, LogicLevel::BINARY, 8, &[]),
            Err(SimError::EmptySweep)
        ));
    }
}
