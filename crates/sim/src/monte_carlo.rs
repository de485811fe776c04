//! Monte-Carlo cross-validation of the analytic yield model: sample the
//! threshold-voltage disturbance of every doping region, check the decision
//! window region by region, and estimate the per-nanowire addressability
//! empirically.
//!
//! The analytic model in `crossbar-array` integrates the same Gaussians in
//! closed form; the Monte-Carlo path exists to validate that integration and
//! to explore the distributions the closed form cannot reach — the sampler
//! draws its region disturbances through the pluggable
//! [`DisturbanceModel`](crate::disturbance) trait (Gaussian by default,
//! heavy-tailed Laplace and correlated inter-region models included).
//!
//! # Window semantics
//!
//! The `window` argument is the **half-width** of the decision interval, the
//! same quantity [`device_physics::DopingLadder::window_half_width`] returns
//! and `VariabilityModel::in_window_probability` integrates over: a region
//! passes iff `|ΔV_T| ≤ window`. The analytic path
//! ([`AddressabilityProfile::from_variability`]) uses the identical
//! convention, so the two estimates are directly comparable.
//!
//! # Sampling paths
//!
//! An estimate samples in one of three ways, chosen once from the
//! [`DisturbanceModel`] itself (see [`crate::disturbance`]):
//!
//! * **Window path** — when the model returns a range of accepted uniform
//!   draws for every (nanowire, region) cell
//!   ([`DisturbanceModel::accepted_draws`]; Gaussian and Laplace do), the
//!   ranges are computed once per distinct σ of the estimate, and each cell
//!   then costs one 53-bit draw and one integer compare. No deviation is
//!   ever materialised. The Gaussian model therefore no longer replays the
//!   Box–Muller stream: same distribution, different samples for a seed.
//! * **Shared-offset path** — when the model declares a shared offset
//!   ([`DisturbanceModel::shared_offset_fraction`]; the correlated model
//!   does), region `j` of a nanowire with shared offset `Z₀` passes when
//!   its own normal lies in `[(−c_j − √ρ·Z₀)/√(1−ρ), (c_j − √ρ·Z₀)/√(1−ρ)]`
//!   with `c_j = w/σ_j`. Per nanowire, `Z₀` is one exact normal from one
//!   53-bit draw ([`normal_quantile`]). Per region, one draw's top 8 bits
//!   pick a bracket of its normal from a 257-edge quantile table built once
//!   per estimate, and the exact quantile is computed only when the bracket
//!   straddles a bound (under 1 % of cells on the Fig. 7/8 points). The
//!   table edges are scaled by `√(1−ρ)` rather than the bounds divided by
//!   it, so `ρ = 1` (no local noise) needs no special case.
//! * **General path** — otherwise (custom models), each nanowire's
//!   deviations are filled by [`DisturbanceModel::sample_regions`] and
//!   checked against the window. A Gaussian or correlated model that only
//!   implements `sample_regions` samples Box–Muller normals here: the
//!   reference the other two paths are checked against.
//!
//! # Sampling discipline (common random numbers)
//!
//! Every region is drawn **unconditionally**: a sample consumes the same
//! number of draws per nanowire whether or not an early region already
//! fell outside the window — one uniform per region on the window path,
//! `1 + M` per nanowire of `M` regions on the shared-offset path, the
//! model's fixed count on the general path. RNG consumption therefore never
//! depends on the window or the acceptance outcome, so two runs with the
//! same seed see the *same* draws and differ only in the accept/reject
//! decision. That makes common-random-number comparisons (wider window ⇒
//! supersets of accepted samples, per nanowire) exact instead of
//! statistical.
//!
//! # Adaptive stopping
//!
//! When [`MonteCarloConfig::target_half_width`] is set, the engine stops
//! sampling at the first **chunk boundary** where every nanowire's Wilson
//! score interval (at [`MonteCarloConfig::confidence`]) is at least as tight
//! as the target — see [`crate::stats`] and the engine docs for the
//! determinism argument. The stopping decision is evaluated in chunk order
//! over thread-independent per-chunk counts, so `samples_used` and the
//! resulting profile are bit-identical at any thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crossbar_array::AddressabilityProfile;
use device_physics::{VariabilityModel, Volts};
use mspt_fabrication::VariabilityMatrix;

// The stream-splitting primitive is shared with the defect-map chunk layout
// in `crossbar-array`; both determinism contracts rest on the same function.
pub(crate) use crossbar_array::chunk_seed;

use crate::config::check_window;
use crate::disturbance::DisturbanceModel;
use crate::error::{Result, SimError};
use crate::stats::inverse_normal_cdf;

/// The confidence level a [`MonteCarloConfig`] uses when none is specified:
/// the conventional 95 % two-sided interval.
pub const DEFAULT_MC_CONFIDENCE: f64 = 0.95;

/// Configuration of a Monte-Carlo addressability estimation.
///
/// Two operating modes share this struct:
///
/// * **Fixed** (`target_half_width` unset, the default and the only
///   pre-adaptive behaviour): draw exactly [`samples`](Self::samples)
///   array instances.
/// * **Adaptive** (`target_half_width` set): keep drawing chunks until every
///   nanowire's Wilson interval half-width at
///   [`confidence`](Self::confidence) drops to the target, capped at
///   [`max_samples`](Self::max_samples) (or `samples` when no explicit cap
///   is given).
///
/// Construct fixed-mode values with [`MonteCarloConfig::fixed`]; layer the
/// adaptive knobs on with the `with_*` builders. A sampling configuration
/// is not part of a [`SimConfig`](crate::SimConfig): each sampling call
/// names its own, through
/// [`EvaluationBuilder::monte_carlo`](crate::EvaluationBuilder::monte_carlo)
/// or [`ExecutionEngine::monte_carlo_for_config`](crate::ExecutionEngine::monte_carlo_for_config),
/// and no environment variable overrides it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of sampled array instances (the exact count in fixed mode;
    /// the default cap in adaptive mode).
    pub samples: usize,
    /// Seed of the deterministic random-number generator.
    pub seed: u64,
    /// When set, enables adaptive stopping: sampling ends at the first
    /// chunk boundary where every nanowire's Wilson-interval half-width is
    /// at most this value.
    pub target_half_width: Option<f64>,
    /// Confidence level of the Wilson stopping interval (and of the
    /// [`MonteCarloOutcome`] CI bounds), strictly inside `(0, 1)`;
    /// [`DEFAULT_MC_CONFIDENCE`] unless overridden.
    pub confidence: f64,
    /// Explicit ceiling on drawn samples in adaptive mode; `None` means
    /// [`samples`](Self::samples) is the cap. Ignored in fixed mode.
    pub max_samples: Option<usize>,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig::fixed(2_000, 0x5eed_cafe)
    }
}

impl MonteCarloConfig {
    /// A fixed-sample configuration: draw exactly `samples` instances under
    /// `seed` — the pre-adaptive constructor every existing call site used
    /// as a struct literal.
    #[must_use]
    pub fn fixed(samples: usize, seed: u64) -> Self {
        MonteCarloConfig {
            samples,
            seed,
            target_half_width: None,
            confidence: DEFAULT_MC_CONFIDENCE,
            max_samples: None,
        }
    }

    /// Enables adaptive stopping at the given Wilson half-width target.
    #[must_use]
    pub fn with_target_half_width(mut self, target: f64) -> Self {
        self.target_half_width = Some(target);
        self
    }

    /// Overrides the confidence level of the stopping interval.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Sets an explicit adaptive-mode sample ceiling.
    #[must_use]
    pub fn with_max_samples(mut self, max_samples: usize) -> Self {
        self.max_samples = Some(max_samples);
        self
    }

    /// Whether the adaptive stopping rule is active.
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        self.target_half_width.is_some()
    }

    /// The ceiling on drawn samples: in adaptive mode
    /// [`max_samples`](Self::max_samples) when set and
    /// [`samples`](Self::samples) otherwise; in fixed mode always
    /// `samples` (the exact count drawn).
    #[must_use]
    pub fn sample_cap(&self) -> usize {
        if self.is_adaptive() {
            self.max_samples.unwrap_or(self.samples)
        } else {
            self.samples
        }
    }
}

/// The result of a Monte-Carlo addressability estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloOutcome {
    /// Empirical per-nanowire addressability probabilities (successes over
    /// [`samples_used`](Self::samples_used)).
    pub profile: AddressabilityProfile,
    /// The requested sample ceiling ([`MonteCarloConfig::sample_cap`]); in
    /// fixed mode this equals the configured sample count.
    pub samples: usize,
    /// The number of array instances actually drawn: equal to
    /// [`samples`](Self::samples) in fixed mode, possibly smaller when the
    /// adaptive stopping rule fired early.
    pub samples_used: usize,
    /// Per-nanowire Wilson lower confidence bounds at the configured
    /// confidence level, over `samples_used` trials.
    pub ci_lower: Vec<f64>,
    /// Per-nanowire Wilson upper confidence bounds.
    pub ci_upper: Vec<f64>,
}

/// Validates a Monte-Carlo configuration and decision window.
pub(crate) fn validate_monte_carlo(config: &MonteCarloConfig, window: Volts) -> Result<()> {
    if config.samples == 0 {
        return Err(SimError::InvalidConfig {
            reason: "Monte-Carlo estimation needs at least one sample".to_string(),
        });
    }
    check_window(window)?;
    // `!(inside)` keeps NaN on the error path.
    if !(config.confidence > 0.0 && config.confidence < 1.0) {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "Monte-Carlo confidence must be strictly inside (0, 1), got {}",
                config.confidence
            ),
        });
    }
    if let Some(target) = config.target_half_width {
        // `<= 0.0` is false for NaN, but NaN is caught by `!is_finite()`.
        if target <= 0.0 || !target.is_finite() {
            return Err(SimError::InvalidConfig {
                reason: format!("Monte-Carlo target half-width must be positive, got {target}"),
            });
        }
    }
    if config.max_samples == Some(0) {
        return Err(SimError::InvalidConfig {
            reason: "Monte-Carlo max_samples must be positive when set".to_string(),
        });
    }
    Ok(())
}

/// The per-(nanowire, region) standard deviations in structure-of-arrays
/// form: one contiguous row-major `nanowires × regions` matrix, so the
/// sampling inner loop reads and window-checks flat slices instead of
/// chasing a `Vec<Vec<f64>>`'s per-row indirections.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SigmaMatrix {
    /// Row-major values: `values[i * regions + j]` is nanowire `i`,
    /// region `j`.
    values: Vec<f64>,
    nanowires: usize,
    regions: usize,
}

impl SigmaMatrix {
    /// Pre-computes the matrix from a variability matrix and model — the
    /// flattened successor of the old per-row `region_sigmas`.
    pub(crate) fn from_variability(
        variability: &VariabilityMatrix,
        model: &VariabilityModel,
    ) -> Result<SigmaMatrix> {
        let nanowires = variability.nanowire_count();
        let regions = variability.region_count();
        let mut values = vec![0.0f64; nanowires * regions];
        if regions > 0 {
            for (i, row) in values.chunks_exact_mut(regions).enumerate() {
                for (j, slot) in row.iter_mut().enumerate() {
                    let doses = variability.dose_counts().count(i, j)?;
                    *slot = model.sigma_after_doses(doses).value();
                }
            }
        }
        Ok(SigmaMatrix {
            values,
            nanowires,
            regions,
        })
    }

    /// Number of nanowire rows.
    pub(crate) fn nanowires(&self) -> usize {
        self.nanowires
    }

    /// Number of doping regions per nanowire.
    pub(crate) fn regions(&self) -> usize {
        self.regions
    }

    /// The flat row-major values.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The sampling path of one estimate, chosen once from its model (see the
/// module docs); every chunk of the estimate runs it.
#[derive(Debug)]
pub(crate) enum Kernel<'a> {
    /// One draw and one compare per cell (Gaussian, Laplace).
    Window(AcceptanceTable),
    /// One exact normal per nanowire and a bracketed draw per region
    /// (correlated); boxed, as its quantile table is 2 KiB.
    SharedOffset(Box<SharedOffsetTable>),
    /// Deviations from [`DisturbanceModel::sample_regions`], then the
    /// window check (custom models).
    General {
        sigmas: &'a SigmaMatrix,
        window_half_width: f64,
        disturbance: &'a dyn DisturbanceModel,
    },
}

impl<'a> Kernel<'a> {
    /// The window path when the model has a draw range for every σ of the
    /// estimate, else the shared-offset path when it declares a shared
    /// fraction in `[0, 1]`, else the general path.
    pub(crate) fn new(
        sigmas: &'a SigmaMatrix,
        window_half_width: f64,
        disturbance: &'a dyn DisturbanceModel,
    ) -> Kernel<'a> {
        if let Some(table) = AcceptanceTable::build(sigmas, window_half_width, disturbance) {
            return Kernel::Window(table);
        }
        match disturbance.shared_offset_fraction() {
            Some(fraction) if (0.0..=1.0).contains(&fraction) => Kernel::SharedOffset(Box::new(
                SharedOffsetTable::build(sigmas, window_half_width, fraction),
            )),
            _ => Kernel::General {
                sigmas,
                window_half_width,
                disturbance,
            },
        }
    }

    /// Runs one deterministic chunk of `samples` array instances and returns
    /// the per-nanowire counts of fully-in-window samples.
    pub(crate) fn sample_chunk(&self, seed: u64, samples: usize) -> Vec<usize> {
        match self {
            Kernel::Window(table) => table.sample_chunk(seed, samples),
            Kernel::SharedOffset(table) => table.sample_chunk(seed, samples),
            Kernel::General {
                sigmas,
                window_half_width,
                disturbance,
            } => sample_chunk(sigmas, *window_half_width, seed, samples, *disturbance),
        }
    }
}

/// Runs one deterministic chunk of `samples` array instances on the general
/// path and returns the per-nanowire counts of fully-in-window samples.
///
/// Every nanowire's deviations are drawn in full through
/// [`DisturbanceModel::sample_regions`] before the window check (no early
/// exit), so the chunk consumes exactly the model's fixed per-nanowire draw
/// count regardless of the window — the fixed-consumption discipline the
/// module docs describe.
pub(crate) fn sample_chunk(
    sigmas: &SigmaMatrix,
    window_half_width: f64,
    seed: u64,
    samples: usize,
    disturbance: &dyn DisturbanceModel,
) -> Vec<usize> {
    let regions = sigmas.regions();
    if regions == 0 {
        // No doping regions: every nanowire is vacuously in-window.
        return vec![samples; sigmas.nanowires()];
    }
    let mut draws = NormalSource::from_seed(seed);
    let mut deviations = vec![0.0f64; regions];
    let mut counts = vec![0usize; sigmas.nanowires()];
    for _ in 0..samples {
        for (count, row) in counts.iter_mut().zip(sigmas.values().chunks_exact(regions)) {
            disturbance.sample_regions(row, &mut draws, &mut deviations);
            if deviations
                .iter()
                .all(|deviation| deviation.abs() <= window_half_width)
            {
                *count += 1;
            }
        }
    }
    counts
}

/// The window path's per-estimate table: for every (nanowire, region) cell,
/// the range of 53-bit draws that land inside the window, stored as
/// `(start, end − start)` so that one wrapping subtraction and one compare
/// decide a cell (`k.wrapping_sub(start) <= span` holds exactly when
/// `start ≤ k ≤ end`).
#[derive(Debug)]
pub(crate) struct AcceptanceTable {
    /// Row-major `(start, span)` pairs, laid out like [`SigmaMatrix`].
    cells: Vec<(u64, u64)>,
    nanowires: usize,
    regions: usize,
}

impl AcceptanceTable {
    /// Builds the table from the model's
    /// [`accepted_draws`](DisturbanceModel::accepted_draws), asking once per
    /// distinct σ; `None` as soon as the model has no range for one of them,
    /// and the estimate then takes the general path.
    pub(crate) fn build(
        sigmas: &SigmaMatrix,
        window_half_width: f64,
        disturbance: &dyn DisturbanceModel,
    ) -> Option<AcceptanceTable> {
        let mut distinct: Vec<(u64, (u64, u64))> = Vec::new();
        let mut cells = Vec::with_capacity(sigmas.values().len());
        for &sigma in sigmas.values() {
            let key = sigma.to_bits();
            let cell = match distinct.iter().find(|(seen, _)| *seen == key) {
                Some(&(_, cell)) => cell,
                None => {
                    let range = disturbance.accepted_draws(sigma, window_half_width)?;
                    // An empty range starts past every 53-bit draw.
                    let cell = if range.is_empty() {
                        (u64::MAX, 0)
                    } else {
                        (*range.start(), range.end() - range.start())
                    };
                    distinct.push((key, cell));
                    cell
                }
            };
            cells.push(cell);
        }
        Some(AcceptanceTable {
            cells,
            nanowires: sigmas.nanowires(),
            regions: sigmas.regions(),
        })
    }

    /// Runs one deterministic chunk of `samples` array instances and returns
    /// the per-nanowire counts of fully-in-window samples: one draw and one
    /// compare per cell, every cell drawn whether or not its nanowire has
    /// already failed.
    pub(crate) fn sample_chunk(&self, seed: u64, samples: usize) -> Vec<usize> {
        if self.regions == 0 {
            return vec![samples; self.nanowires];
        }
        let mut draws = NormalSource::from_seed(seed);
        let mut counts = vec![0usize; self.nanowires];
        for _ in 0..samples {
            for (count, row) in counts.iter_mut().zip(self.cells.chunks_exact(self.regions)) {
                let mut inside = true;
                for &(start, span) in row {
                    inside &= draws.uniform_bits().wrapping_sub(start) <= span;
                }
                *count += usize::from(inside);
            }
        }
        counts
    }
}

/// The shared-offset path's quantile table indexes draws by their top
/// `BRACKET_BITS` bits: 256 buckets of 2⁴⁵ consecutive draws.
const BRACKET_BITS: u32 = 8;
/// The shift that leaves a 53-bit draw's bucket.
const BRACKET_SHIFT: u32 = 53 - BRACKET_BITS;
/// The number of buckets; the table has one more edge than that.
const BRACKETS: usize = 1 << BRACKET_BITS;

/// The shared-offset path's per-estimate table: the window of every
/// (nanowire, region) cell in units of its σ, and the bracket of the local
/// noise every bucket of draws can produce.
///
/// A region with window `c` passes when its local noise
/// `√(1−ρ) · z(k)`, for its draw `k` and the draw's normal
/// [`z(k)`](normal_quantile), lies in `[−c − √ρ·Z₀, c − √ρ·Z₀]`. Because
/// `z` increases, the local noise of a draw in bucket `b` lies in
/// `[edges[b], edges[b + 1]]`, and `z(k)` is needed only when that bracket
/// straddles a bound. In floating point `z` increases only to within an ulp
/// (near `|z| = 1.3`, draws ten apart can come out of order), so the local
/// noise is clamped into its bracket: the bracket and the exact quantile
/// then decide alike by construction. Undoped cells have `c = +∞` and the
/// edges are finite, so no decision divides by zero or forms `0 · ∞`.
#[derive(Debug)]
pub(crate) struct SharedOffsetTable {
    /// Row-major `w / |σ|` per cell, laid out like [`SigmaMatrix`]; `+∞`
    /// for an undoped cell (σ = 0), which passes any window, `w = 0`
    /// included.
    windows: Vec<f64>,
    /// `√(1−ρ)` times the normal of each bucket's first draw, and of the
    /// last draw `2⁵³ − 1` at the end: all finite (`|z| ≤ 8.3`).
    edges: [f64; BRACKETS + 1],
    /// `√ρ`, the weight of the shared offset.
    shared_weight: f64,
    /// `√(1−ρ)`, the weight of each region's own normal.
    local_weight: f64,
    nanowires: usize,
    regions: usize,
}

impl SharedOffsetTable {
    /// Builds the table for shared variance fraction `shared_fraction`
    /// (`ρ ∈ [0, 1]`).
    pub(crate) fn build(
        sigmas: &SigmaMatrix,
        window_half_width: f64,
        shared_fraction: f64,
    ) -> SharedOffsetTable {
        let local_weight = (1.0 - shared_fraction).sqrt();
        let mut edges = [0.0; BRACKETS + 1];
        for (bucket, edge) in (0u64..).zip(edges.iter_mut()) {
            let first_draw = (bucket << BRACKET_SHIFT).min(UNIFORM_DRAWS - 1);
            *edge = local_weight * normal_quantile(first_draw);
        }
        let windows = sigmas
            .values()
            .iter()
            .map(|&sigma| {
                if sigma == 0.0 {
                    f64::INFINITY
                } else {
                    window_half_width / sigma.abs()
                }
            })
            .collect();
        SharedOffsetTable {
            windows,
            edges,
            shared_weight: shared_fraction.sqrt(),
            local_weight,
            nanowires: sigmas.nanowires(),
            regions: sigmas.regions(),
        }
    }

    /// Runs one deterministic chunk of `samples` array instances and returns
    /// the per-nanowire counts of fully-in-window samples.
    pub(crate) fn sample_chunk(&self, seed: u64, samples: usize) -> Vec<usize> {
        if self.regions == 0 {
            return vec![samples; self.nanowires];
        }
        let mut draws = NormalSource::from_seed(seed);
        let mut counts = vec![0usize; self.nanowires];
        for _ in 0..samples {
            for (count, windows) in counts
                .iter_mut()
                .zip(self.windows.chunks_exact(self.regions))
            {
                *count += usize::from(self.wire_passes(windows, &mut draws));
            }
        }
        counts
    }

    /// Samples one nanowire whose regions have the given windows: its shared
    /// offset from one draw, then one draw per region, every region drawn.
    fn wire_passes(&self, windows: &[f64], draws: &mut NormalSource<StdRng>) -> bool {
        let shift = self.shared_weight * normal_quantile(draws.uniform_bits());
        let mut inside = true;
        for &window in windows {
            let bits = draws.uniform_bits();
            let (low, high) = (-window - shift, window - shift);
            // `bits >> BRACKET_SHIFT` is below `BRACKETS`: draws have 53 bits.
            let bucket = (bits >> BRACKET_SHIFT) as usize;
            let (floor, ceiling) = (self.edges[bucket], self.edges[bucket + 1]);
            inside &= (low <= floor && ceiling <= high)
                || (low <= ceiling && floor <= high && {
                    let local = self.local_weight * normal_quantile(bits);
                    (low..=high).contains(&local.max(floor).min(ceiling))
                });
        }
        inside
    }
}

/// The number of distinct 53-bit draws: [`NormalSource::uniform_bits`]
/// returns values below it.
pub(crate) const UNIFORM_DRAWS: u64 = 1 << 53;

/// The uniform in `[0, 1)` a 53-bit draw stands for: `bits / 2⁵³`, exact.
pub(crate) fn unit_interval(bits: u64) -> f64 {
    bits as f64 * (1.0 / UNIFORM_DRAWS as f64)
}

/// The standard normal a 53-bit draw stands for on the shared-offset path:
/// `Φ⁻¹((k + ½) / 2⁵³)`, the quantile of the draw's midpoint, so the two
/// extreme draws give finite normals (about ∓8.29). The lower half of the
/// draws is evaluated at `(2k + 1) / 2⁵⁴`, which is exact there, and the
/// upper half as its mirror image, so `z(2⁵³ − 1 − k) = −z(k)` exactly.
fn normal_quantile(bits: u64) -> f64 {
    let lower = |k: u64| inverse_normal_cdf((2 * k + 1) as f64 * (0.5 / UNIFORM_DRAWS as f64));
    if bits < UNIFORM_DRAWS / 2 {
        lower(bits)
    } else {
        -lower(UNIFORM_DRAWS - 1 - bits)
    }
}

/// A standard-normal sampler over any uniform generator, via the Box–Muller
/// transform (the workspace only depends on `rand`, which provides uniform
/// sampling).
///
/// Each transform produces a *pair* of independent normals; the sine half is
/// cached and served by the next call, so the source consumes two uniforms
/// per two normals instead of discarding half of every pair.
#[derive(Debug, Clone)]
pub struct NormalSource<R: Rng> {
    rng: R,
    cached: Option<f64>,
}

impl NormalSource<StdRng> {
    /// A source over a deterministically seeded [`StdRng`].
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        // mspt-analyze: allow(raw-seed) callers pass a chunk_seed-derived seed; this is the single construction point for that stream
        NormalSource::new(StdRng::seed_from_u64(seed))
    }
}

impl<R: Rng> NormalSource<R> {
    /// Wraps a uniform generator.
    #[must_use]
    pub fn new(rng: R) -> Self {
        NormalSource { rng, cached: None }
    }

    /// Draws one 53-bit uniform integer `k < 2⁵³` (the top bits of the
    /// generator's next `u64`) — the draw the window path compares against
    /// a model's [`accepted_draws`](DisturbanceModel::accepted_draws).
    ///
    /// Like [`NormalSource::uniform`], bypasses the cached Box–Muller half.
    pub(crate) fn uniform_bits(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    /// Draws one uniform value in `[0, 1)`: the top 53 bits of the
    /// generator's next `u64`, divided by `2⁵³` exactly — the primitive
    /// inverse-CDF disturbance models build on.
    ///
    /// Bypasses (and leaves untouched) the cached Box–Muller half, so a
    /// model mixing [`NormalSource::sample`] and [`NormalSource::uniform`]
    /// calls still consumes the underlying stream deterministically.
    pub fn uniform(&mut self) -> f64 {
        unit_interval(self.uniform_bits())
    }

    /// Draws one standard-normal value (zero mean, unit variance).
    pub fn sample(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        loop {
            let u1: f64 = self.rng.gen::<f64>();
            let u2: f64 = self.rng.gen::<f64>();
            if u1 > f64::MIN_POSITIVE {
                let radius = (-2.0 * u1.ln()).sqrt();
                let angle = 2.0 * std::f64::consts::PI * u2;
                self.cached = Some(radius * angle.sin());
                return radius * angle.cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::disturbance::{CorrelatedDisturbance, GaussianDisturbance, LaplaceDisturbance};
    use crate::engine::ExecutionEngine;
    use crate::stats::erfc;
    use device_physics::{DopingLadder, ThresholdModel};
    use mspt_fabrication::PatternMatrix;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn variability(kind: CodeKind, length: usize, nanowires: usize) -> VariabilityMatrix {
        let seq = CodeSpec::new(kind, LogicLevel::BINARY, length)
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
        VariabilityMatrix::from_pattern(
            &PatternMatrix::from_sequence(&seq).unwrap(),
            &ladder,
            &VariabilityModel::paper_default(),
        )
        .unwrap()
    }

    /// A serial estimate under the default Gaussian disturbance.
    fn serial_gaussian(
        variability: &VariabilityMatrix,
        model: &VariabilityModel,
        window: Volts,
        config: MonteCarloConfig,
    ) -> Result<MonteCarloOutcome> {
        ExecutionEngine::serial().monte_carlo_with_disturbance(
            variability,
            model,
            window,
            config,
            &GaussianDisturbance,
        )
    }

    /// A stock model forced onto the general path: it implements only
    /// `sample_regions`, so it samples Box–Muller normals there — the
    /// reference sampler of the analytic gates.
    #[derive(Debug)]
    struct GeneralPath<M>(M);

    impl<M: DisturbanceModel> DisturbanceModel for GeneralPath<M> {
        fn sample_regions(
            &self,
            sigmas: &[f64],
            draws: &mut NormalSource<StdRng>,
            out: &mut [f64],
        ) {
            self.0.sample_regions(sigmas, draws, out);
        }
    }

    /// `(P(X ≤ k), P(X ≥ k))` for `X ~ Binomial(n, p)`, summed exactly from
    /// log-space terms.
    fn binomial_tails(n: usize, k: usize, p: f64) -> (f64, f64) {
        if p <= 0.0 {
            return (1.0, if k == 0 { 1.0 } else { 0.0 });
        }
        if p >= 1.0 {
            return (if k == n { 1.0 } else { 0.0 }, 1.0);
        }
        let mut ln_factorial = vec![0.0f64; n + 1];
        for i in 1..=n {
            ln_factorial[i] = ln_factorial[i - 1] + (i as f64).ln();
        }
        let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
        let pmf = |i: usize| {
            (ln_factorial[n] - ln_factorial[i] - ln_factorial[n - i]
                + i as f64 * ln_p
                + (n - i) as f64 * ln_q)
                .exp()
        };
        ((0..=k).map(pmf).sum(), (k..=n).map(pmf).sum())
    }

    /// One of the Fig. 7/8 points, with its analytic (Gaussian) profile.
    struct FigurePoint {
        name: String,
        variability: VariabilityMatrix,
        model: VariabilityModel,
        window: Volts,
        analytic: Vec<f64>,
    }

    /// The 15 Fig. 7/8 points: tree, Gray and balanced Gray codes at
    /// M = 6, 8, 10 and hot and arranged-hot codes at M = 4, 6, 8, binary,
    /// paper defaults.
    fn figure_points() -> Vec<FigurePoint> {
        let mut points = Vec::new();
        for (kinds, lengths) in [
            (
                &[CodeKind::Tree, CodeKind::Gray, CodeKind::BalancedGray][..],
                [6, 8, 10],
            ),
            (&[CodeKind::Hot, CodeKind::ArrangedHot][..], [4, 6, 8]),
        ] {
            for &kind in kinds {
                for length in lengths {
                    let code = CodeSpec::new(kind, LogicLevel::BINARY, length).unwrap();
                    let config = crate::SimConfig::paper_defaults(code).unwrap();
                    let platform = crate::SimulationPlatform::new(config.clone());
                    points.push(FigurePoint {
                        name: format!("{kind:?} M={length}"),
                        variability: platform.variability().unwrap(),
                        model: config.variability_model().unwrap(),
                        window: config.decision_window().unwrap(),
                        analytic: platform.addressability().unwrap().probabilities().to_vec(),
                    });
                }
            }
        }
        points
    }

    /// The analytic-vs-Monte-Carlo gate: every (point, nanowire) count must
    /// pass an exact two-sided binomial test against the `expected`
    /// probability, at a Bonferroni share of the family-wise `alpha`. The
    /// sampler sees every σ scaled by `sigma_scale` (its window divided by
    /// it). Returns the failing pairs.
    fn analytic_gate_failures(
        points: &[FigurePoint],
        expected: &[Vec<f64>],
        disturbance: &dyn DisturbanceModel,
        sigma_scale: f64,
        samples: usize,
        alpha: f64,
    ) -> Vec<String> {
        let pairs: usize = expected.iter().map(Vec::len).sum();
        let level = alpha / pairs as f64 / 2.0;
        let mut failures = Vec::new();
        for (seed, (point, expected)) in points.iter().zip(expected).enumerate() {
            let outcome = ExecutionEngine::serial()
                .monte_carlo_with_disturbance(
                    &point.variability,
                    &point.model,
                    Volts::new(point.window.value() / sigma_scale),
                    MonteCarloConfig::fixed(samples, 0x6a7e + seed as u64),
                    disturbance,
                )
                .unwrap();
            for (wire, (&p_hat, &p)) in outcome
                .profile
                .probabilities()
                .iter()
                .zip(expected)
                .enumerate()
            {
                let successes = (p_hat * samples as f64).round() as usize;
                let (lower, upper) = binomial_tails(samples, successes, p);
                if lower < level || upper < level {
                    failures.push(format!(
                        "{} wire {wire}: {successes}/{samples} vs p {p}",
                        point.name
                    ));
                }
            }
        }
        failures
    }

    #[test]
    fn monte_carlo_matches_the_analytic_model() {
        // Family-wise α = 1e-3 over 15 points × 20 nanowires; an exact
        // binomial test rather than a Wilson interval, which under-covers at
        // the corrected level where n·p(1−p) ≪ 1 (wires with p ≈ 1).
        const SAMPLES: usize = 3_000;
        const ALPHA: f64 = 1e-3;
        let points = figure_points();
        assert_eq!(points.len(), 15);
        let analytic: Vec<Vec<f64>> = points.iter().map(|point| point.analytic.clone()).collect();
        for (name, sampler) in [
            ("window", &GaussianDisturbance as &dyn DisturbanceModel),
            ("Box–Muller reference", &GeneralPath(GaussianDisturbance)),
        ] {
            let failures = analytic_gate_failures(&points, &analytic, sampler, 1.0, SAMPLES, ALPHA);
            assert!(failures.is_empty(), "{name} sampler: {failures:#?}");
            // The gate has power: a sampler whose σ is 5 % too wide fails it.
            let failures =
                analytic_gate_failures(&points, &analytic, sampler, 1.05, SAMPLES, ALPHA);
            assert!(!failures.is_empty(), "σ × 1.05 {name} sampler passed");
        }
    }

    /// Per-wire addressability under the correlated model, by quadrature
    /// over the shared offset: `∫ φ(z₀) Π_j [Φ(hi_j) − Φ(lo_j)] dz₀` with
    /// `hi_j, lo_j = (±c_j − √ρ·z₀)/√(1−ρ)` and `c_j = w/σ_j`, Simpson's
    /// rule on `[−8.5, 8.5]`, `Φ` from the accurate `erfc`. At `ρ = 1` it is
    /// `P(|Z₀| ≤ min_j c_j)`. An undoped region (σ = 0) always passes.
    fn correlated_quadrature(sigmas: &SigmaMatrix, window: f64, rho: f64) -> Vec<f64> {
        const REACH: f64 = 8.5;
        const STEPS: usize = 800;
        let phi = |x: f64| 0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2);
        let windows: Vec<f64> = sigmas
            .values()
            .iter()
            .map(|&sigma| {
                if sigma == 0.0 {
                    f64::INFINITY
                } else {
                    window / sigma
                }
            })
            .collect();
        if rho == 1.0 {
            return windows
                .chunks_exact(sigmas.regions())
                .map(|row| {
                    let narrowest = row.iter().copied().fold(f64::INFINITY, f64::min);
                    1.0 - erfc(narrowest * std::f64::consts::FRAC_1_SQRT_2)
                })
                .collect();
        }
        // A region's factor depends on its window alone: evaluate each
        // distinct window once per node.
        let mut distinct: Vec<f64> = Vec::new();
        let index: Vec<usize> = windows
            .iter()
            .map(|&c| match distinct.iter().position(|&seen| seen == c) {
                Some(position) => position,
                None => {
                    distinct.push(c);
                    distinct.len() - 1
                }
            })
            .collect();
        let (shared, local) = (rho.sqrt(), (1.0 - rho).sqrt());
        let step = 2.0 * REACH / STEPS as f64;
        let mut integrals = vec![0.0f64; sigmas.nanowires()];
        for node in 0..=STEPS {
            let z = -REACH + step * node as f64;
            let weight = match node {
                0 | STEPS => 1.0,
                odd if odd % 2 == 1 => 4.0,
                _ => 2.0,
            };
            let density = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
            let factors: Vec<f64> = distinct
                .iter()
                .map(|&c| phi((c - shared * z) / local) - phi((-c - shared * z) / local))
                .collect();
            for (integral, cells) in integrals
                .iter_mut()
                .zip(index.chunks_exact(sigmas.regions()))
            {
                let product: f64 = cells.iter().map(|&cell| factors[cell]).product();
                *integral += weight * density * product;
            }
        }
        integrals.iter().map(|sum| sum * step / 3.0).collect()
    }

    #[test]
    fn correlated_monte_carlo_matches_the_quadrature() {
        // The analytic gate's exact binomial test, against the quadrature
        // of the correlated model at the correlated configurations' ρ = ½,
        // for the shared-offset path and the Box–Muller reference.
        const SAMPLES: usize = 3_000;
        const ALPHA: f64 = 1e-3;
        const RHO: f64 = 0.5;
        let points = figure_points();
        let sigmas: Vec<SigmaMatrix> = points
            .iter()
            .map(|point| SigmaMatrix::from_variability(&point.variability, &point.model).unwrap())
            .collect();
        // The reference reduces to the analytic Gaussian product at ρ = 0,
        // up to the analytic model's erf approximation.
        for (point, sigmas) in points.iter().zip(&sigmas) {
            let independent = correlated_quadrature(sigmas, point.window.value(), 0.0);
            for (wire, (q, a)) in independent.iter().zip(&point.analytic).enumerate() {
                assert!(
                    (q - a).abs() < 1e-5,
                    "{} wire {wire}: {q} vs {a}",
                    point.name
                );
            }
        }
        let quadrature: Vec<Vec<f64>> = points
            .iter()
            .zip(&sigmas)
            .map(|(point, sigmas)| correlated_quadrature(sigmas, point.window.value(), RHO))
            .collect();
        let correlated = CorrelatedDisturbance::new(RHO).unwrap();
        for (name, sampler) in [
            ("shared-offset", &correlated as &dyn DisturbanceModel),
            ("Box–Muller reference", &GeneralPath(correlated)),
        ] {
            let failures =
                analytic_gate_failures(&points, &quadrature, sampler, 1.0, SAMPLES, ALPHA);
            assert!(failures.is_empty(), "{name} sampler: {failures:#?}");
            let failures =
                analytic_gate_failures(&points, &quadrature, sampler, 1.05, SAMPLES, ALPHA);
            assert!(!failures.is_empty(), "σ × 1.05 {name} sampler passed");
        }
    }

    #[test]
    fn results_are_deterministic_for_a_fixed_seed() {
        let variability = variability(CodeKind::Tree, 8, 10);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        let config = MonteCarloConfig::fixed(500, 42);
        let a = serial_gaussian(&variability, &model, window, config).unwrap();
        let b = serial_gaussian(&variability, &model, window, config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_samples_and_negative_windows_are_rejected() {
        let variability = variability(CodeKind::Tree, 6, 8);
        let model = VariabilityModel::paper_default();
        assert!(serial_gaussian(
            &variability,
            &model,
            Volts::new(0.25),
            MonteCarloConfig::fixed(0, 1),
        )
        .is_err());
        for window in [-0.1, f64::NAN] {
            assert!(matches!(
                serial_gaussian(
                    &variability,
                    &model,
                    Volts::new(window),
                    MonteCarloConfig::default(),
                ),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn invalid_adaptive_parameters_are_rejected() {
        let variability = variability(CodeKind::Tree, 6, 8);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        for bad in [
            MonteCarloConfig::default().with_confidence(0.0),
            MonteCarloConfig::default().with_confidence(1.0),
            MonteCarloConfig::default().with_confidence(f64::NAN),
            MonteCarloConfig::default().with_target_half_width(0.0),
            MonteCarloConfig::default().with_target_half_width(-0.01),
            MonteCarloConfig::default().with_target_half_width(f64::INFINITY),
            MonteCarloConfig::default().with_target_half_width(f64::NAN),
            MonteCarloConfig::default()
                .with_target_half_width(0.05)
                .with_max_samples(0),
        ] {
            assert!(
                serial_gaussian(&variability, &model, window, bad).is_err(),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn fixed_constructor_matches_the_default_adaptive_knobs() {
        let config = MonteCarloConfig::fixed(2_000, 0x5eed_cafe);
        assert_eq!(config, MonteCarloConfig::default());
        assert!(!config.is_adaptive());
        assert_eq!(config.sample_cap(), 2_000);
        let adaptive = config.with_target_half_width(0.02).with_max_samples(10_000);
        assert!(adaptive.is_adaptive());
        assert_eq!(adaptive.sample_cap(), 10_000);
        // Without an explicit cap, `samples` bounds the adaptive run.
        assert_eq!(config.with_target_half_width(0.02).sample_cap(), 2_000);
    }

    #[test]
    fn normal_source_has_zero_mean_and_unit_variance() {
        let mut normals = NormalSource::from_seed(123);
        let samples: Vec<f64> = (0..20_000).map(|_| normals.sample()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let variance =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((variance - 1.0).abs() < 0.05, "variance {variance}");
    }

    #[test]
    fn normal_source_serves_both_box_muller_halves() {
        // The cosine and sine halves of one transform come from the same two
        // uniforms: two fresh sources produce pairwise-equal radii.
        let mut a = NormalSource::from_seed(99);
        let mut b = NormalSource::from_seed(99);
        let first = a.sample();
        let second = a.sample();
        let radius = (first * first + second * second).sqrt();
        assert!(radius > 0.0);
        // Same stream, same values: the pair is deterministic.
        assert_eq!(b.sample(), first);
        assert_eq!(b.sample(), second);
        // And consuming the pair advanced the underlying RNG only once
        // (two uniforms): the third sample starts a new transform.
        assert_ne!(a.sample(), first);
    }

    #[test]
    fn chunk_seeds_are_distinct_and_stable() {
        assert_eq!(chunk_seed(42, 0), chunk_seed(42, 0));
        assert_ne!(chunk_seed(42, 0), chunk_seed(42, 1));
        assert_ne!(chunk_seed(42, 0), chunk_seed(43, 0));
    }

    #[test]
    fn wider_windows_never_reduce_addressability() {
        // Common random numbers: the fixed-consumption sampling discipline
        // draws the same values for both runs (same seed, same sigmas), so
        // the wide-window run accepts a superset of the narrow-window run's
        // samples — the comparison is exact per nanowire, with no
        // statistical slack. Gaussian and Laplace take the window path, the
        // correlated model the shared-offset path, the Box–Muller references
        // the general path.
        let variability = variability(CodeKind::Hot, 6, 12);
        let model = VariabilityModel::paper_default();
        let correlated = CorrelatedDisturbance::new(0.5).unwrap();
        for disturbance in [
            &GaussianDisturbance as &dyn DisturbanceModel,
            &LaplaceDisturbance,
            &correlated,
            &CorrelatedDisturbance::new(1.0).unwrap(),
            &GeneralPath(GaussianDisturbance),
            &GeneralPath(correlated),
        ] {
            let run = |window: f64| {
                ExecutionEngine::serial()
                    .monte_carlo_with_disturbance(
                        &variability,
                        &model,
                        Volts::new(window),
                        MonteCarloConfig::fixed(1_000, 9),
                        disturbance,
                    )
                    .unwrap()
            };
            let (narrow, wide) = (run(0.1), run(0.4));
            for (n, (narrow_p, wide_p)) in narrow
                .profile
                .probabilities()
                .iter()
                .zip(wide.profile.probabilities())
                .enumerate()
            {
                assert!(
                    wide_p >= narrow_p,
                    "{disturbance:?} nanowire {n}: wide {wide_p} < narrow {narrow_p}"
                );
            }
            assert!(wide.profile.mean() > narrow.profile.mean());
        }
    }

    #[test]
    fn undoped_regions_pass_any_window_on_both_paths() {
        // Nanowire 0 is undoped everywhere (σ = 0): 0·Z = 0 lies inside
        // every window, even w = 0. Nanowire 1's doped region puts a second
        // σ into the acceptance table. Every model runs its own path and the
        // general path.
        let sigmas = SigmaMatrix {
            values: vec![0.0, 0.0, 0.0, 0.0, 0.05, 0.0],
            nanowires: 2,
            regions: 3,
        };
        for disturbance in [
            &GaussianDisturbance as &dyn DisturbanceModel,
            &LaplaceDisturbance,
            &CorrelatedDisturbance::new(0.0).unwrap(),
            &CorrelatedDisturbance::new(0.5).unwrap(),
            &CorrelatedDisturbance::new(1.0).unwrap(),
        ] {
            for window in [0.0, 0.1, f64::INFINITY] {
                let general = sample_chunk(&sigmas, window, 5, 300, disturbance);
                assert_eq!(general[0], 300, "{disturbance:?} general path, w {window}");
                let kernel = Kernel::new(&sigmas, window, disturbance);
                assert!(!matches!(kernel, Kernel::General { .. }));
                let counts = kernel.sample_chunk(5, 300);
                assert_eq!(counts[0], 300, "{disturbance:?} own path, w {window}");
            }
        }
    }

    /// The shared-offset decision of one nanowire with the exact quantile of
    /// every region, on the table's own arithmetic — the reference the
    /// bracketed [`SharedOffsetTable::wire_passes`] must equal draw for
    /// draw. Also counts the regions whose bracket straddles a bound.
    fn exact_wire_passes(
        table: &SharedOffsetTable,
        windows: &[f64],
        draws: &mut NormalSource<StdRng>,
        straddles: &mut usize,
    ) -> bool {
        let shift = table.shared_weight * normal_quantile(draws.uniform_bits());
        let mut inside = true;
        for &window in windows {
            let bits = draws.uniform_bits();
            let (low, high) = (-window - shift, window - shift);
            let bucket = (bits >> BRACKET_SHIFT) as usize;
            let bracket = table.edges[bucket]..table.edges[bucket + 1];
            *straddles += usize::from(bracket.contains(&low) || bracket.contains(&high));
            inside &= (low..=high).contains(&(table.local_weight * normal_quantile(bits)));
        }
        inside
    }

    #[test]
    fn bracketed_decisions_equal_exact_quantile_decisions() {
        // The tree code's σ's at the paper's defaults, with nanowire 0
        // undoped and one undoped region on nanowire 1.
        let mut sigmas = SigmaMatrix::from_variability(
            &variability(CodeKind::Tree, 8, 6),
            &VariabilityModel::paper_default(),
        )
        .unwrap();
        let regions = sigmas.regions();
        sigmas.values[..regions].fill(0.0);
        sigmas.values[regions + 2] = 0.0;
        for rho in [0.0, 0.5, 1.0] {
            for window in [0.0, 0.1, f64::INFINITY] {
                let table = SharedOffsetTable::build(&sigmas, window, rho);
                // The outer edges are the normals of the extreme draws,
                // ∓8.29 before scaling by √(1−ρ).
                let outer = (1.0 - rho).sqrt() * 8.292_361_075_813_595;
                assert!((table.edges[0] + outer).abs() <= 1e-12);
                assert_eq!(table.edges[BRACKETS], -table.edges[0]);
                let mut bracketed = NormalSource::from_seed(11);
                let mut exact = NormalSource::from_seed(11);
                let mut straddles = 0;
                for sample in 0..2_000 {
                    for (wire, windows) in table.windows.chunks_exact(regions).enumerate() {
                        assert_eq!(
                            table.wire_passes(windows, &mut bracketed),
                            exact_wire_passes(&table, windows, &mut exact, &mut straddles),
                            "ρ {rho}, w {window}, sample {sample}, nanowire {wire}"
                        );
                    }
                }
                // The exact quantile is exercised where a bound can fall
                // inside a bracket.
                if window == 0.1 && rho < 1.0 {
                    assert!(straddles > 100, "ρ {rho}: {straddles} straddling regions");
                }
            }
        }
    }

    #[test]
    fn adaptive_stopping_needs_far_fewer_samples_and_matches_a_fixed_prefix() {
        let variability = variability(CodeKind::Gray, 8, 20);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        let adaptive = serial_gaussian(
            &variability,
            &model,
            window,
            MonteCarloConfig::fixed(20_000, 7).with_target_half_width(0.05),
        )
        .unwrap();
        assert_eq!(adaptive.samples, 20_000);
        // The tentpole target: at least 5× fewer samples than the fixed run
        // on this tight-window configuration.
        assert!(
            adaptive.samples_used * 5 <= 20_000,
            "adaptive run used {} of 20000 samples",
            adaptive.samples_used
        );
        // The stopping decision lands on a chunk boundary.
        assert_eq!(adaptive.samples_used % 256, 0);
        // Determinism contract: the adaptive result is exactly the fixed
        // run over the prefix it kept — same seed, same chunk order.
        let prefix = serial_gaussian(
            &variability,
            &model,
            window,
            MonteCarloConfig::fixed(adaptive.samples_used, 7),
        )
        .unwrap();
        assert_eq!(adaptive.profile, prefix.profile);
        assert_eq!(adaptive.ci_lower, prefix.ci_lower);
        assert_eq!(adaptive.ci_upper, prefix.ci_upper);
        // And the delivered intervals honour the requested target.
        for ((lower, upper), p) in adaptive
            .ci_lower
            .iter()
            .zip(&adaptive.ci_upper)
            .zip(adaptive.profile.probabilities())
        {
            assert!(lower <= p && p <= upper, "CI [{lower}, {upper}] misses {p}");
            assert!(
                upper - lower <= 2.0 * 0.05 + 1e-12,
                "CI [{lower}, {upper}] wider than the target"
            );
        }
    }

    #[test]
    fn unreachable_targets_run_to_the_cap() {
        let variability = variability(CodeKind::Tree, 6, 8);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        let outcome = serial_gaussian(
            &variability,
            &model,
            window,
            MonteCarloConfig::fixed(1_000, 3)
                .with_target_half_width(1e-6)
                .with_max_samples(700),
        )
        .unwrap();
        assert_eq!(outcome.samples, 700);
        assert_eq!(outcome.samples_used, 700);
        // The capped adaptive run equals the fixed run of the same length.
        let fixed = serial_gaussian(
            &variability,
            &model,
            window,
            MonteCarloConfig::fixed(700, 3),
        )
        .unwrap();
        assert_eq!(outcome.profile, fixed.profile);
    }
}
