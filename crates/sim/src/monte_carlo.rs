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
//! An estimate samples in one of two ways, chosen from the
//! [`DisturbanceModel`] itself (see [`crate::disturbance`]):
//!
//! * **Window path** — when the model returns a range of accepted uniform
//!   draws for every (nanowire, region) cell
//!   ([`DisturbanceModel::accepted_draws`]; Gaussian and Laplace do), the
//!   ranges are computed once per distinct σ of the estimate, and each cell
//!   then costs one 53-bit draw and one integer compare. No deviation is
//!   ever materialised. The Gaussian model therefore no longer replays the
//!   Box–Muller stream: same distribution, different samples for a seed.
//! * **General path** — otherwise (correlated and custom models), each
//!   nanowire's deviations are filled by
//!   [`DisturbanceModel::sample_regions`] and checked against the window.
//!   A Gaussian model that only implements `sample_regions` samples
//!   Box–Muller normals here: the reference the window path is checked
//!   against.
//!
//! # Sampling discipline (common random numbers)
//!
//! Every region is drawn **unconditionally**: a sample consumes the same
//! number of draws per nanowire whether or not an early region already
//! fell outside the window — one uniform per region on the window path, the
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

// The stream-splitting primitive is shared with the defect-map sharding in
// `crossbar-array`; both determinism contracts rest on the same function.
pub(crate) use crossbar_array::chunk_seed;

use crate::disturbance::DisturbanceModel;
use crate::error::{Result, SimError};

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
/// adaptive knobs on with the `with_*` builders. A configuration carries its
/// sampling knobs in [`SimConfig::monte_carlo`](crate::SimConfig::monte_carlo);
/// no environment variable overrides them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of sampled array instances (the exact count in fixed mode;
    /// the default cap in adaptive mode).
    pub samples: usize,
    /// Seed of the deterministic random-number generator.
    pub seed: u64,
    /// When set, enables adaptive stopping: sampling ends at the first
    /// chunk boundary where every nanowire's Wilson-interval half-width is
    /// at most this value. Serde/codec-defaulted to `None`, so
    /// configurations serialized before the field existed keep the fixed
    /// behaviour.
    #[serde(default)]
    pub target_half_width: Option<f64>,
    /// Confidence level of the Wilson stopping interval (and of the
    /// [`MonteCarloOutcome`] CI bounds), strictly inside `(0, 1)`.
    /// Defaulted to [`DEFAULT_MC_CONFIDENCE`] for pre-field configurations.
    #[serde(default = "default_mc_confidence")]
    pub confidence: f64,
    /// Explicit ceiling on drawn samples in adaptive mode; `None` means
    /// [`samples`](Self::samples) is the cap. Ignored in fixed mode.
    #[serde(default)]
    pub max_samples: Option<usize>,
}

/// Serde default hook for [`MonteCarloConfig::confidence`].
fn default_mc_confidence() -> f64 {
    DEFAULT_MC_CONFIDENCE
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
            confidence: default_mc_confidence(),
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
    // `NaN < 0.0` is false, and a NaN window would reject every region
    // silently: an all-zero profile instead of an error.
    if window.value().is_nan() || window.value() < 0.0 {
        return Err(SimError::InvalidConfig {
            reason: format!("decision window must be non-negative, got {window}"),
        });
    }
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

/// The number of distinct 53-bit draws: [`NormalSource::uniform_bits`]
/// returns values below it.
pub(crate) const UNIFORM_DRAWS: u64 = 1 << 53;

/// The uniform in `[0, 1)` a 53-bit draw stands for: `bits / 2⁵³`, exact.
pub(crate) fn unit_interval(bits: u64) -> f64 {
    bits as f64 * (1.0 / UNIFORM_DRAWS as f64)
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

/// The largest absolute difference between the analytic and Monte-Carlo
/// per-nanowire probabilities — used by tests and the ablation bench to show
/// the two paths agree.
#[must_use]
pub fn max_profile_difference(
    analytic: &AddressabilityProfile,
    sampled: &AddressabilityProfile,
) -> f64 {
    analytic
        .probabilities()
        .iter()
        .zip(sampled.probabilities())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::RangeInclusive;

    use crate::disturbance::{GaussianDisturbance, LaplaceDisturbance};
    use crate::engine::ExecutionEngine;
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

    /// Box–Muller Gaussian sampling with every σ scaled by `self.0`: only
    /// `sample_regions`, so the engine samples it on the general path. At
    /// scale 1 it is the reference sampler of the analytic gate.
    #[derive(Debug)]
    struct BoxMuller(f64);

    impl DisturbanceModel for BoxMuller {
        fn sample_regions(
            &self,
            sigmas: &[f64],
            draws: &mut NormalSource<StdRng>,
            out: &mut [f64],
        ) {
            for (slot, &sigma) in out.iter_mut().zip(sigmas) {
                *slot = self.0 * sigma * draws.sample();
            }
        }
    }

    /// The Gaussian window sampler with every σ scaled by `self.0`.
    #[derive(Debug)]
    struct ScaledWindow(f64);

    impl DisturbanceModel for ScaledWindow {
        fn sample_regions(
            &self,
            sigmas: &[f64],
            draws: &mut NormalSource<StdRng>,
            out: &mut [f64],
        ) {
            BoxMuller(self.0).sample_regions(sigmas, draws, out);
        }

        fn accepted_draws(&self, sigma: f64, half_width: f64) -> Option<RangeInclusive<u64>> {
            GaussianDisturbance.accepted_draws(self.0 * sigma, half_width)
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

    /// The 15 Fig. 7/8 points: tree, Gray and balanced Gray codes at
    /// M = 6, 8, 10 and hot and arranged-hot codes at M = 4, 6, 8, binary,
    /// paper defaults. Each comes with its analytic profile.
    fn figure_points() -> Vec<(String, VariabilityMatrix, VariabilityModel, Volts, Vec<f64>)> {
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
                    points.push((
                        format!("{kind:?} M={length}"),
                        platform.variability().unwrap(),
                        config.variability_model().unwrap(),
                        config.decision_window().unwrap(),
                        platform.addressability().unwrap().probabilities().to_vec(),
                    ));
                }
            }
        }
        points
    }

    /// The analytic-vs-Monte-Carlo gate: every (point, nanowire) count must
    /// pass an exact two-sided binomial test against the analytic
    /// probability, at a Bonferroni share of the family-wise `alpha`.
    /// Returns the failing pairs.
    fn analytic_gate_failures(
        points: &[(String, VariabilityMatrix, VariabilityModel, Volts, Vec<f64>)],
        disturbance: &dyn DisturbanceModel,
        samples: usize,
        alpha: f64,
    ) -> Vec<String> {
        let pairs: usize = points.iter().map(|point| point.4.len()).sum();
        let level = alpha / pairs as f64 / 2.0;
        let mut failures = Vec::new();
        for (seed, (name, variability, model, window, analytic)) in points.iter().enumerate() {
            let outcome = ExecutionEngine::serial()
                .monte_carlo_with_disturbance(
                    variability,
                    model,
                    *window,
                    MonteCarloConfig::fixed(samples, 0x6a7e + seed as u64),
                    disturbance,
                )
                .unwrap();
            for (wire, (&p_hat, &p)) in outcome
                .profile
                .probabilities()
                .iter()
                .zip(analytic)
                .enumerate()
            {
                let successes = (p_hat * samples as f64).round() as usize;
                let (lower, upper) = binomial_tails(samples, successes, p);
                if lower < level || upper < level {
                    failures.push(format!(
                        "{name} wire {wire}: {successes}/{samples} vs p {p}"
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
        for (name, sampler) in [
            ("window", &GaussianDisturbance as &dyn DisturbanceModel),
            ("Box–Muller reference", &BoxMuller(1.0)),
        ] {
            let failures = analytic_gate_failures(&points, sampler, SAMPLES, ALPHA);
            assert!(failures.is_empty(), "{name} sampler: {failures:#?}");
        }
        // The gate has power: a sampler whose σ is 5 % too wide fails it.
        for (name, sampler) in [
            ("window", &ScaledWindow(1.05) as &dyn DisturbanceModel),
            ("Box–Muller", &BoxMuller(1.05)),
        ] {
            let failures = analytic_gate_failures(&points, sampler, SAMPLES, ALPHA);
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
        // statistical slack. Gaussian and Laplace take the window path,
        // the Box–Muller reference the general path.
        let variability = variability(CodeKind::Hot, 6, 12);
        let model = VariabilityModel::paper_default();
        for disturbance in [
            &GaussianDisturbance as &dyn DisturbanceModel,
            &LaplaceDisturbance,
            &BoxMuller(1.0),
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
        // σ into the acceptance table.
        let sigmas = SigmaMatrix {
            values: vec![0.0, 0.0, 0.0, 0.0, 0.05, 0.0],
            nanowires: 2,
            regions: 3,
        };
        for disturbance in [
            &GaussianDisturbance as &dyn DisturbanceModel,
            &LaplaceDisturbance,
            &BoxMuller(1.0),
        ] {
            for window in [0.0, 0.1, f64::INFINITY] {
                let general = sample_chunk(&sigmas, window, 5, 300, disturbance);
                assert_eq!(general[0], 300, "{disturbance:?} general path, w {window}");
                if let Some(table) = AcceptanceTable::build(&sigmas, window, disturbance) {
                    let counts = table.sample_chunk(5, 300);
                    assert_eq!(counts[0], 300, "{disturbance:?} window path, w {window}");
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
