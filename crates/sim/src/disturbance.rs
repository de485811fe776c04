//! Pluggable dose-disturbance distributions for the Monte-Carlo path.
//!
//! The analytic addressability model integrates **Gaussian** threshold
//! disturbances in closed form; that is the one distribution it can handle.
//! The Monte-Carlo sampler has no such restriction, so its region-disturbance
//! generator is a trait, [`DisturbanceModel`], with three stock
//! implementations:
//!
//! * [`GaussianDisturbance`] — the paper's model, and the default.
//! * [`LaplaceDisturbance`] — heavy-tailed dose noise via the inverse CDF,
//!   scaled to the same per-region variance `σ²` as the Gaussian so the two
//!   differ only in tail shape.
//! * [`CorrelatedDisturbance`] — a shared per-nanowire offset plus
//!   independent per-region noise (systematic dose drift on top of local
//!   randomness). `1 + M` draws per nanowire of `M` regions.
//!
//! # Sampling paths
//!
//! A region passes when its deviation lies inside the decision window. For a
//! model whose deviation is a monotone function of one uniform draw, that is
//! the same as the draw lying in a fixed range, so the sampler never needs
//! the deviation itself. Such a model returns the range from
//! [`DisturbanceModel::accepted_draws`], and the sampler spends **one draw
//! and one compare per region** (the *window path*):
//!
//! * Gaussian: `|σZ| ≤ w` exactly when `u ∈ [Φ(−w/σ), Φ(w/σ)]`, with `Φ(−c)`
//!   from the tail-accurate [`erfc`]. This path does **not**
//!   replay the Box–Muller stream the general path draws, so Gaussian
//!   estimates differ from those of earlier releases for the same seed (in
//!   distribution they agree; the analytic-vs-Monte-Carlo gate checks both).
//! * Laplace: the range is found by bisection on the inverse-CDF predicate
//!   [`LaplaceDisturbance::sample_regions`] evaluates, so both paths accept
//!   exactly the same draws and Laplace estimates are bit-identical either
//!   way.
//!
//! A correlated region's range moves with its nanowire's shared offset, so
//! the correlated model instead declares its shared variance fraction
//! through [`DisturbanceModel::shared_offset_fraction`] and takes the
//! *shared-offset path*: one exact normal per nanowire for the offset, and
//! per region one draw whose normal is bracketed by a quantile table and
//! computed only when the bracket straddles the window (see
//! [`crate::monte_carlo`]). Like the Gaussian's, its estimates differ from
//! those of earlier releases for the same seed and agree in distribution.
//!
//! Custom models keep both defaults and take the *general path*:
//! [`DisturbanceModel::sample_regions`] fills each nanowire's deviations and
//! the sampler checks them against the window. Box–Muller sampling stays
//! available there, through [`GaussianDisturbance::sample_regions`] and
//! [`CorrelatedDisturbance::sample_regions`], as the independent reference
//! the other two paths are checked against.
//!
//! # Fixed-consumption contract
//!
//! Whatever the distribution, a model must draw a **fixed number** of values
//! from the source per nanowire, depending only on the region count — never
//! on the sampled values, the window, or the acceptance outcome. The window
//! path draws exactly one 53-bit uniform per region, the shared-offset path
//! `1 + M` per nanowire of `M` regions; on the general path the model's own
//! discipline applies. This is the common-random-numbers
//! discipline documented in [`crate::monte_carlo`]: it keeps chunked
//! sampling bit-identical for any thread count and makes same-seed
//! comparisons across windows exact.
//!
//! [`DisturbanceKind`] is the serializable, config-friendly enumeration of
//! the stock models; custom models plug in through
//! [`ExecutionEngine::monte_carlo_with_disturbance`](crate::ExecutionEngine::monte_carlo_with_disturbance).

use std::fmt;
use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::error::{Result, SimError};
use crate::monte_carlo::{unit_interval, NormalSource, UNIFORM_DRAWS};
use crate::stats::erfc;

/// A distribution of per-region threshold-voltage disturbances, sampled one
/// nanowire at a time.
///
/// Implementations must obey the module-level fixed-consumption contract:
/// the number of draws taken from `draws` may depend only on `sigmas.len()`.
///
/// # Examples
///
/// A custom distribution — uniform dose noise on `[-σ√3, σ√3]`, which has the
/// same variance `σ²` as the stock models:
///
/// ```
/// use decoder_sim::{DisturbanceModel, NormalSource};
/// use rand::rngs::StdRng;
///
/// #[derive(Debug)]
/// struct UniformDisturbance;
///
/// impl DisturbanceModel for UniformDisturbance {
///     fn sample_regions(
///         &self,
///         sigmas: &[f64],
///         draws: &mut NormalSource<StdRng>,
///         out: &mut [f64],
///     ) {
///         // One uniform per region: fixed consumption, as required.
///         for (slot, &sigma) in out.iter_mut().zip(sigmas) {
///             *slot = sigma * 3f64.sqrt() * (2.0 * draws.uniform() - 1.0);
///         }
///     }
/// }
///
/// let sigmas = [0.1, 0.2, 0.3];
/// let mut draws = NormalSource::from_seed(7);
/// let mut deviations = [0.0f64; 3];
/// UniformDisturbance.sample_regions(&sigmas, &mut draws, &mut deviations);
/// assert!(deviations
///     .iter()
///     .zip(&sigmas)
///     .all(|(d, s)| d.abs() <= s * 3f64.sqrt()));
/// // No acceptance range and no shared offset: the sampler takes the
/// // general path.
/// assert_eq!(UniformDisturbance.accepted_draws(0.1, 0.05), None);
/// assert_eq!(UniformDisturbance.shared_offset_fraction(), None);
/// ```
pub trait DisturbanceModel: fmt::Debug + Send + Sync {
    /// Fills `out` with one sampled disturbance per doping region of one
    /// nanowire; `sigmas[j]` is the standard deviation the analytic model
    /// assigns to region `j` (`out.len() == sigmas.len()`).
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]);

    /// The 53-bit draws `k < 2⁵³` (the top bits of the generator's next
    /// `u64`, the integer behind [`NormalSource::uniform`]`() = k / 2⁵³`)
    /// for which a region of standard deviation `sigma`, sampled from that
    /// single uniform, lands inside a decision window of half-width
    /// `half_width` — or `None` when the model has no such range and the
    /// sampler must go through [`sample_regions`](Self::sample_regions).
    ///
    /// The sampler calls this once per distinct `sigma` of an estimate and
    /// takes the window path only when every cell has a range; it then
    /// draws one uniform per region in row-major order, accepting a region
    /// when its draw lies in the (possibly empty) range. `half_width` is
    /// non-negative and may be `+∞`. The provided body returns `None`.
    fn accepted_draws(&self, sigma: f64, half_width: f64) -> Option<RangeInclusive<u64>> {
        let _ = (sigma, half_width);
        None
    }

    /// The fraction `ρ ∈ [0, 1]` of every region's variance carried by one
    /// standard-normal offset `Z₀` that all regions of a nanowire share, when
    /// the model is region `j` deviating by `σ_j · (√ρ · Z₀ + √(1−ρ) · Z_j)`
    /// with independent standard normals `Z_j` — or `None` for any other
    /// model.
    ///
    /// When the model has no [`accepted_draws`](Self::accepted_draws) range
    /// and returns a `ρ` in `[0, 1]` here, the sampler takes the
    /// shared-offset path and never calls
    /// [`sample_regions`](Self::sample_regions): per nanowire it draws `Z₀`
    /// from one 53-bit uniform and each `Z_j` from one more, in region order.
    /// The provided body returns `None`.
    fn shared_offset_fraction(&self) -> Option<f64> {
        None
    }
}

/// The paper's Gaussian disturbance: region `j` deviates by `σ_j · Z` with
/// `Z` standard normal.
///
/// The sampler accepts Gaussian regions in uniform space
/// ([`accepted_draws`](DisturbanceModel::accepted_draws)).
/// [`sample_regions`](DisturbanceModel::sample_regions) still draws one
/// Box–Muller normal per region, in region order — the reference sampler
/// the window path is validated against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaussianDisturbance;

impl DisturbanceModel for GaussianDisturbance {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot = sigma * draws.sample();
        }
    }

    /// `|σZ| ≤ w` holds exactly when `Z ∈ [−c, c]` with `c = w/|σ|`, i.e.
    /// when the uniform lies in `[Φ(−c), Φ(c)] = [Φ(−c), 1 − Φ(−c)]`: the
    /// draws `⌈Φ(−c)·2⁵³⌉ ..= 2⁵³ − ⌈Φ(−c)·2⁵³⌉`. An undoped region
    /// (`σ = 0`) and an infinite window accept every draw.
    fn accepted_draws(&self, sigma: f64, half_width: f64) -> Option<RangeInclusive<u64>> {
        if sigma.is_nan() {
            return None;
        }
        if sigma == 0.0 || half_width == f64::INFINITY {
            return Some(0..=UNIFORM_DRAWS);
        }
        let tail = 0.5 * erfc(half_width / sigma.abs() * std::f64::consts::FRAC_1_SQRT_2);
        // `tail ≤ ½`, so the product is at most 2⁵² and the cast is exact.
        let low = (tail * UNIFORM_DRAWS as f64).ceil() as u64;
        Some(low..=UNIFORM_DRAWS - low)
    }
}

/// Heavy-tailed Laplace dose noise, sampled by inverse CDF from one uniform
/// per region and scaled to variance `σ_j²` (Laplace scale `b = σ/√2`), so it
/// is directly comparable to [`GaussianDisturbance`]: same second moment,
/// fatter tails (excess kurtosis 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaplaceDisturbance;

impl LaplaceDisturbance {
    /// The deviation of a region of standard deviation `sigma` sampled from
    /// the uniform `u ∈ [0, 1)` — the one predicate both sampling paths
    /// evaluate.
    fn deviation(sigma: f64, u: f64) -> f64 {
        // Inverse CDF of the centred Laplace with scale b:
        // x = -b·sgn(t)·ln(1 − 2|t|), t = u − ½ ∈ [−½, ½).
        let t = u - 0.5;
        let scale = sigma / std::f64::consts::SQRT_2;
        let arg = (1.0 - 2.0 * t.abs()).max(f64::MIN_POSITIVE);
        -scale * t.signum() * arg.ln()
    }
}

impl DisturbanceModel for LaplaceDisturbance {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot = Self::deviation(sigma, draws.uniform());
        }
    }

    /// For a draw `k`, `t = k/2⁵³ − ½` and `1 − 2|t| = m/2⁵²` are exact,
    /// with `m = 2⁵² − |k − 2⁵²|`; the deviation's magnitude depends on `k`
    /// only through `m` and never grows with it. So the passing draws are
    /// exactly those with `m ≥ m*`, i.e. `m* ..= 2⁵³ − m*`, where `m*` — the
    /// smallest passing `m` — is found by bisection on
    /// [`sample_regions`](DisturbanceModel::sample_regions)' own arithmetic.
    fn accepted_draws(&self, sigma: f64, half_width: f64) -> Option<RangeInclusive<u64>> {
        let passes = |m: u64| Self::deviation(sigma, unit_interval(m)).abs() <= half_width;
        let centre = UNIFORM_DRAWS / 2;
        if !passes(centre) {
            // Only a non-finite σ fails the zero deviation at u = ½; its
            // predicate is not monotone, so leave it to the general path.
            return None;
        }
        if passes(0) {
            return Some(0..=UNIFORM_DRAWS);
        }
        let (mut failing, mut passing) = (0, centre);
        while passing - failing > 1 {
            let middle = failing + (passing - failing) / 2;
            if passes(middle) {
                passing = middle;
            } else {
                failing = middle;
            }
        }
        Some(passing..=UNIFORM_DRAWS - passing)
    }
}

/// Correlated inter-region disturbance: one shared offset per nanowire (a
/// systematic dose drift hitting every region of the wire) plus independent
/// per-region noise, mixed so each region keeps variance `σ_j²`:
///
/// `ΔV_j = σ_j · (√ρ · Z₀ + √(1−ρ) · Z_j)`
///
/// where `ρ` is the [`shared_fraction`](CorrelatedDisturbance::shared_fraction)
/// of the variance carried by the shared offset `Z₀`. `ρ = 0` degenerates to
/// the Gaussian model (but consumes one extra draw per nanowire); `ρ = 1`
/// moves every region of a wire in lockstep.
///
/// The sampler takes the shared-offset path for this model
/// ([`shared_offset_fraction`](DisturbanceModel::shared_offset_fraction)).
/// [`sample_regions`](DisturbanceModel::sample_regions) still draws `1 + M`
/// Box–Muller normals per nanowire, the offset first — the reference
/// sampler that path is validated against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedDisturbance {
    shared_fraction: f64,
}

impl CorrelatedDisturbance {
    /// Creates a correlated model with the given shared variance fraction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `shared_fraction` is outside
    /// `[0, 1]` or not finite.
    pub fn new(shared_fraction: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&shared_fraction) || !shared_fraction.is_finite() {
            return Err(SimError::InvalidConfig {
                reason: format!("shared variance fraction {shared_fraction} is outside [0, 1]"),
            });
        }
        Ok(CorrelatedDisturbance { shared_fraction })
    }

    /// The fraction of each region's variance carried by the shared
    /// per-nanowire offset.
    #[must_use]
    pub fn shared_fraction(&self) -> f64 {
        self.shared_fraction
    }
}

impl DisturbanceModel for CorrelatedDisturbance {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        let shared = draws.sample();
        let shared_weight = self.shared_fraction.sqrt();
        let local_weight = (1.0 - self.shared_fraction).sqrt();
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot = sigma * (shared_weight * shared + local_weight * draws.sample());
        }
    }

    fn shared_offset_fraction(&self) -> Option<f64> {
        Some(self.shared_fraction)
    }
}

/// The serializable selection of a stock disturbance model — the form a
/// distribution takes inside [`SimConfig`](crate::SimConfig) and sweep
/// configurations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum DisturbanceKind {
    /// [`GaussianDisturbance`] — the paper's model and the default.
    #[default]
    Gaussian,
    /// [`LaplaceDisturbance`] — heavy-tailed dose noise.
    Laplace,
    /// [`CorrelatedDisturbance`] — shared per-nanowire offset plus
    /// independent region noise.
    Correlated {
        /// Fraction of each region's variance carried by the shared offset.
        shared_fraction: f64,
    },
}

impl DisturbanceKind {
    /// Instantiates the selected model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the kind's parameters are
    /// invalid (a correlated fraction outside `[0, 1]`).
    pub fn model(&self) -> Result<Box<dyn DisturbanceModel>> {
        Ok(match *self {
            DisturbanceKind::Gaussian => Box::new(GaussianDisturbance),
            DisturbanceKind::Laplace => Box::new(LaplaceDisturbance),
            DisturbanceKind::Correlated { shared_fraction } => {
                Box::new(CorrelatedDisturbance::new(shared_fraction)?)
            }
        })
    }
}

impl fmt::Display for DisturbanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisturbanceKind::Gaussian => write!(f, "gaussian"),
            DisturbanceKind::Laplace => write!(f, "laplace"),
            DisturbanceKind::Correlated { shared_fraction } => {
                write!(f, "correlated(ρ={shared_fraction:.2})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draws `count` single-region samples with unit sigma.
    fn draw(model: &dyn DisturbanceModel, count: usize, seed: u64) -> Vec<f64> {
        let mut draws = NormalSource::from_seed(seed);
        let mut out = [0.0f64];
        (0..count)
            .map(|_| {
                model.sample_regions(&[1.0], &mut draws, &mut out);
                out[0]
            })
            .collect()
    }

    fn mean_and_variance(samples: &[f64]) -> (f64, f64) {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let variance =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        (mean, variance)
    }

    #[test]
    fn all_stock_models_have_zero_mean_and_unit_variance() {
        for kind in [
            DisturbanceKind::Gaussian,
            DisturbanceKind::Laplace,
            DisturbanceKind::Correlated {
                shared_fraction: 0.5,
            },
        ] {
            let samples = draw(kind.model().unwrap().as_ref(), 40_000, 123);
            let (mean, variance) = mean_and_variance(&samples);
            assert!(mean.abs() < 0.03, "{kind}: mean {mean}");
            assert!((variance - 1.0).abs() < 0.05, "{kind}: variance {variance}");
        }
    }

    #[test]
    fn laplace_tails_are_heavier_than_gaussian() {
        let gaussian = draw(&GaussianDisturbance, 40_000, 9);
        let laplace = draw(&LaplaceDisturbance, 40_000, 9);
        let beyond = |samples: &[f64]| samples.iter().filter(|x| x.abs() > 3.0).count();
        // P(|X| > 3σ): ≈ 0.27 % Gaussian vs ≈ 1.4 % Laplace at equal variance.
        assert!(
            beyond(&laplace) > 2 * beyond(&gaussian),
            "laplace {} vs gaussian {}",
            beyond(&laplace),
            beyond(&gaussian)
        );
        // Excess kurtosis: ≈ 0 for the Gaussian, ≈ 3 for the Laplace.
        let kurtosis = |samples: &[f64]| {
            let (mean, variance) = mean_and_variance(samples);
            samples.iter().map(|x| (x - mean).powi(4)).sum::<f64>()
                / (samples.len() as f64 * variance * variance)
                - 3.0
        };
        assert!(kurtosis(&gaussian).abs() < 0.5);
        assert!(kurtosis(&laplace) > 1.5);
    }

    #[test]
    fn correlated_regions_share_their_offset() {
        let model = CorrelatedDisturbance::new(0.8).unwrap();
        let mut draws = NormalSource::from_seed(11);
        let sigmas = [1.0, 1.0];
        let mut out = [0.0f64; 2];
        let pairs: Vec<(f64, f64)> = (0..20_000)
            .map(|_| {
                model.sample_regions(&sigmas, &mut draws, &mut out);
                (out[0], out[1])
            })
            .collect();
        let covariance = pairs.iter().map(|(a, b)| a * b).sum::<f64>() / pairs.len() as f64;
        // Corr(ΔV_i, ΔV_j) = ρ for i ≠ j.
        assert!(
            (covariance - 0.8).abs() < 0.05,
            "inter-region correlation {covariance}"
        );

        // ρ = 1: every region of a nanowire moves in lockstep.
        let lockstep = CorrelatedDisturbance::new(1.0).unwrap();
        lockstep.sample_regions(&sigmas, &mut draws, &mut out);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn consumption_is_fixed_per_nanowire() {
        // Two different windows or sampled magnitudes never change how many
        // draws a model takes: after sampling the same nanowire count, two
        // sources produce the same next value.
        for kind in [
            DisturbanceKind::Gaussian,
            DisturbanceKind::Laplace,
            DisturbanceKind::Correlated {
                shared_fraction: 0.3,
            },
        ] {
            let model = kind.model().unwrap();
            let mut a = NormalSource::from_seed(77);
            let mut b = NormalSource::from_seed(77);
            let mut out = [0.0f64; 3];
            model.sample_regions(&[0.1, 0.2, 0.3], &mut a, &mut out);
            model.sample_regions(&[10.0, 20.0, 30.0], &mut b, &mut out);
            assert_eq!(a.sample(), b.sample(), "{kind}: consumption diverged");
        }
    }

    #[test]
    fn laplace_draw_ranges_are_exactly_the_inverse_cdf_predicate() {
        // The range must hold every draw the general path accepts and no
        // other: check both edges, their outside neighbours, the extreme
        // draws and a spread of draws in between.
        let passes = |sigma: f64, half_width: f64, k: u64| {
            LaplaceDisturbance::deviation(sigma, unit_interval(k)).abs() <= half_width
        };
        let last = UNIFORM_DRAWS - 1;
        for sigma in [0.0, 1e-9, 0.013, 0.05, 0.2, 3.0] {
            for half_width in [0.0, 1e-12, 0.01, 0.1, 0.25, 1.0, 100.0, f64::INFINITY] {
                let range = LaplaceDisturbance
                    .accepted_draws(sigma, half_width)
                    .expect("Laplace always has a range");
                let mut probes = vec![0, 1, last - 1, last, UNIFORM_DRAWS / 2];
                if !range.is_empty() {
                    let (start, end) = (*range.start(), (*range.end()).min(last));
                    probes.extend([start, end, start.saturating_sub(1), (end + 1).min(last)]);
                }
                probes.extend((1..64u64).map(|i| i * (UNIFORM_DRAWS / 64) + i));
                for k in probes {
                    assert_eq!(
                        range.contains(&k),
                        passes(sigma, half_width, k),
                        "σ {sigma}, w {half_width}, draw {k}, range {range:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gaussian_draw_ranges_carry_the_normal_mass() {
        // 1 − 2Φ(−c) from Python's `math.erf(c/√2)`.
        for (c, mass) in [
            (0.5, 0.382_924_922_548_026_2),
            (1.0, 0.682_689_492_137_085_9),
            (2.0, 0.954_499_736_103_641_6),
            (3.0, 0.997_300_203_936_739_8),
            (5.0, 0.999_999_426_696_856_3),
        ] {
            let range = GaussianDisturbance.accepted_draws(0.04, c * 0.04).unwrap();
            let accepted = (range.end() - range.start() + 1) as f64 / UNIFORM_DRAWS as f64;
            assert!(
                (accepted - mass).abs() < 1e-15,
                "c = {c}: {accepted} vs {mass}"
            );
            // Symmetric about the median draw.
            assert_eq!(range.start() + range.end(), UNIFORM_DRAWS);
        }
        // Undoped regions and infinite windows accept every draw; a zero
        // window accepts only the median draw, where Z = 0.
        let all = 0..=UNIFORM_DRAWS;
        assert_eq!(
            GaussianDisturbance.accepted_draws(0.0, 0.0),
            Some(all.clone())
        );
        assert_eq!(
            GaussianDisturbance.accepted_draws(0.0, 0.3),
            Some(all.clone())
        );
        assert_eq!(
            GaussianDisturbance.accepted_draws(0.1, f64::INFINITY),
            Some(all)
        );
        let median = UNIFORM_DRAWS / 2;
        assert_eq!(
            GaussianDisturbance.accepted_draws(0.1, 0.0),
            Some(median..=median)
        );
        // A wider window's range contains the narrower one's.
        let narrow = GaussianDisturbance.accepted_draws(0.05, 0.1).unwrap();
        let wide = GaussianDisturbance.accepted_draws(0.05, 0.11).unwrap();
        assert!(wide.start() < narrow.start() && narrow.end() < wide.end());
    }

    #[test]
    fn only_gaussian_and_laplace_have_draw_ranges() {
        let correlated = CorrelatedDisturbance::new(0.5).unwrap();
        assert_eq!(correlated.accepted_draws(0.1, 0.2), None);
        assert!(GaussianDisturbance.accepted_draws(0.1, 0.2).is_some());
        assert!(LaplaceDisturbance.accepted_draws(0.1, 0.2).is_some());
        // Only the correlated model has a shared offset.
        assert_eq!(correlated.shared_offset_fraction(), Some(0.5));
        assert_eq!(GaussianDisturbance.shared_offset_fraction(), None);
        assert_eq!(LaplaceDisturbance.shared_offset_fraction(), None);
    }

    #[test]
    fn invalid_correlation_fractions_are_rejected() {
        assert!(CorrelatedDisturbance::new(-0.1).is_err());
        assert!(CorrelatedDisturbance::new(1.1).is_err());
        assert!(CorrelatedDisturbance::new(f64::NAN).is_err());
        assert!(DisturbanceKind::Correlated {
            shared_fraction: 2.0
        }
        .model()
        .is_err());
        assert!(
            CorrelatedDisturbance::new(0.0)
                .unwrap()
                .shared_fraction()
                .abs()
                < f64::EPSILON
        );
    }

    #[test]
    fn kinds_render_and_default_to_gaussian() {
        assert_eq!(DisturbanceKind::default(), DisturbanceKind::Gaussian);
        assert_eq!(DisturbanceKind::Gaussian.to_string(), "gaussian");
        assert_eq!(DisturbanceKind::Laplace.to_string(), "laplace");
        assert_eq!(
            DisturbanceKind::Correlated {
                shared_fraction: 0.5
            }
            .to_string(),
            "correlated(ρ=0.50)"
        );
    }
}
