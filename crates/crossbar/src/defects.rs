//! Defect injection — an extension beyond the paper's scope.
//!
//! The paper explicitly neglects broken nanowires ("we actually noticed that
//! the fabricated nanowires had a yield close to unit") and molecular-switch
//! defects. Real MSPT arrays of very high aspect ratio will eventually break
//! some spacers, so this module models the two first-order defect mechanisms
//! and composes them with the decoder yield:
//!
//! * **broken nanowires** — a nanowire that is mechanically interrupted can
//!   never conduct, independent of its decoder pattern;
//! * **stuck crosspoints** — a crosspoint whose molecular/phase-change layer
//!   is shorted or open, independent of the decoders.
//!
//! Both defect types are independent of the decoder-induced losses, so the
//! composite crossbar yield is the product of the three factors.
//!
//! # Chunked map layout (determinism contract)
//!
//! [`DefectModel::sample_map`] draws a map not from one long RNG stream but
//! from **independently seeded chunks**, so map generation can be sharded
//! across threads (see `decoder_sim::ExecutionEngine::sample_defect_map`)
//! while staying bit-identical for any thread count:
//!
//! * chunk `0` — the row-breakage vector, one uniform per row;
//! * chunk `1` — the column-breakage vector, one uniform per column;
//! * chunk `2 + r` — row `r` of the crosspoint-defect matrix.
//!
//! Chunk `c` is seeded [`chunk_seed`]`(seed ^ DOMAIN, c)`, where `DOMAIN` is
//! a fixed defect-map tag: a Monte-Carlo estimation and a defect map sharing
//! one run seed therefore draw from *decorrelated* streams instead of
//! replaying each other's uniforms.
//!
//! A row decides 64 crosspoints per draw. Column `c` owns a 53-bit uniform
//! `k`, drawn most significant bit first: step `j` of the row draws one
//! `u64` per 64-column word, and bit `c % 64` of word `c / 64` is bit
//! `52 − j` of column `c`'s `k`. The crosspoint is defective iff `k < t`,
//! where `t = ⌈rate · 2⁵³⌉` (`uniform_threshold`), so with probability
//! exactly `t / 2⁵³`. A column is decided at the first bit where its `k`
//! differs from `t`, and one still level with `t` once `t`'s lowest set bit
//! has passed is not below it, so a row stops drawing as soon as every column
//! is decided: a 363-column row takes about ten steps of six draws. `t = 0`
//! and `t = 2⁵³` draw nothing.
//!
//! How far a row draws depends on its values and its rate, but no other row
//! reads its stream, so a map depends only on `(rates, rows, columns, seed)`:
//! never on which thread samples which row, nor on the [`DEFECT_BAND_ROWS`]
//! rows a thread takes at a time. Each column's `k` is the same at every
//! rate, so a seed's defective crosspoints at one rate are among those at
//! any higher rate (common random numbers), as its broken nanowires are.
//!
//! # Streamed counts
//!
//! A report reads one number from a sampled instance: the fraction of usable
//! crosspoints. [`DefectModel::count_usable`] computes it without building
//! the map. It draws the two breakage chunks, then counts the rows a band at
//! a time through a [`UsableCounter`], with the row sampler the map uses. It
//! skips a broken row without drawing, and decides only the intact columns
//! of an intact row, adding those with a working switch. The count therefore
//! equals the map's count for every `(rates, rows, columns, seed)`, and
//! [`survival_fraction`] turns either into the same bits. Band counts are
//! integers, so a sharded count (`decoder_sim::ExecutionEngine::count_usable`)
//! adds them in any order and still matches.
//!
//! # Size bound
//!
//! Every sampler, map or count, checks its dimensions with
//! [`check_defect_dimensions`] before it draws or allocates anything: both
//! positive, and `rows × columns` (a checked multiplication) at most
//! [`MAX_DEFECT_CROSSPOINTS`].

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::{CrossbarError, Result};
use crate::yield_model::CaveYield;

/// Derives the RNG seed of one deterministic work chunk from a run seed and
/// the chunk index — a SplitMix64-style finalizer, so neighbouring chunks get
/// well-separated generator states and the mapping depends on nothing else.
///
/// This is the workspace-wide stream-splitting primitive: the Monte-Carlo
/// sampler in `decoder-sim` seeds its sample chunks with it directly, and
/// [`DefectModel::sample_map`] seeds its map chunks with it through a
/// defect-map domain tag (see the module docs), so the two samplers never
/// replay each other's streams for a shared run seed. Both contracts
/// ("bit-identical for any thread count") rest on this function being pure in
/// `(seed, chunk_index)`.
#[must_use]
pub fn chunk_seed(seed: u64, chunk_index: u64) -> u64 {
    let mut z = seed.wrapping_add(
        chunk_index
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of crossbar rows per defect-map band, the unit of work a sharded
/// map or count hands to a thread. Every row draws from a stream of its own,
/// so maps and counts depend neither on this value nor on the thread count.
pub const DEFECT_BAND_ROWS: usize = 64;

/// Number of [`DEFECT_BAND_ROWS`]-row bands a `rows`-row defect map is
/// sampled in (the last band may be shorter).
#[must_use]
pub fn defect_band_count(rows: usize) -> usize {
    rows.div_ceil(DEFECT_BAND_ROWS)
}

/// The largest crosspoint count (`rows × columns`) a defect map or a
/// usable-crosspoint count is drawn for: 2²⁴, a 4096 × 4096 crossbar, 128×
/// the paper's 363² array. Larger requests fail before any draw or
/// allocation, so one oversized crossbar cannot exhaust memory or hold a
/// thread for minutes.
pub const MAX_DEFECT_CROSSPOINTS: usize = 1 << 24;

/// Checks the dimensions of a defect map or count before anything is drawn
/// or allocated, and returns its crosspoint count.
///
/// # Errors
///
/// Returns [`CrossbarError::InvalidSpec`] when either dimension is zero, or
/// when `rows × columns` overflows or exceeds [`MAX_DEFECT_CROSSPOINTS`].
pub fn check_defect_dimensions(rows: usize, columns: usize) -> Result<usize> {
    if rows == 0 || columns == 0 {
        return Err(CrossbarError::InvalidSpec {
            reason: format!("defect map dimensions {rows}x{columns} must be positive"),
        });
    }
    match rows.checked_mul(columns) {
        Some(crosspoints) if crosspoints <= MAX_DEFECT_CROSSPOINTS => Ok(crosspoints),
        _ => Err(CrossbarError::InvalidSpec {
            reason: format!(
                "defect map dimensions {rows}x{columns} exceed {MAX_DEFECT_CROSSPOINTS} crosspoints"
            ),
        }),
    }
}

/// The rows of band `band` of a `rows`-row map (empty past the end).
fn band_rows(band: usize, rows: usize) -> Range<usize> {
    let start = band.saturating_mul(DEFECT_BAND_ROWS).min(rows);
    start..rows.min(start.saturating_add(DEFECT_BAND_ROWS))
}

/// The fraction of usable crosspoints of a `rows × columns` instance with
/// `usable` of them usable — the one survival expression, shared by
/// [`DefectMap::usable_fraction`] and the streamed count.
#[must_use]
pub fn survival_fraction(usable: usize, rows: usize, columns: usize) -> f64 {
    usable as f64 / (rows * columns) as f64
}

/// The threshold `t` of a switch-defect draw: a crosspoint whose 53-bit
/// uniform `k` (see the module-level layout) lies below `t` is defective,
/// which happens with probability `t / 2⁵³`. For every `k`,
/// `k · 2⁻⁵³ < rate ⟺ k < uniform_threshold(rate)`, so that probability is
/// the one `gen::<f64>() < rate` has (the vendored `rand` and rand 0.8's
/// `Standard` both build `gen::<f64>()` as a 53-bit `k · 2⁻⁵³`):
///
/// * both scalings by a power of two (`k · 2⁻⁵³` and `rate · 2⁵³`) are exact,
///   so `k · 2⁻⁵³ < rate ⟺ k < rate · 2⁵³`;
/// * for an integer `k` and a real `y`, `k < y ⟺ k < ⌈y⌉`.
///
/// A rate in `[0, 1]` gives a threshold in `[0, 2⁵³]`, exact as a `u64`.
fn uniform_threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// Domain-separation tag mixed into the run seed before defect-map chunk
/// derivation. Without it, chunk `c` of a defect map and chunk `c` of a
/// Monte-Carlo estimation sharing one run seed would consume the *same*
/// uniform stream, statistically coupling broken-nanowire placement to the
/// sampled dose disturbances in combined studies.
const DEFECT_SEED_DOMAIN: u64 = 0xdefe_c7ed_0000_0001;

/// The defect-map instance of the chunk-seeding contract:
/// `chunk_seed(seed ^ DEFECT_SEED_DOMAIN, chunk)`.
fn defect_chunk_seed(seed: u64, chunk: u64) -> u64 {
    chunk_seed(seed ^ DEFECT_SEED_DOMAIN, chunk)
}

/// The defect rates of the crossbar, all as independent probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefectModel {
    /// Probability that a nanowire is mechanically broken.
    nanowire_breakage: f64,
    /// Probability that a crosspoint's switching layer is defective.
    crosspoint_defect: f64,
}

impl DefectModel {
    /// Creates a defect model.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidProbability`] when either rate is
    /// outside `[0, 1]`.
    pub fn new(nanowire_breakage: f64, crosspoint_defect: f64) -> Result<Self> {
        for value in [nanowire_breakage, crosspoint_defect] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(CrossbarError::InvalidProbability { value });
            }
        }
        Ok(DefectModel {
            nanowire_breakage,
            crosspoint_defect,
        })
    }

    /// The paper's assumption: no breakage, no switch defects.
    #[must_use]
    pub fn ideal() -> Self {
        DefectModel {
            nanowire_breakage: 0.0,
            crosspoint_defect: 0.0,
        }
    }

    /// The nanowire breakage probability.
    #[must_use]
    pub fn nanowire_breakage(&self) -> f64 {
        self.nanowire_breakage
    }

    /// The crosspoint defect probability.
    #[must_use]
    pub fn crosspoint_defect(&self) -> f64 {
        self.crosspoint_defect
    }

    /// The probability that a given crosspoint survives both of its nanowires
    /// being intact and its own switching layer being functional —
    /// independent of the decoder.
    #[must_use]
    pub fn crosspoint_survival(&self) -> f64 {
        let wire_ok = 1.0 - self.nanowire_breakage;
        wire_ok * wire_ok * (1.0 - self.crosspoint_defect)
    }

    /// Composes the decoder yield with the defect model: the fraction of
    /// crosspoints that are both addressable (decoder) and functional
    /// (defects).
    #[must_use]
    pub fn compose_with(&self, decoder_yield: &CaveYield) -> CompositeYield {
        CompositeYield::new(decoder_yield, self.crosspoint_survival())
    }

    /// Samples a defect map for a `rows × columns` crossbar with a
    /// deterministic seed: which nanowires are broken and which crosspoints
    /// are defective.
    ///
    /// The map is assembled from the independently seeded chunks of the
    /// module-level layout, so this serial reference implementation is
    /// bit-identical to a sharded assembly of the same chunks at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when the dimensions fail
    /// [`check_defect_dimensions`].
    pub fn sample_map(&self, rows: usize, columns: usize, seed: u64) -> Result<DefectMap> {
        let mut defective = Vec::with_capacity(check_defect_dimensions(rows, columns)?);
        for band in 0..defect_band_count(rows) {
            defective.extend(self.sample_defective_band(band, rows, columns, seed));
        }
        DefectMap::from_parts(
            rows,
            columns,
            self.sample_row_breakage(rows, seed),
            self.sample_column_breakage(columns, seed),
            defective,
        )
    }

    /// Counts the usable crosspoints of the instance [`DefectModel::sample_map`]
    /// would draw for the same arguments, without building it: the serial sum
    /// of the [`UsableCounter`] band counts (see the module-level "Streamed
    /// counts").
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when the dimensions fail
    /// [`check_defect_dimensions`].
    pub fn count_usable(&self, rows: usize, columns: usize, seed: u64) -> Result<usize> {
        let counter = self.usable_counter(rows, columns, seed)?;
        Ok((0..counter.bands())
            .map(|band| counter.count_band(band))
            .sum())
    }

    /// The per-band counter of usable crosspoints of a `rows × columns`
    /// instance: checks the dimensions, draws the breakage chunks `0` and `1`
    /// and computes the switch-defect threshold, once for every band.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when the dimensions fail
    /// [`check_defect_dimensions`].
    pub fn usable_counter(&self, rows: usize, columns: usize, seed: u64) -> Result<UsableCounter> {
        check_defect_dimensions(rows, columns)?;
        Ok(UsableCounter {
            broken_rows: self.sample_row_breakage(rows, seed),
            intact_columns: lane_words(
                self.sample_column_breakage(columns, seed)
                    .into_iter()
                    .map(|broken| !broken),
            ),
            defect_threshold: uniform_threshold(self.crosspoint_defect),
            seed,
        })
    }

    /// Samples chunk `0` of the map layout: the row-breakage vector (`rows`
    /// uniforms from the chunk-0 generator of the domain-tagged layout).
    #[must_use]
    pub fn sample_row_breakage(&self, rows: usize, seed: u64) -> Vec<bool> {
        self.sample_bools(rows, self.nanowire_breakage, defect_chunk_seed(seed, 0))
    }

    /// Samples chunk `1` of the map layout: the column-breakage vector
    /// (`columns` uniforms from the chunk-1 generator of the domain-tagged
    /// layout).
    #[must_use]
    pub fn sample_column_breakage(&self, columns: usize, seed: u64) -> Vec<bool> {
        self.sample_bools(columns, self.nanowire_breakage, defect_chunk_seed(seed, 1))
    }

    /// Samples the crosspoint-defect flags of the rows in `band`, in
    /// row-major order: row `r` from chunk `2 + r` of the domain-tagged
    /// layout, 64 crosspoints per draw.
    ///
    /// Bands past the end of the map (`band ≥ defect_band_count(rows)`) are
    /// empty.
    #[must_use]
    pub fn sample_defective_band(
        &self,
        band: usize,
        rows: usize,
        columns: usize,
        seed: u64,
    ) -> Vec<bool> {
        let rows = band_rows(band, rows);
        let every_column = lane_words(std::iter::repeat_n(true, columns));
        let mut sampler = RowSampler::new(uniform_threshold(self.crosspoint_defect), seed);
        let mut flags = Vec::with_capacity(rows.len() * columns);
        for row in rows {
            let defective = sampler.decide(row, &every_column);
            flags.extend((0..columns).map(|c| defective[c / 64] >> (c % 64) & 1 == 1));
        }
        flags
    }

    fn sample_bools(&self, count: usize, rate: f64, seed: u64) -> Vec<bool> {
        // mspt-analyze: allow(raw-seed) every caller derives `seed` via defect_chunk_seed (DEFECT_SEED_DOMAIN) just above
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| rng.gen::<f64>() < rate).collect()
    }
}

impl Default for DefectModel {
    fn default() -> Self {
        DefectModel::ideal()
    }
}

/// The per-band counter of usable crosspoints behind
/// [`DefectModel::count_usable`]: the breakage chunks of one
/// `(rates, rows, columns, seed)` instance, drawn once, and the
/// switch-defect threshold, computed once. Each band is drawn and counted on
/// its own, so bands can be counted on any thread in any order.
#[derive(Debug)]
pub struct UsableCounter {
    broken_rows: Vec<bool>,
    /// The intact columns, 64 to a word as the row sampler decides them.
    intact_columns: Vec<u64>,
    defect_threshold: u64,
    seed: u64,
}

impl UsableCounter {
    /// Number of bands of the instance ([`defect_band_count`] of its rows).
    #[must_use]
    pub fn bands(&self) -> usize {
        defect_band_count(self.broken_rows.len())
    }

    /// The usable crosspoints of band `band`: the crosspoints of its intact
    /// rows and columns whose switch works, decided by the row sampler of
    /// [`DefectModel::sample_defective_band`]. A broken row is skipped
    /// without drawing. Bands past the end count zero.
    #[must_use]
    pub fn count_band(&self, band: usize) -> usize {
        let mut sampler = RowSampler::new(self.defect_threshold, self.seed);
        let mut usable = 0;
        for row in band_rows(band, self.broken_rows.len()) {
            if self.broken_rows[row] {
                continue;
            }
            let defective = sampler.decide(row, &self.intact_columns);
            usable += self
                .intact_columns
                .iter()
                .zip(defective)
                .map(|(intact, defective)| (intact & !defective).count_ones() as usize)
                .sum::<usize>();
        }
        usable
    }
}

/// Packs per-column flags 64 to a word: bit `c % 64` of word `c / 64` is
/// column `c`'s flag.
fn lane_words(flags: impl ExactSizeIterator<Item = bool>) -> Vec<u64> {
    let mut words = vec![0; flags.len().div_ceil(64)];
    for (column, flag) in flags.enumerate() {
        words[column / 64] |= u64::from(flag) << (column % 64);
    }
    words
}

/// The one switch-defect sampler of maps and counts: it decides a row's
/// crosspoints 64 per draw, as the module-level layout describes, and keeps
/// its word buffers from row to row.
struct RowSampler {
    threshold: u64,
    seed: u64,
    undecided: Vec<u64>,
    defective: Vec<u64>,
}

impl RowSampler {
    fn new(threshold: u64, seed: u64) -> Self {
        RowSampler {
            threshold,
            seed,
            undecided: Vec::new(),
            defective: Vec::new(),
        }
    }

    /// The defective crosspoints of row `row` among the columns set in
    /// `columns`, 64 to a word like `columns`; the other bits are clear.
    fn decide(&mut self, row: usize, columns: &[u64]) -> &[u64] {
        self.defective.clear();
        if self.threshold >> 53 != 0 {
            // t = 2⁵³: every 53-bit k lies below it.
            self.defective.extend_from_slice(columns);
            return &self.defective;
        }
        self.defective.resize(columns.len(), 0);
        self.undecided.clear();
        self.undecided.extend_from_slice(columns);
        let mut rng = StdRng::seed_from_u64(defect_chunk_seed(self.seed, 2 + row as u64));
        // From bit 52 down to t's lowest set bit (none when t = 0): below it,
        // t has only zeros, so a column still level with t cannot fall under it.
        for bit in (self.threshold.trailing_zeros()..53).rev() {
            // All ones where t has a one at this bit.
            let t_bit = 0u64.wrapping_sub(self.threshold >> bit & 1);
            let mut open = 0;
            for (undecided, defective) in self.undecided.iter_mut().zip(&mut self.defective) {
                let draw = rng.next_u64();
                // A column whose bit differs from t's is decided, and below t
                // when t's bit is the one.
                *defective |= *undecided & !draw & t_bit;
                *undecided &= !(draw ^ t_bit);
                open |= *undecided;
            }
            if open == 0 {
                break;
            }
        }
        &self.defective
    }
}

/// The decoder yield combined with the defect survival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompositeYield {
    /// The decoder-limited crossbar yield `Y²`.
    pub decoder_yield: f64,
    /// The defect survival probability of a crosspoint.
    pub defect_survival: f64,
    /// The composite crossbar yield (product of the two).
    pub crossbar_yield: f64,
}

impl CompositeYield {
    /// Composes the decoder yield with a defect survival: the composite
    /// crossbar yield is their product. The one place a composite is formed,
    /// for the expected survival ([`DefectModel::compose_with`]), a sampled
    /// map's ([`DefectMap::compose_with`]) and a streamed count's.
    #[must_use]
    pub fn new(decoder_yield: &CaveYield, defect_survival: f64) -> Self {
        CompositeYield {
            decoder_yield: decoder_yield.crossbar_yield(),
            defect_survival,
            crossbar_yield: decoder_yield.crossbar_yield() * defect_survival,
        }
    }

    /// The effective number of usable bits of a crossbar with `raw_bits`
    /// crosspoints.
    #[must_use]
    pub fn effective_bits(&self, raw_bits: u64) -> f64 {
        raw_bits as f64 * self.crossbar_yield
    }
}

/// A sampled defect map of one crossbar instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefectMap {
    rows: usize,
    columns: usize,
    broken_rows: Vec<bool>,
    broken_columns: Vec<bool>,
    defective: Vec<bool>,
}

impl DefectMap {
    /// Assembles a map from sampled chunks: the breakage vectors and the
    /// row-major crosspoint-defect flags (the concatenated bands of the
    /// module-level layout).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when either dimension is zero
    /// or a part's length does not match the dimensions.
    pub fn from_parts(
        rows: usize,
        columns: usize,
        broken_rows: Vec<bool>,
        broken_columns: Vec<bool>,
        defective: Vec<bool>,
    ) -> Result<Self> {
        if rows == 0 || columns == 0 {
            return Err(CrossbarError::InvalidSpec {
                reason: format!("defect map dimensions {rows}x{columns} must be positive"),
            });
        }
        if broken_rows.len() != rows
            || broken_columns.len() != columns
            || rows.checked_mul(columns) != Some(defective.len())
        {
            return Err(CrossbarError::InvalidSpec {
                reason: format!(
                    "defect map parts ({}, {}, {}) do not match dimensions {rows}x{columns}",
                    broken_rows.len(),
                    broken_columns.len(),
                    defective.len()
                ),
            });
        }
        Ok(DefectMap {
            rows,
            columns,
            broken_rows,
            broken_columns,
            defective,
        })
    }

    /// Number of row nanowires.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of column nanowires.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Whether a row nanowire is broken.
    #[must_use]
    pub fn row_broken(&self, row: usize) -> bool {
        self.broken_rows.get(row).copied().unwrap_or(true)
    }

    /// Whether a column nanowire is broken.
    #[must_use]
    pub fn column_broken(&self, column: usize) -> bool {
        self.broken_columns.get(column).copied().unwrap_or(true)
    }

    /// Whether a crosspoint's switching layer is defective.
    #[must_use]
    pub fn crosspoint_defective(&self, row: usize, column: usize) -> bool {
        if row >= self.rows || column >= self.columns {
            return true;
        }
        self.defective[row * self.columns + column]
    }

    /// Whether a crosspoint is usable under this defect map (both nanowires
    /// intact and the switching layer functional).
    #[must_use]
    pub fn crosspoint_usable(&self, row: usize, column: usize) -> bool {
        !self.row_broken(row)
            && !self.column_broken(column)
            && !self.crosspoint_defective(row, column)
    }

    /// The fraction of usable crosspoints of the sampled instance.
    #[must_use]
    pub fn usable_fraction(&self) -> f64 {
        let usable = (0..self.rows)
            .flat_map(|r| (0..self.columns).map(move |c| (r, c)))
            .filter(|&(r, c)| self.crosspoint_usable(r, c))
            .count();
        survival_fraction(usable, self.rows, self.columns)
    }

    /// Composes this sampled instance with the decoder yield: the sampled
    /// counterpart of [`DefectModel::compose_with`], using the instance's
    /// [`usable_fraction`](DefectMap::usable_fraction) instead of the
    /// expected survival — what one concrete fabricated crossbar would
    /// deliver rather than the ensemble average.
    #[must_use]
    pub fn compose_with(&self, decoder_yield: &CaveYield) -> CompositeYield {
        CompositeYield::new(decoder_yield, self.usable_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::ContactGroupLayout;
    use crate::geometry::LayoutRules;
    use crate::yield_model::AddressabilityProfile;

    fn decoder_yield() -> CaveYield {
        let layout = ContactGroupLayout::new(20, 32, LayoutRules::paper_default()).unwrap();
        let profile = AddressabilityProfile::new(vec![0.9; 20]).unwrap();
        CaveYield::compute(&profile, &layout).unwrap()
    }

    #[test]
    fn construction_validates_probabilities() {
        assert!(DefectModel::new(-0.1, 0.0).is_err());
        assert!(DefectModel::new(0.0, 1.5).is_err());
        assert!(DefectModel::new(f64::NAN, 0.0).is_err());
        assert!(DefectModel::new(0.02, 0.01).is_ok());
        assert_eq!(DefectModel::default(), DefectModel::ideal());
    }

    #[test]
    fn ideal_model_does_not_change_the_decoder_yield() {
        let decoder = decoder_yield();
        let composite = DefectModel::ideal().compose_with(&decoder);
        assert_eq!(composite.defect_survival, 1.0);
        assert!((composite.crossbar_yield - decoder.crossbar_yield()).abs() < 1e-12);
        assert!((composite.effective_bits(1_000) - decoder.effective_bits(1_000)).abs() < 1e-9);
    }

    #[test]
    fn defects_compose_multiplicatively() {
        let decoder = decoder_yield();
        let model = DefectModel::new(0.05, 0.02).unwrap();
        let composite = model.compose_with(&decoder);
        let expected_survival = 0.95 * 0.95 * 0.98;
        assert!((composite.defect_survival - expected_survival).abs() < 1e-12);
        assert!(
            (composite.crossbar_yield - decoder.crossbar_yield() * expected_survival).abs() < 1e-12
        );
        assert!(composite.crossbar_yield < composite.decoder_yield);
    }

    /// The z-score of `hits` successes in `trials` Bernoulli(`p`) trials.
    fn binomial_z(hits: usize, trials: usize, p: f64) -> f64 {
        let (hits, trials) = (hits as f64, trials as f64);
        (hits - trials * p) / (trials * p * (1.0 - p)).sqrt()
    }

    #[test]
    fn sampled_maps_match_the_rates_statistically() {
        // Over 16 seeds of the paper's 363² array, the defective count stays
        // within |z| ≤ 5 of Binomial(n, t / 2⁵³), in total and in each column
        // class c mod 64, so a lane or word-boundary bias shows too.
        let (rows, columns, seeds) = (363usize, 363usize, 1..=16u64);
        for stuck in [0.005, 0.05, 0.3] {
            let p = uniform_threshold(stuck) as f64 / 2f64.powi(53);
            let model = DefectModel::new(0.0, stuck).unwrap();
            let mut by_class = [0usize; 64];
            for seed in seeds.clone() {
                let map = model.sample_map(rows, columns, seed).unwrap();
                for (r, c) in (0..rows).flat_map(|r| (0..columns).map(move |c| (r, c))) {
                    by_class[c % 64] += usize::from(map.crosspoint_defective(r, c));
                }
            }
            let maps = seeds.clone().count();
            let total = binomial_z(by_class.iter().sum(), maps * rows * columns, p);
            assert!(total.abs() <= 5.0, "stuck {stuck}: total z = {total}");
            for (class, &hits) in by_class.iter().enumerate() {
                let trials = maps * rows * (class..columns).step_by(64).count();
                let z = binomial_z(hits, trials, p);
                assert!(
                    z.abs() <= 5.0,
                    "stuck {stuck}: column class {class} z = {z}"
                );
            }
        }
        let model = DefectModel::new(0.1, 0.05).unwrap();
        let map = model.sample_map(200, 200, 42).unwrap();
        assert_eq!(map.rows(), 200);
        assert_eq!(map.columns(), 200);
        // Determinism: the same seed gives the same map.
        assert_eq!(map, model.sample_map(200, 200, 42).unwrap());
        assert_ne!(map, model.sample_map(200, 200, 43).unwrap());
    }

    /// Column `c`'s 53-bit uniform `k` in row `row`, rebuilt from the first
    /// 53 steps of the row's stream as the module-level layout defines it.
    fn layout_uniforms(row: usize, columns: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(defect_chunk_seed(seed, 2 + row as u64));
        let mut uniforms = vec![0u64; columns];
        for step in 0..53 {
            for word in uniforms.chunks_mut(64) {
                let draw = rng.next_u64();
                for (lane, uniform) in word.iter_mut().enumerate() {
                    *uniform |= (draw >> lane & 1) << (52 - step);
                }
            }
        }
        uniforms
    }

    #[test]
    fn switch_defects_compare_each_columns_uniform_with_the_threshold() {
        let full = 1u64 << 53;
        let mut thresholds = vec![0, 1, full / 2, full - 1, full];
        // The Fig. 7 stuck-crosspoint rates.
        thresholds.extend([0.005, 0.01, 0.025, 0.05].map(uniform_threshold));
        // Random thresholds, with their low bits cleared from some of them.
        let mut rng = StdRng::seed_from_u64(2_009);
        for trailing_zeros in [0, 0, 3, 17, 40, 51] {
            thresholds.push((rng.next_u64() >> 11) >> trailing_zeros << trailing_zeros);
        }
        // Rows on both sides of a band boundary.
        let (rows, checked_rows) = (66, [0, 1, 63, 64, 65]);
        for threshold in thresholds {
            let rate = threshold as f64 / full as f64;
            assert_eq!(uniform_threshold(rate), threshold);
            let model = DefectModel::new(0.0, rate).unwrap();
            for columns in [1, 63, 64, 65, 363] {
                for seed in [1u64, 2_009] {
                    let map = model.sample_map(rows, columns, seed).unwrap();
                    for row in checked_rows {
                        let uniforms = layout_uniforms(row, columns, seed);
                        for (column, uniform) in uniforms.into_iter().enumerate() {
                            assert_eq!(
                                map.crosspoint_defective(row, column),
                                uniform < threshold,
                                "t {threshold}, {columns} columns, seed {seed}, ({row}, {column})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sampled_maps_compose_with_the_decoder_yield() {
        let decoder = decoder_yield();
        let model = DefectModel::new(0.1, 0.05).unwrap();
        let map = model.sample_map(100, 100, 42).unwrap();
        let composite = map.compose_with(&decoder);
        assert_eq!(composite.defect_survival, map.usable_fraction());
        assert_eq!(composite.decoder_yield, decoder.crossbar_yield());
        assert!(
            (composite.crossbar_yield - decoder.crossbar_yield() * map.usable_fraction()).abs()
                < 1e-15
        );
        // An ideal map composes to exactly the decoder yield.
        let ideal = DefectModel::ideal().sample_map(10, 10, 1).unwrap();
        let unchanged = ideal.compose_with(&decoder);
        assert_eq!(unchanged.defect_survival, 1.0);
        assert_eq!(unchanged.crossbar_yield, decoder.crossbar_yield());
    }

    #[test]
    fn out_of_range_lookups_count_as_defective() {
        let map = DefectModel::ideal().sample_map(4, 4, 1).unwrap();
        assert!(map.crosspoint_defective(10, 0));
        assert!(map.row_broken(10));
        assert!(map.column_broken(10));
        assert!(!map.crosspoint_usable(10, 0));
        assert!(map.crosspoint_usable(1, 1));
        assert_eq!(map.usable_fraction(), 1.0);
    }

    #[test]
    fn zero_sized_maps_are_rejected() {
        assert!(DefectModel::ideal().sample_map(0, 4, 1).is_err());
        assert!(DefectModel::ideal().sample_map(4, 0, 1).is_err());
    }

    #[test]
    fn chunk_seeds_are_distinct_and_stable() {
        assert_eq!(chunk_seed(42, 0), chunk_seed(42, 0));
        assert_ne!(chunk_seed(42, 0), chunk_seed(42, 1));
        assert_ne!(chunk_seed(42, 0), chunk_seed(43, 0));
    }

    #[test]
    fn maps_assemble_from_independently_sampled_chunks() {
        // Spanning multiple bands (150 rows > DEFECT_BAND_ROWS), reassembling
        // the chunks in any grouping must reproduce sample_map exactly — the
        // property the execution engine's sharded assembly relies on.
        let model = DefectModel::new(0.1, 0.05).unwrap();
        let (rows, columns, seed) = (150usize, 40usize, 42u64);
        assert_eq!(defect_band_count(rows), 3);
        let mut defective = Vec::new();
        // Deliberately sample the bands out of order to mimic scheduling.
        let mut bands: Vec<(usize, Vec<bool>)> = (0..defect_band_count(rows))
            .rev()
            .map(|band| (band, model.sample_defective_band(band, rows, columns, seed)))
            .collect();
        bands.sort_by_key(|(band, _)| *band);
        for (_, band) in bands {
            defective.extend(band);
        }
        let assembled = DefectMap::from_parts(
            rows,
            columns,
            model.sample_row_breakage(rows, seed),
            model.sample_column_breakage(columns, seed),
            defective,
        )
        .unwrap();
        assert_eq!(assembled, model.sample_map(rows, columns, seed).unwrap());
    }

    /// The usable crosspoints of a map, counted cell by cell.
    fn map_count(map: &DefectMap) -> usize {
        (0..map.rows())
            .flat_map(|r| (0..map.columns()).map(move |c| (r, c)))
            .filter(|&(r, c)| map.crosspoint_usable(r, c))
            .count()
    }

    #[test]
    fn streamed_counts_equal_the_map_count() {
        let tiny = 2f64.powi(-53);
        // 0.3 · 2⁵³ is not an integer, so its threshold is a true ceiling.
        assert_ne!((0.3 * 2f64.powi(53)).fract(), 0.0);
        let mut rates = vec![(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (tiny, tiny)];
        for stuck in [tiny, 0.5, 0.3] {
            rates.extend([(0.0, stuck), (0.1, stuck)]);
        }
        // The Fig. 7 defect axis: breakage r, stuck crosspoints r / 2.
        rates.extend([0.01, 0.02, 0.05, 0.1].map(|rate| (rate, rate / 2.0)));
        // Maps smaller than one band, exactly one band, partial last bands.
        let dimensions = [(1, 1), (63, 7), (64, 64), (65, 3), (300, 70), (363, 363)];
        for (breakage, stuck) in rates {
            let model = DefectModel::new(breakage, stuck).unwrap();
            for (rows, columns) in dimensions {
                for seed in [1u64, 42, 2_009] {
                    let map = model.sample_map(rows, columns, seed).unwrap();
                    let count = model.count_usable(rows, columns, seed).unwrap();
                    let case = format!("({breakage}, {stuck}) {rows}x{columns} seed {seed}");
                    assert_eq!(count, map_count(&map), "{case}");
                    assert_eq!(
                        survival_fraction(count, rows, columns).to_bits(),
                        map.usable_fraction().to_bits(),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn band_counts_sum_to_the_count_in_any_order() {
        let model = DefectModel::new(0.05, 0.02).unwrap();
        let (rows, columns, seed) = (300usize, 70usize, 42u64);
        let counter = model.usable_counter(rows, columns, seed).unwrap();
        assert_eq!(counter.bands(), defect_band_count(rows));
        let reversed: usize = (0..counter.bands())
            .rev()
            .map(|band| counter.count_band(band))
            .sum();
        assert_eq!(reversed, model.count_usable(rows, columns, seed).unwrap());
        assert_eq!(counter.count_band(counter.bands()), 0);
    }

    #[test]
    fn oversized_and_overflowing_dimensions_fail_fast() {
        let edge = 1usize << 12;
        assert_eq!(MAX_DEFECT_CROSSPOINTS, edge * edge);
        assert_eq!(check_defect_dimensions(edge, edge).unwrap(), edge * edge);
        assert_eq!(
            check_defect_dimensions(MAX_DEFECT_CROSSPOINTS, 1).unwrap(),
            MAX_DEFECT_CROSSPOINTS
        );
        let model = DefectModel::new(0.02, 0.01).unwrap();
        // Over the bound, a 10¹² crossbar, an overflowing product, and zero.
        for (rows, columns) in [
            (edge + 1, edge),
            (MAX_DEFECT_CROSSPOINTS + 1, 1),
            (1_000_000, 1_000_000),
            (usize::MAX, 2),
            (0, 4),
            (4, 0),
        ] {
            let is_spec_error =
                |result: Result<()>| matches!(result, Err(CrossbarError::InvalidSpec { .. }));
            assert!(is_spec_error(
                check_defect_dimensions(rows, columns).map(drop)
            ));
            assert!(is_spec_error(model.sample_map(rows, columns, 7).map(drop)));
            assert!(is_spec_error(
                model.count_usable(rows, columns, 7).map(drop)
            ));
            assert!(is_spec_error(
                model.usable_counter(rows, columns, 7).map(drop)
            ));
        }
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(
            DefectMap::from_parts(2, 2, vec![false; 2], vec![false; 2], vec![false; 4]).is_ok()
        );
        assert!(
            DefectMap::from_parts(2, 2, vec![false; 3], vec![false; 2], vec![false; 4]).is_err()
        );
        assert!(
            DefectMap::from_parts(2, 2, vec![false; 2], vec![false; 1], vec![false; 4]).is_err()
        );
        assert!(
            DefectMap::from_parts(2, 2, vec![false; 2], vec![false; 2], vec![false; 3]).is_err()
        );
        assert!(DefectMap::from_parts(0, 2, vec![], vec![false; 2], vec![]).is_err());
    }
}
