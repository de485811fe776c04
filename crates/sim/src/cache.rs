//! The sharded, bounded, single-flight report memo behind the execution
//! engine and the serve layer.
//!
//! The sharding / LRU / single-flight machinery lives in the generic
//! [`MemoCache`], instantiated once per stage by
//! [`crate::stage::StageCache`]. [`ReportCache`] is the
//! (`SimConfig` → `PlatformReport`) instantiation that fills the stage
//! graph's `Composite` slot — keyed by [`Stage::Composite`]'s key — and
//! adds snapshot persistence: one set of counters, bounds and single-flight
//! semantics for every memoized quantity in the workspace, and one memo for
//! reports.
//!
//! # Design
//!
//! * **Sharding.** Entries are spread over [`CacheConfig::shards`] independent
//!   `Mutex`-guarded shards, selected by a fingerprint of the entry's key, so
//!   concurrent clients touching different configurations rarely contend on
//!   one lock.
//! * **Bounded LRU.** Each shard holds at most `ceil(capacity / shards)`
//!   entries and evicts its least-recently-used entry beyond that (recency is
//!   a global atomic tick, so LRU order is exact within a shard; with one
//!   shard it is exact globally — the configuration the eviction tests use).
//!   The shard count is clamped to at most `capacity`, so a tiny capacity is
//!   an exact single-shard bound rather than one-per-shard over-retention;
//!   capacity `0` disables storage entirely.
//! * **Single-flight.** Concurrent identical requests block on one in-flight
//!   evaluation via `Mutex` + `Condvar` (std only — crates.io is unreachable
//!   here): the first requester computes, every waiter is then served the
//!   cached result. If the leader fails, waiters retake the lead one at a
//!   time instead of hanging.
//! * **Counters.** Hits, misses and evictions are atomic counters readable at
//!   any time through [`ReportCache::stats`]; the serve stress gate derives
//!   its hit-rate assertions from them.
//! * **Persistence.** [`ReportCache::save_to_path`] rewrites one versioned
//!   binary snapshot (`schema_version` [`CACHE_SCHEMA_VERSION`]) that
//!   [`ReportCache::load_from_path`] restores bit-identically; a file of any
//!   other schema version is rejected, never reinterpreted. Snapshots are
//!   bounded to the configured capacity on save (over-retained shard
//!   overflow is dropped, most-recently-used entries win), so the persisted
//!   file cannot grow without bound across warm restarts.
//!
//! # Snapshot format
//!
//! A snapshot is one [`crate::bincodec`] document
//! ([`bincodec::DOC_SNAPSHOT`]): a header section holding the schema
//! version, then one section per row holding the length-prefixed binary
//! config and report documents. Every save rewrites the whole file from
//! the cache's surviving rows, sorted by key, so the file is a function of
//! those rows alone: saving an unchanged cache twice writes the same bytes,
//! and two caches holding the same rows write the same file whatever order
//! they were filled in. A file written before this layout (rows carrying a
//! write timestamp and a fingerprint, or JSON text) is a typed
//! [`SimError::Persistence`] error, which the warm-start callers turn into
//! a cold start. [`ReportCache::snapshot_json`] renders the same rows as
//! JSON text, the baseline the binary snapshot's size is measured against;
//! nothing loads it.
//!
//! # Cache-key identity
//!
//! A report's key is [`Stage::Composite`]'s key: the encodings of exactly
//! the [`SimConfig`] fields a report reads (see [`Stage::reads`]). Two
//! configurations that differ only in fields no report stage reads — the
//! disturbance kind, the Monte-Carlo knobs — share one entry, in memory and
//! on disk, because their reports are identical; configurations differing
//! in any field a report reads (the defect selection included) never alias.
//! Keys are re-checked in full on every lookup, so a fingerprint collision
//! can cost a duplicate evaluation but never serve the wrong report.
//! Snapshot rows carry full config documents and loads recompute keys, so
//! a file written under an earlier key scheme keeps loading.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::bincodec::{self, BinReader, BinWriter};
use crate::codec::{config_to_json, report_to_json, JsonValue};
use crate::config::SimConfig;
use crate::error::{Result, SimError};
use crate::platform::PlatformReport;
use crate::stage::Stage;

/// Environment variable naming the warm-cache persistence file `run_all` and
/// the serve stress bin load on start and save on exit.
pub const CACHE_PATH_ENV: &str = "MSPT_CACHE_PATH";

/// Schema version of the persisted snapshot format. Bump on any change to
/// the on-disk layout; loaders reject every other version.
pub const CACHE_SCHEMA_VERSION: u64 = 2;

/// Default bound on the number of cached reports (far above the paper's
/// sweep-point count, so default runs never evict).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default shard count of the cache.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Binary snapshot section carrying the cache schema version (`u64` body).
/// Must precede every row section.
const TAG_SNAPSHOT_HEADER: u8 = 0x01;

/// Binary snapshot section carrying one cached entry: the length-prefixed
/// config and report [`crate::bincodec`] documents.
const TAG_SNAPSHOT_ROW: u8 = 0x02;

/// Knobs of the report cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Upper bound on stored entries. `0` disables storage (every request
    /// recomputes). The bound is enforced per shard as
    /// `ceil(capacity / shards)`, so it is exact when `shards` divides
    /// `capacity` (true for the defaults) or for a single shard, and never
    /// exceeded by more than `shards − 1` entries otherwise. The shard count
    /// is clamped to at most `capacity`, so tiny capacities degenerate to
    /// exact single-shard LRU instead of over-retaining.
    pub capacity: usize,
    /// Number of independently locked shards (clamped to at least one, and
    /// to at most `capacity` when the capacity is positive).
    pub shards: usize,
}

impl CacheConfig {
    /// A single-shard configuration: exact global LRU order, at the price of
    /// one lock — what the eviction-order tests and small caches want.
    #[must_use]
    pub fn unsharded(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            shards: 1,
        }
    }
}

impl Default for CacheConfig {
    /// [`DEFAULT_CACHE_CAPACITY`] entries in [`DEFAULT_CACHE_SHARDS`] shards.
    fn default() -> Self {
        CacheConfig {
            capacity: DEFAULT_CACHE_CAPACITY,
            shards: DEFAULT_CACHE_SHARDS,
        }
    }
}

/// A complete binary snapshot document: the header section, then one row
/// section per `(config, report)` pair, in the given order.
fn encode_snapshot(rows: &[(SimConfig, PlatformReport)]) -> Vec<u8> {
    let mut payload = BinWriter::new();
    let mut header = BinWriter::new();
    header.put_u64(CACHE_SCHEMA_VERSION);
    payload.section(TAG_SNAPSHOT_HEADER, &header.into_bytes());
    for (config, report) in rows {
        let mut row = BinWriter::new();
        for document in [
            bincodec::config_to_bin(config),
            bincodec::report_to_bin(report),
        ] {
            row.put_u32(u32::try_from(document.len()).unwrap_or(u32::MAX));
            row.put_bytes(&document);
        }
        payload.section(TAG_SNAPSHOT_ROW, &row.into_bytes());
    }
    bincodec::document(bincodec::DOC_SNAPSHOT, &payload.into_bytes())
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a stored entry (including single-flight waiters
    /// served by the leader's computation).
    pub hits: u64,
    /// Lookups that had to compute (single-flight leaders only).
    pub misses: u64,
    /// Entries dropped to keep a shard within its capacity.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0.0` when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One stored entry of a [`MemoCache`]: the shard-selecting fingerprint, the
/// full key bytes it was derived from, the memoized value and the recency
/// tick.
struct Entry<V> {
    fingerprint: u64,
    key: Vec<u8>,
    value: V,
    last_used: u64,
}

/// The `Mutex` + `Condvar` pair a single-flight leader signals completion on.
struct Flight {
    done: Mutex<bool>,
    completed: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(false),
            completed: Condvar::new(),
        }
    }

    fn wait(&self) {
        // Poison recovery is sound here: the only mutation under this lock
        // is the single `done = true` store, so a panicking holder cannot
        // leave the flag half-written.
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self
                .completed
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn complete(&self) {
        // Tolerates a poisoned lock: completion also runs from a drop guard
        // during panic unwinding, where a second panic would abort.
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.completed.notify_all();
    }
}

/// Unwinding-safe single-flight leadership: when the leader's stack unwinds
/// — normally or through a panic in the compute closure — the guard removes
/// the in-flight marker and wakes every waiter. Without it, a panicking
/// evaluation would leave the marker behind and every current and future
/// request for that fingerprint would block forever.
struct FlightGuard<'a, V: Clone> {
    cache: &'a MemoCache<V>,
    fingerprint: u64,
    flight: Arc<Flight>,
}

impl<V: Clone> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        match self.cache.shard_for(self.fingerprint).lock() {
            Ok(mut shard) => {
                shard.in_flight.remove(&self.fingerprint);
            }
            Err(poisoned) => {
                poisoned.into_inner().in_flight.remove(&self.fingerprint);
            }
        }
        self.flight.complete();
    }
}

struct Shard<V> {
    entries: Vec<Entry<V>>,
    // mspt-analyze: allow(determinism-unsafe-calls) key-lookup only; the map is never iterated, so hash order cannot leak
    in_flight: HashMap<u64, Arc<Flight>>,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            entries: Vec::new(),
            // mspt-analyze: allow(determinism-unsafe-calls) key-lookup only; the map is never iterated, so hash order cannot leak
            in_flight: HashMap::new(),
        }
    }
}

/// The generic fingerprint-sharded, bounded-LRU, single-flight memo table
/// behind every stage slot of [`crate::stage::StageCache`] (the `Composite`
/// slot through [`ReportCache`]): sharding, exact per-shard LRU,
/// `Mutex` + `Condvar` single-flight and hit/miss/eviction counters,
/// generic over the memoized value.
///
/// A key is a `(fingerprint, key bytes)` pair: the fingerprint selects the
/// shard and prefilters lookups, and the full key is re-checked on every
/// match, so a fingerprint collision can cost a duplicate computation but
/// never serve the wrong value.
pub struct MemoCache<V: Clone> {
    config: CacheConfig,
    shards: Vec<Mutex<Shard<V>>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> std::fmt::Debug for MemoCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<V: Clone> MemoCache<V> {
    /// Creates a memo table. The shard count is clamped to `1..=capacity`
    /// (one shard when the capacity is zero); a zero capacity disables
    /// storage.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).min(config.capacity.max(1));
        MemoCache {
            config: CacheConfig {
                capacity: config.capacity,
                shards,
            },
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The (clamped) configuration of the table.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The per-shard entry bound: `ceil(capacity / shards)`, or zero when
    /// storage is disabled.
    fn shard_capacity(&self) -> usize {
        self.config.capacity.div_ceil(self.config.shards)
    }

    fn shard_for(&self, fingerprint: u64) -> &Mutex<Shard<V>> {
        &self.shards[(fingerprint % self.config.shards as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// Whether the table stores nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a key is currently stored. Does **not** refresh the entry's
    /// recency or touch the counters — a pure probe for tests and
    /// diagnostics.
    #[must_use]
    pub fn contains_key(&self, fingerprint: u64, key: &[u8]) -> bool {
        let shard = self
            .shard_for(fingerprint)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard
            .entries
            .iter()
            .any(|entry| entry.fingerprint == fingerprint && entry.key == key)
    }

    /// The current counter values.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Inserts an entry under its shard lock — see
    /// [`MemoCache::insert_locked`]. Returns whether the entry was stored.
    pub fn insert(&self, fingerprint: u64, key: &[u8], value: &V) -> bool {
        let mut shard = self
            .shard_for(fingerprint)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.insert_locked(&mut shard, fingerprint, key, value)
    }

    /// Inserts an entry into its shard as most-recently-used, then evicts
    /// least-recently-used entries beyond the shard bound. Returns whether
    /// the entry was stored — `false` for an already-present key or a
    /// disabled table.
    fn insert_locked(&self, shard: &mut Shard<V>, fingerprint: u64, key: &[u8], value: &V) -> bool {
        let capacity = self.shard_capacity();
        if capacity == 0 {
            return false;
        }
        if shard
            .entries
            .iter()
            .any(|entry| entry.fingerprint == fingerprint && entry.key == key)
        {
            return false;
        }
        shard.entries.push(Entry {
            fingerprint,
            key: key.to_vec(),
            value: value.clone(),
            last_used: self.next_tick(),
        });
        while shard.entries.len() > capacity {
            let oldest = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(index, _)| index)
                .expect("non-empty shard");
            shard.entries.swap_remove(oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Looks up a key, computing it through `compute` on a miss — the
    /// single-flight entry point everything above a memo table uses.
    ///
    /// Concurrent callers with the same key block on one computation: the
    /// first becomes the leader (counted as a miss), every other caller
    /// waits on the leader's `Condvar` and is then served the stored result
    /// (counted as a hit). If the leader's computation fails, its error is
    /// returned to the leader and the waiters retake the lead one at a
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (the table never stores failures).
    pub fn get_or_compute<F>(&self, fingerprint: u64, key: &[u8], compute: F) -> Result<V>
    where
        F: FnOnce() -> Result<V>,
    {
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut shard = self
                    .shard_for(fingerprint)
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(entry) = shard
                    .entries
                    .iter_mut()
                    .find(|entry| entry.fingerprint == fingerprint && entry.key == key)
                {
                    entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(entry.value.clone());
                }
                match shard.in_flight.get(&fingerprint) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::new());
                        shard.in_flight.insert(fingerprint, Arc::clone(&flight));
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        drop(shard);
                        // Leader path: compute outside the shard lock. The
                        // guard unregisters the flight and wakes waiters on
                        // every exit — including a panicking compute.
                        let _guard = FlightGuard {
                            cache: self,
                            fingerprint,
                            flight,
                        };
                        let computation = compute
                            .take()
                            .expect("a caller leads at most one computation")(
                        );
                        if let Ok(value) = &computation {
                            let mut shard = self
                                .shard_for(fingerprint)
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner);
                            self.insert_locked(&mut shard, fingerprint, key, value);
                        }
                        // `_guard` drops here: waiters wake after the entry
                        // is stored, so a successful leader turns them into
                        // plain hits.
                        return computation;
                    }
                }
            };
            // Waiter path: block until the leader finishes, then re-check —
            // a hit if the leader stored the entry, otherwise this caller
            // takes the lead itself (leader failed, or capacity is zero).
            flight.wait();
        }
    }

    /// An unordered point-in-time copy of every stored entry:
    /// `(key, value, last_used)` rows, one shard at a time — what snapshot
    /// persistence builds its bounded, sorted row set from.
    #[must_use]
    pub fn entries(&self) -> Vec<(Vec<u8>, V, u64)> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for entry in &shard.entries {
                rows.push((entry.key.clone(), entry.value.clone(), entry.last_used));
            }
        }
        rows
    }
}

/// The value [`ReportCache`] memoizes per key: the configuration that
/// computed the report rides along so snapshot persistence can write a
/// full config document per row.
#[derive(Clone)]
struct CachedReport {
    config: SimConfig,
    report: PlatformReport,
}

/// The sharded, bounded, single-flight LRU cache of
/// ([`SimConfig`] → [`PlatformReport`]) evaluations — a `MemoCache` keyed
/// by [`Stage::Composite`]'s key, plus versioned snapshot persistence. It
/// is the stage graph's `Composite` slot, so the
/// [`ExecutionEngine`](crate::ExecutionEngine) keeps exactly one report
/// memo. See the module docs for the design.
pub struct ReportCache {
    memo: MemoCache<CachedReport>,
}

impl std::fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportCache")
            .field("config", self.memo.config())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for ReportCache {
    fn default() -> Self {
        ReportCache::new(CacheConfig::default())
    }
}

impl ReportCache {
    /// Creates a cache. The shard count is clamped to `1..=capacity` (one
    /// shard when the capacity is zero); a zero capacity disables storage.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        ReportCache {
            memo: MemoCache::new(config),
        }
    }

    /// The (clamped) configuration of the cache.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        self.memo.config()
    }

    /// The fingerprint of a configuration's report entry: the
    /// [`Stage::Composite`] fingerprint of its composite key, so it covers
    /// exactly the fields a report reads.
    #[must_use]
    pub fn fingerprint(config: &SimConfig) -> u64 {
        ReportCache::keyed(config).1
    }

    /// The memo key and fingerprint of a configuration's report entry.
    fn keyed(config: &SimConfig) -> (Vec<u8>, u64) {
        let key = Stage::Composite.key(config);
        let fingerprint = Stage::Composite.fingerprint(&key);
        (key, fingerprint)
    }

    /// Stores a decoded snapshot row under its recomputed key. Returns
    /// whether the row was stored.
    fn insert_row(&self, config: SimConfig, report: PlatformReport) -> bool {
        let (key, fingerprint) = ReportCache::keyed(&config);
        self.memo
            .insert(fingerprint, &key, &CachedReport { config, report })
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache stores nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Whether a configuration is currently stored. Does **not** refresh the
    /// entry's recency or touch the counters — a pure probe for tests and
    /// diagnostics.
    #[must_use]
    pub fn contains(&self, config: &SimConfig) -> bool {
        let (key, fingerprint) = ReportCache::keyed(config);
        self.memo.contains_key(fingerprint, &key)
    }

    /// The current counter values.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Looks up a configuration, computing it through `compute` on a miss —
    /// the single-flight entry point everything above the cache uses. See
    /// `MemoCache::get_or_compute` for the leader/waiter semantics.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (the cache never stores failures).
    pub fn get_or_compute<F>(&self, config: &SimConfig, compute: F) -> Result<PlatformReport>
    where
        F: FnOnce() -> Result<PlatformReport>,
    {
        let (key, fingerprint) = ReportCache::keyed(config);
        self.memo
            .get_or_compute(fingerprint, &key, || {
                compute().map(|report| CachedReport {
                    config: config.clone(),
                    report,
                })
            })
            .map(|cached| cached.report)
    }

    /// Renders the cache as a versioned JSON snapshot, **bounded to the
    /// configured capacity**: the per-shard LRU bound can over-retain up to
    /// `shards − 1` entries beyond `capacity` when the shard count does not
    /// divide it, so the snapshot keeps only the `capacity` most recently
    /// used entries. Which entries survive therefore follows access
    /// recency; the surviving set itself is sorted by key, so two caches
    /// holding the same surviving entries render byte-identical text
    /// regardless of insertion order. Nothing loads this text: it is the
    /// baseline the binary snapshot's size is measured against.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        JsonValue::Object(vec![
            (
                "schema_version".to_string(),
                JsonValue::from_u64(CACHE_SCHEMA_VERSION),
            ),
            (
                "entries".to_string(),
                JsonValue::Array(
                    self.snapshot_rows()
                        .iter()
                        .map(|(config, report)| {
                            JsonValue::Object(vec![
                                ("config".to_string(), config_to_json(config)),
                                ("report".to_string(), report_to_json(report)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// The rows a snapshot persists, in persisted order: every stored
    /// entry, most-recently-used entries winning the truncation to the
    /// capacity bound, the surviving set sorted by key so both snapshot
    /// encodings are a function of the surviving rows alone.
    fn snapshot_rows(&self) -> Vec<(SimConfig, PlatformReport)> {
        let mut rows = self.memo.entries();
        // Most recently used first, then truncate to the capacity bound.
        rows.sort_by_key(|row| std::cmp::Reverse(row.2));
        rows.truncate(self.memo.config().capacity);
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.into_iter()
            .map(|(_, cached, _)| (cached.config, cached.report))
            .collect()
    }

    /// Renders the cache as a binary snapshot document — the same rows as
    /// [`ReportCache::snapshot_json`] (same bounding, same order) in the
    /// compact [`crate::bincodec`] encoding. The bytes are a function of
    /// the surviving rows alone.
    #[must_use]
    pub fn snapshot_bin(&self) -> Vec<u8> {
        encode_snapshot(&self.snapshot_rows())
    }

    /// Restores entries from a snapshot produced by
    /// [`ReportCache::snapshot_bin`], inserting them as most-recently-used
    /// in snapshot order (capacity bounds still apply). Each row's key is
    /// recomputed from its config document. Returns the number of entries
    /// actually stored — rows the cache rejected (already present, or
    /// storage disabled) are not counted, though under a bound tighter than
    /// the snapshot a stored row may still evict an earlier one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on malformed bytes, a schema
    /// version other than [`CACHE_SCHEMA_VERSION`] — a snapshot from a
    /// different format generation is rejected, never reinterpreted — or a
    /// row section appearing before the header.
    pub fn load_snapshot_bin(&self, bytes: &[u8]) -> Result<usize> {
        let payload = bincodec::document_payload(bytes, bincodec::DOC_SNAPSHOT)?;
        let mut reader = BinReader::new(payload);
        let mut version: Option<u64> = None;
        let mut loaded = 0;
        while let Some((tag, body)) = reader.next_section()? {
            match tag {
                TAG_SNAPSHOT_HEADER => {
                    let mut section = BinReader::new(body);
                    let value = section.take_u64()?;
                    section.finish()?;
                    if value != CACHE_SCHEMA_VERSION {
                        return Err(SimError::Persistence {
                            reason: format!(
                                "cache snapshot schema version {value} does not match supported version {CACHE_SCHEMA_VERSION}"
                            ),
                        });
                    }
                    if version.replace(value).is_some() {
                        return Err(SimError::Persistence {
                            reason: "duplicate header section in binary cache snapshot".to_string(),
                        });
                    }
                }
                TAG_SNAPSHOT_ROW => {
                    if version.is_none() {
                        return Err(SimError::Persistence {
                            reason: "binary cache snapshot row appears before the header"
                                .to_string(),
                        });
                    }
                    let mut section = BinReader::new(body);
                    let config_length = section.take_u32()? as usize;
                    let config = bincodec::config_from_bin(section.take_bytes(config_length)?)?;
                    let report_length = section.take_u32()? as usize;
                    let report = bincodec::report_from_bin(section.take_bytes(report_length)?)?;
                    section.finish()?;
                    if self.insert_row(config, report) {
                        loaded += 1;
                    }
                }
                _ => {} // Forward compatibility: skip sections a later writer added.
            }
        }
        if version.is_none() {
            return Err(SimError::Persistence {
                reason: "binary cache snapshot is missing its header section".to_string(),
            });
        }
        Ok(loaded)
    }

    /// Writes the snapshot to a file, replacing whatever the file held with
    /// exactly the bytes [`ReportCache::snapshot_bin`] renders. Returns the
    /// number of rows written (at most the configured capacity).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on I/O failure.
    pub fn save_to_path(&self, path: &Path) -> Result<usize> {
        let rows = self.snapshot_rows();
        std::fs::write(path, encode_snapshot(&rows))
            .map_err(|io| persistence_io("writing", path, &io))?;
        Ok(rows.len())
    }

    /// Loads a snapshot file written by [`ReportCache::save_to_path`] — see
    /// [`ReportCache::load_snapshot_bin`]. Returns the number of entries
    /// loaded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on I/O failure, a malformed
    /// snapshot, or a mismatched schema version (which includes every file
    /// written in an earlier format).
    pub fn load_from_path(&self, path: &Path) -> Result<usize> {
        let bytes = std::fs::read(path).map_err(|io| persistence_io("reading", path, &io))?;
        self.load_snapshot_bin(&bytes)
    }
}

/// A [`SimError::Persistence`] describing a snapshot I/O failure.
fn persistence_io(action: &str, path: &Path, io: &std::io::Error) -> SimError {
    SimError::Persistence {
        reason: format!("{action} cache snapshot {}: {io}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimulationPlatform;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn config(length: usize) -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, length).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    fn evaluate(config: &SimConfig) -> Result<PlatformReport> {
        SimulationPlatform::new(config.clone()).evaluate()
    }

    #[test]
    fn hit_miss_counters_and_lru_touch() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        let first = cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        let second = cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fingerprints_differ_across_disturbance_kinds() {
        // The disturbance kind is part of the Monte-Carlo stage's identity…
        let gaussian = config(8);
        let laplace = config(8).with_disturbance(crate::DisturbanceKind::Laplace);
        let mc = |config: &SimConfig| Stage::MonteCarlo.fingerprint(&Stage::MonteCarlo.key(config));
        assert_ne!(mc(&gaussian), mc(&laplace));
        // …but no report stage reads it: both share one report entry, one
        // miss, one report.
        assert_eq!(
            ReportCache::fingerprint(&gaussian),
            ReportCache::fingerprint(&laplace)
        );
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let first = cache
            .get_or_compute(&gaussian, || evaluate(&gaussian))
            .unwrap();
        let second = cache
            .get_or_compute(&laplace, || unreachable!("shared entry"))
            .unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A field the report reads still separates entries.
        let windowed = gaussian.with_window(device_physics::Volts::new(0.2));
        assert_ne!(
            ReportCache::fingerprint(&windowed),
            ReportCache::fingerprint(&laplace)
        );
    }

    #[test]
    fn fingerprints_differ_across_defect_kinds() {
        let clean = config(8);
        let defective =
            config(8).with_defects(crate::DefectKind::sampled(0.02, 0.01, 2_009).unwrap());
        let reseeded =
            config(8).with_defects(crate::DefectKind::sampled(0.02, 0.01, 2_010).unwrap());
        assert_ne!(
            ReportCache::fingerprint(&clean),
            ReportCache::fingerprint(&defective)
        );
        assert_ne!(
            ReportCache::fingerprint(&defective),
            ReportCache::fingerprint(&reseeded)
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        let failure = cache.get_or_compute(&a, || {
            Err(SimError::InvalidConfig {
                reason: "boom".to_string(),
            })
        });
        assert!(failure.is_err());
        assert!(cache.is_empty());
        // The next caller computes fresh and succeeds.
        assert!(cache.get_or_compute(&a, || evaluate(&a)).is_ok());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn binary_snapshot_round_trips_bit_identically() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        for length in [6, 8, 10] {
            let config = config(length);
            cache.get_or_compute(&config, || evaluate(&config)).unwrap();
        }
        let bytes = cache.snapshot_bin();
        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_snapshot_bin(&bytes).unwrap(), 3);
        assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        // A second load of the same snapshot stores nothing new.
        assert_eq!(restored.load_snapshot_bin(&bytes).unwrap(), 0);
    }

    /// A snapshot path unique to this test process and `name`.
    fn temp_snapshot_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mspt-cache-{name}-{}.bin", std::process::id()))
    }

    #[test]
    fn binary_save_rewrites_when_append_would_exceed_capacity() {
        let path = temp_snapshot_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let small = ReportCache::new(CacheConfig::unsharded(2));
        for length in [6, 8] {
            let config = config(length);
            small.get_or_compute(&config, || evaluate(&config)).unwrap();
        }
        assert_eq!(small.save_to_path(&path).unwrap(), 2);
        // Touch `a` so it survives eviction, then push a third entry out of
        // capacity: the file now holds a row the cache evicted, and the
        // next save replaces it.
        let a = config(6);
        small.get_or_compute(&a, || evaluate(&a)).unwrap();
        let c = config(10);
        small.get_or_compute(&c, || evaluate(&c)).unwrap();
        assert_eq!(small.save_to_path(&path).unwrap(), 2);
        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_from_path(&path).unwrap(), 2);
        assert_eq!(restored.snapshot_json(), small.snapshot_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_save_replaces_whatever_the_file_held() {
        let path = temp_snapshot_path("replace");
        let cache = ReportCache::new(CacheConfig::unsharded(4));
        let filled = |cache: &ReportCache, lengths: &[usize]| {
            for &length in lengths {
                let config = config(length);
                cache.get_or_compute(&config, || evaluate(&config)).unwrap();
            }
        };
        filled(&cache, &[6, 8]);
        // A file holding a row the cache lacks, then one holding more rows
        // than the cache (its two among them): either way the save leaves
        // exactly the cache's rows.
        let other = ReportCache::new(CacheConfig::unsharded(8));
        filled(&other, &[10]);
        let more = ReportCache::new(CacheConfig::unsharded(8));
        filled(&more, &[6, 8, 10, 12]);
        for previous in [&other, &more] {
            previous.save_to_path(&path).unwrap();
            assert_eq!(cache.save_to_path(&path).unwrap(), 2);
            assert_eq!(std::fs::read(&path).unwrap(), cache.snapshot_bin());
            let restored = ReportCache::new(CacheConfig::unsharded(8));
            assert_eq!(restored.load_from_path(&path).unwrap(), 2);
            assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn saving_an_unchanged_cache_twice_writes_identical_bytes() {
        let path = temp_snapshot_path("resave");
        let cache = ReportCache::new(CacheConfig::default());
        for length in [6, 8, 10] {
            let config = config(length);
            cache.get_or_compute(&config, || evaluate(&config)).unwrap();
        }
        assert_eq!(cache.save_to_path(&path).unwrap(), 3);
        let first = std::fs::read(&path).unwrap();
        // A hit moves recency, not the surviving rows.
        let a = config(6);
        cache.get_or_compute(&a, || unreachable!("warm")).unwrap();
        assert_eq!(cache.save_to_path(&path).unwrap(), 3);
        assert_eq!(std::fs::read(&path).unwrap(), first);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshots_do_not_depend_on_insertion_order() {
        let configs = [6, 8, 10, 12].map(config);
        let forward = ReportCache::new(CacheConfig::default());
        let backward = ReportCache::new(CacheConfig::default());
        for config in &configs {
            forward.get_or_compute(config, || evaluate(config)).unwrap();
        }
        for config in configs.iter().rev() {
            backward
                .get_or_compute(config, || evaluate(config))
                .unwrap();
        }
        assert_eq!(forward.snapshot_bin(), backward.snapshot_bin());
    }

    /// A one-row snapshot in the version 1 layout, whose rows carried a
    /// write timestamp and a fingerprint before the two documents.
    fn version_one_snapshot(config: &SimConfig, report: &PlatformReport) -> Vec<u8> {
        let mut header = BinWriter::new();
        header.put_u64(1);
        let mut row = BinWriter::new();
        row.put_u64(1_700_000_000);
        row.put_u64(ReportCache::fingerprint(config));
        for document in [
            bincodec::config_to_bin(config),
            bincodec::report_to_bin(report),
        ] {
            row.put_u32(u32::try_from(document.len()).unwrap());
            row.put_bytes(&document);
        }
        let mut payload = BinWriter::new();
        payload.section(TAG_SNAPSHOT_HEADER, &header.into_bytes());
        payload.section(TAG_SNAPSHOT_ROW, &row.into_bytes());
        bincodec::document(bincodec::DOC_SNAPSHOT, &payload.into_bytes())
    }

    #[test]
    fn earlier_snapshot_formats_are_typed_errors_and_load_nothing() {
        let path = temp_snapshot_path("earlier-format");
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        let report = cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        for (format, bytes) in [
            ("version 1", version_one_snapshot(&a, &report)),
            ("JSON text", cache.snapshot_json().into_bytes()),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            let target = ReportCache::new(CacheConfig::unsharded(8));
            assert!(
                matches!(
                    target.load_snapshot_bin(&bytes),
                    Err(SimError::Persistence { .. })
                ),
                "{format}"
            );
            assert!(
                matches!(
                    target.load_from_path(&path),
                    Err(SimError::Persistence { .. })
                ),
                "{format}"
            );
            assert!(target.is_empty(), "{format}: rows loaded");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_binary_snapshots_are_typed_errors() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        let bytes = cache.snapshot_bin();
        // Truncation never panics: a cut exactly on the header/row section
        // boundary is a valid zero-row snapshot (TLV streams are
        // prefix-closed at section granularity), every other cut is a typed
        // error. With one cached row there is exactly one such boundary.
        let mut boundary_loads = 0;
        for take in 0..bytes.len() {
            let target = ReportCache::new(CacheConfig::unsharded(8));
            match target.load_snapshot_bin(&bytes[..take]) {
                Ok(loaded) => {
                    assert_eq!(loaded, 0);
                    boundary_loads += 1;
                }
                Err(SimError::Persistence { .. }) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
        assert_eq!(boundary_loads, 1);
        let target = ReportCache::new(CacheConfig::unsharded(8));
        // A snapshot without its header section is rejected.
        let empty = crate::bincodec::document(crate::bincodec::DOC_SNAPSHOT, &[]);
        assert!(matches!(
            target.load_snapshot_bin(&empty),
            Err(SimError::Persistence { .. })
        ));
        assert!(target.is_empty());
    }
}
