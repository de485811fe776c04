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
//! * **Persistence.** [`ReportCache::save_to_path`] writes a versioned binary
//!   snapshot (`schema_version` [`CACHE_SCHEMA_VERSION`]) that
//!   [`ReportCache::load_from_path`] restores bit-identically; a mismatched
//!   schema version is rejected, never reinterpreted. Snapshots are bounded
//!   to the configured capacity on save (over-retained shard overflow is
//!   dropped, most-recently-used entries win), so the persisted file cannot
//!   grow without bound across warm restarts.
//!
//! # Snapshot formats
//!
//! Saves write a [`crate::bincodec`] document ([`bincodec::DOC_SNAPSHOT`])
//! holding a header section and one section per row — a write timestamp,
//! the entry's fingerprint, and the nested binary config/report documents.
//! Saving over an existing binary snapshot **appends** only the rows whose
//! key the file does not already hold (an O(new) write instead of a full
//! rewrite), falling back to a compacting rewrite when the file's row count
//! plus the new rows would exceed the capacity bound or the existing file
//! is unreadable. The file's keys are recomputed from each row's config
//! document, never trusted from the stored fingerprint.
//!
//! [`ReportCache::load_from_path`] auto-detects the format from the first
//! byte (binary documents open with `0xB1`, JSON with `{`), so JSON-era
//! snapshot files keep loading unchanged; [`ReportCache::snapshot_json`]
//! still renders that text format. Binary rows carry the time they were
//! written; a positive `MSPT_CACHE_MAX_AGE_SECS` drops rows older than that
//! bound at load, so a long-lived warm file cannot resurrect reports from
//! arbitrarily far in the past.
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

use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::bincodec::{self, BinReader, BinWriter};
use crate::codec::{config_from_json, config_to_json, report_from_json, report_to_json, JsonValue};
use crate::config::SimConfig;
use crate::error::{Result, SimError};
use crate::platform::PlatformReport;
use crate::stage::Stage;

/// Environment variable overriding the default report-cache capacity.
pub const CACHE_CAPACITY_ENV: &str = "MSPT_CACHE_CAPACITY";

/// Environment variable naming the warm-cache persistence file `run_all` and
/// the serve stress bin load on start and save on exit.
pub const CACHE_PATH_ENV: &str = "MSPT_CACHE_PATH";

/// Environment variable bounding the age, in seconds, of binary snapshot
/// rows at load: rows written longer ago than this are skipped. Unset or
/// `0` disables the bound. JSON snapshots carry no timestamps and are never
/// age-bounded.
pub const CACHE_MAX_AGE_ENV: &str = "MSPT_CACHE_MAX_AGE_SECS";

/// Schema version of the persisted snapshot format. Bump on any change to
/// the on-disk layout; loaders reject every other version.
pub const CACHE_SCHEMA_VERSION: u64 = 1;

/// Default bound on the number of cached reports (far above the paper's
/// sweep-point count, so default runs never evict).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default shard count of the cache.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Binary snapshot section carrying the cache schema version (`u64` body).
/// Must precede every row section.
const TAG_SNAPSHOT_HEADER: u8 = 0x01;

/// Binary snapshot section carrying one cached entry: save timestamp
/// (`u64` Unix seconds), fingerprint (`u64`), then the length-prefixed
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
    /// Capacity: the `MSPT_CACHE_CAPACITY` environment variable when set to a
    /// valid integer (zero allowed — it disables caching), otherwise
    /// [`DEFAULT_CACHE_CAPACITY`]. Shards: [`DEFAULT_CACHE_SHARDS`].
    fn default() -> Self {
        CacheConfig {
            capacity: default_capacity(),
            shards: DEFAULT_CACHE_SHARDS,
        }
    }
}

fn default_capacity() -> usize {
    if let Ok(value) = std::env::var(CACHE_CAPACITY_ENV) {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            return parsed;
        }
    }
    DEFAULT_CACHE_CAPACITY
}

/// Seconds since the Unix epoch, stamped on binary snapshot rows at save so
/// the age bound at load has something to measure against. Clock failure
/// degrades to `0`, which the bound treats as "arbitrarily old".
fn now_unix() -> u64 {
    // mspt-analyze: allow(determinism-unsafe-calls) snapshot row timestamps are persistence metadata consumed only by the load-time age bound; they never feed an evaluation result
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |elapsed| elapsed.as_secs())
}

/// Reads [`CACHE_MAX_AGE_ENV`]: a positive integer bounds row age at load;
/// unset, unparsable or `0` disables the bound.
fn max_age_from_env() -> u64 {
    std::env::var(CACHE_MAX_AGE_ENV)
        .ok()
        .and_then(|value| value.trim().parse::<u64>().ok())
        .filter(|&seconds| seconds > 0)
        .unwrap_or(u64::MAX)
}

/// One [`TAG_SNAPSHOT_ROW`] section (tag + length + body) for a cached
/// entry — the unit both full snapshots and appending saves write.
fn snapshot_row_section(
    written_at: u64,
    fingerprint: u64,
    config: &SimConfig,
    report: &PlatformReport,
) -> Vec<u8> {
    let config_bytes = bincodec::config_to_bin(config);
    let report_bytes = bincodec::report_to_bin(report);
    let mut body = BinWriter::new();
    body.put_u64(written_at);
    body.put_u64(fingerprint);
    body.put_u32(u32::try_from(config_bytes.len()).unwrap_or(u32::MAX));
    body.put_bytes(&config_bytes);
    body.put_u32(u32::try_from(report_bytes.len()).unwrap_or(u32::MAX));
    body.put_bytes(&report_bytes);
    let mut section = BinWriter::new();
    section.section(TAG_SNAPSHOT_ROW, &body.into_bytes());
    section.into_bytes()
}

/// A complete binary snapshot document: header section first, then one row
/// section per `(key, fingerprint, config, report)` entry, all stamped
/// `written_at`.
fn encode_snapshot_bin(
    rows: &[(Vec<u8>, u64, SimConfig, PlatformReport)],
    written_at: u64,
) -> Vec<u8> {
    let mut payload = BinWriter::new();
    let mut header = BinWriter::new();
    header.put_u64(CACHE_SCHEMA_VERSION);
    payload.section(TAG_SNAPSHOT_HEADER, &header.into_bytes());
    for (_, fingerprint, config, report) in rows {
        payload.put_bytes(&snapshot_row_section(
            written_at,
            *fingerprint,
            config,
            report,
        ));
    }
    bincodec::document(bincodec::DOC_SNAPSHOT, &payload.into_bytes())
}

/// The key of every row persisted in a binary snapshot file, one per row
/// in file order, recomputed from each row's config document — the stored
/// fingerprint is never trusted, since a file written under another key
/// scheme carries stale ones. `None` when the file is missing, not a
/// current-version binary snapshot, or damaged — the appending save then
/// falls back to a full rewrite.
fn binary_snapshot_row_keys(path: &Path) -> Option<Vec<Vec<u8>>> {
    let bytes = std::fs::read(path).ok()?;
    let payload = bincodec::document_payload(&bytes, bincodec::DOC_SNAPSHOT).ok()?;
    let mut reader = BinReader::new(payload);
    let mut header_seen = false;
    let mut keys = Vec::new();
    loop {
        match reader.next_section() {
            Ok(Some((TAG_SNAPSHOT_HEADER, body))) => {
                let mut section = BinReader::new(body);
                if section.take_u64().ok()? != CACHE_SCHEMA_VERSION {
                    return None;
                }
                header_seen = true;
            }
            Ok(Some((TAG_SNAPSHOT_ROW, body))) => {
                let mut section = BinReader::new(body);
                section.take_u64().ok()?; // written_at
                section.take_u64().ok()?; // stored fingerprint
                let config_length = section.take_u32().ok()? as usize;
                let config =
                    bincodec::config_from_bin(section.take_bytes(config_length).ok()?).ok()?;
                keys.push(Stage::Composite.key(&config));
            }
            Ok(Some(_)) => {} // Unknown section: skippable, not ours to judge.
            Ok(None) => break,
            Err(_) => return None,
        }
    }
    header_seen.then_some(keys)
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
    /// `(fingerprint, key, value, last_used)` rows, one shard at a time —
    /// what snapshot persistence builds its bounded, sorted row set from.
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, Vec<u8>, V, u64)> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for entry in &shard.entries {
                rows.push((
                    entry.fingerprint,
                    entry.key.clone(),
                    entry.value.clone(),
                    entry.last_used,
                ));
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
    /// used entries — the persisted file can never grow past the configured
    /// bound across warm restarts. Which entries survive therefore follows
    /// access recency; the surviving set itself is sorted by key, so two
    /// caches persisting the same surviving entries render byte-identical
    /// files regardless of insertion order.
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
                        .map(|(_, _, config, report)| {
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
    /// encodings are deterministic for a given surviving set. Each row
    /// carries its key for the appending save.
    fn snapshot_rows(&self) -> Vec<(Vec<u8>, u64, SimConfig, PlatformReport)> {
        let mut rows: Vec<(u64, Vec<u8>, u64, SimConfig, PlatformReport)> = self
            .memo
            .entries()
            .into_iter()
            .map(|(fingerprint, key, cached, last_used)| {
                (last_used, key, fingerprint, cached.config, cached.report)
            })
            .collect();
        // Most recently used first, then truncate to the capacity bound.
        rows.sort_by_key(|row| std::cmp::Reverse(row.0));
        rows.truncate(self.memo.config().capacity);
        rows.sort_by(|a, b| a.1.cmp(&b.1));
        rows.into_iter()
            .map(|(_, key, fingerprint, config, report)| (key, fingerprint, config, report))
            .collect()
    }

    /// Renders the cache as a binary snapshot document — the same rows as
    /// [`ReportCache::snapshot_json`] (same bounding, same order) in the
    /// compact [`crate::bincodec`] encoding, each row stamped with the
    /// current time for the load-side age bound.
    #[must_use]
    pub fn snapshot_bin(&self) -> Vec<u8> {
        encode_snapshot_bin(&self.snapshot_rows(), now_unix())
    }

    /// Restores entries from a binary snapshot with no age bound applied.
    /// Returns the number of entries actually stored.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on malformed bytes or a mismatched
    /// schema version.
    pub fn load_snapshot_bin(&self, bytes: &[u8]) -> Result<usize> {
        self.load_snapshot_bin_bounded(bytes, 0, u64::MAX)
    }

    /// Restores entries from a binary snapshot produced by
    /// [`ReportCache::snapshot_bin`] (or accumulated by appending saves),
    /// skipping rows written more than `max_age_secs` before `now_unix` —
    /// the load-side age bound that keeps a long-lived warm file from
    /// resurrecting arbitrarily old reports. Returns the number of entries
    /// actually stored; age-skipped and already-present rows are not
    /// counted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on malformed bytes, a mismatched
    /// schema version, or a row section appearing before the header.
    pub fn load_snapshot_bin_bounded(
        &self,
        bytes: &[u8],
        now_unix: u64,
        max_age_secs: u64,
    ) -> Result<usize> {
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
                    let written_at = section.take_u64()?;
                    // Loading recomputes the key from the decoded
                    // configuration, so a stale or corrupted stored
                    // fingerprint can never misfile an entry.
                    let _stored_fingerprint = section.take_u64()?;
                    let config_length = section.take_u32()? as usize;
                    let config = bincodec::config_from_bin(section.take_bytes(config_length)?)?;
                    let report_length = section.take_u32()? as usize;
                    let report = bincodec::report_from_bin(section.take_bytes(report_length)?)?;
                    section.finish()?;
                    if now_unix.saturating_sub(written_at) > max_age_secs {
                        continue;
                    }
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

    /// Restores entries from a snapshot produced by
    /// [`ReportCache::snapshot_json`], inserting them as most-recently-used
    /// in snapshot order (capacity bounds still apply). Returns the number
    /// of entries actually stored — rows the cache rejected (already
    /// present, or storage disabled) are not counted, though under a bound
    /// tighter than the snapshot a stored row may still evict an earlier
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on malformed JSON or a
    /// `schema_version` other than [`CACHE_SCHEMA_VERSION`] — a snapshot
    /// from a different format generation is rejected, never reinterpreted.
    pub fn load_snapshot(&self, snapshot: &str) -> Result<usize> {
        let value = JsonValue::parse(snapshot)?;
        let version = value.get("schema_version")?.as_u64()?;
        if version != CACHE_SCHEMA_VERSION {
            return Err(SimError::Persistence {
                reason: format!(
                    "cache snapshot schema version {version} does not match supported version {CACHE_SCHEMA_VERSION}"
                ),
            });
        }
        let entries = value.get("entries")?.as_array()?;
        let mut loaded = 0;
        for row in entries {
            let config = config_from_json(row.get("config")?)?;
            let report = report_from_json(row.get("report")?)?;
            if self.insert_row(config, report) {
                loaded += 1;
            }
        }
        Ok(loaded)
    }

    /// Writes the snapshot to a file as a binary document. A save onto an
    /// existing current-version binary file appends only the rows whose
    /// keys the file lacks instead of rewriting everything; any other
    /// target — missing file, JSON file, older or damaged binary, or an
    /// append that would take the file's row count past the capacity
    /// bound — is a full rewrite. Returns the number of rows the file holds
    /// after the save (at most the configured capacity on a rewrite).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on I/O failure.
    pub fn save_to_path(&self, path: &Path) -> Result<usize> {
        let written_at = now_unix();
        let rows = self.snapshot_rows();
        if let Some(persisted) = binary_snapshot_row_keys(path) {
            let existing: BTreeSet<&[u8]> = persisted.iter().map(Vec::as_slice).collect();
            let fresh: Vec<&(Vec<u8>, u64, SimConfig, PlatformReport)> = rows
                .iter()
                .filter(|(key, _, _, _)| !existing.contains(key.as_slice()))
                .collect();
            let total = persisted.len() + fresh.len();
            if total <= self.memo.config().capacity {
                let mut appended = Vec::new();
                for (_, fingerprint, config, report) in fresh {
                    appended.extend_from_slice(&snapshot_row_section(
                        written_at,
                        *fingerprint,
                        config,
                        report,
                    ));
                }
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|io| persistence_io("appending to", path, &io))?;
                file.write_all(&appended)
                    .map_err(|io| persistence_io("appending to", path, &io))?;
                return Ok(total);
            }
        }
        std::fs::write(path, encode_snapshot_bin(&rows, written_at))
            .map_err(|io| persistence_io("writing", path, &io))?;
        Ok(rows.len())
    }

    /// Loads a snapshot file — binary, as [`ReportCache::save_to_path`]
    /// writes it, or a JSON-era text file — auto-detected from the first
    /// byte. Binary snapshots honour the
    /// [`CACHE_MAX_AGE_ENV`] age bound; JSON snapshots carry no timestamps
    /// and load in full. Returns the number of entries loaded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on I/O failure, a malformed snapshot
    /// in either format, or a mismatched schema version.
    pub fn load_from_path(&self, path: &Path) -> Result<usize> {
        let bytes = std::fs::read(path).map_err(|io| persistence_io("reading", path, &io))?;
        if bincodec::is_binary(&bytes) {
            return self.load_snapshot_bin_bounded(&bytes, now_unix(), max_age_from_env());
        }
        let snapshot = std::str::from_utf8(&bytes).map_err(|_| SimError::Persistence {
            reason: format!(
                "cache snapshot {} is neither a binary document nor UTF-8 JSON",
                path.display()
            ),
        })?;
        self.load_snapshot(snapshot)
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

    #[test]
    fn age_bound_skips_stale_rows_without_error() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        let bytes = encode_snapshot_bin(&cache.snapshot_rows(), 1_000);
        let fresh_enough = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(
            fresh_enough
                .load_snapshot_bin_bounded(&bytes, 1_500, 600)
                .unwrap(),
            1
        );
        let too_old = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(
            too_old
                .load_snapshot_bin_bounded(&bytes, 2_000, 600)
                .unwrap(),
            0
        );
        assert!(too_old.is_empty());
    }

    #[test]
    fn binary_save_appends_new_rows_only() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-append-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        assert_eq!(cache.save_to_path(&path).unwrap(), 1);
        let first_size = std::fs::metadata(&path).unwrap().len();

        // Saving again with no new entries appends nothing.
        assert_eq!(cache.save_to_path(&path).unwrap(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first_size);

        // A new entry appends one row; the old bytes stay in place.
        let b = config(8);
        cache.get_or_compute(&b, || evaluate(&b)).unwrap();
        assert_eq!(cache.save_to_path(&path).unwrap(), 2);
        assert!(std::fs::metadata(&path).unwrap().len() > first_size);

        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_from_path(&path).unwrap(), 2);
        assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_save_rewrites_when_append_would_exceed_capacity() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-rewrite-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let small = ReportCache::new(CacheConfig::unsharded(2));
        for length in [6, 8] {
            let config = config(length);
            small.get_or_compute(&config, || evaluate(&config)).unwrap();
        }
        assert_eq!(small.save_to_path(&path).unwrap(), 2);
        // Touch `a` so it survives eviction, then push a third entry out of
        // capacity: the file now holds a fingerprint the cache evicted, so
        // an append would exceed the bound and a rewrite happens instead.
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

    /// The keys of every row the file at `path` holds, in file order.
    fn persisted_keys(path: &Path) -> Vec<Vec<u8>> {
        binary_snapshot_row_keys(path).expect("a healthy binary snapshot")
    }

    #[test]
    fn appending_saves_key_rows_by_their_config_not_the_stored_fingerprint() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-foreign-{}.bin", std::process::id()));
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        for length in [6, 8] {
            let config = config(length);
            cache.get_or_compute(&config, || evaluate(&config)).unwrap();
        }
        // The same rows as a writer with another key scheme leaves them:
        // every stored fingerprint foreign to this one.
        let foreign: Vec<_> = cache
            .snapshot_rows()
            .into_iter()
            .map(|(key, fingerprint, config, report)| (key, !fingerprint, config, report))
            .collect();
        std::fs::write(&path, encode_snapshot_bin(&foreign, now_unix())).unwrap();
        let size = std::fs::metadata(&path).unwrap().len();
        for _ in 0..2 {
            assert_eq!(cache.save_to_path(&path).unwrap(), 2);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        }
        let keys = persisted_keys(&path);
        assert_eq!(keys.len(), 2);
        assert_ne!(keys[0], keys[1]);
        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_from_path(&path).unwrap(), 2);
        assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appending_saves_count_rows_not_keys_against_capacity() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-aliased-{}.bin", std::process::id()));
        let cache = ReportCache::new(CacheConfig::unsharded(3));
        let [a, b, c] = [config(6), config(8), config(10)];
        for config in [&a, &b] {
            cache.get_or_compute(config, || evaluate(config)).unwrap();
        }
        // Three rows holding two keys: a Gaussian and a Laplace row of `a`
        // share one report key under this scheme.
        let mut rows = cache.snapshot_rows();
        let aliased = rows[0].clone();
        rows.push((
            aliased.0,
            aliased.1,
            aliased.2.with_disturbance(crate::DisturbanceKind::Laplace),
            aliased.3,
        ));
        std::fs::write(&path, encode_snapshot_bin(&rows, now_unix())).unwrap();
        // One new entry fits three distinct keys but not four rows: the
        // save rewrites instead of appending past the bound.
        cache.get_or_compute(&c, || evaluate(&c)).unwrap();
        for _ in 0..2 {
            assert_eq!(cache.save_to_path(&path).unwrap(), 3);
            let keys = persisted_keys(&path);
            assert_eq!(keys.len(), 3);
            assert_eq!(keys.iter().collect::<BTreeSet<_>>().len(), 3);
        }
        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_from_path(&path).unwrap(), 3);
        assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_era_snapshot_still_loads_from_path() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-json-era-{}.json", std::process::id()));
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        std::fs::write(&path, cache.snapshot_json()).unwrap();
        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_from_path(&path).unwrap(), 1);
        assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        // Saving onto a JSON-era file rewrites it as binary.
        assert_eq!(restored.save_to_path(&path).unwrap(), 1);
        assert!(bincodec::is_binary(&std::fs::read(&path).unwrap()));
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
