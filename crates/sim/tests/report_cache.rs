//! Edge-case coverage for the sharded, bounded, single-flight report cache:
//! degenerate capacities, LRU eviction order under interleaved hits,
//! single-flight under contention, binary snapshot round-trips and schema
//! versioning, snapshots whose configs carry retired fields (code-search
//! budgets, sampling knobs), and report keying (a disturbance variant shares its report entry; a
//! window variant does not).

mod retired;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

use decoder_sim::bincodec::{self, config_to_bin, report_to_bin, BinWriter};
use decoder_sim::{
    CacheConfig, DefectKind, DisturbanceKind, ExecutionEngine, ReportCache, SimConfig,
    SimulationPlatform, CACHE_SCHEMA_VERSION,
};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn config(kind: CodeKind, length: usize) -> SimConfig {
    let code = CodeSpec::new(kind, LogicLevel::BINARY, length).unwrap();
    SimConfig::paper_defaults(code).unwrap()
}

fn evaluate(config: &SimConfig) -> decoder_sim::Result<decoder_sim::PlatformReport> {
    SimulationPlatform::new(config.clone()).evaluate()
}

#[test]
fn capacity_zero_disables_storage_but_stays_correct() {
    let cache = ReportCache::new(CacheConfig::unsharded(0));
    let a = config(CodeKind::Tree, 8);
    let first = cache.get_or_compute(&a, || evaluate(&a)).unwrap();
    let second = cache.get_or_compute(&a, || evaluate(&a)).unwrap();
    assert_eq!(first, second);
    assert!(cache.is_empty());
    assert!(!cache.contains(&a));
    let stats = cache.stats();
    // Nothing is ever stored, so every lookup recomputes.
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));
}

#[test]
fn capacity_one_keeps_only_the_most_recent_config() {
    let cache = ReportCache::new(CacheConfig::unsharded(1));
    let a = config(CodeKind::Tree, 6);
    let b = config(CodeKind::Tree, 8);
    cache.get_or_compute(&a, || evaluate(&a)).unwrap();
    assert!(cache.contains(&a));
    cache.get_or_compute(&b, || evaluate(&b)).unwrap();
    assert!(cache.contains(&b) && !cache.contains(&a));
    assert_eq!(cache.len(), 1);
    // Ping-ponging two configurations through a 1-entry cache evicts on
    // every switch and never hits.
    cache.get_or_compute(&a, || evaluate(&a)).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.evictions, 2);
}

#[test]
fn lru_eviction_order_respects_interleaved_hits() {
    let cache = ReportCache::new(CacheConfig::unsharded(3));
    let a = config(CodeKind::Tree, 6);
    let b = config(CodeKind::Tree, 8);
    let c = config(CodeKind::Tree, 10);
    let d = config(CodeKind::Gray, 8);
    for entry in [&a, &b, &c] {
        cache.get_or_compute(entry, || evaluate(entry)).unwrap();
    }
    // Touch A (a hit): B becomes the least recently used entry.
    cache.get_or_compute(&a, || evaluate(&a)).unwrap();
    // Inserting D must now evict B — not A (recently touched) and not C.
    cache.get_or_compute(&d, || evaluate(&d)).unwrap();
    assert!(cache.contains(&a), "recently hit entry was evicted");
    assert!(!cache.contains(&b), "LRU entry survived");
    assert!(cache.contains(&c));
    assert!(cache.contains(&d));
    assert_eq!(cache.stats().evictions, 1);

    // Recency is now A < C < D; touching C makes it A < D < C, so a fifth
    // configuration must evict A.
    cache.get_or_compute(&c, || evaluate(&c)).unwrap();
    let e = config(CodeKind::Gray, 10);
    cache.get_or_compute(&e, || evaluate(&e)).unwrap();
    assert!(!cache.contains(&a), "expected A to be the LRU victim");
    assert!(cache.contains(&d) && cache.contains(&c) && cache.contains(&e));
}

#[test]
fn single_flight_runs_one_computation_under_contention() {
    let cache = ReportCache::new(CacheConfig::unsharded(8));
    let shared = config(CodeKind::BalancedGray, 10);
    let evaluations = AtomicUsize::new(0);
    let threads = 12;
    let barrier = Barrier::new(threads);
    let reports: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = &cache;
                let shared = &shared;
                let evaluations = &evaluations;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_compute(shared, || {
                            evaluations.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that every
                            // other thread arrives while it is in flight.
                            thread::sleep(Duration::from_millis(50));
                            evaluate(shared)
                        })
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        evaluations.load(Ordering::SeqCst),
        1,
        "contended lookups did not single-flight"
    );
    assert!(reports.windows(2).all(|pair| pair[0] == pair[1]));
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, threads as u64 - 1);
}

#[test]
fn a_panicking_leader_never_wedges_the_fingerprint() {
    let cache = ReportCache::new(CacheConfig::unsharded(8));
    let shared = config(CodeKind::Tree, 8);
    let barrier = Barrier::new(2);
    thread::scope(|scope| {
        let leader = scope.spawn(|| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_compute(&shared, || {
                    barrier.wait();
                    // Let the waiter join the flight before unwinding.
                    thread::sleep(Duration::from_millis(50));
                    panic!("evaluation bug");
                })
            }));
            assert!(result.is_err(), "leader must propagate its panic");
        });
        let waiter = scope.spawn(|| {
            barrier.wait();
            // Joins the in-flight computation; when the leader panics the
            // guard must wake this thread, which then retakes the lead and
            // succeeds. Without the guard this blocks forever.
            cache.get_or_compute(&shared, || evaluate(&shared)).unwrap()
        });
        leader.join().unwrap();
        waiter.join().unwrap();
    });
    assert!(cache.contains(&shared));
    // And a fresh request is an ordinary hit.
    cache
        .get_or_compute(&shared, || unreachable!("warm"))
        .unwrap();
}

#[test]
fn persistence_round_trips_bit_identically() {
    let cache = ReportCache::new(CacheConfig::default());
    let gaussian = config(CodeKind::Tree, 8);
    let laplace = config(CodeKind::Tree, 8).with_disturbance(DisturbanceKind::Laplace);
    let windowed = config(CodeKind::Tree, 8).with_window(Volts::new(0.2));
    let gray = config(CodeKind::Gray, 10);
    for entry in [&gaussian, &laplace, &windowed, &gray] {
        cache.get_or_compute(entry, || evaluate(entry)).unwrap();
    }
    // No report stage reads the disturbance kind: the Laplace variant
    // shared the Gaussian entry (one miss, identical report), while the
    // window variant — a field the report reads — is an entry of its own.
    assert_eq!(cache.len(), 3);
    assert_eq!(cache.stats().misses, 3);
    let snapshot = cache.snapshot_bin();

    let restored = ReportCache::new(CacheConfig::default());
    assert_eq!(restored.load_snapshot_bin(&snapshot).unwrap(), 3);
    assert_eq!(restored.len(), 3);
    for entry in [&gaussian, &laplace, &windowed, &gray] {
        assert!(restored.contains(entry));
        let original = cache
            .get_or_compute(entry, || unreachable!("warm"))
            .unwrap();
        let reloaded = restored
            .get_or_compute(entry, || unreachable!("warm"))
            .unwrap();
        assert_eq!(reloaded, original);
        assert_eq!(reloaded, evaluate(entry).unwrap());
        assert_eq!(
            reloaded.crossbar_yield.to_bits(),
            original.crossbar_yield.to_bits()
        );
    }
    // Snapshots are canonical: re-rendering the restored cache is
    // byte-identical.
    assert_eq!(restored.snapshot_bin(), snapshot);
}

#[test]
fn binary_snapshots_round_trip_and_agree_with_json() {
    let cache = ReportCache::new(CacheConfig::default());
    let gaussian = config(CodeKind::Tree, 8);
    let laplace = config(CodeKind::Tree, 8).with_disturbance(DisturbanceKind::Laplace);
    let windowed = config(CodeKind::Tree, 8).with_window(Volts::new(0.2));
    let gray = config(CodeKind::Gray, 10);
    for entry in [&gaussian, &laplace, &windowed, &gray] {
        cache.get_or_compute(entry, || evaluate(entry)).unwrap();
    }
    // The disturbance variant shares one entry; the window variant does not.
    assert_eq!((cache.len(), cache.stats().misses), (3, 3));

    let restored_bin = ReportCache::new(CacheConfig::default());
    assert_eq!(
        restored_bin
            .load_snapshot_bin(&cache.snapshot_bin())
            .unwrap(),
        3
    );

    // The restored cache renders the original's canonical JSON snapshot,
    // bit for bit.
    assert_eq!(restored_bin.snapshot_json(), cache.snapshot_json());
    for entry in [&gaussian, &laplace, &windowed, &gray] {
        let original = cache
            .get_or_compute(entry, || unreachable!("warm"))
            .unwrap();
        let reloaded = restored_bin
            .get_or_compute(entry, || unreachable!("warm"))
            .unwrap();
        assert_eq!(reloaded, original);
        assert_eq!(
            reloaded.crossbar_yield.to_bits(),
            original.crossbar_yield.to_bits()
        );
    }
}

#[test]
fn binary_snapshots_are_at_least_40_percent_smaller_at_64_entries() {
    // One evaluated report re-keyed under 64 distinct configurations (the
    // window override is a field every report reads, so each one is its own
    // entry), so the size comparison does not need 64 evaluations.
    let cache = ReportCache::new(CacheConfig::unsharded(64));
    let base = config(CodeKind::Tree, 8);
    let report = evaluate(&base).unwrap();
    for index in 0..64u32 {
        let entry = base
            .clone()
            .with_window(Volts::new(0.1 + f64::from(index) / 256.0));
        cache.get_or_compute(&entry, || Ok(report.clone())).unwrap();
    }
    assert_eq!(cache.len(), 64);

    let json_bytes = cache.snapshot_json().len();
    let bin_bytes = cache.snapshot_bin().len();
    assert!(
        (bin_bytes as f64) <= 0.60 * json_bytes as f64,
        "binary snapshot is {bin_bytes} B against {json_bytes} B of JSON — \
         less than the required 40% saving"
    );

    // And the large snapshot still round-trips completely.
    let restored = ReportCache::new(CacheConfig::unsharded(64));
    assert_eq!(
        restored.load_snapshot_bin(&cache.snapshot_bin()).unwrap(),
        64
    );
    assert_eq!(restored.snapshot_json(), cache.snapshot_json());
}

/// A snapshot whose config documents carry a retired field — code-search
/// budgets in section `0x07`, Monte-Carlo sampling knobs in section `0x0a`
/// — loads every row, and each row's configuration is then a report hit on
/// an engine: neither field is part of a configuration. The same rows
/// under schema version 2, whose configs could lower a budget and so hold
/// a fallback code's report, are a typed error that loads nothing.
#[test]
fn snapshots_whose_configs_carry_retired_sampling_knobs_load_and_hit() {
    let configs = [
        config(CodeKind::Tree, 8),
        config(CodeKind::Gray, 10).with_window(Volts::new(0.2)),
        config(CodeKind::BalancedGray, 8)
            .with_defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap()),
    ];
    for (index, retired) in retired::variants().into_iter().enumerate() {
        // The header section holds the schema version; each row section
        // the length-prefixed config and report documents.
        let snapshot = |version: u64| {
            let mut payload = BinWriter::new();
            payload.section(0x01, &version.to_le_bytes());
            for entry in &configs {
                let mut row = BinWriter::new();
                for document in [
                    retired.bin(&config_to_bin(entry)),
                    report_to_bin(&evaluate(entry).unwrap()),
                ] {
                    row.put_u32(u32::try_from(document.len()).unwrap());
                    row.put_bytes(&document);
                }
                payload.section(0x02, &row.into_bytes());
            }
            bincodec::document(bincodec::DOC_SNAPSHOT, &payload.into_bytes())
        };
        let path =
            std::env::temp_dir().join(format!("mspt-retired-{index}-{}.bin", std::process::id()));
        std::fs::write(&path, snapshot(CACHE_SCHEMA_VERSION)).unwrap();
        let engine = ExecutionEngine::serial();
        let loaded = engine.load_cache(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.unwrap(), configs.len(), "{retired:?}");
        for entry in &configs {
            assert_eq!(engine.report_for(entry).unwrap(), evaluate(entry).unwrap());
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (configs.len() as u64, 0));

        // Version 2 rows may hold fallback codes' reports, version 3 rows
        // the survival of the old defect stream, and version 4 rows the
        // survival of one sampled instance where a report now composes the
        // expected survival.
        for stale in [2, 3, 4] {
            let cache = ReportCache::new(CacheConfig::default());
            let error = cache.load_snapshot_bin(&snapshot(stale)).unwrap_err();
            assert!(error.to_string().contains("schema version"), "{error}");
            assert!(cache.is_empty(), "version {stale}, {retired:?}");
        }
    }
}

#[test]
fn mismatched_snapshot_schema_versions_are_rejected() {
    let cache = ReportCache::new(CacheConfig::default());
    let a = config(CodeKind::Tree, 8);
    cache.get_or_compute(&a, || evaluate(&a)).unwrap();
    let snapshot = cache.snapshot_bin();
    // The header section opens the payload, after the 7-byte document
    // envelope and its own tag and length: its body is the version.
    let version = 7 + 1 + 4..7 + 1 + 4 + 8;
    assert_eq!(
        snapshot[version.clone()],
        CACHE_SCHEMA_VERSION.to_le_bytes()
    );
    let mut future = snapshot.clone();
    future[version].copy_from_slice(&999u64.to_le_bytes());

    let fresh = ReportCache::new(CacheConfig::default());
    let error = fresh.load_snapshot_bin(&future).unwrap_err();
    assert!(error.to_string().contains("schema version"));
    assert!(fresh.is_empty(), "a rejected snapshot must load nothing");
    // Garbage is rejected too.
    assert!(fresh.load_snapshot_bin(b"not a snapshot").is_err());
}

#[test]
fn tiny_capacities_clamp_the_shard_count_to_an_exact_bound() {
    // With the default 8 shards a capacity of 1 would otherwise retain one
    // entry *per shard*; the constructor clamps shards to the capacity so
    // the configured bound is exact.
    let cache = ReportCache::new(CacheConfig {
        capacity: 1,
        shards: 8,
    });
    assert_eq!(cache.config().shards, 1);
    for entry in [
        &config(CodeKind::Tree, 6),
        &config(CodeKind::Tree, 8),
        &config(CodeKind::Tree, 10),
    ] {
        cache.get_or_compute(entry, || evaluate(entry)).unwrap();
        assert_eq!(cache.len(), 1);
    }
    assert_eq!(cache.stats().evictions, 2);
}

#[test]
fn snapshots_are_bounded_to_the_cache_capacity() {
    // Capacity 3 over 2 shards → per-shard bound ceil(3/2) = 2, so the
    // in-memory cache may legitimately retain up to 4 entries. The persisted
    // snapshot must still be bounded to the configured capacity (keeping the
    // most recently used entries), so the warm-restart file cannot grow past
    // the bound no matter how the shard arithmetic over-retains.
    let cache = ReportCache::new(CacheConfig {
        capacity: 3,
        shards: 2,
    });
    let entries = [
        config(CodeKind::Tree, 6),
        config(CodeKind::Tree, 8),
        config(CodeKind::Tree, 10),
        config(CodeKind::Gray, 6),
        config(CodeKind::Gray, 8),
        config(CodeKind::Gray, 10),
        config(CodeKind::BalancedGray, 8),
    ];
    for entry in &entries {
        cache.get_or_compute(entry, || evaluate(entry)).unwrap();
    }
    let restored = ReportCache::new(CacheConfig::default());
    let rows = restored.load_snapshot_bin(&cache.snapshot_bin()).unwrap();
    assert!(
        rows <= 3,
        "snapshot persisted {rows} rows past the capacity bound of 3"
    );
    // The most recently used entry always survives the bound.
    assert!(restored.contains(&entries[entries.len() - 1]));
    assert_eq!(restored.len(), rows);
}

#[test]
fn loading_respects_the_capacity_bound() {
    let cache = ReportCache::new(CacheConfig::default());
    for entry in [
        &config(CodeKind::Tree, 6),
        &config(CodeKind::Tree, 8),
        &config(CodeKind::Tree, 10),
        &config(CodeKind::Gray, 8),
    ] {
        cache.get_or_compute(entry, || evaluate(entry)).unwrap();
    }
    let snapshot = cache.snapshot_bin();
    let bounded = ReportCache::new(CacheConfig::unsharded(2));
    // Every row is stored (then the tight bound evicts earlier ones).
    assert_eq!(bounded.load_snapshot_bin(&snapshot).unwrap(), 4);
    assert_eq!(bounded.len(), 2, "load must not exceed the capacity bound");
    assert_eq!(bounded.stats().evictions, 2);
    // A disabled cache stores nothing and reports exactly that.
    let disabled = ReportCache::new(CacheConfig::unsharded(0));
    assert_eq!(disabled.load_snapshot_bin(&snapshot).unwrap(), 0);
    assert!(disabled.is_empty());
}
