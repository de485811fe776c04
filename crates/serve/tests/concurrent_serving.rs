//! The serving layer's acceptance gates, as tests, over loopback TCP:
//!
//! * ≥ 8 concurrent clients receive reports **bit-identical** to the serial
//!   path;
//! * a second pass over the same mix is served **entirely** from the warm
//!   cache (100 % hit rate);
//! * a cache bounded below the number of distinct configurations evicts in
//!   LRU order and still serves bit-identical reports to 8 clients;
//! * a warm cache persisted to disk restarts warm in a fresh engine.

mod common;

use std::sync::Arc;

use common::{loopback_config, paper_mix};
use decoder_sim::{CacheConfig, EngineConfig, ExecutionEngine};
use mspt_serve::{run_net_stress, NetServer, ReportServer, StressConfig, WireCodec};

fn engine(threads: usize, cache: CacheConfig) -> Arc<ExecutionEngine> {
    Arc::new(ExecutionEngine::with_cache(
        EngineConfig {
            threads,
            chunk_size: 256,
        },
        cache,
    ))
}

#[test]
fn eight_clients_get_bit_identical_reports_and_a_warm_second_pass() {
    common::assert_bit_identical_with_a_warm_second_pass(&paper_mix(), 4, 8, 32);
}

#[test]
fn a_bounded_cache_still_serves_bit_identical_reports() {
    // Capacity far below the distinct-configuration count: constant
    // eviction, zero wrong answers.
    let server = ReportServer::new(engine(4, CacheConfig::unsharded(3)));
    let handle = NetServer::bind(loopback_config(8, 8), Arc::new(server.clone())).unwrap();
    let mix = paper_mix();
    let outcome = run_net_stress(
        handle.local_addr(),
        &mix,
        &StressConfig {
            clients: 8,
            requests_per_client: 24,
            seed: 7,
        },
        WireCodec::Json,
    )
    .unwrap();
    assert_eq!(outcome.mismatches, 0);
    assert_eq!(outcome.sheds, 0);
    assert_eq!(outcome.wire_failures, 0);
    let stats = server.stats();
    assert!(stats.evictions > 0, "a capacity-3 cache never evicted");
    assert!(stats.entries <= 3);
    handle.shutdown();
}

#[test]
fn a_persisted_cache_restarts_warm_in_a_fresh_engine() {
    let mix = paper_mix();
    let first = ReportServer::new(engine(2, CacheConfig::default()));
    for request in &mix {
        first.serve(request).unwrap();
    }
    let path =
        std::env::temp_dir().join(format!("mspt-serve-warm-cache-{}.json", std::process::id()));
    // The Laplace request shares the Gaussian Tree-8 row: no report stage
    // reads the disturbance kind, so its report is the same one.
    let distinct_reports = mix.len() - 1;
    let saved = first.engine().save_cache(&path).unwrap();
    assert_eq!(saved, distinct_reports);

    // A fresh engine loads the snapshot and serves the whole mix without a
    // single evaluation — and bit-identically to the original server.
    let second = ReportServer::new(engine(2, CacheConfig::default()));
    let loaded = second.engine().load_cache(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, distinct_reports);
    for request in &mix {
        assert_eq!(
            second.serve(request).unwrap(),
            first.serve(request).unwrap()
        );
    }
    assert_eq!(second.stats().misses, 0);
}
