//! The serving layer's acceptance gates, as tests:
//!
//! * ≥ 8 concurrent clients receive reports **bit-identical** to the serial
//!   path;
//! * a second pass over the same mix is served **entirely** from the warm
//!   cache (100 % hit rate);
//! * a cache bounded below the number of distinct configurations evicts in
//!   LRU order and still serves bit-identical reports;
//! * a warm cache persisted to disk restarts warm in a fresh engine.

use std::sync::Arc;

use decoder_sim::{
    CacheConfig, DefectKind, DisturbanceKind, EngineConfig, ExecutionEngine, SimConfig,
};
use mspt_serve::{run_stress, ReportRequest, ReportServer, StressConfig};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn paper_mix() -> Vec<ReportRequest> {
    // The Fig. 7/8 sweep points: four families at their valid lengths, plus
    // one non-Gaussian variant (it shares the Gaussian point's report entry:
    // no report stage reads the disturbance kind) and one sampled-defect
    // variant, which keys its own entry and exercises the engine's sharded
    // defect-map sampling under concurrent load.
    let mut mix = Vec::new();
    for (kind, lengths) in [
        (CodeKind::Tree, &[6usize, 8, 10][..]),
        (CodeKind::BalancedGray, &[6, 8, 10][..]),
        (CodeKind::Hot, &[4, 6, 8][..]),
        (CodeKind::ArrangedHot, &[4, 6, 8][..]),
    ] {
        for &length in lengths {
            let code = CodeSpec::new(kind, LogicLevel::BINARY, length).unwrap();
            mix.push(ReportRequest::new(SimConfig::paper_defaults(code).unwrap()));
        }
    }
    let laplace_code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
    mix.push(
        ReportRequest::builder(SimConfig::paper_defaults(laplace_code).unwrap())
            .disturbance(DisturbanceKind::Laplace)
            .build(),
    );
    let defect_code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    mix.push(
        ReportRequest::builder(SimConfig::paper_defaults(defect_code).unwrap())
            .defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap())
            .build(),
    );
    mix
}

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
    let server = ReportServer::new(engine(4, CacheConfig::default()));
    let mix = paper_mix();
    let stress = StressConfig {
        clients: 8,
        requests_per_client: 32,
        seed: 2_009,
    };

    let first = run_stress(&server, &mix, &stress).unwrap();
    assert_eq!(first.requests, 8 * 32);
    assert_eq!(
        first.mismatches, 0,
        "concurrent responses diverged from the serial reference"
    );
    // Every distinct requested configuration missed exactly once; everything
    // else already hit the shared warm cache.
    assert!(first.misses <= mix.len() as u64);
    assert!(first.hits + first.misses == first.requests);

    // Same seed ⇒ same request multiset ⇒ the second pass is all hits.
    let second = run_stress(&server, &mix, &stress).unwrap();
    assert_eq!(second.mismatches, 0);
    assert_eq!(
        second.misses, 0,
        "second pass was not served from the cache"
    );
    assert!((second.hit_rate() - 1.0).abs() < f64::EPSILON);
    assert_eq!(server.request_count(), 2 * 8 * 32);
}

#[test]
fn a_bounded_cache_still_serves_bit_identical_reports() {
    // Capacity far below the distinct-configuration count: constant
    // eviction, zero wrong answers.
    let server = ReportServer::new(engine(4, CacheConfig::unsharded(3)));
    let mix = paper_mix();
    let outcome = run_stress(
        &server,
        &mix,
        &StressConfig {
            clients: 8,
            requests_per_client: 24,
            seed: 7,
        },
    )
    .unwrap();
    assert_eq!(outcome.mismatches, 0);
    let stats = server.stats();
    assert!(stats.evictions > 0, "a capacity-3 cache never evicted");
    assert!(stats.entries <= 3);
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
