//! Throughput of the serving substrate: a cold evaluation vs a report-cache
//! hit vs the full wire round trip (serialize → parse → serve), plus the
//! engine's single-flight batch path. These are the numbers the serving
//! layer's latency budget rests on — a cache hit should be orders of
//! magnitude cheaper than an evaluation, and the wire codec should cost far
//! less than a miss.
//!
//! There is one report memo: the `ReportCache` is the stage graph's
//! `Composite` slot, keyed by that stage's key. `cache_hit` times a
//! standalone one; `warm_full_sweep` times the engine's, where each point
//! is one slot lookup and no other stage is consulted.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use decoder_sim::codec::{config_from_json, config_to_json};
use decoder_sim::{
    CacheConfig, EngineConfig, ExecutionEngine, ReportCache, SimConfig, SimulationPlatform,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn paper_config() -> SimConfig {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    SimConfig::paper_defaults(code).unwrap()
}

fn bench_report_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("report_cache");
    group.sample_size(10);
    let config = paper_config();

    group.bench_function("evaluate_cold", |b| {
        b.iter(|| {
            SimulationPlatform::new(black_box(&config).clone())
                .evaluate()
                .unwrap()
        });
    });

    let cache = ReportCache::new(CacheConfig::default());
    cache
        .get_or_compute(&config, || {
            SimulationPlatform::new(config.clone()).evaluate()
        })
        .unwrap();
    group.bench_function("cache_hit", |b| {
        b.iter(|| {
            cache
                .get_or_compute(black_box(&config), || unreachable!("cache is warm"))
                .unwrap()
        });
    });

    group.bench_function("wire_codec_round_trip", |b| {
        b.iter(|| {
            let json = config_to_json(black_box(&config)).render();
            config_from_json(&decoder_sim::codec::JsonValue::parse(&json).unwrap()).unwrap()
        });
    });

    // The engine batch path over a warm report slot: every sweep point is
    // one composite lookup, all hits.
    let engine = ExecutionEngine::new(EngineConfig {
        threads: 2,
        chunk_size: 256,
    });
    let base = paper_config();
    engine
        .full_sweep(
            &base,
            &[CodeKind::Tree, CodeKind::BalancedGray],
            LogicLevel::BINARY,
            &[6, 8, 10],
        )
        .unwrap();
    group.bench_function("warm_full_sweep", |b| {
        b.iter(|| {
            engine
                .full_sweep(
                    black_box(&base),
                    &[CodeKind::Tree, CodeKind::BalancedGray],
                    LogicLevel::BINARY,
                    &[6, 8, 10],
                )
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(report_cache, bench_report_cache);
criterion_main!(report_cache);
