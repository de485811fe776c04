//! Serial vs engine-sharded defect-map generation: the same independently
//! seeded band layout assembled by one thread or many — bit-identical maps
//! at every thread count, only the wall-clock changes. Beside it, the
//! streamed usable-crosspoint count the report path draws instead of the
//! map, serial and engine-sharded. Plus the end-to-end cost of a
//! defect-composed report: the count and the composition on top of the
//! decoder evaluation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crossbar_array::DefectModel;
use decoder_sim::{DefectKind, EngineConfig, ExecutionEngine, SimConfig, DEFAULT_CHUNK_SIZE};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// Crossbar edge used by the bench: 768 × 768 crosspoints spans twelve
/// 64-row bands, enough for the sharding to matter.
const EDGE: usize = 768;

fn bench_defect_map(c: &mut Criterion) {
    let model = DefectModel::new(0.02, 0.01).expect("model");
    let mut group = c.benchmark_group(format!("defect_map_{EDGE}x{EDGE}"));
    group.sample_size(10);
    group.bench_function("serial_sample_map", |b| {
        b.iter(|| model.sample_map(EDGE, EDGE, 42).expect("map"))
    });
    group.bench_function("serial_count", |b| {
        b.iter(|| model.count_usable(EDGE, EDGE, 42).expect("count"))
    });
    for threads in [1usize, 2, 4, 8] {
        let engine = ExecutionEngine::new(EngineConfig {
            threads,
            chunk_size: DEFAULT_CHUNK_SIZE,
        });
        group.bench_function(format!("engine_{threads}_threads"), |b| {
            b.iter(|| {
                engine
                    .sample_defect_map(&model, EDGE, EDGE, 42)
                    .expect("map")
            })
        });
        group.bench_function(format!("engine_count_{threads}_threads"), |b| {
            b.iter(|| engine.count_usable(&model, EDGE, EDGE, 42).expect("count"))
        });
    }
    group.finish();
}

/// The report-path cost of the defect dimension: evaluating the paper's
/// best balanced-Gray configuration defect-free vs with a sampled defect
/// instance composed in (363 × 363 crosspoints drawn and counted per cold
/// evaluation). Caching is disabled so every iteration pays the full cost.
fn bench_defect_report(c: &mut Criterion) {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).expect("code");
    let base = SimConfig::paper_defaults(code).expect("config");
    let defective = base
        .clone()
        .with_defects(DefectKind::sampled(0.02, 0.01, 2_009).expect("rates"));
    let engine = ExecutionEngine::with_cache(
        EngineConfig {
            threads: 2,
            chunk_size: DEFAULT_CHUNK_SIZE,
        },
        decoder_sim::CacheConfig::unsharded(0),
    );
    let mut group = c.benchmark_group("defect_report");
    group.sample_size(10);
    group.bench_function("defect_free", |b| {
        b.iter(|| engine.report_for(black_box(&base)).expect("report"))
    });
    group.bench_function("defect_composed", |b| {
        b.iter(|| engine.report_for(black_box(&defective)).expect("report"))
    });
    group.finish();
}

criterion_group!(benches, bench_defect_map, bench_defect_report);
criterion_main!(benches);
