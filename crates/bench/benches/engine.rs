//! Serial vs parallel execution engine: the Monte-Carlo validator sharded
//! into deterministic chunks, and the full Fig. 7/8 sweep batched across
//! threads. The outcomes are bit-identical at every thread count — only the
//! wall-clock changes.

use criterion::{criterion_group, criterion_main, Criterion};
use decoder_sim::{
    EngineConfig, ExecutionEngine, GaussianDisturbance, MonteCarloConfig, SimConfig,
    DEFAULT_CHUNK_SIZE,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn engine(threads: usize) -> ExecutionEngine {
    ExecutionEngine::new(EngineConfig {
        threads,
        chunk_size: DEFAULT_CHUNK_SIZE,
    })
}

fn bench_engine(c: &mut Criterion) {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).expect("code");
    let config = SimConfig::paper_defaults(code).expect("config");
    let platform = decoder_sim::SimulationPlatform::new(config.clone());
    let variability = platform.variability().expect("variability");
    let model = config.variability_model().expect("model");
    let window = config.decision_window().expect("window");

    let mut group = c.benchmark_group("engine_monte_carlo_8k_samples");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let engine = engine(threads);
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| {
                engine
                    .monte_carlo_with_disturbance(
                        &variability,
                        &model,
                        window,
                        MonteCarloConfig::fixed(8_000, 17),
                        &GaussianDisturbance,
                    )
                    .expect("monte carlo outcome")
            })
        });
    }
    group.finish();

    let base = config;
    let kinds = [
        CodeKind::Tree,
        CodeKind::Gray,
        CodeKind::BalancedGray,
        CodeKind::Hot,
    ];
    let lengths = [4usize, 6, 8, 10];
    let mut group = c.benchmark_group("engine_full_sweep_cold_cache");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| {
                // A fresh engine per iteration keeps the report cache cold so
                // the bench measures evaluation, not memoization.
                engine(threads)
                    .full_sweep(&base, &kinds, LogicLevel::BINARY, &lengths)
                    .expect("sweep reports")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
