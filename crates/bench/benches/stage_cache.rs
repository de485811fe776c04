//! Incremental recomputation through the stage graph: a cold staged
//! evaluation vs the composite-stage hit floor, and the re-evaluation
//! shapes the stage cache exists for — a defect-rate sweep point (new
//! defect seed: the report slot misses, the upstream stages all hit) and a
//! disturbance change (no report stage reads it, so the report slot hits).
//! The `Composite` slot is the engine's one report memo, so the hit floor
//! here is the same lookup `report_for` serves hits with. Cold sits around
//! the full-pipeline cost; the hit floor and the disturbance change should
//! be orders of magnitude below it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use decoder_sim::{
    CacheConfig, DefectKind, DisturbanceKind, Evaluation, ExecutionEngine, MonteCarloConfig,
    SimConfig, SimulationPlatform, StageCache,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn paper_config() -> SimConfig {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    SimConfig::paper_defaults(code).unwrap()
}

fn warm_engine(base: &SimConfig) -> ExecutionEngine {
    let engine = ExecutionEngine::serial();
    engine.report_for(base).unwrap();
    engine
}

fn bench_stage_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage_cache");
    group.sample_size(10);
    let base = paper_config();

    // A disabled cache turns every stage lookup into a leader-path miss:
    // the whole pipeline runs, same work as the monolithic evaluation.
    group.bench_function("staged_cold", |b| {
        let platform = SimulationPlatform::new(base.clone());
        let stages = StageCache::disabled();
        b.iter(|| {
            platform
                .evaluate_with_stage_cache(black_box(&stages), None)
                .unwrap()
        });
    });

    // The hit floor: the composite slot serves the whole report, no inner
    // stage is even consulted.
    group.bench_function("staged_hit", |b| {
        let platform = SimulationPlatform::new(base.clone());
        let stages = StageCache::new(CacheConfig::default());
        platform.evaluate_with_stage_cache(&stages, None).unwrap();
        b.iter(|| {
            platform
                .evaluate_with_stage_cache(black_box(&stages), None)
                .unwrap()
        });
    });

    // One point of a defect-rate sweep: every iteration evaluates a config
    // differing from the warm one only in its defect seed, so variability,
    // addressability, layout, yield and area are all stage hits and only
    // the defect map is resampled and recomposed.
    group.bench_function("partial_reeval_new_defect_seed", |b| {
        let engine = warm_engine(&base);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let config = base
                .clone()
                .with_defects(DefectKind::sampled(0.02, 0.01, seed).unwrap());
            engine.report_for(black_box(&config)).unwrap()
        });
    });

    // A disturbance change through the unified entry point: no report stage
    // reads the disturbance, so the varied configuration shares the warm
    // report entry and is served by one report-slot hit — this should sit
    // at the hit floor, far below the cold pipeline.
    group.bench_function("disturbance_change_partial_reeval", |b| {
        let engine = warm_engine(&base);
        let mut step = 0u64;
        b.iter(|| {
            step += 1;
            // A fresh shared fraction each iteration: a new configuration
            // every sample, yet the same report key.
            #[allow(clippy::cast_precision_loss)]
            let kind = DisturbanceKind::Correlated {
                shared_fraction: (step % 97) as f64 / 97.0,
            };
            Evaluation::builder(black_box(&base).clone().with_disturbance(kind))
                .run(&engine)
                .unwrap()
        });
    });

    // A new sampling seed on an unchanged config: only the Monte-Carlo
    // stage misses; the variability stage it draws from is a hit.
    group.bench_function("mc_new_seed_reuses_variability", |b| {
        let engine = warm_engine(&base);
        engine
            .monte_carlo_for_config(&base, MonteCarloConfig::fixed(64, 0))
            .unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            engine
                .monte_carlo_for_config(black_box(&base), MonteCarloConfig::fixed(64, seed))
                .unwrap()
        });
    });

    group.finish();
}

criterion_group!(stage_cache, bench_stage_cache);
criterion_main!(stage_cache);
