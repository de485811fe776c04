//! Ablation bench: analytic (closed-form Gaussian) vs Monte-Carlo yield
//! estimation for the same decoder design, the latter on a fresh serial
//! engine per iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use crossbar_array::AddressabilityProfile;
use decoder_sim::{
    ExecutionEngine, GaussianDisturbance, MonteCarloConfig, SimConfig, SimulationPlatform,
};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn bench_monte_carlo(c: &mut Criterion) {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).expect("code");
    let config = SimConfig::paper_defaults(code).expect("config");
    let platform = SimulationPlatform::new(config.clone());
    let variability = platform.variability().expect("variability");
    let model = config.variability_model().expect("model");
    let window = config.decision_window().expect("window");

    let mut group = c.benchmark_group("yield_estimation");
    group.sample_size(10);
    group.bench_function("analytic", |b| {
        b.iter(|| {
            AddressabilityProfile::from_variability(&variability, &model, window)
                .expect("analytic profile")
        })
    });
    for samples in [500usize, 2_000] {
        group.bench_function(format!("monte_carlo_{samples}_samples"), |b| {
            b.iter(|| {
                ExecutionEngine::serial()
                    .monte_carlo_with_disturbance(
                        &variability,
                        &model,
                        Volts::new(window.value()),
                        MonteCarloConfig::fixed(samples, 17),
                        &GaussianDisturbance,
                    )
                    .expect("monte carlo profile")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_monte_carlo);
criterion_main!(benches);
