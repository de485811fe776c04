//! The adaptive uniform-window Monte-Carlo kernel against its two
//! ablations: a fixed sampling budget on the same tight-window config (what
//! the adaptive stopping rule saves), and the Box–Muller Gaussian on the
//! general row-by-row path (what accepting regions in uniform space saves:
//! one draw and one compare per cell instead of a normal deviate). A
//! counting global allocator reports the steady-state allocations per
//! sampling call, pinning that the kernel allocates per chunk, never per
//! sample or cell.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use decoder_sim::{
    DisturbanceModel, ExecutionEngine, GaussianDisturbance, MonteCarloConfig, NormalSource,
    SimConfig, SimulationPlatform,
};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
use rand::rngs::StdRng;

/// Counts every heap allocation so the bench can report a per-call figure.
/// Lives in the bench target (the `mspt-bench` library itself stays under
/// `#![forbid(unsafe_code)]`).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The Box–Muller reference: a Gaussian disturbance that implements only
/// [`DisturbanceModel::sample_regions`], so it has no acceptance range and
/// the engine samples it on the general path. Benching it against
/// [`GaussianDisturbance`] isolates the uniform-window kernel from
/// everything else.
#[derive(Debug)]
struct ScalarGaussian;

impl DisturbanceModel for ScalarGaussian {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        GaussianDisturbance.sample_regions(sigmas, draws, out);
    }
}

/// Paper defaults with the decision window tightened well below the 0.25 V
/// half-width: addressability probabilities collapse toward zero, which is
/// exactly when sequential confidence stopping pays off.
fn tight_window_config() -> SimConfig {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).expect("code");
    SimConfig::paper_defaults(code)
        .expect("config")
        .with_window(Volts::new(0.1))
}

const FIXED_SAMPLES: usize = 20_000;
const KERNEL_SAMPLES: usize = 8_000;
const TARGET_HALF_WIDTH: f64 = 0.05;

/// Steady-state allocations per sampling call: one warmup call, then the
/// counter delta across `calls` further calls. The window kernel draws no
/// deviations at all; what remains is chunk bookkeeping (one small
/// per-chunk counts vector — the engine's chunk-ordered reduction
/// protocol), the per-estimate acceptance table and the outcome itself, so
/// the figure grows with the *chunk count*, never with `samples ×
/// nanowires × regions`.
fn allocations_per_call(
    engine: &ExecutionEngine,
    config: &SimConfig,
    samples: usize,
    calls: u64,
) -> u64 {
    let mc = |seed: u64| MonteCarloConfig::fixed(samples, seed);
    engine
        .monte_carlo_for_config(config, mc(u64::MAX - samples as u64))
        .expect("warmup outcome");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for seed in 0..calls {
        black_box(
            engine
                .monte_carlo_for_config(config, mc(seed))
                .expect("outcome"),
        );
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) / calls
}

fn bench_mc_kernel(c: &mut Criterion) {
    let config = tight_window_config();
    let engine = ExecutionEngine::serial();
    let platform = SimulationPlatform::new(config.clone());
    let variability = platform.variability().expect("variability");
    let model = config.variability_model().expect("model");
    let window = config.decision_window().expect("window");

    // Allocation evidence, printed ahead of the timing rows: doubling the
    // budget must not double the allocation count by anything close to the
    // per-sample cell volume (each sample decides nanowires × regions
    // cells — zero allocations).
    let allocs_1x = allocations_per_call(&engine, &config, KERNEL_SAMPLES, 8);
    let allocs_2x = allocations_per_call(&engine, &config, 2 * KERNEL_SAMPLES, 8);
    eprintln!(
        "mc_kernel: {allocs_1x} heap allocations per {KERNEL_SAMPLES}-sample call, \
         {allocs_2x} per {}-sample call (chunk bookkeeping only)",
        2 * KERNEL_SAMPLES
    );

    let mut group = c.benchmark_group("mc_kernel");
    group.sample_size(10);

    // The adaptive stopping rule on a tight window vs the same run forced
    // to draw its full budget. A fresh seed every iteration keeps the
    // Monte-Carlo stage a genuine miss (variability stays a stage hit).
    group.bench_function("fixed_20k_tight_window", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            engine
                .monte_carlo_for_config(
                    black_box(&config),
                    MonteCarloConfig::fixed(FIXED_SAMPLES, seed),
                )
                .expect("fixed outcome")
        });
    });
    group.bench_function("adaptive_20k_tight_window", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            engine
                .monte_carlo_for_config(
                    black_box(&config),
                    MonteCarloConfig::fixed(FIXED_SAMPLES, seed)
                        .with_target_half_width(TARGET_HALF_WIDTH),
                )
                .expect("adaptive outcome")
        });
    });

    // The uniform-window kernel vs the Box–Muller row loop, same fixed
    // budget, no stage cache in the way: both go straight through
    // `ExecutionEngine::monte_carlo_with_disturbance`.
    group.bench_function("uniform_window_8k", |b| {
        b.iter(|| {
            engine
                .monte_carlo_with_disturbance(
                    black_box(&variability),
                    &model,
                    window,
                    MonteCarloConfig::fixed(KERNEL_SAMPLES, 17),
                    &GaussianDisturbance,
                )
                .expect("window outcome")
        });
    });
    group.bench_function("scalar_rows_8k", |b| {
        b.iter(|| {
            engine
                .monte_carlo_with_disturbance(
                    black_box(&variability),
                    &model,
                    window,
                    MonteCarloConfig::fixed(KERNEL_SAMPLES, 17),
                    &ScalarGaussian,
                )
                .expect("scalar outcome")
        });
    });

    group.finish();
}

criterion_group!(benches, bench_mc_kernel);
criterion_main!(benches);
