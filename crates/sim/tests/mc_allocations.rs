//! The Monte-Carlo kernel allocates per chunk, never per sample or cell.
//!
//! A counting global allocator sees every heap allocation of this test
//! binary, so the binary holds this one test and no other test's
//! allocations are counted. The estimates run on a serial engine through
//! the raw kernel entry point, so no memo slot allocates either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use decoder_sim::{
    CorrelatedDisturbance, DisturbanceModel, ExecutionEngine, GaussianDisturbance,
    LaplaceDisturbance, MonteCarloConfig, NormalSource, SimConfig, SimulationPlatform,
    DEFAULT_CHUNK_SIZE,
};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
use rand::rngs::StdRng;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches one atomic and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations that do not scale with the chunk count: the sigma matrix,
/// the acceptance or shared-offset table, the totals, the outcome and the
/// growth of the per-chunk result vector.
const CONSTANT_SLACK: u64 = 4;

/// A stock model forced onto the general path: it implements only
/// `sample_regions`.
#[derive(Debug)]
struct GeneralPath<M>(M);

impl<M: DisturbanceModel> DisturbanceModel for GeneralPath<M> {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        self.0.sample_regions(sigmas, draws, out);
    }
}

/// Doubling the sample budget (32 → 63 chunks) adds at most one allocation
/// per added chunk on the window and shared-offset paths (its counts) and
/// two on the general path (its counts and its deviation row).
#[test]
fn monte_carlo_allocates_per_chunk_never_per_sample() {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    let config = SimConfig::paper_defaults(code)
        .unwrap()
        .with_window(Volts::new(0.1));
    let variability = SimulationPlatform::new(config.clone())
        .variability()
        .unwrap();
    let model = config.variability_model().unwrap();
    let window = config.decision_window().unwrap();
    let engine = ExecutionEngine::serial();
    let allocations = |samples: usize, disturbance: &dyn DisturbanceModel| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcome = engine
            .monte_carlo_with_disturbance(
                &variability,
                &model,
                window,
                MonteCarloConfig::fixed(samples, 17),
                disturbance,
            )
            .unwrap();
        let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(outcome.samples_used, samples);
        counted
    };
    let chunks = |samples: usize| samples.div_ceil(DEFAULT_CHUNK_SIZE) as u64;
    let added_chunks = chunks(16_000) - chunks(8_000);

    let correlated = CorrelatedDisturbance::new(0.5).unwrap();
    let paths: [(&str, &dyn DisturbanceModel, u64); 4] = [
        ("Gaussian window path", &GaussianDisturbance, 1),
        ("Laplace window path", &LaplaceDisturbance, 1),
        ("correlated shared-offset path", &correlated, 1),
        ("correlated general path", &GeneralPath(correlated), 2),
    ];
    for (path, disturbance, per_chunk) in paths {
        let small = allocations(8_000, disturbance);
        let large = allocations(16_000, disturbance);
        assert!(
            large <= small + per_chunk * added_chunks + CONSTANT_SLACK,
            "{path}: {small} allocations at 8,000 samples, {large} at 16,000 \
             ({added_chunks} more chunks, at most {per_chunk} each)"
        );
    }
}
