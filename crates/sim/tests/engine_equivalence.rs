//! Cross-thread equivalence and RNG-discipline regression tests for the
//! parallel execution engine: the engine must be bit-identical to the serial
//! path for Monte-Carlo and for batches of design points at any thread
//! count, and the exact Monte-Carlo outcome for a fixed seed is pinned so
//! future changes to the sampling discipline are loud.

use crossbar_array::{CompositeYield, DefectModel};
use decoder_sim::bincodec::report_to_bin;
use decoder_sim::{
    design_points, DefectKind, DisturbanceKind, DisturbanceModel, EngineConfig, ExecutionEngine,
    GaussianDisturbance, LaplaceDisturbance, MonteCarloConfig, MonteCarloOutcome, NormalSource,
    PlatformReport, SimConfig, DEFAULT_CHUNK_SIZE,
};
use device_physics::{DopingLadder, ThresholdModel, VariabilityModel, Volts};
use mspt_fabrication::{PatternMatrix, VariabilityMatrix};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
use rand::rngs::StdRng;

fn variability(kind: CodeKind, length: usize, nanowires: usize) -> VariabilityMatrix {
    let seq = CodeSpec::new(kind, LogicLevel::BINARY, length)
        .unwrap()
        .generate()
        .unwrap()
        .take_cyclic(nanowires)
        .unwrap();
    let ladder = DopingLadder::from_model(
        &ThresholdModel::default_mspt(),
        2,
        (Volts::new(0.0), Volts::new(1.0)),
    )
    .unwrap();
    VariabilityMatrix::from_pattern(
        &PatternMatrix::from_sequence(&seq).unwrap(),
        &ladder,
        &VariabilityModel::paper_default(),
    )
    .unwrap()
}

fn engine(threads: usize) -> ExecutionEngine {
    ExecutionEngine::new(EngineConfig {
        threads,
        chunk_size: DEFAULT_CHUNK_SIZE,
    })
}

/// A Monte-Carlo estimate on `engine` under the paper's Gaussian
/// disturbance model.
fn gaussian(
    engine: &ExecutionEngine,
    variability: &VariabilityMatrix,
    window: Volts,
    config: MonteCarloConfig,
) -> MonteCarloOutcome {
    engine
        .monte_carlo_with_disturbance(
            variability,
            &VariabilityModel::paper_default(),
            window,
            config,
            &GaussianDisturbance,
        )
        .unwrap()
}

#[test]
fn monte_carlo_is_bit_identical_across_thread_counts() {
    let variability = variability(CodeKind::Tree, 8, 10);
    let window = Volts::new(0.25);
    let config = MonteCarloConfig::fixed(1_000, 42);
    let serial = gaussian(&ExecutionEngine::serial(), &variability, window, config);
    for threads in [1usize, 2, 4, 8] {
        let parallel = gaussian(&engine(threads), &variability, window, config);
        assert_eq!(
            serial, parallel,
            "outcome diverged at {threads} engine threads"
        );
    }
}

/// The adaptive stopping decision is evaluated in deterministic chunk order
/// over thread-independent per-chunk counts, so `samples_used`, the profile,
/// and the CI bounds must all be bit-identical at 1, 4 and 8 engine threads —
/// the adaptive extension of the cross-thread determinism gate.
#[test]
fn adaptive_stopping_is_bit_identical_across_thread_counts() {
    let variability = variability(CodeKind::Gray, 8, 16);
    let window = Volts::new(0.25);
    let config = MonteCarloConfig::fixed(20_000, 42).with_target_half_width(0.05);
    let reference = gaussian(&engine(1), &variability, window, config);
    assert!(
        reference.samples_used < reference.samples,
        "the target must stop sampling before the cap for this gate to bite"
    );
    for threads in [4usize, 8] {
        let parallel = gaussian(&engine(threads), &variability, window, config);
        assert_eq!(
            reference.samples_used, parallel.samples_used,
            "adaptive stopping point diverged at {threads} engine threads"
        );
        assert_eq!(
            reference, parallel,
            "adaptive outcome diverged at {threads} engine threads"
        );
    }
}

#[test]
fn reports_for_is_element_identical_across_thread_counts() {
    let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
    let base = SimConfig::paper_defaults(code).unwrap();
    let kinds = [CodeKind::Tree, CodeKind::Gray, CodeKind::Hot];
    let configs = design_points(&base, &kinds, LogicLevel::BINARY, &[4, 6, 8]);
    let bits = |engine: &ExecutionEngine| -> Vec<Vec<u8>> {
        let reports = engine.reports_for(&configs).unwrap();
        reports.iter().map(report_to_bin).collect()
    };
    let serial = bits(&ExecutionEngine::serial());
    assert_eq!(serial.len(), configs.len());
    for threads in [2usize, 4] {
        assert_eq!(
            serial,
            bits(&engine(threads)),
            "batch diverged at {threads} threads"
        );
    }
}

/// A stock model forced onto the general path: it implements only
/// `sample_regions`, so it has no acceptance range. Around the Gaussian it
/// is the Box–Muller reference sampler.
#[derive(Debug)]
struct GeneralPath<M>(M);

impl<M: DisturbanceModel> DisturbanceModel for GeneralPath<M> {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        self.0.sample_regions(sigmas, draws, out);
    }
}

fn counts(outcome: &MonteCarloOutcome) -> Vec<usize> {
    outcome
        .profile
        .probabilities()
        .iter()
        .map(|p| (p * outcome.samples_used as f64).round() as usize)
        .collect()
}

/// Pins the exact per-nanowire acceptance counts for a fixed seed, on both
/// Gaussian sampling paths. Any change to the RNG discipline — chunk
/// seeding, Box–Muller pair handling, draw order, chunk size, the acceptance
/// ranges — shows up here as a loud, exact failure rather than a silent
/// statistical drift.
#[test]
fn fixed_seed_outcome_is_pinned() {
    let variability = variability(CodeKind::Tree, 8, 10);
    let model = VariabilityModel::paper_default();
    let window = Volts::new(0.25);
    let config = MonteCarloConfig::fixed(500, 42);

    let serial = ExecutionEngine::serial();

    // The Box–Muller reference, on the general path.
    let reference = serial
        .monte_carlo_with_disturbance(
            &variability,
            &model,
            window,
            config,
            &GeneralPath(GaussianDisturbance),
        )
        .unwrap();
    assert_eq!(reference.samples, 500);
    assert_eq!(
        counts(&reference),
        vec![373, 394, 405, 421, 453, 476, 487, 494, 500, 500],
        "probabilities: {:?}",
        reference.profile
    );

    // The Gaussian window path: one uniform per region, compared against
    // the tabulated [Φ(−w/σ), Φ(w/σ)] range.
    let outcome = gaussian(&serial, &variability, window, config);
    assert_eq!(
        counts(&outcome),
        vec![367, 380, 412, 433, 461, 478, 483, 497, 499, 500],
        "probabilities: {:?}",
        outcome.profile
    );
}

/// The Laplace window path accepts exactly the draws the inverse-CDF
/// predicate accepts, so it must equal the general path bit for bit: fixed
/// and adaptive, across configurations, windows from 0 to +∞ and seeds.
#[test]
fn laplace_window_path_matches_the_general_path_bit_for_bit() {
    let model = VariabilityModel::paper_default();
    let general = GeneralPath(LaplaceDisturbance);
    let serial = ExecutionEngine::serial();
    for (kind, length, nanowires) in [
        (CodeKind::Tree, 8, 10),
        (CodeKind::Gray, 6, 12),
        (CodeKind::Hot, 6, 8),
    ] {
        let variability = variability(kind, length, nanowires);
        for window in [0.0, 1e-3, 0.05, 0.1, 0.25, 1.0, f64::INFINITY] {
            for seed in 0..20 {
                let config = if seed % 4 == 0 {
                    MonteCarloConfig::fixed(2_000, seed).with_target_half_width(0.05)
                } else {
                    MonteCarloConfig::fixed(300, seed)
                };
                let window = Volts::new(window);
                let run = |disturbance: &dyn DisturbanceModel| {
                    serial
                        .monte_carlo_with_disturbance(
                            &variability,
                            &model,
                            window,
                            config,
                            disturbance,
                        )
                        .unwrap()
                };
                assert_eq!(
                    run(&LaplaceDisturbance),
                    run(&general),
                    "{kind:?} M={length}, window {window}, seed {seed}"
                );
            }
        }
    }
}

/// Pins a fixed-seed Laplace outcome: the counts the inverse-CDF sampler
/// draws, which the window path must reproduce exactly.
#[test]
fn laplace_fixed_seed_outcome_is_pinned() {
    let variability = variability(CodeKind::Tree, 8, 10);
    let model = VariabilityModel::paper_default();
    let outcome = ExecutionEngine::serial()
        .monte_carlo_with_disturbance(
            &variability,
            &model,
            Volts::new(0.25),
            MonteCarloConfig::fixed(500, 42),
            &LaplaceDisturbance,
        )
        .unwrap();
    assert_eq!(
        counts(&outcome),
        vec![350, 360, 384, 386, 427, 435, 447, 474, 488, 500],
        "probabilities: {:?}",
        outcome.profile
    );
}

/// Pins a fixed-seed correlated outcome on the shared-offset path (one
/// exact normal per nanowire, a bracketed draw per region) and on its
/// Box–Muller reference, whose counts are those the correlated model drew
/// before it had a path of its own.
#[test]
fn correlated_fixed_seed_outcome_is_pinned() {
    let variability = variability(CodeKind::Tree, 8, 10);
    let model = VariabilityModel::paper_default();
    let correlated = decoder_sim::CorrelatedDisturbance::new(0.5).unwrap();
    let run = |disturbance: &dyn DisturbanceModel| {
        ExecutionEngine::serial()
            .monte_carlo_with_disturbance(
                &variability,
                &model,
                Volts::new(0.25),
                MonteCarloConfig::fixed(500, 42),
                disturbance,
            )
            .unwrap()
    };
    let shared_offset = run(&correlated);
    assert_eq!(
        counts(&shared_offset),
        vec![388, 407, 428, 445, 464, 468, 491, 496, 500, 500],
        "probabilities: {:?}",
        shared_offset.profile
    );
    let reference = run(&GeneralPath(correlated));
    assert_eq!(
        counts(&reference),
        vec![382, 404, 426, 428, 460, 477, 487, 495, 500, 500],
        "probabilities: {:?}",
        reference.profile
    );
}

#[test]
fn non_gaussian_disturbances_are_bit_identical_across_thread_counts() {
    let variability = variability(CodeKind::Gray, 8, 12);
    let model = VariabilityModel::paper_default();
    let window = Volts::new(0.25);
    let config = MonteCarloConfig::fixed(1_000, 7);
    for kind in [
        DisturbanceKind::Laplace,
        DisturbanceKind::Correlated {
            shared_fraction: 0.5,
        },
    ] {
        let disturbance = kind.model().unwrap();
        let serial = ExecutionEngine::serial()
            .monte_carlo_with_disturbance(
                &variability,
                &model,
                window,
                config,
                disturbance.as_ref(),
            )
            .unwrap();
        for threads in [2usize, 4] {
            let parallel = engine(threads)
                .monte_carlo_with_disturbance(
                    &variability,
                    &model,
                    window,
                    config,
                    disturbance.as_ref(),
                )
                .unwrap();
            assert_eq!(
                serial, parallel,
                "{kind} outcome diverged at {threads} engine threads"
            );
        }
    }
}

#[test]
fn config_carried_disturbance_reaches_the_sampler() {
    let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
    let base = SimConfig::paper_defaults(code).unwrap();
    let config = MonteCarloConfig::fixed(500, 3);
    let engine = engine(2);
    // A Gaussian-configured SimConfig goes through the identical stream as
    // the raw-matrix entry point under the Gaussian model...
    let platform = decoder_sim::SimulationPlatform::new(base.clone());
    let direct = engine
        .monte_carlo_with_disturbance(
            &platform.variability().unwrap(),
            &base.variability_model().unwrap(),
            base.decision_window().unwrap(),
            config,
            &GaussianDisturbance,
        )
        .unwrap();
    assert_eq!(
        engine.monte_carlo_for_config(&base, config).unwrap(),
        direct
    );
    // ...while a heavy-tailed configuration samples a different stream.
    let heavy = base.with_disturbance(DisturbanceKind::Laplace);
    assert_ne!(
        engine.monte_carlo_for_config(&heavy, config).unwrap(),
        direct
    );
}

#[test]
fn defect_maps_are_bit_identical_across_thread_counts() {
    let model = DefectModel::new(0.05, 0.02).unwrap();
    // 300 rows of 70 columns: two 64-column words a row, the last partial.
    let (rows, columns, seed) = (300usize, 70usize, 42u64);
    let serial = model.sample_map(rows, columns, seed).unwrap();
    for threads in [1usize, 2, 4] {
        let map = engine(threads)
            .sample_defect_map(&model, rows, columns, seed)
            .unwrap();
        assert_eq!(serial, map, "map diverged at {threads} engine threads");
    }
    assert!(engine(2).sample_defect_map(&model, 0, 4, seed).is_err());
}

/// A report composes the expected defect survival of its rates, bit for bit
/// what [`DefectModel::compose_with`] forms from the cave yield, so the
/// defect seed decides no report value.
#[test]
fn reports_compose_the_expected_defect_survival() {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    let base = SimConfig::paper_defaults(code).unwrap();
    let raw_crosspoints = base.crossbar_spec().unwrap().raw_crosspoints();
    let evaluate = |defects| {
        let platform = decoder_sim::SimulationPlatform::new(base.clone().with_defects(defects));
        (platform.evaluate().unwrap(), platform.cave_yield().unwrap())
    };
    for defects in [
        DefectKind::None,
        DefectKind::sampled(0.05, 0.02, 2_009).unwrap(),
        DefectKind::sampled(0.1, 0.05, 7).unwrap(),
    ] {
        let (report, cave_yield) = evaluate(defects);
        // A defect-free configuration composes nothing.
        let composite = match defects.config() {
            Some(config) => config.model().compose_with(&cave_yield),
            None => CompositeYield::new(&cave_yield, 1.0),
        };
        let bits = [
            report.defect_survival,
            report.composite_yield,
            report.composite_effective_bits,
        ]
        .map(f64::to_bits);
        let expected = [
            composite.defect_survival,
            composite.crossbar_yield,
            composite.effective_bits(raw_crosspoints),
        ]
        .map(f64::to_bits);
        assert_eq!(
            bits, expected,
            "report diverged from the expected survival ({defects:?})"
        );
    }
    let (seeded, _) = evaluate(DefectKind::sampled(0.05, 0.02, 2_009).unwrap());
    let (reseeded, _) = evaluate(DefectKind::sampled(0.05, 0.02, 7).unwrap());
    assert_eq!(
        PlatformReport {
            defects: seeded.defects,
            ..reseeded
        },
        seeded
    );
}

/// The whole-report determinism gate for the defect pipeline: a
/// defect-composed `PlatformReport` — the expected defect survival composed
/// with the decoder yield through the engine's report cache — must be
/// bit-identical to the serial platform evaluation at every thread count,
/// and across the defect axis the decoder quantities must stay pinned to
/// the defect-free run.
#[test]
fn defect_composed_reports_are_bit_identical_across_thread_counts() {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    let base = SimConfig::paper_defaults(code).unwrap();
    for defects in [
        DefectKind::None,
        DefectKind::sampled(0.05, 0.02, 2_009).unwrap(),
        DefectKind::sampled(0.1, 0.05, 7).unwrap(),
    ] {
        let config = base.clone().with_defects(defects);
        // Serial reference: platform evaluation, no engine, no cache.
        let serial = decoder_sim::SimulationPlatform::new(config.clone())
            .evaluate()
            .unwrap();
        for threads in [1usize, 2, 4] {
            let report = engine(threads).report_for(&config).unwrap();
            assert_eq!(
                serial, report,
                "defect-composed report diverged at {threads} engine threads ({defects:?})"
            );
            assert_eq!(
                serial.composite_yield.to_bits(),
                report.composite_yield.to_bits()
            );
        }
    }
    // The decoder quantities never depend on the defect selection.
    let clean = engine(2).report_for(&base).unwrap();
    let defective = engine(2)
        .report_for(
            &base
                .clone()
                .with_defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap()),
        )
        .unwrap();
    assert_eq!(
        clean.crossbar_yield.to_bits(),
        defective.crossbar_yield.to_bits()
    );
    assert!(defective.composite_yield < clean.composite_yield);
}

/// Pins the content of a fixed-seed defect map, including positions. Any
/// change to the chunked map layout — chunk-seed derivation, which chunk a
/// row draws from, draw order, bit order — shows up here as a loud, exact
/// failure rather than a silent reshuffle.
#[test]
fn fixed_seed_defect_map_is_pinned() {
    let model = DefectModel::new(0.1, 0.05).unwrap();
    let map = model.sample_map(100, 80, 42).unwrap();
    let broken_rows: Vec<usize> = (0..100).filter(|&r| map.row_broken(r)).collect();
    let broken_columns: Vec<usize> = (0..80).filter(|&c| map.column_broken(c)).collect();
    let defects: Vec<(usize, usize)> = (0..100)
        .flat_map(|r| (0..80).map(move |c| (r, c)))
        .filter(|&(r, c)| map.crosspoint_defective(r, c))
        .collect();
    // A position-sensitive checksum over the flattened defect coordinates:
    // permuting which crosspoints are defective changes it even when the
    // defect count stays the same.
    let checksum = defects.iter().fold(0u64, |acc, &(r, c)| {
        acc.wrapping_mul(31).wrapping_add((r * 80 + c) as u64)
    });
    assert_eq!(broken_rows, vec![13, 19, 21, 30, 48, 67, 68, 70, 86, 90]);
    assert_eq!(broken_columns, vec![0, 9, 22, 33, 34, 40, 41, 61, 78]);
    assert_eq!(
        (defects.len(), checksum),
        (394, 214_839_105_270_964_394),
        "usable fraction: {}",
        map.usable_fraction()
    );
}
