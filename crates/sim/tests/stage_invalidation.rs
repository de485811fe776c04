//! The stage-invalidation matrix: for every [`ConfigField`], varying only
//! that field on a warm engine must recompute exactly the stages whose
//! declared read set ([`Stage::reads`]) contains the field — every other
//! consulted stage hits — and the resulting reports must stay bit-identical
//! to a cold serial evaluation, at one and at four engine threads.
//!
//! The expected counter movement is derived from the public stage graph, so
//! this test cross-checks the declared read sets against the *actual* data
//! flow of the staged pipeline (a stage reading an undeclared field would
//! hit when it must miss, and vice versa).

use decoder_sim::{
    ConfigField, DefectKind, DisturbanceKind, EngineConfig, Evaluation, ExecutionEngine,
    MonteCarloConfig, SimConfig, SimulationPlatform, Stage, StageStats, DEFAULT_CHUNK_SIZE,
};

use crossbar_array::LayoutRules;
use device_physics::{Nanometers, ThresholdModel, Volts};
use nanowire_codes::{
    ArrangedHotBudget, BalanceBudget, CodeBudgets, CodeKind, CodeSpec, LogicLevel,
};

fn base() -> SimConfig {
    let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
    SimConfig::paper_defaults(code).unwrap()
}

/// Rebuilds `base` with explicit values for the fields only reachable
/// through [`SimConfig::new`].
fn rebuild(
    base: &SimConfig,
    raw_bits: u64,
    layout: LayoutRules,
    threshold: Option<ThresholdModel>,
    supply: Option<(Volts, Volts)>,
) -> SimConfig {
    SimConfig::new(
        base.code(),
        base.nanowires_per_half_cave(),
        raw_bits,
        layout,
        threshold.unwrap_or_else(|| *base.threshold_model()),
        base.sigma_per_dose(),
        supply.unwrap_or_else(|| base.supply_range()),
    )
    .unwrap()
}

/// A configuration differing from `base` in exactly `field`.
fn varied(base: &SimConfig, field: ConfigField) -> SimConfig {
    match field {
        ConfigField::Code => base
            .clone()
            .with_code(CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap()),
        ConfigField::NanowiresPerHalfCave => base.clone().with_nanowires_per_half_cave(24).unwrap(),
        ConfigField::RawBits => rebuild(base, base.raw_bits() * 2, *base.layout(), None, None),
        ConfigField::Layout => rebuild(
            base,
            base.raw_bits(),
            LayoutRules::new(
                Nanometers::new(45.0),
                Nanometers::new(10.0),
                1.5,
                Nanometers::new(16.0),
            )
            .unwrap(),
            None,
            None,
        ),
        ConfigField::ThresholdModel => rebuild(
            base,
            base.raw_bits(),
            *base.layout(),
            Some(ThresholdModel::new(Nanometers::new(3.0), Volts::new(-1.0)).unwrap()),
            None,
        ),
        ConfigField::SigmaPerDose => base
            .clone()
            .with_sigma_per_dose(Volts::from_millivolts(40.0))
            .unwrap(),
        ConfigField::SupplyRange => rebuild(
            base,
            base.raw_bits(),
            *base.layout(),
            None,
            Some((Volts::new(0.0), Volts::new(1.2))),
        ),
        ConfigField::WindowOverride => base.clone().with_window(Volts::new(0.2)),
        ConfigField::CodeBudgets => base.clone().with_code_budgets(CodeBudgets {
            balance: BalanceBudget {
                max_nodes_per_limit: 1_000,
                max_limit_slack: 2,
            },
            arranged_hot: ArrangedHotBudget::default(),
        }),
        ConfigField::Disturbance => base.clone().with_disturbance(DisturbanceKind::Laplace),
        ConfigField::Defects => base
            .clone()
            .with_defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap()),
        ConfigField::MonteCarlo => base
            .clone()
            .with_monte_carlo(MonteCarloConfig::fixed(123, 9)),
    }
}

fn reads(stage: Stage, field: ConfigField) -> bool {
    stage.reads().contains(&field)
}

fn stats_by_stage(rows: &[StageStats], stage: Stage) -> (u64, u64) {
    let row = rows.iter().find(|row| row.stage == stage).unwrap();
    (row.stats.hits, row.stats.misses)
}

/// The (hits, misses) movement expected for `stage` when a warm engine
/// evaluates a configuration differing from the warm one in exactly
/// `field` — report first, then a Monte-Carlo pass, as
/// [`Evaluation`] runs them.
fn expected_delta(stage: Stage, field: ConfigField) -> (u64, u64) {
    let miss = u64::from(reads(stage, field));
    let composite_missed = reads(Stage::Composite, field);
    let monte_carlo_missed = reads(Stage::MonteCarlo, field);
    match stage {
        // Consulted once per evaluation: the report is one composite lookup,
        // Monte-Carlo runs in its own pass.
        Stage::Composite | Stage::MonteCarlo => (1 - miss, miss),
        // The variability slot is consulted by the composite closure (when
        // the composite missed) and again by the Monte-Carlo closure (when
        // the sampling stage missed); the second lookup always hits because
        // the report pass already inserted the varied entry.
        Stage::Variability => {
            let report_lookups = u64::from(composite_missed);
            let mc_lookups = u64::from(monte_carlo_missed);
            (report_lookups + mc_lookups - miss, miss)
        }
        // The remaining pipeline stages — the defect-map slot included —
        // are consulted only while the composite closure runs.
        Stage::Addressability
        | Stage::ContactLayout
        | Stage::CaveYield
        | Stage::CrossbarArea
        | Stage::DefectMap => {
            if composite_missed {
                (1 - miss, miss)
            } else {
                (0, 0)
            }
        }
    }
}

fn run_matrix(threads: usize) {
    let base = base();
    let mc = MonteCarloConfig::fixed(64, 17);
    for field in ConfigField::ALL {
        let engine = ExecutionEngine::new(EngineConfig {
            threads,
            chunk_size: DEFAULT_CHUNK_SIZE,
        });
        let warm = Evaluation::builder(base.clone()).monte_carlo(mc);
        warm.run(&engine).unwrap();

        let before = engine.stage_stats();
        let config = varied(&base, field);
        let outcome = Evaluation::builder(config.clone())
            .monte_carlo(mc)
            .run(&engine)
            .unwrap();
        let after = engine.stage_stats();

        let mut hit_stages = 0;
        let mut missed_stages = 0;
        for stage in Stage::ALL {
            let (hits_before, misses_before) = stats_by_stage(&before, stage);
            let (hits_after, misses_after) = stats_by_stage(&after, stage);
            let actual = (hits_after - hits_before, misses_after - misses_before);
            let expected = expected_delta(stage, field);
            assert_eq!(
                actual,
                expected,
                "{threads} thread(s), varied {field:?}: stage {} moved (hits, misses) by \
                 {actual:?}, expected {expected:?}",
                stage.name()
            );
            hit_stages += usize::from(actual.0 > 0);
            missed_stages += usize::from(actual.1 > 0);
        }
        // The acceptance shape: a one-field change on a warm engine is a
        // partial re-evaluation — some stages recompute, some are served.
        assert!(hit_stages >= 1, "varied {field:?}: no stage hit");
        assert!(missed_stages >= 1, "varied {field:?}: no stage recomputed");

        // And the partially recomputed report is bit-identical to a cold
        // serial evaluation of the same configuration.
        let cold = SimulationPlatform::new(config.clone()).evaluate().unwrap();
        assert_eq!(outcome.report, Some(cold), "varied {field:?}");
        let cold_mc = ExecutionEngine::serial()
            .monte_carlo_for_config(&config, mc)
            .unwrap();
        assert_eq!(outcome.monte_carlo, Some(cold_mc), "varied {field:?}");
    }
}

#[test]
fn one_field_changes_recompute_exactly_the_dependent_stages_serially() {
    run_matrix(1);
}

#[test]
fn one_field_changes_recompute_exactly_the_dependent_stages_in_parallel() {
    run_matrix(4);
}

#[test]
fn every_stage_has_a_field_that_invalidates_it_and_one_that_does_not() {
    for stage in Stage::ALL {
        assert!(
            ConfigField::ALL.iter().any(|&field| reads(stage, field)),
            "stage {} reads nothing",
            stage.name()
        );
        assert!(
            ConfigField::ALL.iter().any(|&field| !reads(stage, field)),
            "stage {} reads every field",
            stage.name()
        );
    }
}
