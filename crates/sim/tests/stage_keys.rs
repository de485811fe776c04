//! Property battery for the stage keys, the guard that keeps
//! [`Stage::reads`] honest beside the stage-invalidation matrix.
//!
//! Every stage key is the stage's read set folded over the per-field
//! encoders, so three properties pin the encoders:
//!
//! * replacing a field **outside** a stage's read set never changes that
//!   stage's key;
//! * replacing a field **inside** it with a value that compares unequal
//!   always changes the key;
//! * a configuration decoded from its own binary or JSON document has the
//!   same keys.
//!
//! A randomized warm-versus-cold check then pins the read sets against the
//! pipeline's real data flow: on a warm engine, a one-field variant's
//! report and Monte-Carlo outcome, sampled under a drawn seed, must equal a
//! cold serial evaluation bit for bit. A stage that reads a field its read
//! set leaves out would serve a stale value here.

mod common;

use proptest::prelude::*;

use common::{config_strategy, defect_strategy, window_strategy};
use decoder_sim::bincodec::{config_from_bin, config_to_bin};
use decoder_sim::codec::{config_from_json, config_to_json, JsonValue};
use decoder_sim::{
    ConfigField, DisturbanceKind, EngineConfig, Evaluation, EvaluationOutcome, ExecutionEngine,
    MonteCarloConfig, SimConfig, SimulationPlatform, Stage, DEFAULT_CHUNK_SIZE,
};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// `config` with `field` taken from `donor` and every other field kept.
fn with_field_from(config: &SimConfig, donor: &SimConfig, field: ConfigField) -> SimConfig {
    let pick = |which: ConfigField| if which == field { donor } else { config };
    let mut varied = SimConfig::new(
        pick(ConfigField::Code).code(),
        pick(ConfigField::NanowiresPerHalfCave).nanowires_per_half_cave(),
        pick(ConfigField::RawBits).raw_bits(),
        *pick(ConfigField::Layout).layout(),
        *pick(ConfigField::ThresholdModel).threshold_model(),
        pick(ConfigField::SigmaPerDose).sigma_per_dose(),
        pick(ConfigField::SupplyRange).supply_range(),
    )
    .unwrap()
    .with_disturbance(pick(ConfigField::Disturbance).disturbance())
    .with_defects(pick(ConfigField::Defects).defects());
    if let Some(window) = pick(ConfigField::WindowOverride).window_override() {
        varied = varied.with_window(window);
    }
    varied
}

/// Whether `field`'s accessor compares unequal between `a` and `b`.
fn field_differs(a: &SimConfig, b: &SimConfig, field: ConfigField) -> bool {
    match field {
        ConfigField::Code => a.code() != b.code(),
        ConfigField::NanowiresPerHalfCave => {
            a.nanowires_per_half_cave() != b.nanowires_per_half_cave()
        }
        ConfigField::RawBits => a.raw_bits() != b.raw_bits(),
        ConfigField::Layout => a.layout() != b.layout(),
        ConfigField::ThresholdModel => a.threshold_model() != b.threshold_model(),
        ConfigField::SigmaPerDose => a.sigma_per_dose() != b.sigma_per_dose(),
        ConfigField::SupplyRange => a.supply_range() != b.supply_range(),
        ConfigField::WindowOverride => a.window_override() != b.window_override(),
        ConfigField::Disturbance => a.disturbance() != b.disturbance(),
        ConfigField::Defects => a.defects() != b.defects(),
    }
}

fn field_strategy() -> impl Strategy<Value = ConfigField> {
    (0usize..ConfigField::ALL.len()).prop_map(|index| ConfigField::ALL[index])
}

/// Binary codes the paper evaluates, at lengths every family accepts.
fn evaluable_code_strategy() -> impl Strategy<Value = CodeSpec> {
    (0usize..CodeKind::ALL.len(), 2usize..5).prop_map(|(kind_index, half_length)| {
        let kind = CodeKind::ALL[kind_index];
        // Tree-family codes at M = 4..8, hot-family codes at M = 4..8.
        CodeSpec::new(kind, LogicLevel::BINARY, 2 * half_length).unwrap()
    })
}

/// Paper defaults with the code, nanowires, σ_T, window and defects drawn
/// at random — configurations the full pipeline evaluates.
fn evaluable_strategy() -> impl Strategy<Value = SimConfig> {
    (
        (evaluable_code_strategy(), 8usize..32, 0.02f64..0.08),
        (window_strategy(), defect_strategy()),
    )
        .prop_map(|((code, nanowires, sigma), (window, defects))| {
            let mut config = SimConfig::paper_defaults(code)
                .unwrap()
                .with_nanowires_per_half_cave(nanowires)
                .unwrap()
                .with_sigma_per_dose(Volts::new(sigma))
                .unwrap()
                .with_defects(defects);
            if let Some(window) = window {
                config = config.with_window(window);
            }
            config
        })
}

/// The fields the evaluable generator draws, plus the one only the
/// Monte-Carlo stage reads.
const EVALUABLE_FIELDS: [ConfigField; 6] = [
    ConfigField::Code,
    ConfigField::NanowiresPerHalfCave,
    ConfigField::SigmaPerDose,
    ConfigField::WindowOverride,
    ConfigField::Defects,
    ConfigField::Disturbance,
];

/// The report and Monte-Carlo outcome of `config` on `engine`, sampled
/// under the configuration's own disturbance with a small fixed-sample
/// budget and `seed`.
fn evaluate(engine: &ExecutionEngine, config: &SimConfig, seed: u64) -> EvaluationOutcome {
    Evaluation::builder(config.clone())
        .stages(&[Stage::Composite, Stage::MonteCarlo])
        .monte_carlo(MonteCarloConfig::fixed(64, seed))
        .run(engine)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keys move exactly with the declared read sets: never for a field
    /// outside them, always for a changed field inside them.
    #[test]
    fn stage_keys_change_exactly_with_their_read_sets(
        config in config_strategy(),
        donor in config_strategy(),
        field in field_strategy(),
    ) {
        let varied = with_field_from(&config, &donor, field);
        let changed = field_differs(&config, &varied, field);
        for stage in Stage::ALL {
            let same_key = stage.key(&config) == stage.key(&varied);
            if !stage.reads().contains(&field) {
                prop_assert!(same_key, "{stage:?} key moved with unread {field:?}");
            } else if changed {
                prop_assert!(!same_key, "{stage:?} key ignored a changed {field:?}");
            }
        }
    }

    /// Neither codec changes a configuration's identity.
    #[test]
    fn decoded_configs_keep_their_stage_keys(config in config_strategy()) {
        let via_bin = config_from_bin(&config_to_bin(&config)).unwrap();
        let text = config_to_json(&config).render();
        let via_json = config_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        for stage in Stage::ALL {
            let key = stage.key(&config);
            prop_assert_eq!(&stage.key(&via_bin), &key, "{:?} via binary", stage);
            prop_assert_eq!(&stage.key(&via_json), &key, "{:?} via JSON", stage);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A warm engine serves a one-field variant bit-identically to a cold
    /// serial evaluation: report and Monte-Carlo outcome alike.
    #[test]
    fn warm_one_field_variants_match_cold_serial_evaluation(
        base in evaluable_strategy(),
        donor in evaluable_strategy(),
        field_index in 0usize..EVALUABLE_FIELDS.len(),
        seed in any::<u64>(),
    ) {
        // Evaluable configurations are Gaussian; a Laplace donor makes a
        // disturbance replacement a real change.
        let donor = donor.with_disturbance(DisturbanceKind::Laplace);
        let field = EVALUABLE_FIELDS[field_index];
        let varied = with_field_from(&base, &donor, field);
        let engine = ExecutionEngine::new(EngineConfig {
            threads: 2,
            chunk_size: DEFAULT_CHUNK_SIZE,
        });
        evaluate(&engine, &base, seed);
        let warm = evaluate(&engine, &varied, seed);

        let cold_report = SimulationPlatform::new(varied.clone()).evaluate().unwrap();
        let cold_estimate = ExecutionEngine::serial()
            .monte_carlo_for_config(&varied, MonteCarloConfig::fixed(64, seed))
            .unwrap();
        prop_assert_eq!(warm.report, Some(cold_report), "varied {:?}", field);
        prop_assert_eq!(warm.monte_carlo, Some(cold_estimate), "varied {:?}", field);
    }
}
