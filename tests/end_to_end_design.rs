//! Integration test: the full decoder design flow across every crate —
//! state a design point, derive its fabrication recipe, audit the recipe
//! with the event-level process replay, verify the electrical address map,
//! and use the resulting crossbar as a memory.

use mspt_nanowire_decoder::crossbar::{ContactGroupLayout, CrossbarMemory, LayoutRules};
use mspt_nanowire_decoder::prelude::*;

/// One design point per code family, on the paper's platform.
fn designs_under_test() -> Vec<SimConfig> {
    [
        (CodeKind::Tree, 8),
        (CodeKind::Gray, 8),
        (CodeKind::BalancedGray, 10),
        (CodeKind::Hot, 6),
        (CodeKind::ArrangedHot, 6),
    ]
    .into_iter()
    .map(|(kind, length)| {
        let code = CodeSpec::new(kind, LogicLevel::BINARY, length).expect("valid code");
        SimConfig::paper_defaults(code).expect("valid design")
    })
    .collect()
}

#[test]
fn every_design_produces_a_consistent_recipe_and_report() {
    for design in designs_under_test() {
        let recipe = DecoderRecipe::for_config(&design).unwrap();
        let report = SimulationPlatform::new(design).evaluate().unwrap();
        assert_eq!(
            recipe.lithography_passes(),
            report.fabrication_steps,
            "{}",
            report.code
        );
        assert_eq!(recipe.cost().total(), report.fabrication_steps);
        assert!(report.crossbar_yield > 0.0 && report.crossbar_yield <= 1.0);
        assert!(report.effective_bit_area >= report.raw_bit_area);
    }
}

#[test]
fn every_design_recipe_survives_the_process_replay_audit() {
    for design in designs_under_test() {
        let platform = SimulationPlatform::new(design.clone());
        let pattern = platform.half_cave().unwrap().pattern().unwrap();
        let ladder = design.doping_ladder().unwrap();
        let recipe = DecoderRecipe::for_config(&design).unwrap();
        let audit = recipe.plan().audit(&pattern, &ladder).unwrap();
        assert_eq!(audit.lithography_passes, recipe.lithography_passes());
    }
}

#[test]
fn every_design_addresses_its_nanowires_uniquely() {
    for design in designs_under_test() {
        let map = AddressMap::for_config(&design).unwrap();
        map.verify_unique_addressing().unwrap();
        // The applied voltages stay within the supply range (0..1 V plus half
        // a level separation above the top threshold).
        for assignment in map.assignments() {
            for voltage in &assignment.voltages {
                assert!(voltage.value() > 0.0 && voltage.value() < 1.3);
            }
        }
    }
}

#[test]
fn a_design_drives_a_working_crossbar_memory() {
    let spec = CodeSpec::new(CodeKind::ArrangedHot, LogicLevel::BINARY, 6).unwrap();
    let design = SimConfig::paper_defaults(spec).unwrap();
    let code = SimulationPlatform::new(design.clone())
        .code_sequence()
        .unwrap();
    let layout = ContactGroupLayout::new(
        design.nanowires_per_half_cave(),
        design.code().space_size(),
        LayoutRules::paper_default(),
    )
    .unwrap();
    let mut memory = CrossbarMemory::new(&code, layout.clone(), &code, layout).unwrap();
    assert!(memory.effective_capacity() > 0);

    // Checkerboard write/read over the usable crosspoints.
    for row in 0..memory.row_count() {
        for column in 0..memory.column_count() {
            if memory.crosspoint_usable(row, column) {
                memory.write(row, column, (row ^ column) & 1 == 1).unwrap();
            }
        }
    }
    for row in 0..memory.row_count() {
        for column in 0..memory.column_count() {
            if memory.crosspoint_usable(row, column) {
                assert_eq!(memory.read(row, column).unwrap(), (row ^ column) & 1 == 1);
            }
        }
    }
}

#[test]
fn the_facade_prelude_covers_the_whole_pipeline() {
    // Exercise the prelude types together: code -> pattern -> cost/variability
    // -> platform report.
    let code = CodeSpec::new(CodeKind::Gray, LogicLevel::TERNARY, 6).unwrap();
    let sequence = code.generate().unwrap().take_cyclic(12).unwrap();
    let pattern = PatternMatrix::from_sequence(&sequence).unwrap();
    let ladder = DopingLadder::from_model(
        &ThresholdModel::default_mspt(),
        3,
        (Volts::new(0.0), Volts::new(1.0)),
    )
    .unwrap();
    let cost = FabricationCost::from_pattern(&pattern, &ladder).unwrap();
    let variability =
        VariabilityMatrix::from_pattern(&pattern, &ladder, &VariabilityModel::paper_default())
            .unwrap();
    assert!(cost.total() >= 2 * 12 - 1);
    assert!(variability.l1_norm_in_sigma_units() >= 12 * 6);

    let config = SimConfig::paper_defaults(code).unwrap();
    let report = SimulationPlatform::new(config).evaluate().unwrap();
    assert!(report.crossbar_yield > 0.0);
}
