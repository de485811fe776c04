//! Workspace smoke test: the facade re-exports resolve and the README /
//! crate-root quickstart runs as a plain test (not only as a doctest), so a
//! broken workspace wiring fails `cargo test` even with doctests skipped.

/// Every facade module path named in `src/lib.rs` resolves to the right
/// underlying crate type. Pure compile-time check: if a re-export breaks,
/// this file stops building.
#[test]
fn facade_reexports_resolve() {
    fn assert_type<T>() {}

    assert_type::<mspt_nanowire_decoder::codes::CodeSpec>();
    assert_type::<mspt_nanowire_decoder::physics::ThresholdModel>();
    assert_type::<mspt_nanowire_decoder::fabrication::PatternMatrix>();
    assert_type::<mspt_nanowire_decoder::crossbar::CrossbarSpec>();
    assert_type::<mspt_nanowire_decoder::sim::SimConfig>();
    assert_type::<mspt_nanowire_decoder::decoder::DecoderRecipe>();
}

/// The re-exported modules are the workspace crates themselves, not copies.
#[test]
fn facade_reexports_are_the_workspace_crates() {
    let spec = nanowire_codes::CodeSpec::new(
        nanowire_codes::CodeKind::Gray,
        nanowire_codes::LogicLevel::BINARY,
        6,
    )
    .expect("valid spec");
    // A nanowire_codes value is usable where the facade path is expected.
    let _: &mspt_nanowire_decoder::codes::CodeSpec = &spec;
}

/// The quickstart from the facade's crate-level docs, verbatim, as a plain
/// `#[test]`: the design point is built from the paper defaults.
#[test]
fn quickstart_builder_runs() {
    use mspt_nanowire_decoder::prelude::*;

    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 8).expect("valid spec");
    let config = SimConfig::paper_defaults(code).expect("quickstart config builds");
    let report = SimulationPlatform::new(config)
        .evaluate()
        .expect("quickstart config evaluates");
    assert!(report.crossbar_yield > 0.0 && report.crossbar_yield <= 1.0);
}

/// The prelude exposes the commonly used types without extra imports.
#[test]
fn prelude_is_usable() {
    use mspt_nanowire_decoder::prelude::*;

    let spec = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 4).expect("valid spec");
    assert_eq!(spec.code_length(), 4);
}
