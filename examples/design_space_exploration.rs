//! Explore the paper's design space (all five code families, binary logic,
//! code lengths 4–10) and rank the candidates by effective bit area — the
//! optimisation behind the paper's headline "169 nm² per bit". The
//! candidates are evaluated as one batch on a parallel execution engine.
//!
//! Run with: `cargo run --example design_space_exploration`

use mspt_nanowire_decoder::decoder::{optimize, DesignSpace, Objective};
use mspt_nanowire_decoder::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's platform; each candidate swaps in its own code.
    let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8)?;
    let base = SimConfig::paper_defaults(code)?;

    let outcome = optimize(
        &ExecutionEngine::default(),
        &base,
        &DesignSpace::paper_default(),
        Objective::BitArea,
    )?;

    println!("Design-space exploration: minimise the effective bit area");
    println!(
        "{:<22} {:>4} {:>12} {:>16}",
        "code", "M", "Y² [%]", "bit area [nm²]"
    );
    for candidate in &outcome.ranked {
        let report = &candidate.report;
        println!(
            "{:<22} {:>4} {:>12.1} {:>16.1}",
            report.code.kind().to_string(),
            report.code.code_length(),
            report.crossbar_yield * 100.0,
            report.effective_bit_area,
        );
    }
    let best = &outcome
        .ranked
        .first()
        .expect("non-empty design space")
        .report;
    println!();
    println!(
        "best design: {} at M = {} with {:.1} nm² per functional bit",
        best.code.kind(),
        best.code.code_length(),
        best.effective_bit_area
    );
    Ok(())
}
