//! Explore the paper's design space (all five code families, binary logic,
//! code lengths 4–10) and rank the candidates by effective bit area — the
//! optimisation behind the paper's headline "169 nm² per bit". The
//! candidates are evaluated as one batch on a parallel execution engine.
//!
//! Run with: `cargo run --example design_space_exploration`

use mspt_nanowire_decoder::decoder::{
    optimize, CodeSelection, DecoderDesign, DesignSpace, Objective,
};
use mspt_nanowire_decoder::sim::ExecutionEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = DecoderDesign::builder()
        .code(CodeSelection::Tree)
        .code_length(8)
        .nanowires_per_half_cave(20)
        .build()?;

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
        println!(
            "{:<22} {:>4} {:>12.1} {:>16.1}",
            candidate.code.kind().to_string(),
            candidate.code.code_length(),
            candidate.report.crossbar_yield * 100.0,
            candidate.report.effective_bit_area,
        );
    }
    let best = outcome.ranked.first().expect("non-empty design space");
    println!();
    println!(
        "best design: {} at M = {} with {:.1} nm² per functional bit",
        best.code.kind(),
        best.code.code_length(),
        best.report.effective_bit_area
    );
    Ok(())
}
