//! Compare the five code families of the paper at a common code length:
//! fabrication complexity, variability, yield and bit area side by side.
//!
//! Run with: `cargo run --example code_comparison`

use mspt_nanowire_decoder::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Comparison of code families on the paper's 16 kB crossbar platform");
    println!(
        "{:<22} {:>4} {:>8} {:>10} {:>12} {:>14}",
        "code", "M", "Φ", "mean Σ/σ²", "Y² [%]", "bit area [nm²]"
    );

    for (kind, code_length) in [
        (CodeKind::Tree, 8),
        (CodeKind::Gray, 8),
        (CodeKind::BalancedGray, 8),
        (CodeKind::Hot, 8),
        (CodeKind::ArrangedHot, 8),
    ] {
        let code = CodeSpec::new(kind, LogicLevel::BINARY, code_length)?;
        let report = SimulationPlatform::new(SimConfig::paper_defaults(code)?).evaluate()?;
        println!(
            "{:<22} {:>4} {:>8} {:>10.2} {:>12.1} {:>14.1}",
            kind.to_string(),
            code_length,
            report.fabrication_steps,
            report.mean_variability,
            report.crossbar_yield * 100.0,
            report.effective_bit_area,
        );
    }

    println!();
    println!("The Gray-style arrangements (GC, BGC, AHC) dominate their baselines");
    println!("(TC, HC) in every metric, as Propositions 4 and 5 of the paper predict.");
    Ok(())
}
