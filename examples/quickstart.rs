//! Quickstart: design an MSPT nanowire decoder, evaluate it on the paper's
//! 16 kB crossbar platform and print the quantities the paper reports.
//!
//! Run with: `cargo run --example quickstart`

use mspt_nanowire_decoder::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A balanced-Gray-code decoder with 10 doping regions per nanowire —
    // the configuration the paper finds to give the smallest bit area — on
    // the paper's platform (20 nanowires per half cave).
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10)?;
    let config = SimConfig::paper_defaults(code)?;

    let recipe = DecoderRecipe::for_config(&config)?;
    let report = SimulationPlatform::new(config).evaluate()?;

    println!("MSPT nanowire-decoder quickstart");
    println!("================================");
    println!("code:                     {}", report.code);
    println!(
        "nanowires per half cave:  {}",
        report.nanowires_per_half_cave
    );
    println!("fabrication steps (Φ):    {}", report.fabrication_steps);
    println!("lithography passes:       {}", recipe.lithography_passes());
    println!(
        "distinct implant doses:   {}",
        recipe.distinct_doses().len()
    );
    println!("mean variability (σ_T²):  {:.2}", report.mean_variability);
    println!(
        "cave yield (Y):           {:.1}%",
        report.cave_yield * 100.0
    );
    println!(
        "crossbar yield (Y²):      {:.1}%",
        report.crossbar_yield * 100.0
    );
    println!("effective bits:           {:.0}", report.effective_bits);
    println!("raw bit area:             {:.1} nm²", report.raw_bit_area);
    println!(
        "effective bit area:       {:.1} nm²",
        report.effective_bit_area
    );
    println!("contact groups:           {}", report.contact_groups);

    Ok(())
}
