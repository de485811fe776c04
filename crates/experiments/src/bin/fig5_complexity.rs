//! Regenerates Fig. 5 of the paper: fabrication complexity (number of
//! additional lithography/doping steps) for tree and Gray codes at binary,
//! ternary and quaternary logic, N = 10 nanowires per half cave.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let report = mspt_experiments::fig5_report(&mspt_experiments::paper_engine())?;
    print!("{report}");
    Ok(())
}
