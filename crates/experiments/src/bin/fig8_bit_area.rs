//! Regenerates Fig. 8 of the paper: average area per functional bit for
//! every code family and length on the 16 kB crossbar platform.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let report = mspt_experiments::fig8_report(&mspt_experiments::paper_engine())?;
    print!("{report}");
    Ok(())
}
