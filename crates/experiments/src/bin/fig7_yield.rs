//! Regenerates Fig. 7 of the paper: crossbar yield (percentage of
//! addressable crosspoints) against code length for TC/BGC and HC/AHC on the
//! 16 kB crossbar platform.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let report = mspt_experiments::fig7_report(&mspt_experiments::paper_engine())?;
    print!("{report}");
    Ok(())
}
