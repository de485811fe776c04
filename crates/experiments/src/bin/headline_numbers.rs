//! Computes the headline numbers of the paper's abstract and conclusions
//! (complexity saving, variability reduction, yield and area improvements)
//! from the same sweeps that regenerate the figures.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let headline = mspt_experiments::headline_numbers(&mspt_experiments::paper_engine())?;
    print!("{headline}");
    Ok(())
}
