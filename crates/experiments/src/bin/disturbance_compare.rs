//! Beyond the paper's scope: compares the Monte-Carlo addressability of the
//! best balanced-Gray decoder under Gaussian, heavy-tailed Laplace and
//! correlated inter-region dose disturbances — the distributions the
//! analytic model cannot integrate in closed form.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let report = mspt_experiments::disturbance_report(&mspt_experiments::paper_engine())?;
    print!("{report}");
    Ok(())
}
