//! Sensitivity (ablation) sweeps over the reproduction's calibration
//! constants: σ_T, the decision window, the contact alignment tolerance and
//! the half-cave size. The paper's qualitative conclusion — the optimised
//! arrangement wins — must hold at every swept value.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for sweep in mspt_experiments::sensitivity_report(&mspt_experiments::paper_engine())? {
        println!("{sweep}");
    }
    Ok(())
}
