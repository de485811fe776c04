//! Beyond the paper — the defect axis of Fig. 7: composite crossbar yield
//! against the fabrication-defect rate (broken nanowires + stuck
//! crosspoints) for the best code of each family, with the expected defect
//! survival of each rate, the closed form `(1 − b)²(1 − s)`, composed onto
//! the decoder yield.
//!
//! Knobs (environment variables):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPT_ENGINE_THREADS` | engine worker threads | available parallelism |
//!
//! The table is bit-identical for any `MSPT_ENGINE_THREADS` value: every
//! row is a closed form, and the engine evaluates each row as the serial
//! platform does.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = mspt_experiments::paper_engine();
    let report = mspt_experiments::fig7_defects_report(&engine)?;
    print!("{report}");
    Ok(())
}
