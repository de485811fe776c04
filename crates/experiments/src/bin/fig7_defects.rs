//! Beyond the paper — the defect axis of Fig. 7: composite crossbar yield
//! against the fabrication-defect rate (broken nanowires + stuck
//! crosspoints) for the best code of each family, with deterministic
//! seed-sampled defect maps composed onto the decoder yield.
//!
//! Knobs (environment variables):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPT_DEFECT_SEED` | defect-map run seed | 2009 |
//! | `MSPT_ENGINE_THREADS` | engine worker threads | available parallelism |
//!
//! The table is bit-identical for any `MSPT_ENGINE_THREADS` value: defect
//! maps are assembled from independently seeded chunks, so the sharding
//! never changes the sample.

/// Environment variable overriding the defect-map run seed.
const DEFECT_SEED_ENV: &str = "MSPT_DEFECT_SEED";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = std::env::var(DEFECT_SEED_ENV)
        .ok()
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(mspt_experiments::FIG7_DEFECT_SEED);
    let engine = mspt_experiments::paper_engine();
    let report = mspt_experiments::fig7_defects_report(&engine, seed)?;
    print!("{report}");
    Ok(())
}
