//! Regenerates every figure and the headline numbers in one run — the
//! command EXPERIMENTS.md is produced from.
//!
//! All reports share one parallel [`mspt_experiments::paper_engine`], so the
//! Fig. 7/Fig. 8 sweep points are evaluated once and the headline numbers
//! are served from the engine's memoized report cache. Set `MSPT_CACHE_PATH`
//! to persist that cache across invocations: the file is loaded on start
//! (ignored when absent or stale) and rewritten on exit, so repeated runs
//! restart warm.

use std::path::Path;

use decoder_sim::CACHE_PATH_ENV;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = mspt_experiments::paper_engine();
    let cache_path = std::env::var(CACHE_PATH_ENV).ok().filter(|p| !p.is_empty());
    println!("==============================================================");
    println!(" Reproduction of the DAC 2009 MSPT nanowire-decoder evaluation");
    println!("==============================================================");
    println!(
        " engine: {} thread(s), {} samples per Monte-Carlo chunk",
        engine.config().threads,
        engine.config().chunk_size
    );
    match &cache_path {
        Some(path) => match engine.load_cache(Path::new(path)) {
            Ok(count) => println!(" warm cache: loaded {count} report(s) from {path}\n"),
            Err(error) => println!(" warm cache: starting cold ({error})\n"),
        },
        None => println!(),
    }
    print!("{}", mspt_experiments::fig5_report(&engine)?);
    println!();
    print!("{}", mspt_experiments::fig6_report()?);
    println!();
    print!("{}", mspt_experiments::fig7_report(&engine)?);
    println!();
    print!(
        "{}",
        mspt_experiments::fig7_defects_report(&engine, mspt_experiments::FIG7_DEFECT_SEED)?
    );
    println!();
    print!("{}", mspt_experiments::fig8_report(&engine)?);
    println!();
    print!("{}", mspt_experiments::headline_numbers(&engine)?);
    println!();
    print!("{}", mspt_experiments::disturbance_report(&engine)?);
    if let Some(path) = &cache_path {
        let saved = engine.save_cache(Path::new(path))?;
        println!("\nwarm cache: saved {saved} report(s) to {path}");
    }
    Ok(())
}
