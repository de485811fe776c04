//! Config documents as they were written while a `SimConfig` carried its
//! Monte-Carlo sampling knobs: a trailing JSON `monte_carlo` member, a
//! trailing binary section `0x0a`. Shared by the compatibility tests of the
//! codecs, of the report-cache snapshot and of the live server; each uses a
//! subset.
#![allow(dead_code)]

use decoder_sim::bincodec::BinWriter;
use decoder_sim::codec::config_to_json;
use decoder_sim::{MonteCarloConfig, SimConfig};

/// The knobs' default, and adaptive knobs with every option set.
pub fn knob_variants() -> [MonteCarloConfig; 2] {
    [
        MonteCarloConfig::default(),
        MonteCarloConfig::fixed(4_096, 17)
            .with_target_half_width(0.05)
            .with_confidence(0.99)
            .with_max_samples(65_536),
    ]
}

/// `config`'s JSON text ending in a `monte_carlo` member holding `knobs`
/// (unset options `null`).
pub fn config_json_with_knobs(config: &SimConfig, knobs: MonteCarloConfig) -> String {
    let text = config_to_json(config).render();
    let option = |value: Option<String>| value.unwrap_or_else(|| "null".to_string());
    format!(
        "{},\"monte_carlo\":{{\"samples\":{},\"seed\":{},\"target_half_width\":{},\
         \"confidence\":{},\"max_samples\":{}}}}}",
        &text[..text.len() - 1],
        knobs.samples,
        knobs.seed,
        option(knobs.target_half_width.map(|target| target.to_string())),
        knobs.confidence,
        option(knobs.max_samples.map(|max| max.to_string())),
    )
}

/// A binary config `document` with `knobs` appended as section `0x0a`:
/// samples, seed, target half-width, confidence and sample ceiling, each
/// option behind a presence byte.
pub fn with_knobs_section(mut document: Vec<u8>, knobs: MonteCarloConfig) -> Vec<u8> {
    let mut body = BinWriter::new();
    body.put_usize(knobs.samples);
    body.put_u64(knobs.seed);
    body.put_u8(u8::from(knobs.target_half_width.is_some()));
    if let Some(target) = knobs.target_half_width {
        body.put_f64(target);
    }
    body.put_f64(knobs.confidence);
    body.put_u8(u8::from(knobs.max_samples.is_some()));
    if let Some(max) = knobs.max_samples {
        body.put_usize(max);
    }
    let mut section = BinWriter::new();
    section.section(0x0a, &body.into_bytes());
    document.extend(section.into_bytes());
    document
}
