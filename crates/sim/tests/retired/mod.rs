//! Config documents as earlier versions wrote them, carrying fields a
//! `SimConfig` no longer has:
//!
//! * the code-search budgets: a JSON `code_budgets` member between the
//!   window override and the disturbance, binary section `0x07`;
//! * the Monte-Carlo sampling knobs: a trailing JSON `monte_carlo` member,
//!   binary section `0x0a`.
//!
//! Shared by the compatibility tests of the codecs, of the report-cache
//! snapshot and of the live server; each uses a subset.
#![allow(dead_code)]

use decoder_sim::bincodec::{self, BinReader, BinWriter, DOC_CONFIG};
use decoder_sim::codec::config_to_json;
use decoder_sim::{MonteCarloConfig, SimConfig};

/// The five code-search budgets, in the order configs wrote them: nodes
/// per balanced-Gray limit, limit slack, arranged-hot nodes, fallback nodes
/// and 2-opt sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Budgets(pub u64, pub usize, pub u64, pub u64, pub u32);

/// The budgets every configuration carried unless a client lowered one.
pub const DEFAULT_BUDGETS: Budgets = Budgets(4_000_000, 4, 4_000_000, 2_000_000, 64);

/// A field a config document carried and a `SimConfig` no longer has.
#[derive(Debug, Clone, Copy)]
pub enum Retired {
    Budgets(Budgets),
    Knobs(MonteCarloConfig),
}

/// The budgets' defaults and hostile values (budgets above their defaults
/// were refused and zero nodes served a fallback code), then the knobs'
/// default and adaptive knobs with every option set.
pub fn variants() -> Vec<Retired> {
    let Budgets(nodes, slack, arranged, fallback, sweeps) = DEFAULT_BUDGETS;
    vec![
        Retired::Budgets(DEFAULT_BUDGETS),
        Retired::Budgets(Budgets(u64::MAX, slack, u64::MAX, u64::MAX, sweeps)),
        Retired::Budgets(Budgets(nodes, usize::MAX, arranged, fallback, sweeps)),
        Retired::Budgets(Budgets(0, 0, 0, 0, sweeps)),
        Retired::Budgets(Budgets(nodes, slack, arranged, fallback, u32::MAX)),
        Retired::Knobs(MonteCarloConfig::default()),
        Retired::Knobs(
            MonteCarloConfig::fixed(4_096, 17)
                .with_target_half_width(0.05)
                .with_confidence(0.99)
                .with_max_samples(65_536),
        ),
    ]
}

impl Retired {
    /// `config`'s JSON text with this member where configs wrote it.
    pub fn json(self, config: &SimConfig) -> String {
        let text = config_to_json(config).render();
        let option = |value: Option<String>| value.unwrap_or_else(|| "null".to_string());
        match self {
            Retired::Budgets(Budgets(nodes, slack, arranged, fallback, sweeps)) => {
                let at = text
                    .find(",\"disturbance\":")
                    .expect("configs carry a disturbance");
                format!(
                    "{},\"code_budgets\":{{\"balance\":{{\"max_nodes_per_limit\":{nodes},\
                     \"max_limit_slack\":{slack}}},\"arranged_hot\":{{\"max_nodes\":{arranged},\
                     \"fallback\":{{\"max_nodes\":{fallback},\"max_two_opt_sweeps\":{sweeps}}}}}}}{}",
                    &text[..at],
                    &text[at..],
                )
            }
            Retired::Knobs(knobs) => format!(
                "{},\"monte_carlo\":{{\"samples\":{},\"seed\":{},\"target_half_width\":{},\
                 \"confidence\":{},\"max_samples\":{}}}}}",
                &text[..text.len() - 1],
                knobs.samples,
                knobs.seed,
                option(knobs.target_half_width.map(|target| target.to_string())),
                knobs.confidence,
                option(knobs.max_samples.map(|max| max.to_string())),
            ),
        }
    }

    /// A binary config `document` with this field's section inserted in tag
    /// order: for the budgets the five values back to back; for the knobs
    /// samples, seed, target half-width, confidence and sample ceiling,
    /// each option behind a presence byte.
    pub fn bin(self, document: &[u8]) -> Vec<u8> {
        let mut body = BinWriter::new();
        let tag = match self {
            Retired::Budgets(Budgets(nodes, slack, arranged, fallback, sweeps)) => {
                body.put_u64(nodes);
                body.put_usize(slack);
                body.put_u64(arranged);
                body.put_u64(fallback);
                body.put_u32(sweeps);
                0x07
            }
            Retired::Knobs(knobs) => {
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
                0x0a
            }
        };
        let body = body.into_bytes();
        let mut sections = vec![(tag, &body[..])];
        let mut reader = BinReader::new(bincodec::document_payload(document, DOC_CONFIG).unwrap());
        while let Some(section) = reader.next_section().unwrap() {
            sections.push(section);
        }
        sections.sort_by_key(|&(tag, _)| tag);
        let mut payload = BinWriter::new();
        for (tag, body) in sections {
            payload.section(tag, body);
        }
        bincodec::document(DOC_CONFIG, &payload.into_bytes())
    }
}
