//! The JSON codec, pinned by behaviour: every text it writes for the
//! cold-chain catalogue, and every document one edit away from four wire
//! documents.
//!
//! `fixtures/json_text_digests.txt` holds one line per catalogue
//! configuration: its label and the FNV-1a digests of its config JSON, its
//! report JSON (the error message when evaluation fails), its wire request
//! and the reply a server sends for it. Then come the digest of a
//! report-cache snapshot holding every report, and those of error replies
//! whose reasons hold quotes, backslashes, control and non-ASCII
//! characters.
//!
//! `fixtures/json_mutation_outcomes.txt` holds, for the golden configuration
//! document, a wire request, its ok reply and an error reply, the number of
//! single-bit flips and single-byte deletions, how many of them decode, and
//! one digest over every mutation's outcome in order: rejected, or the
//! digest of the decoded value's binary encoding. Error texts stay out of
//! the digest.
//!
//! Both tables were taken while the codec still built a value tree to
//! encode and copied every key and number it parsed, so they pin that
//! writing records straight to text and parsing into values that borrow
//! the input moved no byte and no decoded value. Since then the mutation
//! table moved when number literals began to follow RFC 8259 (48
//! mutations writing a leading zero or a bare point are rejected), the
//! config and request texts when configs stopped carrying sampling knobs,
//! the golden-config and request lines when a decoded correlated
//! shared fraction began to be checked against [0, 1] (the four flips
//! writing 1.25, 2.25, 4.25 and 8.25 are rejected), and the golden-config,
//! request and ok-reply lines when JSON records began to reject keys
//! outside their field list (the flips and deletions inside a defaulted
//! key — the config's `defects`, the report's four defect keys — that
//! decoded as the key left out are rejected). The config and request texts,
//! the snapshot text and the golden-config and request lines moved again
//! when configs stopped carrying code-search budgets (the 110 accepted
//! mutations inside the `code_budgets` member went with it). The
//! error-reply line moved when the envelopes began to reject keys they do
//! not read: the 77 flips and 11 deletions inside the reply's `error` and
//! top-level `reason` keys, which decoded as the legacy reason-only reply
//! or as a reply without its legacy reason, are rejected. The ok-reply line
//! moved when defect instances began to be drawn one stream per row, 64
//! crosspoints per draw, because the golden configuration samples defects,
//! and the snapshot text when the snapshot version went to 4 with it. A
//! failure names the first text or corpus that moved.

#[path = "../../sim/tests/catalogue/mod.rs"]
mod catalogue;

use catalogue::{configurations, fnv1a};
use decoder_sim::bincodec::config_to_bin;
use decoder_sim::codec::{config_from_json, config_to_json, report_to_json, JsonValue};
use decoder_sim::{CacheConfig, ReportCache, Result, SimulationPlatform, WireErrorKind};
use mspt_serve::{
    error_response, ok_response, parse_reply, reply_to_bin, request_to_bin, ReportRequest,
    WireError,
};

/// A reason that needs every kind of escaping: a quote, a backslash, a
/// control character, and non-ASCII characters that pass through as UTF-8.
const MIXED_REASON: &str = "bad \"key\" in C:\\cfg\\run.json\u{1}: σ_T ≥ 1 V 😀";

/// Error reasons: none needing escapes, then each kind of escape alone,
/// then all of them together.
const REASONS: [&str; 5] = [
    "queue full",
    "a \"quoted\" reason",
    r"C:\path\to\file",
    "bell \u{7}, nul \u{0}, unit \u{1f}, delete \u{7f}, tab\tnewline\nreturn\r",
    MIXED_REASON,
];

/// What the four digests of a configuration's line cover, in line order.
const TEXTS: [&str; 4] = ["config JSON", "report JSON", "wire request", "reply"];

/// One `label: digest…` line per catalogue configuration, then the
/// snapshot's and the error replies' lines.
fn text_lines() -> Vec<String> {
    let cache = ReportCache::new(CacheConfig::unsharded(1_024));
    let mut lines = Vec::new();
    for (label, config) in configurations() {
        let (report, reply) = match SimulationPlatform::new(config.clone()).evaluate() {
            Ok(report) => {
                cache
                    .get_or_compute(&config, || Ok(report.clone()))
                    .unwrap();
                (report_to_json(&report).render(), ok_response(&report))
            }
            Err(error) => (
                error.to_string(),
                error_response(&WireError::new(WireErrorKind::Internal, error.to_string())),
            ),
        };
        let texts = [
            config_to_json(&config).render(),
            report,
            ReportRequest::new(config).to_json_string(),
            reply,
        ];
        let digests: Vec<String> = texts
            .iter()
            .map(|text| format!("{:016x}", fnv1a(text.as_bytes())))
            .collect();
        lines.push(format!("{label}: {}", digests.join(" ")));
    }
    lines.push(format!(
        "snapshot: {:016x}",
        fnv1a(cache.snapshot_json().as_bytes())
    ));
    for kind in WireErrorKind::ALL {
        for (index, reason) in REASONS.iter().enumerate() {
            let reply = error_response(&WireError::new(kind, *reason));
            lines.push(format!(
                "error {} {index}: {:016x}",
                kind.as_wire_str(),
                fnv1a(reply.as_bytes())
            ));
        }
    }
    lines
}

#[test]
fn json_texts_match_the_pinned_digests() {
    let pinned: Vec<&str> = include_str!("fixtures/json_text_digests.txt")
        .lines()
        .collect();
    let lines = text_lines();
    assert_eq!(pinned.len(), lines.len(), "one pinned line per text group");
    for (line, pinned) in lines.iter().zip(&pinned) {
        let (label, digests) = line.split_once(": ").expect("label and digests");
        let (pinned_label, pinned_digests) = pinned.split_once(": ").expect("label and digests");
        assert_eq!(label, pinned_label, "the table lists the texts in order");
        for (index, (digest, pinned_digest)) in digests
            .split(' ')
            .zip(pinned_digests.split(' '))
            .enumerate()
        {
            let what = if digests.contains(' ') {
                TEXTS[index]
            } else {
                "text"
            };
            assert_eq!(
                digest, pinned_digest,
                "the {what} of {label} moved: digest {digest}, pinned {pinned_digest}"
            );
        }
    }
}

/// The golden configuration's JSON document.
const GOLDEN_CONFIG: &str = include_str!("../../sim/tests/fixtures/golden_config.json");

fn decode_config(text: &str) -> Result<Vec<u8>> {
    Ok(config_to_bin(&config_from_json(&JsonValue::parse(text)?)?))
}

fn decode_request(text: &str) -> Result<Vec<u8>> {
    Ok(request_to_bin(&ReportRequest::from_json_str(text)?))
}

fn decode_reply(text: &str) -> Result<Vec<u8>> {
    Ok(reply_to_bin(&parse_reply(text)?))
}

/// A decoder from JSON text to the decoded value's binary encoding.
type Decode = fn(&str) -> Result<Vec<u8>>;

/// The four corpora: the golden configuration, a request for it (sampled
/// defects, a correlated disturbance and the window override set), its ok
/// reply, and an error reply whose reason needs every kind of escaping.
fn corpora() -> [(&'static str, String, Decode); 4] {
    let request =
        ReportRequest::new(config_from_json(&JsonValue::parse(GOLDEN_CONFIG).unwrap()).unwrap());
    let report = SimulationPlatform::new(request.config.clone())
        .evaluate()
        .unwrap();
    [
        ("golden config", GOLDEN_CONFIG.to_string(), decode_config),
        ("request", request.to_json_string(), decode_request),
        ("ok reply", ok_response(&report), decode_reply),
        (
            "error reply",
            error_response(&WireError::new(WireErrorKind::BadRequest, MIXED_REASON)),
            decode_reply,
        ),
    ]
}

/// Every single-bit flip of `document`, then every single-byte deletion.
fn mutations(document: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let flips = (0..document.len() * 8).map(move |bit| {
        let mut mutated = document.to_vec();
        mutated[bit / 8] ^= 1 << (bit % 8);
        mutated
    });
    let deletions = (0..document.len()).map(move |index| {
        let mut mutated = document.to_vec();
        mutated.remove(index);
        mutated
    });
    flips.chain(deletions)
}

/// `name: mutations accepted digest` for one corpus. A mutation that is
/// not UTF-8 is rejected, as a server rejects such a frame.
fn outcome_line(name: &str, document: &str, decode: Decode) -> String {
    assert!(decode(document).is_ok(), "the whole {name} must decode");
    let (mut count, mut accepted, mut outcomes) = (0, 0, Vec::new());
    for mutated in mutations(document.as_bytes()) {
        count += 1;
        match std::str::from_utf8(&mutated).ok().map(decode) {
            Some(Ok(encoded)) => {
                accepted += 1;
                outcomes.push(1);
                outcomes.extend(fnv1a(&encoded).to_le_bytes());
            }
            _ => outcomes.push(0),
        }
    }
    format!("{name}: {count} {accepted} {:016x}", fnv1a(&outcomes))
}

#[test]
fn mutated_documents_decode_as_pinned() {
    let pinned: Vec<&str> = include_str!("fixtures/json_mutation_outcomes.txt")
        .lines()
        .collect();
    let corpora = corpora();
    assert_eq!(pinned.len(), corpora.len(), "one pinned line per corpus");
    for ((name, document, decode), pinned) in corpora.into_iter().zip(pinned) {
        let line = outcome_line(name, &document, decode);
        assert_eq!(
            line, pinned,
            "the accepted set or a decoded value of the {name} corpus moved \
             (mutations, accepted, outcome digest)"
        );
    }
}
