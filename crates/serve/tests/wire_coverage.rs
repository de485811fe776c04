//! Field coverage of the request and reply envelopes, by behaviour, in both
//! codecs: every key and section is dropped in turn and every leaf value
//! perturbed in turn, and each mutation must fail with a typed error or
//! change the decoded value. The config and report documents inside the
//! envelopes have their own battery in `decoder-sim`; here each is one
//! value, perturbed to `null`. The one key listed as unread is the error
//! reply's top-level `reason`, written for clients that predate the typed
//! `error` object: dropping or perturbing it decodes to the same reply.

use decoder_sim::bincodec::{
    self, document, document_payload, BinReader, BinWriter, DOC_REPLY, DOC_REQUEST,
};
use decoder_sim::codec::JsonValue;
use decoder_sim::{Result, SimConfig, SimulationPlatform, WireErrorKind};
use mspt_serve::{
    error_response, error_response_bin, ok_response, ok_response_bin, parse_reply, reply_from_bin,
    request_from_bin, request_to_bin, ReportRequest, WireError, WireReply,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn request() -> ReportRequest {
    let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
    ReportRequest::new(SimConfig::paper_defaults(code).unwrap())
}

fn report_reply() -> WireReply {
    WireReply::Report(
        SimulationPlatform::new(request().config)
            .evaluate()
            .unwrap(),
    )
}

fn error_reply() -> WireError {
    WireError::new(WireErrorKind::Overloaded, "queue full")
}

/// The keys an envelope decoder does not read.
const UNREAD_KEYS: [&str; 1] = ["reason"];

/// Nested documents, covered by their own battery.
const DOCUMENT_KEYS: [&str; 2] = ["config", "report"];

fn assert_noticed<T: PartialEq + std::fmt::Debug>(decoded: Result<T>, original: &T, what: &str) {
    if let Ok(decoded) = decoded {
        assert_ne!(&decoded, original, "{what} decoded unchanged");
    }
}

fn perturb<'a>(leaf: &JsonValue<'a>) -> JsonValue<'a> {
    match leaf {
        JsonValue::Number(literal) => JsonValue::Number(format!("{literal}1").into()),
        JsonValue::String(text) => JsonValue::String(format!("{text}_").into()),
        _ => JsonValue::Null,
    }
}

/// Drops and perturbs every member of `json`'s top level and of the nested
/// `error` object, nested documents perturbed whole.
fn json_battery<T: PartialEq + std::fmt::Debug>(
    json: &str,
    decode: impl Fn(&str) -> Result<T>,
    original: &T,
) {
    let value = JsonValue::parse(json).unwrap();
    assert_eq!(&decode(json).unwrap(), original);
    let JsonValue::Object(members) = &value else {
        panic!("an envelope is an object");
    };
    for (index, (key, member)) in members.iter().enumerate() {
        let unread = UNREAD_KEYS.contains(&key.as_ref());
        let mut mutations = vec![(format!("dropping {key}"), None)];
        match member {
            JsonValue::Object(inner) if !DOCUMENT_KEYS.contains(&key.as_ref()) => {
                for (inner_index, (inner_key, leaf)) in inner.iter().enumerate() {
                    let mut without = inner.clone();
                    without.remove(inner_index);
                    let mut perturbed = inner.clone();
                    perturbed[inner_index].1 = perturb(leaf);
                    for (what, replacement) in [("dropping", without), ("perturbing", perturbed)] {
                        mutations.push((
                            format!("{what} {key}.{inner_key}"),
                            Some(JsonValue::Object(replacement)),
                        ));
                    }
                }
            }
            leaf => mutations.push((format!("perturbing {key}"), Some(perturb(leaf)))),
        }
        for (what, replacement) in mutations {
            let mut mutated = members.clone();
            match replacement {
                Some(replacement) => mutated[index].1 = replacement,
                None => {
                    mutated.remove(index);
                }
            }
            let decoded = decode(&JsonValue::Object(mutated).render());
            if unread {
                assert_eq!(&decoded.unwrap(), original, "{what}");
            } else {
                assert_noticed(decoded, original, &what);
            }
        }
    }
}

/// Drops every section, and perturbs every byte of every section body that
/// is not a nested document.
fn bin_battery<T: PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    kind: u8,
    decode: impl Fn(&[u8]) -> Result<T>,
    original: &T,
) {
    assert_eq!(&decode(bytes).unwrap(), original);
    let mut reader = BinReader::new(document_payload(bytes, kind).unwrap());
    let mut sections = Vec::new();
    while let Some((tag, body)) = reader.next_section().unwrap() {
        sections.push((tag, body.to_vec()));
    }
    let assemble = |sections: &[(u8, Vec<u8>)]| {
        let mut payload = BinWriter::new();
        for (tag, body) in sections {
            payload.section(*tag, body);
        }
        document(kind, &payload.into_bytes())
    };
    assert_eq!(assemble(&sections), bytes);
    for (index, (tag, body)) in sections.iter().enumerate() {
        let mut without = sections.clone();
        without.remove(index);
        let what = format!("dropping section 0x{tag:02x}");
        assert_noticed(decode(&assemble(&without)), original, &what);
        if bincodec::is_binary(body) {
            continue;
        }
        for byte in 0..body.len() {
            let mut mutated = sections.clone();
            mutated[index].1[byte] ^= 1;
            let what = format!("perturbing byte {byte} of section 0x{tag:02x}");
            assert_noticed(decode(&assemble(&mutated)), original, &what);
        }
    }
}

#[test]
fn every_request_key_and_section_is_read() {
    let request = request();
    json_battery(
        &request.to_json_string(),
        ReportRequest::from_json_str,
        &request,
    );
    bin_battery(
        &request_to_bin(&request),
        DOC_REQUEST,
        request_from_bin,
        &request,
    );
}

#[test]
fn every_reply_key_and_section_is_read() {
    let WireReply::Report(report) = report_reply() else {
        unreachable!()
    };
    json_battery(&ok_response(&report), parse_reply, &report_reply());
    bin_battery(
        &ok_response_bin(&report),
        DOC_REPLY,
        reply_from_bin,
        &report_reply(),
    );
    let error = WireReply::Error(error_reply());
    json_battery(&error_response(&error_reply()), parse_reply, &error);
    bin_battery(
        &error_response_bin(&error_reply()),
        DOC_REPLY,
        reply_from_bin,
        &error,
    );
}
