//! The binary half of the wire protocol: the same request/reply documents
//! as the JSON wire, encoded through [`decoder_sim::bincodec`].
//!
//! # Negotiation
//!
//! Both codecs travel inside the same 4-byte length-prefixed frames; the
//! **first byte of each frame's payload** is the discriminator. Binary
//! documents open with `0xB1` (not a legal first byte of any JSON document
//! or of UTF-8 text), JSON with `{`. The server inspects each request frame
//! and answers in the codec the request arrived in, so one connection may
//! even mix codecs per frame and a JSON-era client keeps working against a
//! binary-capable server unchanged. The one exception is the accept-time
//! `overloaded` shed, which is written *before* the client has revealed a
//! codec and is therefore always JSON — binary clients route every received
//! frame through [`parse_reply_any`], which dispatches on the same first
//! byte.
//!
//! ```text
//! request  = document(DOC_REQUEST,
//!              section(0x01, config document))
//! reply    = document(DOC_REPLY,
//!              section(0x01, report document)      -- status: ok
//!            | section(0x02, kind:u8 reason:str))  -- status: error
//! ```
//!
//! Earlier clients could follow a request's config section with a
//! disturbance-override section (`0x02`, a disturbance body) and a
//! defect-override section (`0x03`, a defect body). Those legacy sections
//! are read, never written: [`request_from_bin`] applies them onto the
//! decoded configuration, so such a request decodes to the configuration
//! those clients were served.

use decoder_sim::bincodec::{
    self, config_from_bin, config_to_bin, defect_from_bin, disturbance_from_bin, report_from_bin,
    report_to_bin, wire_error_kind_from_bin, wire_error_kind_to_bin, BinReader, BinWriter,
};
use decoder_sim::{PlatformReport, Result, WireErrorKind};

use crate::wire::{parse_reply, wire_err, WireError, WireReply};
use crate::{Handler, ReportRequest};

/// Request section holding the nested [`SimConfig`](decoder_sim::SimConfig)
/// document. Required.
const TAG_REQUEST_CONFIG: u8 = 0x01;
/// Legacy request section holding a disturbance-override body. Read, never
/// written; absent means "no override".
const TAG_REQUEST_DISTURBANCE: u8 = 0x02;
/// Legacy request section holding a defect-override body. Read, never
/// written, like the disturbance override.
const TAG_REQUEST_DEFECTS: u8 = 0x03;

/// Reply section holding the nested report document (`status: ok`).
const TAG_REPLY_REPORT: u8 = 0x01;
/// Reply section holding a typed failure: kind byte + reason string
/// (`status: error`).
const TAG_REPLY_ERROR: u8 = 0x02;

/// Encodes a request as a binary wire document: its config section.
#[must_use]
pub fn request_to_bin(request: &ReportRequest) -> Vec<u8> {
    let mut payload = BinWriter::new();
    payload.section(TAG_REQUEST_CONFIG, &config_to_bin(&request.config));
    bincodec::document(bincodec::DOC_REQUEST, &payload.into_bytes())
}

/// Decodes a binary wire request. Legacy override sections are applied
/// onto the decoded configuration; unknown sections are skipped for
/// forward compatibility.
///
/// # Errors
///
/// Returns [`decoder_sim::SimError::Persistence`] on malformed bytes, a
/// mismatched schema version, a missing config section, or a duplicated
/// section, or propagates configuration validation errors.
pub fn request_from_bin(bytes: &[u8]) -> Result<ReportRequest> {
    let payload = bincodec::document_payload(bytes, bincodec::DOC_REQUEST)?;
    let mut reader = BinReader::new(payload);
    let mut config = None;
    let mut disturbance = None;
    let mut defects = None;
    fn store<T>(slot: &mut Option<T>, value: T, what: &str) -> Result<()> {
        if slot.replace(value).is_some() {
            return Err(wire_err(format!(
                "duplicate {what} section in binary request"
            )));
        }
        Ok(())
    }
    while let Some((tag, body)) = reader.next_section()? {
        match tag {
            TAG_REQUEST_CONFIG => store(&mut config, config_from_bin(body)?, "config")?,
            TAG_REQUEST_DISTURBANCE => {
                store(&mut disturbance, disturbance_from_bin(body)?, "disturbance")?;
            }
            TAG_REQUEST_DEFECTS => store(&mut defects, defect_from_bin(body)?, "defects")?,
            _ => {} // Forward compatibility: skip sections a later writer added.
        }
    }
    let mut config =
        config.ok_or_else(|| wire_err("binary request is missing its config section"))?;
    if let Some(kind) = disturbance {
        config = config.with_disturbance(kind);
    }
    if let Some(kind) = defects {
        config = config.with_defects(kind);
    }
    Ok(ReportRequest::new(config))
}

/// Encodes a typed reply as a binary wire document.
#[must_use]
pub fn reply_to_bin(reply: &WireReply) -> Vec<u8> {
    let mut payload = BinWriter::new();
    match reply {
        WireReply::Report(report) => {
            payload.section(TAG_REPLY_REPORT, &report_to_bin(report));
        }
        WireReply::Error(error) => {
            let mut body = BinWriter::new();
            body.put_bytes(&wire_error_kind_to_bin(error.kind));
            body.put_str(&error.reason);
            payload.section(TAG_REPLY_ERROR, &body.into_bytes());
        }
    }
    bincodec::document(bincodec::DOC_REPLY, &payload.into_bytes())
}

/// Decodes a binary wire reply. Exactly one of the report/error sections
/// must be present; unknown sections are skipped.
///
/// # Errors
///
/// Returns [`decoder_sim::SimError::Persistence`] on malformed bytes, a
/// mismatched schema version, or a reply carrying neither or both sections.
pub fn reply_from_bin(bytes: &[u8]) -> Result<WireReply> {
    let payload = bincodec::document_payload(bytes, bincodec::DOC_REPLY)?;
    let mut reader = BinReader::new(payload);
    let mut reply = None;
    while let Some((tag, body)) = reader.next_section()? {
        let decoded = match tag {
            TAG_REPLY_REPORT => WireReply::Report(report_from_bin(body)?),
            TAG_REPLY_ERROR => {
                let mut section = BinReader::new(body);
                let kind = wire_error_kind_from_bin(section.take_bytes(1)?)?;
                let reason = section.take_str()?.to_string();
                section.finish()?;
                WireReply::Error(WireError { kind, reason })
            }
            _ => continue, // Forward compatibility.
        };
        if reply.replace(decoded).is_some() {
            return Err(wire_err(
                "binary reply carries more than one report/error section",
            ));
        }
    }
    reply.ok_or_else(|| wire_err("binary reply carries neither a report nor an error section"))
}

/// Encodes a successful binary response — the counterpart of
/// [`crate::wire::ok_response`].
#[must_use]
pub fn ok_response_bin(report: &PlatformReport) -> Vec<u8> {
    reply_to_bin(&WireReply::Report(report.clone()))
}

/// Encodes a typed binary error response — the counterpart of
/// [`crate::wire::error_response`].
#[must_use]
pub fn error_response_bin(error: &WireError) -> Vec<u8> {
    reply_to_bin(&WireReply::Error(error.clone()))
}

/// The binary front end over any [`Handler`]: bytes in, bytes out. Like
/// [`crate::handle_json`] it never panics and never returns `Err` —
/// malformed requests become typed `bad_request` replies and evaluation
/// failures become typed `internal` replies.
#[must_use]
pub fn handle_bin(handler: &dyn Handler, request: &[u8]) -> Vec<u8> {
    match request_from_bin(request) {
        Err(error) => error_response_bin(&WireError::new(
            WireErrorKind::BadRequest,
            error.to_string(),
        )),
        Ok(request) => match handler.serve(&request) {
            Ok(report) => ok_response_bin(&report),
            Err(error) => {
                error_response_bin(&WireError::new(WireErrorKind::Internal, error.to_string()))
            }
        },
    }
}

/// Decodes a reply frame in **either** codec, dispatching on the first
/// byte — what every client should route received frames through, because
/// accept-time `overloaded` sheds are always JSON even on binary
/// connections.
///
/// # Errors
///
/// Returns [`decoder_sim::SimError::Persistence`] on malformed bytes in
/// either codec or a non-UTF-8 frame that is not a binary document.
pub fn parse_reply_any(bytes: &[u8]) -> Result<WireReply> {
    if bincodec::is_binary(bytes) {
        return reply_from_bin(bytes);
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|_| wire_err("reply frame is neither a binary document nor UTF-8 JSON"))?;
    parse_reply(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoder_sim::bincodec::{defect_to_bin, disturbance_to_bin};
    use decoder_sim::{
        DefectKind, DisturbanceKind, EngineConfig, ExecutionEngine, SimConfig, SimulationPlatform,
    };
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn config() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    /// A request document as earlier clients wrote it: the config section,
    /// then any override sections, in `sections` order.
    fn legacy_request(config: &SimConfig, sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut payload = BinWriter::new();
        payload.section(TAG_REQUEST_CONFIG, &config_to_bin(config));
        for (tag, body) in sections {
            payload.section(*tag, body);
        }
        bincodec::document(bincodec::DOC_REQUEST, &payload.into_bytes())
    }

    #[test]
    fn requests_round_trip_through_binary() {
        let typed = ReportRequest::new(config().with_disturbance(DisturbanceKind::Laplace));
        let bytes = request_to_bin(&typed);
        assert!(bincodec::is_binary(&bytes));
        assert_eq!(request_from_bin(&bytes).unwrap(), typed);
        // A request is its config section and nothing else.
        assert_eq!(bytes, legacy_request(&typed.config, &[]));
    }

    #[test]
    fn legacy_override_sections_fold_into_the_config() {
        let base = config();
        let defects = DefectKind::sampled(0.02, 0.01, 7).unwrap();
        let disturbance = (
            TAG_REQUEST_DISTURBANCE,
            disturbance_to_bin(DisturbanceKind::Laplace),
        );
        let defect = (TAG_REQUEST_DEFECTS, defect_to_bin(defects));
        let unknown = (0x7F, vec![1, 2, 3]);
        let server =
            crate::ReportServer::new(std::sync::Arc::new(ExecutionEngine::new(EngineConfig {
                threads: 1,
                chunk_size: 256,
            })));
        for (sections, expected) in [
            (
                vec![disturbance.clone()],
                base.clone().with_disturbance(DisturbanceKind::Laplace),
            ),
            (vec![defect.clone()], base.clone().with_defects(defects)),
            (
                vec![disturbance.clone(), unknown, defect.clone()],
                base.clone()
                    .with_disturbance(DisturbanceKind::Laplace)
                    .with_defects(defects),
            ),
        ] {
            let bytes = legacy_request(&base, &sections);
            assert_eq!(request_from_bin(&bytes).unwrap().config, expected);
            // Served the report of the folded configuration.
            let reference = SimulationPlatform::new(expected).evaluate().unwrap();
            assert_eq!(
                reply_from_bin(&handle_bin(&server, &bytes)).unwrap(),
                WireReply::Report(reference)
            );
        }
        // A duplicated legacy section is still an error.
        let twice = legacy_request(&base, &[defect.clone(), defect]);
        assert!(request_from_bin(&twice).is_err());
    }

    #[test]
    fn error_replies_round_trip_with_their_kind() {
        for kind in WireErrorKind::ALL {
            let reply = WireReply::Error(WireError::new(kind, "queue full"));
            assert_eq!(reply_from_bin(&reply_to_bin(&reply)).unwrap(), reply);
        }
    }

    #[test]
    fn parse_reply_any_dispatches_on_the_first_byte() {
        let error = WireError::new(WireErrorKind::Overloaded, "queue full");
        let json = crate::wire::error_response(&error);
        let bin = error_response_bin(&error);
        let from_json = parse_reply_any(json.as_bytes()).unwrap();
        let from_bin = parse_reply_any(&bin).unwrap();
        assert_eq!(from_json, from_bin);
        assert!(matches!(
            from_bin,
            WireReply::Error(ref e) if e.is_retryable()
        ));
    }

    #[test]
    fn truncated_requests_fail_except_at_the_one_section_boundary() {
        // No proper prefix of a request decodes.
        let bytes = request_to_bin(&ReportRequest::new(config()));
        assert!((0..bytes.len()).all(|take| request_from_bin(&bytes[..take]).is_err()));

        // A legacy request with a disturbance override decodes at exactly
        // one proper prefix, the one ending between its two sections, and
        // as the override-free request — never as a corrupted one.
        let legacy = legacy_request(
            &config(),
            &[(
                TAG_REQUEST_DISTURBANCE,
                disturbance_to_bin(DisturbanceKind::Laplace),
            )],
        );
        let mut boundary_decodes = 0;
        for take in 0..legacy.len() {
            if let Ok(decoded) = request_from_bin(&legacy[..take]) {
                assert_eq!(decoded, ReportRequest::new(config()));
                boundary_decodes += 1;
            }
        }
        assert_eq!(boundary_decodes, 1);
    }
}
