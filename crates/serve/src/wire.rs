//! The response half of the versioned JSON wire format, shared by every
//! transport front end.
//!
//! A response is either a report or a **typed** failure: the legacy
//! free-form `reason` string is still emitted (clients built against PR 4/5
//! keep parsing), but every error response now also carries a structured
//! `error` object whose `kind` is one of the
//! [`WireErrorKind`] tags —
//! `bad_request` / `overloaded` / `internal` — so clients can branch on the
//! failure class (retry an `overloaded`, fix a `bad_request`) without
//! string-matching reasons.
//!
//! ```text
//! {"schema_version":1,"status":"ok","report":{…}}
//! {"schema_version":1,"status":"error",
//!  "error":{"kind":"overloaded","reason":"…"},"reason":"…"}
//! ```

use decoder_sim::codec::{
    report_from_json, wire_error_kind_from_json, write_json_string, write_json_u64,
    write_report_json, JsonValue, ObjectWriter,
};
use decoder_sim::{PlatformReport, Result, SimError, WireErrorKind};

/// Schema version of the wire format. Requests and responses carry it;
/// mismatched versions are rejected, never reinterpreted. The typed `error`
/// object was added *within* version 1 as a forward-compatible field: old
/// clients ignore it and read the legacy `reason`, new clients prefer it.
pub const WIRE_SCHEMA_VERSION: u64 = 1;

pub(crate) fn wire_err(reason: impl Into<String>) -> SimError {
    SimError::Persistence {
        reason: reason.into(),
    }
}

/// A typed wire-level failure: the class of the failure plus the
/// human-readable reason the server attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The failure class (`bad_request` / `overloaded` / `internal`).
    pub kind: WireErrorKind,
    /// Human-readable detail, quoted verbatim from the server.
    pub reason: String,
}

impl WireError {
    /// A typed failure with a reason.
    #[must_use]
    pub fn new(kind: WireErrorKind, reason: impl Into<String>) -> Self {
        WireError {
            kind,
            reason: reason.into(),
        }
    }

    /// Whether a client may safely retry the request later (only
    /// [`WireErrorKind::Overloaded`] — the request was never evaluated).
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        self.kind == WireErrorKind::Overloaded
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_wire_str(), self.reason)
    }
}

/// A decoded wire response: the report, or the server's typed failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// `status: ok` — the evaluated report.
    Report(PlatformReport),
    /// `status: error` — the typed failure.
    Error(WireError),
}

/// The members a JSON reply may carry: the status, then the report or the
/// typed error with the legacy top-level reason.
const REPLY_KEYS: [&str; 5] = ["schema_version", "status", "report", "error", "reason"];

/// Starting room of an envelope's text buffer: a wire request or an ok
/// reply of the figure configurations takes 0.6–0.8 kB, so most envelopes
/// are written with one allocation.
const ENVELOPE_CAPACITY: usize = 1_024;

/// Opens an envelope in `out`: an object whose first member is
/// `schema_version`. The caller writes the other members and closes it.
pub(crate) fn versioned(out: &mut String) -> ObjectWriter<'_> {
    out.reserve(ENVELOPE_CAPACITY);
    let mut envelope = ObjectWriter::open(out);
    write_json_u64(WIRE_SCHEMA_VERSION, envelope.member("schema_version"));
    envelope
}

/// Encodes a successful response.
#[must_use]
pub fn ok_response(report: &PlatformReport) -> String {
    let mut out = String::new();
    let mut reply = versioned(&mut out);
    write_json_string("ok", reply.member("status"));
    write_report_json(report, reply.member("report"));
    reply.close();
    out
}

/// Encodes a typed error response. The legacy top-level `reason` is kept so
/// clients that predate the typed `error` object still see the failure.
#[must_use]
pub fn error_response(error: &WireError) -> String {
    let mut out = String::new();
    let mut reply = versioned(&mut out);
    write_json_string("error", reply.member("status"));
    let mut typed = ObjectWriter::open(reply.member("error"));
    write_json_string(error.kind.as_wire_str(), typed.member("kind"));
    write_json_string(&error.reason, typed.member("reason"));
    typed.close();
    write_json_string(&error.reason, reply.member("reason"));
    reply.close();
    out
}

/// Decodes a wire response into the typed reply — the client half of the
/// protocol (the TCP loadgen counts `overloaded` sheds separately from
/// mismatches).
///
/// Responses from servers that predate the typed `error` object (legacy
/// top-level `reason` only) decode as [`WireErrorKind::Internal`]. Any key
/// other than `schema_version`, `status`, `report`, `error` and `reason`
/// (`kind` and `reason` in the typed `error` object), and a repeated key,
/// is an error: a damaged `error` key must not decode as a legacy reply,
/// which would turn a retryable `overloaded` shed into a final `internal`
/// failure.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON, a mismatched
/// `schema_version`, an unknown status/kind tag, or an unknown or repeated
/// key.
pub fn parse_reply(response_json: &str) -> Result<WireReply> {
    let value = JsonValue::parse(response_json)?;
    let version = value.get("schema_version")?.as_u64()?;
    if version != WIRE_SCHEMA_VERSION {
        return Err(wire_err(format!(
            "response schema version {version} does not match supported version {WIRE_SCHEMA_VERSION}"
        )));
    }
    let status = value.get("status")?.as_str()?;
    let report = value.get_opt("report")?;
    let typed = value.get_opt("error")?;
    let reason = value.get_opt("reason")?;
    let read = 2 + [report, typed, reason].iter().flatten().count();
    value.check_keys(read, |key| REPLY_KEYS.contains(&key))?;
    match status {
        "ok" => Ok(WireReply::Report(report_from_json(value.get("report")?)?)),
        "error" => match typed {
            Some(typed) => {
                let error = WireError {
                    kind: wire_error_kind_from_json(typed.get("kind")?)?,
                    reason: typed.get("reason")?.as_str()?.to_string(),
                };
                typed.check_keys(2, |key| ["kind", "reason"].contains(&key))?;
                Ok(WireReply::Error(error))
            }
            None => Ok(WireReply::Error(WireError::new(
                WireErrorKind::Internal,
                value.get("reason")?.as_str()?,
            ))),
        },
        other => Err(wire_err(format!("unknown response status {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_responses_carry_both_typed_and_legacy_fields() {
        let encoded = error_response(&WireError::new(WireErrorKind::Overloaded, "queue full"));
        let value = JsonValue::parse(&encoded).unwrap();
        assert_eq!(value.get("status").unwrap().as_str().unwrap(), "error");
        assert_eq!(
            value
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap(),
            "overloaded"
        );
        // The legacy free-form reason is still present for old clients.
        assert_eq!(value.get("reason").unwrap().as_str().unwrap(), "queue full");

        match parse_reply(&encoded).unwrap() {
            WireReply::Error(error) => {
                assert_eq!(error.kind, WireErrorKind::Overloaded);
                assert!(error.is_retryable());
                assert_eq!(error.to_string(), "overloaded: queue full");
            }
            WireReply::Report(_) => panic!("an error response decoded as a report"),
        }
    }

    #[test]
    fn legacy_reason_only_error_responses_decode_as_internal() {
        let legacy = format!(
            "{{\"schema_version\":{WIRE_SCHEMA_VERSION},\"status\":\"error\",\"reason\":\"boom\"}}"
        );
        match parse_reply(&legacy).unwrap() {
            WireReply::Error(error) => {
                assert_eq!(error.kind, WireErrorKind::Internal);
                assert_eq!(error.reason, "boom");
                assert!(!error.is_retryable());
            }
            WireReply::Report(_) => panic!("a legacy error response decoded as a report"),
        }
    }
}
