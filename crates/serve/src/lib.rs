//! # mspt-serve
//!
//! The concurrent serving layer over the execution engine's shared report
//! cache — the first step toward the workspace's heavy-traffic north star.
//!
//! A **request** is a [`SimConfig`] ([`ReportRequest`]), a **response** is
//! a [`PlatformReport`];
//! both travel as JSON through the std-only codec in `decoder_sim::codec`
//! (the vendored serde stand-in has no serializers, and crates.io is
//! unreachable in this build environment). Every server clone shares one
//! [`ExecutionEngine`], so every client shares one warm report memo — the
//! [`ReportCache`](decoder_sim::ReportCache) in the engine stage graph's
//! `Composite` slot, keyed by the fields a report reads:
//!
//! * repeated configurations are cache **hits** — the figure-sweep workload
//!   (and spectrum-style parameter sweeps over the same points) evaluates
//!   each distinct configuration once, ever;
//! * concurrent identical requests **single-flight** onto one in-flight
//!   evaluation instead of duplicating it;
//! * reports served from the cache are **bit-identical** to a serial
//!   evaluation of the same configuration — determinism survives the cache.
//!
//! # Layering
//!
//! The serve surface is split into transport-agnostic layers:
//!
//! * [`Handler`] — the typed core contract:
//!   `serve(&ReportRequest) -> Result<PlatformReport>`. [`ReportServer`]
//!   (engine + shared cache) is the canonical implementation; tests stub it
//!   freely.
//! * [`handle_json`] — the JSON front end: any `Handler` becomes a
//!   string-in/string-out endpoint with **typed** error responses
//!   ([`wire`]: `bad_request` / `overloaded` / `internal`).
//! * [`binwire`] / [`handle_bin`] — the binary front end: the same request
//!   and reply documents in the compact `decoder_sim::bincodec` encoding.
//! * [`net`] — the framed-TCP front end: a [`NetServer`] worker pool with a
//!   bounded accept queue, explicit `overloaded` load-shed responses and
//!   graceful draining shutdown, speaking 4-byte-length-prefixed frames of
//!   either wire codec — each request frame's first byte picks the codec
//!   its response comes back in, so JSON and binary clients share a server.
//!
//! [`loadgen`] is the load harness behind the `serve_stress` experiment
//! binary and the CI serving gates: N client connections hammer a
//! [`NetServer`] with a Zipf-ish mix of figure configurations, every
//! response is checked bit-for-bit against an independently computed
//! serial reference, and per-request latency lands in an HDR-style
//! p50/p99/p999 histogram ([`latency`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use decoder_sim::{EngineConfig, ExecutionEngine, SimConfig};
//! use mspt_serve::{handle_json, parse_reply, ReportRequest, ReportServer, WireReply};
//! use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = ReportServer::new(Arc::new(ExecutionEngine::new(EngineConfig {
//!     threads: 2,
//!     chunk_size: 256,
//! })));
//! let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10)?;
//! let request = ReportRequest::new(SimConfig::paper_defaults(code)?);
//!
//! // Typed path.
//! let report = server.serve(&request)?;
//! assert!(report.crossbar_yield > 0.0);
//!
//! // Wire path: JSON in, JSON out, errors become typed error responses.
//! let response = handle_json(&server, &request.to_json_string());
//! assert_eq!(parse_reply(&response)?, WireReply::Report(report));
//!
//! // The repeat is a cache hit.
//! server.serve(&request)?;
//! assert_eq!(server.stats().hits, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use decoder_sim::codec::{
    config_from_json, defect_from_json, disturbance_from_json, write_config_json, JsonValue,
};
use decoder_sim::{
    CacheStats, ExecutionEngine, PlatformReport, Result, SamplingStats, SimConfig, StageStats,
    WireErrorKind,
};

pub mod binwire;
pub mod latency;
pub mod loadgen;
pub mod net;
pub mod wire;

pub use binwire::{
    error_response_bin, handle_bin, ok_response_bin, parse_reply_any, reply_from_bin, reply_to_bin,
    request_from_bin, request_to_bin,
};
pub use latency::LatencyHistogram;
pub use loadgen::{probe_shed, run_net_stress, NetStressOutcome};
pub use net::{
    read_frame, write_frame, NetClient, NetServer, NetServerHandle, ServeConfig, ShedPolicy,
};
pub use wire::{
    error_response, ok_response, parse_reply, WireError, WireReply, WIRE_SCHEMA_VERSION,
};

use wire::wire_err;

/// Domain-separation tag mixed into the stress harness's per-client seeds
/// (through the workspace-wide [`decoder_sim::chunk_seed`] primitive), so a
/// load test sharing a run seed with a Monte-Carlo estimation or a defect
/// map draws a decorrelated stream instead of replaying theirs.
pub const STRESS_SEED_DOMAIN: u64 = 0x5e12_7e57_ae5d_0004;

/// Environment variable naming the stress harness's client-thread count.
pub const STRESS_CLIENTS_ENV: &str = "MSPT_STRESS_CLIENTS";
/// Environment variable naming the per-client request count per pass.
pub const STRESS_REQUESTS_ENV: &str = "MSPT_STRESS_REQUESTS";
/// Environment variable naming the stress harness's run seed.
pub const STRESS_SEED_ENV: &str = "MSPT_STRESS_SEED";

/// Which wire codec a loadgen connection encodes its requests in. Replies
/// always come back in the request's codec (accept-time sheds excepted —
/// those are JSON and handled by [`binwire::parse_reply_any`] either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// The PR 4/5-era JSON text wire.
    #[default]
    Json,
    /// The compact [`binwire`] binary wire.
    Binary,
}

impl WireCodec {
    /// The codec's lowercase wire name (`json` / `binary`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Binary => "binary",
        }
    }

    /// Encodes a request in this codec, ready for a frame payload.
    #[must_use]
    pub fn encode_request(self, request: &ReportRequest) -> Vec<u8> {
        match self {
            WireCodec::Json => request.to_json_string().into_bytes(),
            WireCodec::Binary => binwire::request_to_bin(request),
        }
    }
}

pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(default)
}

pub(crate) fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(default)
}

/// The members a JSON request may carry: the configuration, and the
/// override keys earlier clients sent.
const REQUEST_KEYS: [&str; 4] = ["schema_version", "config", "disturbance", "defects"];

/// One serving request: the simulation configuration to evaluate.
///
/// Disturbance and defect selections are fields of the configuration
/// ([`SimConfig::with_disturbance`], [`SimConfig::with_defects`]). The
/// report cache keys a request by the fields its report reads: a defect
/// selection keys an entry of its own, while a Gaussian and a Laplace
/// request with the same platform parameters share one entry — no report
/// stage reads the disturbance kind, so their reports are identical.
///
/// ```
/// use decoder_sim::{DisturbanceKind, SimConfig};
/// use mspt_serve::ReportRequest;
/// use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8)?;
/// let config = SimConfig::paper_defaults(code)?.with_disturbance(DisturbanceKind::Laplace);
/// let request = ReportRequest::new(config);
/// let wire = request.to_json_string();
/// assert!(wire.starts_with("{\"schema_version\":1,\"config\":{"));
/// assert_eq!(ReportRequest::from_json_str(&wire)?, request);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRequest {
    /// The configuration to evaluate.
    pub config: SimConfig,
}

impl ReportRequest {
    /// A request for a configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        ReportRequest { config }
    }

    /// Encodes the request as a wire JSON document:
    /// `{"schema_version":1,"config":{…}}`.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        let mut request = wire::versioned(&mut out);
        write_config_json(&self.config, request.member("config"));
        request.close();
        out
    }

    /// Decodes a wire JSON request.
    ///
    /// Earlier clients sent `disturbance` and `defects` override keys next
    /// to the configuration. Both are optional: absent or `null` means no
    /// override, and an override object is applied onto the decoded
    /// configuration, so such a request decodes to the configuration those
    /// clients were served. Any other key, and a repeated key, is an error:
    /// a damaged override key must not decode as an override left out.
    ///
    /// # Errors
    ///
    /// Returns [`decoder_sim::SimError::Persistence`] on malformed JSON, a
    /// mismatched `schema_version` or an unknown or repeated key, or
    /// propagates configuration validation errors.
    pub fn from_json_str(request_json: &str) -> Result<Self> {
        let value = JsonValue::parse(request_json)?;
        let version = value.get("schema_version")?.as_u64()?;
        if version != WIRE_SCHEMA_VERSION {
            return Err(wire_err(format!(
                "request schema version {version} does not match supported version {WIRE_SCHEMA_VERSION}"
            )));
        }
        let mut config = config_from_json(value.get("config")?)?;
        let disturbance = value.get_opt("disturbance")?;
        let defects = value.get_opt("defects")?;
        let read = 2 + usize::from(disturbance.is_some()) + usize::from(defects.is_some());
        value.check_keys(read, |key| REQUEST_KEYS.contains(&key))?;
        match disturbance {
            None | Some(JsonValue::Null) => {}
            Some(kind) => config = config.with_disturbance(disturbance_from_json(kind)?),
        }
        match defects {
            None | Some(JsonValue::Null) => {}
            Some(kind) => config = config.with_defects(defect_from_json(kind)?),
        }
        Ok(ReportRequest { config })
    }
}

/// The transport-agnostic serving contract: one typed request in, one report
/// (or error) out. [`ReportServer`] is the canonical implementation; the
/// JSON ([`handle_json`]) and framed-TCP ([`net::NetServer`]) front ends are
/// thin adapters over any `Handler`, so alternative backends (a stub, a
/// remote proxy, a recording middleware) drop in without touching a
/// transport.
pub trait Handler: Send + Sync {
    /// Serves one typed request.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures; transports encode them as typed
    /// `internal` wire errors.
    fn serve(&self, request: &ReportRequest) -> Result<PlatformReport>;
}

/// The JSON front end over any [`Handler`]: JSON in, JSON out. Never panics
/// and never returns `Err` — malformed requests become typed `bad_request`
/// responses and evaluation failures become typed `internal` responses, so
/// one bad client cannot take a server down.
#[must_use]
pub fn handle_json(handler: &dyn Handler, request_json: &str) -> String {
    match ReportRequest::from_json_str(request_json) {
        Err(error) => error_response(&WireError::new(
            WireErrorKind::BadRequest,
            error.to_string(),
        )),
        Ok(request) => match handler.serve(&request) {
            Ok(report) => ok_response(&report),
            Err(error) => {
                error_response(&WireError::new(WireErrorKind::Internal, error.to_string()))
            }
        },
    }
}

/// The concurrent serving front end: every request is evaluated through one
/// shared [`ExecutionEngine`] and its single-flight report cache. The server
/// is `Send + Sync`; clone the `Arc` it wraps (or the server itself) into as
/// many client threads as needed.
#[derive(Debug, Clone)]
pub struct ReportServer {
    engine: Arc<ExecutionEngine>,
    requests: Arc<AtomicU64>,
}

impl ReportServer {
    /// Creates a server over a shared engine.
    #[must_use]
    pub fn new(engine: Arc<ExecutionEngine>) -> Self {
        ReportServer {
            engine,
            requests: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The shared engine behind the server.
    #[must_use]
    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    /// Total requests served (typed and wire) since construction.
    #[must_use]
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The shared report cache's counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Per-stage hit/miss/eviction counters of the engine's stage cache, in
    /// [`decoder_sim::Stage::ALL`] order — the rows the `serve_stress`
    /// harness prints and emits next to the aggregate report-cache counters.
    #[must_use]
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.engine.stage_stats()
    }

    /// The engine's cumulative Monte-Carlo sampling counters — how many
    /// sampling runs the engine computed and how many samples the adaptive
    /// stopping rule actually drew against the requested budgets.
    #[must_use]
    pub fn sampling_stats(&self) -> SamplingStats {
        self.engine.sampling_stats()
    }

    /// Serves a typed request: evaluates its configuration through the
    /// engine's single-flight cache.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn serve(&self, request: &ReportRequest) -> Result<PlatformReport> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.engine.report_for(&request.config)
    }
}

impl Handler for ReportServer {
    fn serve(&self, request: &ReportRequest) -> Result<PlatformReport> {
        ReportServer::serve(self, request)
    }
}

/// Knobs of the TCP load harness ([`run_net_stress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressConfig {
    /// Number of concurrent client connections, one thread each.
    pub clients: usize,
    /// Request frames each client sends per pass.
    pub requests_per_client: usize,
    /// Run seed. Client `c` draws its request indices from
    /// `chunk_seed(seed ^ STRESS_SEED_DOMAIN, c)`, so the whole request
    /// sequence is reproducible — two same-seed runs ask for the same
    /// multiset of configurations in the same per-client order.
    pub seed: u64,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            clients: 8,
            requests_per_client: 64,
            seed: 2_009,
        }
    }
}

impl StressConfig {
    /// Reads the harness knobs from the environment once —
    /// [`STRESS_CLIENTS_ENV`], [`STRESS_REQUESTS_ENV`], [`STRESS_SEED_ENV`]
    /// — falling back to the defaults for unset or unparsable values, so
    /// binaries stop scattering ad-hoc `std::env::var` reads.
    #[must_use]
    pub fn from_env() -> Self {
        let default = StressConfig::default();
        StressConfig {
            clients: env_usize(STRESS_CLIENTS_ENV, default.clients),
            requests_per_client: env_usize(STRESS_REQUESTS_ENV, default.requests_per_client),
            seed: env_u64(STRESS_SEED_ENV, default.seed),
        }
    }
}

/// Draws one mix index from a Zipf-ish popularity law: request `mix[i]` with
/// probability proportional to `1 / (i + 1)` — a few hot configurations and
/// a long cold tail, the shape a shared warm cache is built for.
pub(crate) fn zipf_cumulative(len: usize) -> Vec<f64> {
    let mut cumulative = Vec::with_capacity(len);
    let mut total = 0.0;
    for rank in 0..len {
        total += 1.0 / (rank as f64 + 1.0);
        cumulative.push(total);
    }
    cumulative
}

pub(crate) fn zipf_index(rng: &mut StdRng, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("non-empty mix");
    let draw = rng.gen::<f64>() * total;
    cumulative
        .iter()
        .position(|&bound| draw < bound)
        .unwrap_or(cumulative.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoder_sim::codec::{config_to_json, defect_to_json, disturbance_to_json};
    use decoder_sim::{DefectKind, DisturbanceKind, EngineConfig, SimulationPlatform};
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
    use rand::SeedableRng;

    fn request(kind: CodeKind, length: usize) -> ReportRequest {
        let code = CodeSpec::new(kind, LogicLevel::BINARY, length).unwrap();
        ReportRequest::new(SimConfig::paper_defaults(code).unwrap())
    }

    fn server(threads: usize) -> ReportServer {
        ReportServer::new(Arc::new(ExecutionEngine::new(EngineConfig {
            threads,
            chunk_size: 256,
        })))
    }

    #[test]
    fn requests_round_trip_the_wire_format() {
        let typed = ReportRequest::new(
            request(CodeKind::Gray, 8)
                .config
                .with_disturbance(DisturbanceKind::Laplace)
                .with_defects(DefectKind::sampled(0.02, 0.01, 7).unwrap()),
        );
        // A request is its configuration: the document carries nothing else.
        let wire = typed.to_json_string();
        assert_eq!(
            wire,
            format!(
                "{{\"schema_version\":1,\"config\":{}}}",
                config_to_json(&typed.config).render()
            )
        );
        let decoded = ReportRequest::from_json_str(&wire).unwrap();
        assert_eq!(decoded, typed);
        assert_eq!(decoded.config.disturbance(), DisturbanceKind::Laplace);
        assert_eq!(decoded.config.defects().nanowire_breakage(), 0.02);
    }

    #[test]
    fn requests_without_a_defects_field_still_parse() {
        // Earlier clients wrote disturbance and defect override keys next to
        // the configuration, and the oldest no defects key at all. Absent
        // and null mean no override; an object is applied onto the decoded
        // configuration, and the request is served that configuration's
        // report.
        let base = request(CodeKind::Tree, 8).config;
        let defects = DefectKind::sampled(0.02, 0.01, 7).unwrap();
        let config = config_to_json(&base).render();
        let laplace = disturbance_to_json(DisturbanceKind::Laplace).render();
        let sampled = defect_to_json(defects).render();
        let both = base
            .clone()
            .with_disturbance(DisturbanceKind::Laplace)
            .with_defects(defects);
        let server = server(1);
        for (overrides, expected) in [
            (String::new(), base.clone()),
            (",\"disturbance\":null".to_string(), base.clone()),
            (
                ",\"disturbance\":null,\"defects\":null".to_string(),
                base.clone(),
            ),
            (
                format!(",\"disturbance\":{laplace}"),
                base.clone().with_disturbance(DisturbanceKind::Laplace),
            ),
            (
                format!(",\"disturbance\":null,\"defects\":{sampled}"),
                base.clone().with_defects(defects),
            ),
            (
                format!(",\"disturbance\":{laplace},\"defects\":{sampled}"),
                both,
            ),
        ] {
            let wire = format!("{{\"schema_version\":1,\"config\":{config}{overrides}}}");
            let decoded = ReportRequest::from_json_str(&wire).unwrap();
            assert_eq!(decoded.config, expected, "{wire}");
            let reference = SimulationPlatform::new(expected).evaluate().unwrap();
            assert_eq!(
                parse_reply(&handle_json(&server, &wire)).unwrap(),
                WireReply::Report(reference),
                "{wire}"
            );
        }
    }

    #[test]
    fn envelopes_reject_unknown_and_repeated_keys() {
        fn is_persistence<T>(result: Result<T>, named: &str) -> bool {
            matches!(result, Err(decoder_sim::SimError::Persistence { reason }) if reason.contains(named))
        }
        let base = request(CodeKind::Tree, 8).config;
        let config = config_to_json(&base).render();
        let sampled = defect_to_json(DefectKind::sampled(0.02, 0.01, 7).unwrap()).render();
        // A damaged override key read as no override, and the defect-free
        // report was served; now it is a typed `bad_request`, as is a
        // repeated key.
        let server = server(1);
        for (wire, named) in [
            (
                format!("{{\"schema_version\":1,\"config\":{config},\"eefects\":{sampled}}}"),
                "eefects",
            ),
            (
                format!("{{\"schema_version\":1,\"config\":{config},\"config\":{config}}}"),
                "config",
            ),
        ] {
            let decoded = ReportRequest::from_json_str(&wire);
            assert!(is_persistence(decoded, named), "{wire}");
            match parse_reply(&handle_json(&server, &wire)).unwrap() {
                WireReply::Error(error) => assert_eq!(error.kind, WireErrorKind::BadRequest),
                WireReply::Report(_) => panic!("{wire}: served a report"),
            }
        }
        // A shed reply whose `error` key is damaged decoded as the legacy
        // reason-only shape, a final `internal` error instead of a
        // retryable `overloaded` one.
        let overloaded = WireError::new(WireErrorKind::Overloaded, "queue full");
        let shed = error_response(&overloaded);
        assert_eq!(parse_reply(&shed).unwrap(), WireReply::Error(overloaded));
        for (from, to, named) in [
            ("\"error\":{", "\"errnr\":{", "errnr"),
            ("\"kind\"", "\"kind\":\"internal\",\"kind\"", "kind"),
            ("\"status\"", "\"status\":\"ok\",\"status\"", "status"),
        ] {
            assert_eq!(shed.matches(from).count(), 1, "{from}");
            let damaged = shed.replacen(from, to, 1);
            assert!(is_persistence(parse_reply(&damaged), named), "{damaged}");
        }
        // The legacy shapes still decode: `null` overrides (above, in
        // `requests_without_a_defects_field_still_parse`) and reason-only
        // error replies.
        let legacy = "{\"schema_version\":1,\"status\":\"error\",\"reason\":\"boom\"}";
        assert_eq!(
            parse_reply(legacy).unwrap(),
            WireReply::Error(WireError::new(WireErrorKind::Internal, "boom"))
        );
    }

    #[test]
    fn mismatched_wire_versions_are_rejected() {
        let good = request(CodeKind::Tree, 8).to_json_string();
        let bad = good.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        assert!(ReportRequest::from_json_str(&bad).is_err());

        let response = handle_json(&server(1), &good);
        let bad = response.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        assert!(parse_reply(&bad).is_err());
    }

    #[test]
    fn malformed_requests_become_error_responses() {
        let server = server(1);
        match parse_reply(&handle_json(&server, "this is not json")).unwrap() {
            WireReply::Error(error) => assert_eq!(error.kind, WireErrorKind::BadRequest),
            WireReply::Report(_) => panic!("a malformed request was served a report"),
        }
        // And a valid follow-up request still works.
        let ok = handle_json(&server, &request(CodeKind::Tree, 8).to_json_string());
        assert!(matches!(parse_reply(&ok).unwrap(), WireReply::Report(_)));
    }

    #[test]
    fn disturbance_override_never_aliases_in_the_cache() {
        let server = server(2);
        let base = request(CodeKind::BalancedGray, 10);
        let laplace = ReportRequest::new(
            base.config
                .clone()
                .with_disturbance(DisturbanceKind::Laplace),
        );
        let gaussian_report = server.serve(&base).unwrap();
        let laplace_report = server.serve(&laplace).unwrap();
        // No report stage reads the disturbance kind, so the Laplace request
        // shares the one entry: one miss, and the report served for it is
        // the right one.
        assert_eq!(server.engine().cached_report_count(), 1);
        assert_eq!(server.stats().misses, 1);
        assert_eq!(laplace_report, gaussian_report);
        assert_eq!(
            laplace_report,
            SimulationPlatform::new(laplace.config).evaluate().unwrap()
        );
        // A field the report reads still keys an entry of its own.
        let windowed = ReportRequest::new(base.config.clone().with_window(0.2.into()));
        server.serve(&windowed).unwrap();
        assert_eq!(server.engine().cached_report_count(), 2);
        assert_eq!(server.stats().misses, 2);
    }

    #[test]
    fn defect_override_never_aliases_in_the_cache() {
        let server = server(2);
        let base = request(CodeKind::BalancedGray, 10);
        let defective = ReportRequest::new(
            base.config
                .clone()
                .with_defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap()),
        );
        let clean = server.serve(&base).unwrap();
        let composed = server.serve(&defective).unwrap();
        // Two distinct cache entries: the defect selection is part of the key.
        assert_eq!(server.engine().cached_report_count(), 2);
        assert_eq!(server.stats().misses, 2);
        // And the defective response genuinely composes the defect map.
        assert_eq!(clean.defect_survival, 1.0);
        assert!(composed.defect_survival < 1.0);
        assert!(composed.composite_yield < clean.composite_yield);
    }

    #[test]
    fn zipf_mix_covers_hot_and_cold_ranks() {
        let mut rng = StdRng::seed_from_u64(7);
        let cumulative: Vec<f64> = (0..4)
            .scan(0.0, |total, rank| {
                *total += 1.0 / (rank as f64 + 1.0);
                Some(*total)
            })
            .collect();
        let mut counts = [0usize; 4];
        for _ in 0..4_000 {
            counts[zipf_index(&mut rng, &cumulative)] += 1;
        }
        // Rank 0 is the hottest; every rank appears.
        assert!(counts[0] > counts[3]);
        assert!(counts.iter().all(|&count| count > 0));
    }
}
