//! # mspt-serve
//!
//! The concurrent serving layer over the execution engine's shared report
//! cache — the first step toward the workspace's heavy-traffic north star.
//!
//! A **request** is a serialized [`SimConfig`] (plus optional
//! [`DisturbanceKind`] and [`DefectKind`] overrides), a **response** is a
//! [`PlatformReport`];
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
//!   [`ReportServer::handle`] is this adapter applied to itself.
//! * [`binwire`] / [`handle_bin`] — the binary front end: the same request
//!   and reply documents in the compact `decoder_sim::bincodec` encoding.
//! * [`net`] — the framed-TCP front end: a [`NetServer`] worker pool with a
//!   bounded accept queue, explicit `overloaded` load-shed responses and
//!   graceful draining shutdown, speaking 4-byte-length-prefixed frames of
//!   either wire codec — each request frame's first byte picks the codec
//!   its response comes back in, so JSON and binary clients share a server.
//!
//! [`run_stress`] is the in-process load harness behind the `serve_stress`
//! experiment binary and the CI serving gate: N client threads hammer one
//! server with a Zipf-ish mix of figure configurations and every response is
//! checked bit-for-bit against an independently computed serial reference.
//! [`loadgen`] is the same harness over real sockets, with an HDR-style
//! p50/p99/p999 latency histogram ([`latency`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use decoder_sim::{EngineConfig, ExecutionEngine, SimConfig};
//! use mspt_serve::{ReportRequest, ReportServer};
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
//! // Wire path: JSON in, JSON out, errors become error responses.
//! let response = server.handle(&request.to_json_string());
//! assert_eq!(mspt_serve::parse_response(&response)?, report);
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
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use decoder_sim::codec::{
    config_from_json, config_to_json, defect_from_json, defect_to_json, disturbance_from_json,
    disturbance_to_json, JsonValue,
};
use decoder_sim::{
    chunk_seed, CacheStats, DefectKind, DisturbanceKind, ExecutionEngine, PlatformReport, Result,
    SamplingStats, SimConfig, SimulationPlatform, StageStats, WireErrorKind,
};

pub mod binwire;
pub mod latency;
pub mod loadgen;
pub mod net;
pub mod wire;

pub use binwire::{
    error_response_bin, handle_bin, ok_response_bin, parse_reply_any, parse_response_any,
    reply_from_bin, reply_to_bin, request_from_bin, request_to_bin,
};
pub use latency::LatencyHistogram;
pub use loadgen::{probe_shed, run_net_stress, NetStressOutcome};
pub use net::{
    read_frame, write_frame, NetClient, NetServer, NetServerHandle, ServeConfig, ShedPolicy,
};
pub use wire::{
    error_response, ok_response, parse_reply, parse_response, WireError, WireReply,
    WIRE_SCHEMA_VERSION,
};

use wire::wire_err;

/// Domain-separation tag mixed into the stress harness's per-client seeds
/// (through the workspace-wide [`chunk_seed`] primitive), so a load test
/// sharing a run seed with a Monte-Carlo estimation or a defect map draws a
/// decorrelated stream instead of replaying theirs.
pub const STRESS_SEED_DOMAIN: u64 = 0x5e12_7e57_ae5d_0004;

/// Environment variable naming the stress harness's client-thread count.
pub const STRESS_CLIENTS_ENV: &str = "MSPT_STRESS_CLIENTS";
/// Environment variable naming the per-client request count per pass.
pub const STRESS_REQUESTS_ENV: &str = "MSPT_STRESS_REQUESTS";
/// Environment variable naming the stress harness's run seed.
pub const STRESS_SEED_ENV: &str = "MSPT_STRESS_SEED";
/// Environment variable selecting the wire codec the TCP loadgen speaks:
/// `json` (the default), `binary`, or — understood by the `serve_stress`
/// binary only — `both`, which runs the loadgen once per codec and emits
/// both sets of benchmark rows.
pub const STRESS_CODEC_ENV: &str = "MSPT_STRESS_CODEC";

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

/// One serving request: a full simulation configuration plus optional
/// disturbance and defect overrides.
///
/// The overrides exist for clients that sweep disturbance models or defect
/// rates over one platform configuration; they are applied onto the
/// configuration **before** the engine sees the request
/// ([`ReportRequest::effective_config`]). The report cache keys a request by
/// the fields its report reads: a defect override keys an entry of its own,
/// while a Gaussian and a Laplace request with the same platform parameters
/// share one entry — no report stage reads the disturbance kind, so their
/// reports are identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRequest {
    /// The configuration to evaluate.
    pub config: SimConfig,
    /// When set, replaces the configuration's disturbance kind.
    pub disturbance: Option<DisturbanceKind>,
    /// When set, replaces the configuration's fabrication-defect selection.
    pub defects: Option<DefectKind>,
}

impl ReportRequest {
    /// Starts building a request for a configuration, with the overrides
    /// set fluently; [`ReportRequest::new`] is the request without any.
    ///
    /// ```
    /// use decoder_sim::{DisturbanceKind, SimConfig};
    /// use mspt_serve::ReportRequest;
    /// use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8)?;
    /// let request = ReportRequest::builder(SimConfig::paper_defaults(code)?)
    ///     .disturbance(DisturbanceKind::Laplace)
    ///     .build();
    /// assert_eq!(request.disturbance, Some(DisturbanceKind::Laplace));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn builder(config: SimConfig) -> ReportRequestBuilder {
        ReportRequestBuilder {
            config,
            disturbance: None,
            defects: None,
        }
    }

    /// A request for a configuration as-is.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        ReportRequest::builder(config).build()
    }

    /// The configuration the engine actually evaluates: the request's
    /// configuration with the disturbance and defect overrides (if any)
    /// applied.
    #[must_use]
    pub fn effective_config(&self) -> SimConfig {
        let mut config = self.config.clone();
        if let Some(kind) = self.disturbance {
            config = config.with_disturbance(kind);
        }
        if let Some(defects) = self.defects {
            config = config.with_defects(defects);
        }
        config
    }

    /// Encodes the request as a wire JSON document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        JsonValue::Object(vec![
            (
                "schema_version".to_string(),
                JsonValue::from_u64(WIRE_SCHEMA_VERSION),
            ),
            ("config".to_string(), config_to_json(&self.config)),
            (
                "disturbance".to_string(),
                self.disturbance
                    .map_or(JsonValue::Null, disturbance_to_json),
            ),
            (
                "defects".to_string(),
                self.defects.map_or(JsonValue::Null, defect_to_json),
            ),
        ])
        .render()
    }

    /// Decodes a wire JSON request. The `defects` override is optional on
    /// the wire (absent and `null` both mean "no override"), so requests
    /// from clients built before the defect dimension existed still parse.
    ///
    /// # Errors
    ///
    /// Returns [`decoder_sim::SimError::Persistence`] on malformed JSON or a mismatched
    /// `schema_version`, or propagates configuration validation errors.
    pub fn from_json_str(request_json: &str) -> Result<Self> {
        let value = JsonValue::parse(request_json)?;
        let version = value.get("schema_version")?.as_u64()?;
        if version != WIRE_SCHEMA_VERSION {
            return Err(wire_err(format!(
                "request schema version {version} does not match supported version {WIRE_SCHEMA_VERSION}"
            )));
        }
        let config = config_from_json(value.get("config")?)?;
        let disturbance = match value.get("disturbance")? {
            JsonValue::Null => None,
            kind => Some(disturbance_from_json(kind)?),
        };
        let defects = match value.get_opt("defects")? {
            None | Some(JsonValue::Null) => None,
            Some(kind) => Some(defect_from_json(kind)?),
        };
        Ok(ReportRequest {
            config,
            disturbance,
            defects,
        })
    }
}

/// Builder for [`ReportRequest`]: configuration first, overrides fluently.
#[derive(Debug, Clone)]
pub struct ReportRequestBuilder {
    config: SimConfig,
    disturbance: Option<DisturbanceKind>,
    defects: Option<DefectKind>,
}

impl ReportRequestBuilder {
    /// Overrides the configuration's disturbance kind.
    #[must_use]
    pub fn disturbance(mut self, kind: DisturbanceKind) -> Self {
        self.disturbance = Some(kind);
        self
    }

    /// Overrides the configuration's fabrication-defect selection.
    #[must_use]
    pub fn defects(mut self, kind: DefectKind) -> Self {
        self.defects = Some(kind);
        self
    }

    /// Finishes the request.
    #[must_use]
    pub fn build(self) -> ReportRequest {
        ReportRequest {
            config: self.config,
            disturbance: self.disturbance,
            defects: self.defects,
        }
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
    /// sampling runs the engine computed (cache hits excluded) and how many
    /// samples the adaptive stopping rule actually drew against the
    /// requested budgets.
    #[must_use]
    pub fn sampling_stats(&self) -> SamplingStats {
        self.engine.sampling_stats()
    }

    /// Serves a typed request: applies the disturbance override, then
    /// evaluates through the engine's single-flight cache.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn serve(&self, request: &ReportRequest) -> Result<PlatformReport> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.engine.report_for(&request.effective_config())
    }

    /// Serves a wire request: JSON in, JSON out — the [`handle_json`]
    /// adapter applied to this server. Never panics and never returns `Err`
    /// — malformed requests become typed `bad_request` responses and
    /// evaluation failures become typed `internal` responses, so one bad
    /// client cannot take the server down.
    #[must_use]
    pub fn handle(&self, request_json: &str) -> String {
        handle_json(self, request_json)
    }
}

impl Handler for ReportServer {
    fn serve(&self, request: &ReportRequest) -> Result<PlatformReport> {
        ReportServer::serve(self, request)
    }
}

/// Knobs of the stress harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressConfig {
    /// Number of client threads hammering the server concurrently.
    pub clients: usize,
    /// Wire requests each client sends.
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

/// The outcome of one stress pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressOutcome {
    /// Wire requests sent across all clients.
    pub requests: u64,
    /// Responses that were **not** bit-identical to the serial reference
    /// (zero on a healthy run — asserted by the CI gate).
    pub mismatches: u64,
    /// Cache hits observed during this pass (delta over the pass).
    pub hits: u64,
    /// Cache misses observed during this pass (delta over the pass).
    pub misses: u64,
    /// Wall-clock duration of the hammering phase (excludes the serial
    /// reference computation).
    pub elapsed: Duration,
}

impl StressOutcome {
    /// Fraction of this pass's lookups served from the cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Requests per second of the hammering phase.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        let seconds = self.elapsed.as_secs_f64();
        if seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.requests as f64 / seconds
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

/// Hammers a server from [`StressConfig::clients`] threads with a Zipf-ish
/// mix of requests, verifying every response **bit-for-bit** against a
/// serial reference ([`SimulationPlatform::evaluate`], computed outside the
/// timed phase and without touching the server's cache).
///
/// Each client sends wire JSON through [`ReportServer::handle`] — the full
/// serialize → serve → deserialize loop, not a shortcut through the typed
/// API. Hit/miss figures are deltas over the pass, so running two passes and
/// asserting `hit_rate() == 1.0` on the second is exactly the CI gate's
/// warm-cache check.
///
/// # Errors
///
/// Propagates reference-evaluation errors and response-decoding failures.
/// Responses that decode but differ from the reference are *counted* in
/// [`StressOutcome::mismatches`] rather than short-circuiting, so a
/// determinism regression reports its blast radius.
///
/// # Panics
///
/// Panics when the mix is empty or the client/request counts are zero.
pub fn run_stress(
    server: &ReportServer,
    mix: &[ReportRequest],
    stress: &StressConfig,
) -> Result<StressOutcome> {
    assert!(!mix.is_empty(), "stress mix must not be empty");
    assert!(stress.clients > 0, "stress needs at least one client");
    assert!(
        stress.requests_per_client > 0,
        "stress needs at least one request per client"
    );

    // Serial references, computed independently of the engine and its cache.
    let references: Vec<PlatformReport> = mix
        .iter()
        .map(|request| SimulationPlatform::new(request.effective_config()).evaluate())
        .collect::<Result<_>>()?;
    let encoded: Vec<String> = mix.iter().map(ReportRequest::to_json_string).collect();

    let cumulative = zipf_cumulative(mix.len());

    let before = server.stats();
    let start = Instant::now();
    let mut per_client: Vec<Result<u64>> = Vec::with_capacity(stress.clients);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..stress.clients)
            .map(|client| {
                let encoded = &encoded;
                let references = &references;
                let cumulative = &cumulative;
                scope.spawn(move || -> Result<u64> {
                    let mut rng = StdRng::seed_from_u64(chunk_seed(
                        stress.seed ^ STRESS_SEED_DOMAIN,
                        client as u64,
                    ));
                    let mut mismatches = 0u64;
                    for _ in 0..stress.requests_per_client {
                        let index = zipf_index(&mut rng, cumulative);
                        let response = server.handle(&encoded[index]);
                        let report = parse_response(&response)?;
                        if report != references[index] {
                            mismatches += 1;
                        }
                    }
                    Ok(mismatches)
                })
            })
            .collect();
        for handle in handles {
            per_client.push(handle.join().expect("stress client panicked"));
        }
    });
    let elapsed = start.elapsed();
    let after = server.stats();

    let mut mismatches = 0u64;
    for outcome in per_client {
        mismatches += outcome?;
    }
    Ok(StressOutcome {
        requests: (stress.clients * stress.requests_per_client) as u64,
        mismatches,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoder_sim::EngineConfig;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

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
        let typed = ReportRequest::builder(request(CodeKind::Gray, 8).config)
            .disturbance(DisturbanceKind::Laplace)
            .build();
        let decoded = ReportRequest::from_json_str(&typed.to_json_string()).unwrap();
        assert_eq!(decoded, typed);
        assert_eq!(
            decoded.effective_config().disturbance(),
            DisturbanceKind::Laplace
        );

        let defective = ReportRequest::builder(request(CodeKind::Gray, 8).config)
            .defects(DefectKind::sampled(0.02, 0.01, 7).unwrap())
            .build();
        let decoded = ReportRequest::from_json_str(&defective.to_json_string()).unwrap();
        assert_eq!(decoded, defective);
        assert_eq!(
            decoded.effective_config().defects().nanowire_breakage(),
            0.02
        );
    }

    #[test]
    fn requests_without_a_defects_field_still_parse() {
        // A wire request from a client built before the defect dimension
        // existed has no "defects" key at all; it must decode as "no
        // override", not be rejected.
        let wire = request(CodeKind::Tree, 8).to_json_string();
        let legacy = wire.replacen(",\"defects\":null", "", 1);
        assert_ne!(legacy, wire, "defects field not found on the wire");
        let decoded = ReportRequest::from_json_str(&legacy).unwrap();
        assert_eq!(decoded.defects, None);
        assert_eq!(decoded, ReportRequest::from_json_str(&wire).unwrap());
    }

    #[test]
    fn mismatched_wire_versions_are_rejected() {
        let good = request(CodeKind::Tree, 8).to_json_string();
        let bad = good.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        assert!(ReportRequest::from_json_str(&bad).is_err());

        let response = server(1).handle(&good);
        let bad = response.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        assert!(parse_response(&bad).is_err());
    }

    #[test]
    fn malformed_requests_become_error_responses() {
        let server = server(1);
        let response = server.handle("this is not json");
        let error = parse_response(&response).unwrap_err();
        assert!(error.to_string().contains("server error"));
        // And a valid follow-up request still works.
        let ok = server.handle(&request(CodeKind::Tree, 8).to_json_string());
        assert!(parse_response(&ok).is_ok());
    }

    #[test]
    fn disturbance_override_never_aliases_in_the_cache() {
        let server = server(2);
        let base = request(CodeKind::BalancedGray, 10);
        let laplace = ReportRequest::builder(base.config.clone())
            .disturbance(DisturbanceKind::Laplace)
            .build();
        let gaussian_report = server.serve(&base).unwrap();
        let laplace_report = server.serve(&laplace).unwrap();
        // No report stage reads the disturbance kind, so the override shares
        // the one entry: one miss, and the report served for it is the
        // right one.
        assert_eq!(server.engine().cached_report_count(), 1);
        assert_eq!(server.stats().misses, 1);
        assert_eq!(laplace_report, gaussian_report);
        assert_eq!(
            laplace_report,
            decoder_sim::SimulationPlatform::new(laplace.effective_config())
                .evaluate()
                .unwrap()
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
        let defective = ReportRequest::builder(base.config.clone())
            .defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap())
            .build();
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
