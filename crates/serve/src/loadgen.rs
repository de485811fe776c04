//! The TCP loadgen: the stress harness of [`run_stress`](crate::run_stress)
//! driven over real sockets, with per-request latency recorded into an
//! HDR-style histogram ([`LatencyHistogram`]) so a run reports sustained
//! RPS **and** p50/p99/p999 tail latency, not just a throughput average.
//!
//! Every response is still bit-checked against a serial reference — the
//! network transport inherits the determinism contract: framing, worker
//! pools and queues may reorder *requests*, never change *answers*.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use decoder_sim::{chunk_seed, PlatformReport, Result, SimulationPlatform, WireErrorKind};

use crate::binwire::parse_reply_any;
use crate::latency::LatencyHistogram;
use crate::net::{NetClient, NetServerHandle, ShedPolicy};
use crate::wire::{parse_reply, wire_err, WireError, WireReply};
use crate::{
    zipf_cumulative, zipf_index, ReportRequest, StressConfig, WireCodec, STRESS_SEED_DOMAIN,
};

/// The outcome of one TCP loadgen pass.
#[derive(Debug, Clone, PartialEq)]
pub struct NetStressOutcome {
    /// Request frames sent across all connections (including any that were
    /// refused by a shed).
    pub requests: u64,
    /// Responses that were **not** bit-identical to the serial reference
    /// (zero on a healthy run — asserted by the CI gate).
    pub mismatches: u64,
    /// Requests refused with the typed `overloaded` shed. A connection that
    /// is shed counts all of its budgeted requests here — the server
    /// refused the connection, so none of them were served.
    pub sheds: u64,
    /// Error replies of any kind *other* than `overloaded` (zero on a
    /// healthy run).
    pub wire_failures: u64,
    /// Wall-clock duration of the hammering phase (excludes the serial
    /// reference computation).
    pub elapsed: Duration,
    /// Per-request round-trip latency (send frame → response frame parsed).
    pub latency: LatencyHistogram,
    /// Request payload bytes put on the wire (frame headers excluded) — with
    /// [`NetStressOutcome::bytes_received`], the wire-cost side of the
    /// JSON-vs-binary codec comparison.
    pub bytes_sent: u64,
    /// Response payload bytes read off the wire (frame headers excluded).
    pub bytes_received: u64,
}

impl NetStressOutcome {
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

struct ClientTally {
    mismatches: u64,
    sheds: u64,
    wire_failures: u64,
    latency: LatencyHistogram,
    bytes_sent: u64,
    bytes_received: u64,
}

/// Drives [`StressConfig::clients`] concurrent TCP connections against a
/// framed server at `addr` with the same seeded Zipf request streams as the
/// in-process [`run_stress`](crate::run_stress) — same seed, same multiset
/// of configurations — verifying every report **bit-for-bit** against a
/// serial reference computed outside the timed phase.
///
/// Requests are encoded in `codec` and every reply is decoded through the
/// first-byte dispatcher ([`parse_reply_any`]), so accept-time JSON sheds
/// are understood on binary connections too. The verification contract is
/// identical in both codecs.
///
/// A typed `overloaded` reply marks the whole connection as shed (the
/// server refuses at accept time): the client stops sending and its
/// remaining budgeted requests are counted in
/// [`NetStressOutcome::sheds`]. Configure `workers ≥ clients` for a
/// zero-shed measurement run.
///
/// # Errors
///
/// Propagates reference-evaluation errors, connection failures and
/// response-decoding failures. Responses that decode but differ from the
/// reference are *counted* in [`NetStressOutcome::mismatches`] rather than
/// short-circuiting, so a determinism regression reports its blast radius.
///
/// # Panics
///
/// Panics when the mix is empty or the client/request counts are zero.
pub fn run_net_stress(
    addr: SocketAddr,
    mix: &[ReportRequest],
    stress: &StressConfig,
    codec: WireCodec,
) -> Result<NetStressOutcome> {
    assert!(!mix.is_empty(), "loadgen mix must not be empty");
    assert!(stress.clients > 0, "loadgen needs at least one connection");
    assert!(
        stress.requests_per_client > 0,
        "loadgen needs at least one request per connection"
    );

    // Serial references, computed independently of the server and its cache.
    let references: Vec<PlatformReport> = mix
        .iter()
        .map(|request| SimulationPlatform::new(request.effective_config()).evaluate())
        .collect::<Result<_>>()?;
    let encoded: Vec<Vec<u8>> = mix
        .iter()
        .map(|request| codec.encode_request(request))
        .collect();
    let cumulative = zipf_cumulative(mix.len());

    let start = Instant::now();
    let mut per_client: Vec<Result<ClientTally>> = Vec::with_capacity(stress.clients);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..stress.clients)
            .map(|client| {
                let encoded = &encoded;
                let references = &references;
                let cumulative = &cumulative;
                scope.spawn(move || -> Result<ClientTally> {
                    let mut connection = NetClient::connect(addr)?;
                    let mut rng = StdRng::seed_from_u64(chunk_seed(
                        stress.seed ^ STRESS_SEED_DOMAIN,
                        client as u64,
                    ));
                    let mut tally = ClientTally {
                        mismatches: 0,
                        sheds: 0,
                        wire_failures: 0,
                        latency: LatencyHistogram::new(),
                        bytes_sent: 0,
                        bytes_received: 0,
                    };
                    for sent in 0..stress.requests_per_client {
                        let index = zipf_index(&mut rng, cumulative);
                        let sent_at = Instant::now();
                        let response = connection.call_bytes(&encoded[index])?;
                        let reply = parse_reply_any(&response)?;
                        tally.latency.record_duration(sent_at.elapsed());
                        tally.bytes_sent += encoded[index].len() as u64;
                        tally.bytes_received += response.len() as u64;
                        match reply {
                            WireReply::Report(report) => {
                                if report != references[index] {
                                    tally.mismatches += 1;
                                }
                            }
                            WireReply::Error(error) if error.kind == WireErrorKind::Overloaded => {
                                // The connection itself was refused; every
                                // request this client still had budgeted is
                                // a shed, and the socket is dead.
                                tally.sheds += (stress.requests_per_client - sent) as u64;
                                break;
                            }
                            WireReply::Error(_) => {
                                tally.wire_failures += 1;
                            }
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        for handle in handles {
            per_client.push(handle.join().expect("loadgen connection panicked"));
        }
    });
    let elapsed = start.elapsed();

    let mut outcome = NetStressOutcome {
        requests: (stress.clients * stress.requests_per_client) as u64,
        mismatches: 0,
        sheds: 0,
        wire_failures: 0,
        elapsed,
        latency: LatencyHistogram::new(),
        bytes_sent: 0,
        bytes_received: 0,
    };
    for tally in per_client {
        let tally = tally?;
        outcome.mismatches += tally.mismatches;
        outcome.sheds += tally.sheds;
        outcome.wire_failures += tally.wire_failures;
        outcome.latency.merge(&tally.latency);
        outcome.bytes_sent += tally.bytes_sent;
        outcome.bytes_received += tally.bytes_received;
    }
    Ok(outcome)
}

/// Deterministically exercises the load-shed path of a running server and
/// returns the typed shed it received:
///
/// 1. opens `workers` connections and completes one request on each, so
///    every worker is pinned to a live connection;
/// 2. opens `queue_bound` idle connections and waits (via
///    [`NetServerHandle::accepted`]) until the acceptor has queued them;
/// 3. opens one more connection, whose first read **must** be the framed,
///    typed `overloaded` error followed by an orderly close.
///
/// Requires [`ShedPolicy::Reply`] — with `Close` there is no response to
/// observe.
///
/// # Errors
///
/// Returns an error when the server runs a non-`Reply` shed policy, when a
/// pinning request fails, or when the over-quota connection receives
/// anything other than a typed `overloaded` reply.
pub fn probe_shed(handle: &NetServerHandle, request_json: &str) -> Result<WireError> {
    if handle.config().shed_policy != ShedPolicy::Reply {
        return Err(wire_err(
            "probe_shed requires ShedPolicy::Reply (a Close shed has no observable response)",
        ));
    }
    let addr = handle.local_addr();
    let accepted_before = handle.accepted();
    let workers = handle.config().workers as u64;
    let queue_bound = handle.config().queue_bound as u64;

    // Pin every worker: a served request proves the worker owns the
    // connection, and keeping the client alive keeps it owned.
    let mut pinned = Vec::with_capacity(workers as usize);
    for _ in 0..workers {
        let mut client = NetClient::connect(addr)?;
        match parse_reply(&client.call(request_json)?)? {
            WireReply::Report(_) => pinned.push(client),
            WireReply::Error(error) => {
                return Err(wire_err(format!(
                    "worker-pinning request failed before the probe: {error}"
                )))
            }
        }
    }

    // Fill the dispatch queue with idle connections, then wait until the
    // acceptor has fully handled them (accepted() counts a connection only
    // after its queue/shed decision).
    let filler: Vec<NetClient> = (0..queue_bound)
        .map(|_| NetClient::connect(addr))
        .collect::<Result<_>>()?;
    wait_for_accepted(handle, accepted_before + workers + queue_bound)?;

    // One connection over quota: the acceptor must shed it with the typed
    // response.
    let mut over_quota = NetClient::connect(addr)?;
    let response = over_quota
        .recv()?
        .ok_or_else(|| wire_err("shed connection closed without the typed overloaded response"))?;
    let error = match parse_reply(&response)? {
        WireReply::Error(error) if error.kind == WireErrorKind::Overloaded => error,
        WireReply::Error(error) => {
            return Err(wire_err(format!(
                "shed connection received a non-overloaded error: {error}"
            )))
        }
        WireReply::Report(_) => {
            return Err(wire_err(
                "shed connection unexpectedly received a report response",
            ))
        }
    };
    // …followed by an orderly EOF, never a hang or a reset.
    if over_quota.recv()?.is_some() {
        return Err(wire_err("shed connection received a second frame"));
    }
    drop(filler);
    drop(pinned);
    Ok(error)
}

fn wait_for_accepted(handle: &NetServerHandle, target: u64) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.accepted() < target {
        if Instant::now() > deadline {
            return Err(wire_err(format!(
                "acceptor never reached {target} handled connections (at {})",
                handle.accepted()
            )));
        }
        thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}
