//! The TCP transport's acceptance gates, as loopback tests:
//!
//! * N concurrent client connections receive reports **bit-identical** to
//!   the serial path, and a second pass over the same mix is served
//!   entirely from the warm cache;
//! * a full bounded dispatch queue sheds with the framed, typed
//!   `overloaded` error — never a hang, never a silent drop;
//! * a zero worker count or queue bound is clamped to one, so such a
//!   server serves instead of shedding every connection;
//! * a graceful shutdown drains in-flight requests: everything a client
//!   sent before shutdown gets a response before its connection closes;
//! * shutdown wakes the acceptor blocked in `accept()`, whether the server
//!   is bound to loopback or to the unspecified address, idle or after
//!   serving, within a second;
//! * a request frame that arrives in pieces, with pauses longer than the
//!   workers' poll interval, is answered, and a client stalled mid-frame
//!   does not hold a shutdown much past the drain grace;
//! * clients that vanish mid-frame cost no worker: a fresh connection is
//!   still served;
//! * a defect-configured request for an oversized crossbar, or a request
//!   for an oversized half cave, gets a typed error at once, in both
//!   codecs, and its connection keeps serving;
//! * a request for a code search past the arrangement bound gets a typed
//!   error at once, in both codecs;
//! * a length prefix above the frame bound gets a typed `bad_request`, then
//!   an orderly close;
//! * every truncation of a request document, in both codecs and in the
//!   shape earlier clients wrote, gets a typed error from a live server
//!   whose connection keeps serving bit-identical reports;
//! * a JSON number literal RFC 8259 forbids, a JSON config key outside
//!   the field list, or a JSON request key outside the envelope's, gets a
//!   typed error, and the connection keeps serving;
//! * a request whose configuration carries the code-search budgets or the
//!   Monte-Carlo sampling knobs configs once held gets the reply bytes of
//!   the request without them.

mod common;
#[path = "../../sim/tests/retired/mod.rs"]
mod retired;

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::loopback_config;
use decoder_sim::bincodec::{self, config_to_bin, BinWriter};
use decoder_sim::codec::config_to_json;
use decoder_sim::{
    DefectKind, DisturbanceKind, EngineConfig, ExecutionEngine, PlatformReport, SimConfig,
    SimError, SimulationPlatform, WireErrorKind,
};
use mspt_serve::net::MAX_FRAME_BYTES;
use mspt_serve::{
    ok_response, ok_response_bin, parse_reply_any, probe_shed, read_frame, request_from_bin,
    request_to_bin, run_net_stress, write_frame, NetClient, NetServer, NetServerHandle,
    ReportRequest, ReportServer, ServeConfig, StressConfig, WireCodec, WireReply,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn mix() -> Vec<ReportRequest> {
    // Small but representative: two code families plus a Laplace variant,
    // so a non-default disturbance also crosses the socket. The variant
    // shares the plain tree request's report entry: no report stage reads
    // the disturbance kind.
    let tree = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 6).unwrap();
    let hot = CodeSpec::new(CodeKind::Hot, LogicLevel::BINARY, 4).unwrap();
    vec![
        ReportRequest::new(SimConfig::paper_defaults(tree).unwrap()),
        ReportRequest::new(SimConfig::paper_defaults(hot).unwrap()),
        ReportRequest::new(
            SimConfig::paper_defaults(tree)
                .unwrap()
                .with_disturbance(DisturbanceKind::Laplace),
        ),
    ]
}

fn reference(config: &SimConfig) -> PlatformReport {
    SimulationPlatform::new(config.clone()).evaluate().unwrap()
}

fn report_server(threads: usize) -> ReportServer {
    ReportServer::new(Arc::new(ExecutionEngine::new(EngineConfig {
        threads,
        chunk_size: 256,
    })))
}

/// Waits until the acceptor has handled `count` connections.
fn wait_for_accepted(handle: &NetServerHandle, count: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.accepted() < count {
        assert!(
            Instant::now() < deadline,
            "acceptor saw {} of {count} connections",
            handle.accepted()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn loopback_clients_get_bit_identical_reports_and_a_warm_second_pass() {
    common::assert_bit_identical_with_a_warm_second_pass(&mix(), 2, 4, 16);
}

#[test]
fn a_mixed_codec_fleet_gets_bit_identical_reports() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(4, 8), Arc::new(server)).unwrap();
    let addr = handle.local_addr();
    let request = mix().remove(2); // the Laplace request
    let reference = reference(&request.config);

    // One JSON client and one binary client, against the same server.
    let mut json_client = NetClient::connect(addr).unwrap();
    let mut bin_client = NetClient::connect(addr).unwrap();
    let json_frame = request.to_json_string().into_bytes();
    let bin_frame = request_to_bin(&request);
    assert!(bin_frame.len() < json_frame.len());

    let json_response = json_client.call_bytes(&json_frame).unwrap();
    let bin_response = bin_client.call_bytes(&bin_frame).unwrap();
    // The server answers each frame in the codec it arrived in.
    assert!(!decoder_sim::bincodec::is_binary(&json_response));
    assert!(decoder_sim::bincodec::is_binary(&bin_response));

    let json_reply = parse_reply_any(&json_response).unwrap();
    let bin_reply = parse_reply_any(&bin_response).unwrap();
    match (json_reply, bin_reply) {
        (WireReply::Report(from_json), WireReply::Report(from_bin)) => {
            assert_eq!(from_json, from_bin);
            assert_eq!(from_bin, reference);
            assert_eq!(
                from_json.crossbar_yield.to_bits(),
                from_bin.crossbar_yield.to_bits()
            );
        }
        other => panic!("mixed fleet got a non-report reply: {other:?}"),
    }

    // A single connection may even alternate codecs per frame.
    match parse_reply_any(&json_client.call_bytes(&bin_frame).unwrap()).unwrap() {
        WireReply::Report(report) => assert_eq!(report, reference),
        WireReply::Error(error) => panic!("codec switch mid-connection failed: {error}"),
    }

    // Malformed binary frames come back as *binary* typed bad_request
    // errors — never a hang, never a JSON reply to a binary speaker.
    let garbage = decoder_sim::bincodec::document(decoder_sim::bincodec::DOC_REQUEST, &[0xFF]);
    let response = bin_client.call_bytes(&garbage).unwrap();
    assert!(decoder_sim::bincodec::is_binary(&response));
    match parse_reply_any(&response).unwrap() {
        WireReply::Error(error) => assert_eq!(error.kind, WireErrorKind::BadRequest),
        WireReply::Report(_) => panic!("garbage request produced a report"),
    }
    handle.shutdown();
}

#[test]
fn binary_loadgen_matches_the_serial_reference_with_less_wire_traffic() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(4, 8), Arc::new(server.clone())).unwrap();
    let mix = mix();
    let stress = StressConfig {
        clients: 4,
        requests_per_client: 16,
        seed: 2_009,
    };

    let binary = run_net_stress(handle.local_addr(), &mix, &stress, WireCodec::Binary).unwrap();
    assert_eq!(binary.mismatches, 0, "binary responses diverged");
    assert_eq!(binary.sheds, 0);
    assert_eq!(binary.wire_failures, 0);
    assert_eq!(binary.latency.count(), binary.requests);

    // Same seed ⇒ same request multiset ⇒ the JSON pass is fully warm and
    // answers bit-identically, but costs more bytes in both directions.
    let before = server.stats();
    let json = run_net_stress(handle.local_addr(), &mix, &stress, WireCodec::Json).unwrap();
    assert_eq!(json.mismatches, 0);
    assert_eq!(
        server.stats().misses,
        before.misses,
        "JSON pass was not warm"
    );
    assert!(
        binary.bytes_sent < json.bytes_sent && binary.bytes_received < json.bytes_received,
        "binary wire traffic ({} out / {} in) is not below JSON ({} out / {} in)",
        binary.bytes_sent,
        binary.bytes_received,
        json.bytes_sent,
        json.bytes_received
    );
    handle.shutdown();
}

#[test]
fn accept_time_sheds_are_typed_for_both_codec_fleets() {
    let server = report_server(1);
    // One worker, queue bound 1: the third connection must shed.
    let handle = NetServer::bind(loopback_config(1, 1), Arc::new(server)).unwrap();
    let addr = handle.local_addr();
    let request = mix().remove(0);

    // Pin the worker with a *binary* connection, so the shed path is
    // exercised by a binary-era fleet end to end.
    let mut pinned = NetClient::connect(addr).unwrap();
    match parse_reply_any(&pinned.call_bytes(&request_to_bin(&request)).unwrap()).unwrap() {
        WireReply::Report(_) => {}
        WireReply::Error(error) => panic!("worker-pinning request failed: {error}"),
    }

    // Fill the dispatch queue with one idle connection, and wait until the
    // acceptor has queued it.
    let _filler = NetClient::connect(addr).unwrap();
    wait_for_accepted(&handle, 2);

    // The over-quota connection is shed before it reveals a codec, so the
    // typed overloaded reply arrives as JSON — and a binary client decodes
    // it anyway through the first-byte dispatcher.
    let mut over_quota = NetClient::connect(addr).unwrap();
    let response = over_quota
        .recv_bytes()
        .unwrap()
        .expect("shed connection closed without the typed response");
    match parse_reply_any(&response).unwrap() {
        WireReply::Error(error) => {
            assert_eq!(error.kind, WireErrorKind::Overloaded);
            assert!(error.is_retryable());
        }
        WireReply::Report(_) => panic!("over-quota connection received a report"),
    }
    assert_eq!(handle.shed(), 1);
    handle.shutdown();
}

#[test]
fn a_full_dispatch_queue_sheds_with_the_typed_overloaded_error() {
    let server = report_server(1);
    // One worker, queue bound 1: the third connection must shed.
    let handle = NetServer::bind(loopback_config(1, 1), Arc::new(server)).unwrap();
    let request = mix().remove(0).to_json_string();

    let shed = probe_shed(&handle, request.as_bytes()).unwrap();
    assert_eq!(shed.kind, WireErrorKind::Overloaded);
    assert!(shed.is_retryable());
    assert_eq!(handle.shed(), 1);
    handle.shutdown();
}

/// A fresh connection gets the serial reference report for `request` in
/// both codecs, each within a 5 s read timeout.
fn assert_served_in_both_codecs(addr: SocketAddr, request: &ReportRequest) {
    let reference = reference(&request.config);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let what = format!("{codec:?} request on a fresh connection");
        write_frame(&mut stream, &codec.encode_request(request)).unwrap();
        let report = expect_report(read_frame(&mut stream).unwrap(), &what);
        assert_eq!(report, reference, "{what}");
    }
}

#[test]
fn zero_workers_and_queue_bound_are_clamped_to_one() {
    let handle = NetServer::bind(loopback_config(0, 0), Arc::new(report_server(1))).unwrap();
    assert_served_in_both_codecs(handle.local_addr(), &mix().remove(0));
    assert_eq!((handle.served(), handle.shed()), (2, 0));
    assert_eq!(handle.config().workers, 1);
    assert_eq!(handle.config().queue_bound, 1);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = report_server(2);
    // Two workers, so with three clients one connection is still queued
    // (never picked up by a worker) when shutdown starts — the drain must
    // answer it anyway.
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let addr = handle.local_addr();
    let request = mix().remove(0);
    let reference = reference(&request.config);
    let frame = request.to_json_string().into_bytes();

    // Every client writes its request *before* shutdown is called…
    let mut clients: Vec<NetClient> = (0..3).map(|_| NetClient::connect(addr).unwrap()).collect();
    for client in &mut clients {
        client.send_bytes(&frame).unwrap();
    }
    // …and is known to the acceptor (queued or already at a worker).
    wait_for_accepted(&handle, 3);

    // Readers must drain concurrently with the blocking shutdown call.
    let readers: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            std::thread::spawn(move || {
                let response = client
                    .recv_bytes()
                    .unwrap()
                    .expect("drained request got no response");
                let eof = client.recv_bytes().unwrap();
                (response, eof)
            })
        })
        .collect();
    handle.shutdown();

    for reader in readers {
        let (response, eof) = reader.join().unwrap();
        match parse_reply_any(&response).unwrap() {
            WireReply::Report(report) => assert_eq!(report, reference),
            WireReply::Error(error) => panic!("in-flight request failed during drain: {error}"),
        }
        assert_eq!(eof, None, "connection did not close cleanly after drain");
    }
}

/// The acceptor sleeps in `accept()`, and shutdown wakes it with one
/// connection to the listener's address — loopback for an unspecified bind.
#[test]
fn shutdown_wakes_the_blocked_acceptor_on_loopback_and_unspecified_binds() {
    let request = mix().remove(0);
    for bind_addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        for serve_first in [false, true] {
            let config = ServeConfig {
                bind_addr: bind_addr.to_string(),
                ..loopback_config(2, 4)
            };
            let handle = NetServer::bind(config, Arc::new(report_server(1))).unwrap();
            if serve_first {
                let port = handle.local_addr().port();
                assert_served_in_both_codecs(SocketAddr::from(([127, 0, 0, 1], port)), &request);
            }
            let started = Instant::now();
            handle.shutdown();
            let waited = started.elapsed();
            assert!(
                waited < Duration::from_secs(1),
                "{bind_addr}, serve first {serve_first}: shutdown took {waited:?}"
            );
        }
    }
}

/// Writes `frame` in two pieces split at `cut`, pausing between them for
/// longer than a worker's read poll interval.
fn send_split(stream: &mut TcpStream, frame: &[u8], cut: usize) {
    stream.write_all(&frame[..cut]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(&frame[cut..]).unwrap();
}

fn expect_report(reply: Option<Vec<u8>>, what: &str) -> decoder_sim::PlatformReport {
    let reply = reply.unwrap_or_else(|| panic!("{what}: connection closed without a reply"));
    match parse_reply_any(&reply).unwrap() {
        WireReply::Report(report) => report,
        WireReply::Error(error) => panic!("{what}: {error}"),
    }
}

#[test]
fn request_frames_split_across_poll_timeouts_are_answered() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let addr = handle.local_addr();
    let request = mix().remove(2);
    let reference = reference(&request.config);

    // One connection: each codec's frame split inside the length prefix,
    // right after it, and mid-payload.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut frame = Vec::new();
    for codec in [WireCodec::Json, WireCodec::Binary] {
        frame.clear();
        write_frame(&mut frame, &codec.encode_request(&request)).unwrap();
        for cut in [2, 4, 4 + (frame.len() - 4) / 2] {
            send_split(&mut stream, &frame, cut);
            let what = format!("{codec:?} frame split at byte {cut}");
            assert_eq!(
                expect_report(read_frame(&mut stream).unwrap(), &what),
                reference,
                "{what}"
            );
        }
    }
    // The connection stayed in sync: a whole frame is answered too, and
    // every frame was counted once.
    stream.write_all(&frame).unwrap();
    assert_eq!(
        expect_report(read_frame(&mut stream).unwrap(), "whole frame"),
        reference
    );
    assert_eq!(handle.served(), 7);

    // An EOF mid-frame still closes the connection, unanswered.
    let mut truncated = TcpStream::connect(addr).unwrap();
    truncated.write_all(&frame[..6]).unwrap();
    truncated.shutdown(Shutdown::Write).unwrap();
    assert!(!matches!(read_frame(&mut truncated), Ok(Some(_))));
    assert_eq!(handle.served(), 7);

    // A client stalled mid-frame holds its worker, but a draining shutdown
    // closes it once the grace window has passed.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&frame[..6]).unwrap();
    wait_for_accepted(&handle, 3);
    std::thread::sleep(Duration::from_millis(50));
    let grace = handle.config().drain_grace;
    let started = Instant::now();
    handle.shutdown();
    let waited = started.elapsed();
    assert!(
        waited < grace + Duration::from_millis(500),
        "shutdown waited {waited:?} on a connection stalled mid-frame (grace {grace:?})"
    );
    assert!(!matches!(read_frame(&mut stalled), Ok(Some(_))));
}

/// More clients than workers vanish mid-frame at each of three cuts: EOF
/// inside the length prefix, EOF mid-payload, and a drop one byte short of
/// the frame. Then as many clients as workers stall mid-frame, so each
/// holds a worker, and vanish. No worker is lost: a fresh connection gets
/// bit-identical reports in both codecs within its read timeout, and only
/// its two frames were served.
#[test]
fn clients_that_vanish_mid_frame_never_cost_a_worker() {
    let workers = 2;
    let handle = NetServer::bind(loopback_config(workers, 16), Arc::new(report_server(1))).unwrap();
    let addr = handle.local_addr();
    let request = mix().remove(0);
    let mut frame = Vec::new();
    write_frame(&mut frame, &WireCodec::Binary.encode_request(&request)).unwrap();

    let mut held = Vec::new();
    for (cut, eof) in [
        (2, true),
        (4 + (frame.len() - 4) / 2, true),
        (frame.len() - 1, false),
    ] {
        for _ in 0..=workers {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&frame[..cut]).unwrap();
            if eof {
                stream.shutdown(Shutdown::Write).unwrap();
                held.push(stream);
            }
        }
    }
    let stalled: Vec<TcpStream> = (0..workers)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&frame[..6]).unwrap();
            stream
        })
        .collect();
    wait_for_accepted(&handle, 4 * workers as u64 + 3);
    std::thread::sleep(Duration::from_millis(50));
    drop(stalled);

    assert_served_in_both_codecs(addr, &request);
    assert_eq!(handle.served(), 2);
    assert_eq!(handle.shed(), 0);
    drop(held);
    handle.shutdown();
}

/// `raw_bits` comes from the wire unbounded, and a defect-configured
/// request draws over a `⌈√raw_bits⌉²` crossbar. A 10¹²-bit crossbar is over
/// the defect layer's size bound, and `u64::MAX` bits need an edge whose
/// square overflows: both must be typed errors at once, never an
/// allocation that aborts the server or a count that holds a worker.
#[test]
fn oversized_defect_crossbars_get_typed_errors_and_the_connection_keeps_serving() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let well_formed = mix().remove(0);
    let base = &well_formed.config;
    let reference = reference(base);

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // A server that starts drawing would never answer; fail instead of
    // waiting for it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = 0;
    for raw_bits in [1_000_000_000_000u64, u64::MAX] {
        let hostile = SimConfig::new(
            base.code(),
            base.nanowires_per_half_cave(),
            raw_bits,
            *base.layout(),
            *base.threshold_model(),
            base.sigma_per_dose(),
            base.supply_range(),
        )
        .unwrap()
        .with_defects(DefectKind::sampled(0.02, 0.01, 1).unwrap());
        let hostile = ReportRequest::new(hostile);
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let what = format!("{codec:?} request with raw_bits {raw_bits}");
            let started = Instant::now();
            write_frame(&mut stream, &codec.encode_request(&hostile)).unwrap();
            let reply = read_frame(&mut stream)
                .unwrap_or_else(|error| panic!("{what}: no reply ({error})"))
                .unwrap_or_else(|| panic!("{what}: connection closed without a reply"));
            let waited = started.elapsed();
            match parse_reply_any(&reply).unwrap() {
                WireReply::Error(error) => {
                    assert_eq!(error.kind, WireErrorKind::Internal, "{what}: {error}");
                }
                WireReply::Report(_) => panic!("{what}: evaluated an oversized crossbar"),
            }
            assert!(
                waited < Duration::from_secs(1),
                "{what}: the typed error took {waited:?}"
            );
            // The same connection still serves a well-formed request.
            write_frame(&mut stream, &codec.encode_request(&well_formed)).unwrap();
            assert_eq!(
                expect_report(read_frame(&mut stream).unwrap(), &what),
                reference,
                "{what}: the next request"
            );
            frames += 2;
        }
    }
    assert_eq!(handle.served(), frames);
    handle.shutdown();
}

/// Sends `payload` as one frame and decodes the one reply frame.
fn round_trip(stream: &mut TcpStream, payload: &[u8], what: &str) -> WireReply {
    write_frame(stream, payload).unwrap();
    let reply = read_frame(stream)
        .unwrap_or_else(|error| panic!("{what}: no reply ({error})"))
        .unwrap_or_else(|| panic!("{what}: connection closed without a reply"));
    parse_reply_any(&reply).unwrap()
}

fn expect_bad_request(reply: WireReply, what: &str) {
    match reply {
        WireReply::Error(error) => {
            assert_eq!(error.kind, WireErrorKind::BadRequest, "{what}: {error}");
        }
        WireReply::Report(_) => panic!("{what}: served a report"),
    }
}

/// A length prefix above `MAX_FRAME_BYTES` cannot be read past: the server
/// answers it once with a typed `bad_request` — in JSON, since no payload
/// byte has revealed a codec — and closes the connection, allocating
/// nothing for the payload.
#[test]
fn oversized_frames_get_a_typed_bad_request_then_eof() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let request = mix().remove(0);
    let reference = reference(&request.config);

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    stream
        .write_all(&(MAX_FRAME_BYTES + 1).to_be_bytes())
        .unwrap();
    let reply = read_frame(&mut stream)
        .unwrap_or_else(|error| panic!("no reply within 1 s ({error})"))
        .expect("connection closed without a reply");
    assert!(!bincodec::is_binary(&reply));
    expect_bad_request(parse_reply_any(&reply).unwrap(), "oversized frame");
    assert_eq!(
        read_frame(&mut stream).unwrap(),
        None,
        "no EOF after the reply"
    );

    // The server goes on serving new connections.
    let mut client = NetClient::connect(handle.local_addr()).unwrap();
    let reply = client.call_bytes(&request_to_bin(&request)).unwrap();
    assert_eq!(expect_report(Some(reply), "next connection"), reference);
    assert_eq!(handle.served(), 2);
    handle.shutdown();
}

/// `request` with its half cave set to `nanowires`, in `codec`: a document
/// no `SimConfig` can produce above the half-cave bound, so it is patched
/// in place.
fn with_half_cave(request: &ReportRequest, codec: WireCodec, nanowires: u64) -> Vec<u8> {
    let wire = codec.encode_request(request);
    let current = request.config.nanowires_per_half_cave();
    match codec {
        WireCodec::Json => {
            let field = format!("\"nanowires_per_half_cave\":{current}");
            let text = String::from_utf8(wire).unwrap();
            assert_eq!(text.matches(&field).count(), 1);
            text.replacen(
                &field,
                &format!("\"nanowires_per_half_cave\":{nanowires}"),
                1,
            )
            .into_bytes()
        }
        WireCodec::Binary => {
            // The field is a little-endian u64: encoding one more nanowire
            // changes exactly its first byte.
            let next = request
                .config
                .clone()
                .with_nanowires_per_half_cave(current + 1)
                .unwrap();
            let other = codec.encode_request(&ReportRequest::new(next));
            let differing: Vec<usize> = (0..wire.len()).filter(|&i| wire[i] != other[i]).collect();
            assert_eq!(differing.len(), 1);
            let mut patched = wire;
            let at = differing[0];
            patched[at..at + 8].copy_from_slice(&nanowires.to_le_bytes());
            patched
        }
    }
}

/// `nanowires_per_half_cave` comes from the wire, and a half cave of N
/// nanowires takes N code words: at N = 10⁴ one evaluation holds a worker
/// for seconds, and at N = 10¹² its allocation aborts the server. Both
/// codecs must answer such a request with a typed `bad_request` at once,
/// and the connection keeps serving.
#[test]
fn oversized_half_caves_get_typed_errors_and_the_connection_keeps_serving() {
    let well_formed = mix().remove(0);
    let hostile: Vec<_> = [10_000, 1_000_000_000_000]
        .into_iter()
        .flat_map(|nanowires| {
            [WireCodec::Json, WireCodec::Binary]
                .map(|codec| (codec, with_half_cave(&well_formed, codec, nanowires)))
        })
        .collect();
    hostile_frames_get_typed_errors(&well_formed, &hostile);
}

/// Sends each hostile `(codec, payload)` frame and expects a typed
/// `bad_request` within the 1 s read timeout; after each, the same
/// connection serves `well_formed` in that codec the reply bytes of its
/// report.
fn hostile_frames_get_typed_errors(well_formed: &ReportRequest, hostile: &[(WireCodec, Vec<u8>)]) {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let report = reference(&well_formed.config);

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // A server that starts evaluating a hostile request would not answer
    // in time; fail instead of waiting for it.
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    for (index, (codec, payload)) in hostile.iter().enumerate() {
        let what = format!("{codec:?} hostile frame {index}");
        expect_bad_request(round_trip(&mut stream, payload, &what), &what);
        write_frame(&mut stream, &codec.encode_request(well_formed)).unwrap();
        let reply = match codec {
            WireCodec::Json => ok_response(&report).into_bytes(),
            WireCodec::Binary => ok_response_bin(&report),
        };
        assert_eq!(
            read_frame(&mut stream).unwrap(),
            Some(reply),
            "{what}: next"
        );
    }
    assert_eq!(handle.served(), 2 * hostile.len() as u64);
    handle.shutdown();
}

/// `request`'s JSON frame with its one occurrence of `from` replaced by `to`.
fn json_edit(request: &ReportRequest, from: &str, to: &str) -> (WireCodec, Vec<u8>) {
    let json = request.to_json_string();
    assert_eq!(json.matches(from).count(), 1, "{from}");
    (WireCodec::Json, json.replacen(from, to, 1).into_bytes())
}

/// A JSON request whose configuration writes a number as RFC 8259 forbids
/// it, with the value unchanged — a leading zero on `raw_bits`, a bare
/// point after the supply's upper bound — gets a typed `bad_request`, and
/// the same connection then serves a well-formed request bit-identically.
#[test]
fn json_numbers_outside_rfc_8259_get_typed_errors_and_the_connection_keeps_serving() {
    let request = mix().remove(0);
    let raw_bits = format!("\"raw_bits\":{}", request.config.raw_bits());
    let supply = "\"supply_range_v\":[0,1]";
    let hostile = [
        json_edit(&request, &raw_bits, &raw_bits.replace(':', ":0")),
        json_edit(&request, supply, &supply.replace(']', ".]")),
    ];
    hostile_frames_get_typed_errors(&request, &hostile);
}

/// A JSON request whose configuration carries a key its field list does
/// not name — `defects` damaged to `eefects`, which read as a defect-free
/// config while unknown keys were ignored, or a repeated key — gets a typed
/// `bad_request`, and the same connection then serves the well-formed
/// request the reply bytes of its report.
#[test]
fn json_configs_with_unknown_keys_get_typed_errors_and_the_connection_keeps_serving() {
    let defects = DefectKind::sampled(0.02, 0.01, 2_009).unwrap();
    let request = ReportRequest::new(mix().remove(0).config.with_defects(defects));
    let hostile = [
        json_edit(&request, "\"defects\"", "\"eefects\""),
        json_edit(&request, "\"raw_bits\"", "\"raw_bits\":1,\"raw_bits\""),
    ];
    hostile_frames_get_typed_errors(&request, &hostile);
}

/// A JSON request in the shape earlier clients wrote, whose `defects`
/// override key is damaged to `eefects` — which read as no override, so the
/// defect-free report was served, while the envelope ignored keys it does
/// not read — gets a typed `bad_request`, and the same connection then
/// serves the request with the override the reply bytes of its report.
#[test]
fn json_requests_with_unknown_envelope_keys_get_typed_errors_and_the_connection_keeps_serving() {
    let defects = DefectKind::sampled(0.02, 0.01, 2_009).unwrap();
    let config = mix().remove(0).config;
    let legacy = common::legacy_request_json(&config, None, Some(defects));
    // The override is the envelope's last member, after the config's own
    // `defects` field.
    let at = legacy.rfind("\"defects\"").unwrap();
    let damaged = format!("{}\"eefects\"{}", &legacy[..at], &legacy[at + 9..]);
    let hostile = [(WireCodec::Json, damaged.into_bytes())];
    hostile_frames_get_typed_errors(&ReportRequest::new(config.with_defects(defects)), &hostile);
}

/// A correlated disturbance's shared variance fraction must lie in [0, 1].
/// A request of either codec carrying 8.25 (a one-bit flip of 0.25) gets a
/// typed `bad_request` at decode, and the same connection then serves the
/// well-formed request the reply bytes of its report.
#[test]
fn out_of_range_shared_fractions_get_typed_errors_and_the_connection_keeps_serving() {
    let correlated = |shared_fraction| {
        let config = mix().remove(0).config;
        ReportRequest::new(config.with_disturbance(DisturbanceKind::Correlated { shared_fraction }))
    };
    let hostile = [WireCodec::Json, WireCodec::Binary]
        .map(|codec| (codec, codec.encode_request(&correlated(8.25))));
    hostile_frames_get_typed_errors(&correlated(0.25), &hostile);
}

/// Requests written while configs carried code-search budgets — a
/// `code_budgets` member in JSON, config section `0x07` in binary — or
/// Monte-Carlo sampling knobs — a `monte_carlo` member, section `0x0a` —
/// get, byte for byte and within the 1 s read timeout, the reply of the
/// request without them, whatever they hold. A balanced Gray or arranged
/// hot code whose request starves its search of nodes is served the
/// searched code, not the fallback: binary BGC M = 10 keeps its crossbar
/// yield above the plain Gray code's.
#[test]
fn requests_carrying_retired_sampling_knobs_get_the_same_reply_bytes() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let bgc = paper(CodeKind::BalancedGray, LogicLevel::BINARY, 10);
    let gray = reference(&paper(CodeKind::Gray, LogicLevel::BINARY, 10));
    assert!(reference(&bgc).crossbar_yield > gray.crossbar_yield + 0.05);
    let configs = [
        mix()
            .remove(0)
            .config
            .with_defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap()),
        bgc,
        paper(CodeKind::ArrangedHot, LogicLevel::TERNARY, 6),
    ];
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut frames = 0;
    for config in &configs {
        let request = ReportRequest::new(config.clone());
        let reference = reference(config);
        for retired in retired::variants() {
            let json = format!(
                "{{\"schema_version\":1,\"config\":{}}}",
                retired.json(config)
            );
            // A binary request is one section, `0x01`, holding the config.
            let mut bin = BinWriter::new();
            bin.section(0x01, &retired.bin(&config_to_bin(config)));
            let bin = bincodec::document(bincodec::DOC_REQUEST, &bin.into_bytes());
            for (codec, legacy) in [
                (WireCodec::Json, json.into_bytes()),
                (WireCodec::Binary, bin),
            ] {
                let what = format!("{codec:?} {:?} request carrying {retired:?}", config.code());
                let mut call = |payload: &[u8]| {
                    write_frame(&mut stream, payload).unwrap();
                    read_frame(&mut stream)
                        .unwrap_or_else(|error| panic!("{what}: no reply within 1 s ({error})"))
                };
                let current = call(&codec.encode_request(&request));
                assert_eq!(expect_report(current.clone(), &what), reference);
                assert_eq!(call(&legacy), current, "{what}");
                frames += 2;
            }
        }
    }
    assert_eq!(handle.served(), frames);
    handle.shutdown();
}

/// A paper-default configuration of one code.
fn paper(kind: CodeKind, radix: LogicLevel, length: usize) -> SimConfig {
    SimConfig::paper_defaults(CodeSpec::new(kind, radix, length).unwrap()).unwrap()
}

/// The code searches recurse once per word on the worker's thread.
/// Unbounded, a balanced Gray code of 8 192 words or a ternary arranged hot
/// code of 34 650 words overflows a 2 MiB worker stack and aborts the
/// server, and a binary arranged hot code of length 28 enumerates
/// C(28, 14) ≈ 4·10⁷ combinations. Space sizes that do not fit a `u128`
/// must saturate, not wrap: a wrapped hot-code size (C(1000, 500) read
/// as one) starts an enumeration that exhausts memory or the stack, and a
/// tree-family size computed digit by digit holds a worker for a time
/// linear in the length. Each oversized space must get a typed error within
/// the 1 s read timeout, in both codecs, with the next well-formed request
/// on the connection answered bit-identically. In process, the same
/// configurations are typed errors too. (A client sends no search budgets:
/// every code is generated with the defaults.)
#[test]
fn oversized_code_searches_get_typed_errors_and_the_connection_keeps_serving() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let well_formed = mix().remove(0);
    let reference = reference(&well_formed.config);

    let hostile = [
        (
            "BGC binary M = 26",
            paper(CodeKind::BalancedGray, LogicLevel::BINARY, 26),
        ),
        (
            "AHC ternary M = 12",
            paper(CodeKind::ArrangedHot, LogicLevel::TERNARY, 12),
        ),
        (
            "AHC binary M = 28",
            paper(CodeKind::ArrangedHot, LogicLevel::BINARY, 28),
        ),
        (
            "HC binary M = 1000",
            paper(CodeKind::Hot, LogicLevel::BINARY, 1_000),
        ),
        (
            "HC binary M = 2·10⁶",
            paper(CodeKind::Hot, LogicLevel::BINARY, 2_000_000),
        ),
        (
            "AHC binary M = 1000",
            paper(CodeKind::ArrangedHot, LogicLevel::BINARY, 1_000),
        ),
        (
            "AHC binary M = 2·10⁶",
            paper(CodeKind::ArrangedHot, LogicLevel::BINARY, 2_000_000),
        ),
        (
            "TC binary M = 2·10⁹",
            paper(CodeKind::Tree, LogicLevel::BINARY, 2_000_000_000),
        ),
        (
            "GC binary M = 2·10⁹",
            paper(CodeKind::Gray, LogicLevel::BINARY, 2_000_000_000),
        ),
    ];

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // A worker that starts such a search would not answer in time; fail
    // instead of waiting for it.
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut frames = 0;
    for codec in [WireCodec::Json, WireCodec::Binary] {
        for (name, config) in &hostile {
            let what = format!("{codec:?} {name}");
            let request = codec.encode_request(&ReportRequest::new(config.clone()));
            match round_trip(&mut stream, &request, &what) {
                WireReply::Error(error) => {
                    assert_eq!(error.kind, WireErrorKind::Internal, "{what}: {error}");
                }
                WireReply::Report(_) => panic!("{what}: served a report"),
            }
            // The same connection still serves a well-formed request.
            match round_trip(&mut stream, &codec.encode_request(&well_formed), &what) {
                WireReply::Report(report) => assert_eq!(report, reference, "{what}: next"),
                WireReply::Error(error) => panic!("{what}: next request failed: {error}"),
            }
            frames += 2;
        }
    }
    assert_eq!(handle.served(), frames);
    handle.shutdown();

    for (name, config) in &hostile {
        assert!(
            matches!(
                SimulationPlatform::new(config.clone()).evaluate(),
                Err(SimError::Code(_))
            ),
            "in-process {name}"
        );
    }
}

/// Every proper prefix of a request document, sent whole as one frame,
/// gets a typed `bad_request` from a live server, in both codecs and in
/// both request shapes — the current one and the override-carrying one
/// earlier clients wrote. The one exception is a legacy binary request cut
/// at a section boundary: that is a shorter legacy request, and it is
/// served its configuration's report. A well-formed request after every
/// 64th frame is answered bit-identically, and the connection never closes.
#[test]
fn every_request_truncation_gets_a_typed_error_at_a_live_server() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    let base = SimConfig::paper_defaults(code).unwrap();
    let laplace = DisturbanceKind::Laplace;
    let defects = DefectKind::sampled(0.02, 0.01, 2_009).unwrap();
    let request = ReportRequest::new(base.clone().with_disturbance(laplace).with_defects(defects));
    let full_reference = reference(&request.config);
    // The current JSON shape, spelled out: the configuration, no override
    // keys.
    let json = format!(
        "{{\"schema_version\":1,\"config\":{}}}",
        config_to_json(&request.config).render()
    );

    // A legacy binary request decodes wherever a section ends: after the
    // config, and after the disturbance override.
    let boundaries = [
        (
            common::legacy_request_bin(&base, None, None).len(),
            reference(&base),
        ),
        (
            common::legacy_request_bin(&base, Some(laplace), None).len(),
            reference(&base.clone().with_disturbance(laplace)),
        ),
    ];
    let documents = [
        ("json", json.clone().into_bytes(), &[][..]),
        (
            "legacy json",
            common::legacy_request_json(&base, Some(laplace), Some(defects)).into_bytes(),
            &[][..],
        ),
        ("binary", request_to_bin(&request), &[][..]),
        (
            "legacy binary",
            common::legacy_request_bin(&base, Some(laplace), Some(defects)),
            &boundaries[..],
        ),
    ];

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = 0u64;
    for (name, document, decodable) in &documents {
        let whole = round_trip(&mut stream, document, name);
        assert_eq!(
            whole,
            WireReply::Report(full_reference.clone()),
            "whole {name}"
        );
        frames += 1;
        for take in 0..document.len() {
            let what = format!("{name} request cut to {take}/{} bytes", document.len());
            let reply = round_trip(&mut stream, &document[..take], &what);
            match decodable.iter().find(|(boundary, _)| *boundary == take) {
                Some((_, expected)) => {
                    assert_eq!(reply, WireReply::Report(expected.clone()), "{what}");
                }
                None => expect_bad_request(reply, &what),
            }
            frames += 1;
            if frames.is_multiple_of(64) {
                let well_formed = round_trip(&mut stream, document, &what);
                assert_eq!(
                    well_formed,
                    WireReply::Report(full_reference.clone()),
                    "{what}: the next well-formed request"
                );
                frames += 1;
            }
        }
    }
    assert_eq!(handle.served(), frames);
    handle.shutdown();
    assert_eq!(request.to_json_string(), json);
}

/// What a live server must answer to a request payload: its decoded
/// configuration's report, or a typed error of the class the failure
/// belongs to.
#[derive(Debug, PartialEq)]
enum Answer {
    Report(PlatformReport),
    Error(WireErrorKind),
}

fn answer_of(reply: WireReply) -> Answer {
    match reply {
        WireReply::Report(report) => Answer::Report(report),
        WireReply::Error(error) => Answer::Error(error.kind),
    }
}

/// The in-process answer to a request payload. A payload whose first byte
/// is not the binary magic goes down the JSON path, where a binary
/// document is not a JSON request.
fn expected_answer(payload: &[u8]) -> Answer {
    if !bincodec::is_binary(payload) {
        return Answer::Error(WireErrorKind::BadRequest);
    }
    match request_from_bin(payload) {
        Err(_) => Answer::Error(WireErrorKind::BadRequest),
        Ok(request) => match SimulationPlatform::new(request.config).evaluate() {
            Ok(report) => Answer::Report(report),
            Err(_) => Answer::Error(WireErrorKind::Internal),
        },
    }
}

/// Every single-bit flip of one binary request, framed correctly, at a live
/// server: each flipped frame gets the report of the configuration it
/// decodes to, or a typed error of the class the in-process decoder and
/// evaluation give, and a well-formed request after every 64th flip is
/// answered bit-identically. A flip can turn a field into any value, so the
/// server must bound what it admits before working on it: a high bit of the
/// code length asks for ~2⁶³ digits, which must be a typed error at once.
///
/// The request is a defect-free binary Gray code of length 10 (32 words),
/// chosen so that every flip the server admits is answered quickly even in
/// the debug test profile: a flipped kind tag gives a tree or a hot code
/// (never a balanced-Gray or arranged-hot search, which a Gray tag is two
/// bits away from), flipped lengths and radices give at most 10⁵ words or a
/// typed `SpaceTooLarge`, and with no defects no crossbar is sampled.
#[test]
fn every_request_bit_flip_gets_a_typed_error_or_its_report_at_a_live_server() {
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let request = ReportRequest::new(paper(CodeKind::Gray, LogicLevel::BINARY, 10));
    let reference = reference(&request.config);
    let payload = request_to_bin(&request);

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = 0u64;
    let mut reports = 0;
    for bit in 0..payload.len() * 8 {
        let mut flipped = payload.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let what = format!("request with bit {bit} flipped");
        let answer = answer_of(round_trip(&mut stream, &flipped, &what));
        if matches!(answer, Answer::Report(_)) {
            reports += 1;
        }
        assert_eq!(answer, expected_answer(&flipped), "{what}");
        frames += 1;
        if frames.is_multiple_of(64) {
            let well_formed = round_trip(&mut stream, &payload, &what);
            assert_eq!(
                well_formed,
                WireReply::Report(reference.clone()),
                "{what}: the next well-formed request"
            );
            frames += 1;
        }
    }
    // Flips inside the values of the report's inputs are served.
    assert!(reports > 0);
    assert_eq!(handle.served(), frames);

    // Both workers are still there: once the flipping connection has let go
    // of its worker, two connections held open at once are each answered.
    drop(stream);
    let mut first = NetClient::connect(handle.local_addr()).unwrap();
    let mut second = NetClient::connect(handle.local_addr()).unwrap();
    for client in [&mut first, &mut second] {
        let reply = client.call_bytes(&payload).unwrap();
        assert_eq!(expect_report(Some(reply), "after the flips"), reference);
    }
    assert_eq!(handle.served(), frames + 2);
    handle.shutdown();
}
