//! The TCP transport's acceptance gates, as loopback tests:
//!
//! * N concurrent client connections receive reports **bit-identical** to
//!   the serial path, and a second pass over the same mix is served
//!   entirely from the warm cache;
//! * a full bounded dispatch queue sheds with the framed, typed
//!   `overloaded` error — never a hang, never a silent drop;
//! * a graceful shutdown drains in-flight requests: everything a client
//!   sent before shutdown gets a response before its connection closes;
//! * a request frame that arrives in pieces, with pauses longer than the
//!   workers' poll interval, is answered, and a client stalled mid-frame
//!   does not hold a shutdown much past the drain grace;
//! * a defect-configured request for an oversized crossbar, or a request
//!   for an oversized half cave, gets a typed error at once, in both
//!   codecs, and its connection keeps serving;
//! * a length prefix above the frame bound gets a typed `bad_request`, then
//!   an orderly close;
//! * every truncation of a request document, in both codecs and in the
//!   shape earlier clients wrote, gets a typed error from a live server
//!   whose connection keeps serving bit-identical reports.

mod common;

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::loopback_config;
use decoder_sim::bincodec;
use decoder_sim::codec::config_to_json;
use decoder_sim::{
    DefectKind, DisturbanceKind, EngineConfig, ExecutionEngine, PlatformReport, SimConfig,
    SimulationPlatform, WireErrorKind,
};
use mspt_serve::net::MAX_FRAME_BYTES;
use mspt_serve::{
    parse_reply_any, probe_shed, read_frame, request_to_bin, run_net_stress, write_frame,
    NetClient, NetServer, ReportRequest, ReportServer, StressConfig, WireCodec, WireReply,
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
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.accepted() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "acceptor never queued the filler connection"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

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
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.accepted() < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "acceptor never saw all three connections"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

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
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.accepted() < 3 {
        assert!(
            Instant::now() < deadline,
            "acceptor never saw the stalled connection"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
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
    let server = report_server(2);
    let handle = NetServer::bind(loopback_config(2, 4), Arc::new(server)).unwrap();
    let well_formed = mix().remove(0);
    let reference = reference(&well_formed.config);

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // A server that starts evaluating would not answer in time; fail
    // instead of waiting for it.
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut frames = 0;
    for nanowires in [10_000, 1_000_000_000_000] {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let what = format!("{codec:?} request for {nanowires} nanowires per half cave");
            let hostile = with_half_cave(&well_formed, codec, nanowires);
            expect_bad_request(round_trip(&mut stream, &hostile, &what), &what);
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
