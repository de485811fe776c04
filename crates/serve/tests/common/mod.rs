//! Fixtures shared by the serving integration tests. Each test crate uses
//! a subset of them.
#![allow(dead_code)]

use std::sync::Arc;
use std::time::Duration;

use decoder_sim::bincodec::{self, config_to_bin, defect_to_bin, disturbance_to_bin, BinWriter};
use decoder_sim::codec::{config_to_json, defect_to_json, disturbance_to_json, JsonValue};
use decoder_sim::{DefectKind, DisturbanceKind, EngineConfig, ExecutionEngine, SimConfig};
use mspt_serve::{
    run_net_stress, NetServer, ReportRequest, ReportServer, ServeConfig, ShedPolicy, StressConfig,
    WireCodec,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// The Fig. 7/8 sweep points: four families at their valid lengths, plus
/// one Laplace-disturbance variant (it shares the Gaussian point's report
/// entry: no report stage reads the disturbance kind) and one
/// defect-configured variant, which keys its own entry and exercises the
/// defect composition under concurrent load.
pub fn paper_mix() -> Vec<ReportRequest> {
    let mut mix = Vec::new();
    for (kind, lengths) in [
        (CodeKind::Tree, &[6usize, 8, 10][..]),
        (CodeKind::BalancedGray, &[6, 8, 10][..]),
        (CodeKind::Hot, &[4, 6, 8][..]),
        (CodeKind::ArrangedHot, &[4, 6, 8][..]),
    ] {
        for &length in lengths {
            let code = CodeSpec::new(kind, LogicLevel::BINARY, length).unwrap();
            mix.push(ReportRequest::new(SimConfig::paper_defaults(code).unwrap()));
        }
    }
    let laplace_code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
    mix.push(ReportRequest::new(
        SimConfig::paper_defaults(laplace_code)
            .unwrap()
            .with_disturbance(DisturbanceKind::Laplace),
    ));
    let defect_code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
    mix.push(ReportRequest::new(
        SimConfig::paper_defaults(defect_code)
            .unwrap()
            .with_defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap()),
    ));
    mix
}

/// A loopback server configuration on an ephemeral port that replies to
/// sheds with a typed error.
pub fn loopback_config(workers: usize, queue_bound: usize) -> ServeConfig {
    ServeConfig {
        bind_addr: "127.0.0.1:0".to_string(),
        workers,
        queue_bound,
        shed_policy: ShedPolicy::Reply,
        drain_grace: Duration::from_millis(150),
    }
}

/// Serves `mix` twice over loopback TCP from `clients` concurrent clients
/// on a fresh `threads`-thread engine, and checks that every reply is
/// bit-identical to the serial reference, nothing sheds, each distinct
/// configuration misses at most once, and the second pass (same seed, so
/// the same request multiset) is served entirely from the warm cache.
pub fn assert_bit_identical_with_a_warm_second_pass(
    mix: &[ReportRequest],
    threads: usize,
    clients: usize,
    requests_per_client: usize,
) {
    let server = ReportServer::new(Arc::new(ExecutionEngine::new(EngineConfig {
        threads,
        chunk_size: 256,
    })));
    let handle = NetServer::bind(loopback_config(clients, 8), Arc::new(server.clone())).unwrap();
    let stress = StressConfig {
        clients,
        requests_per_client,
        seed: 2_009,
    };
    let requests = (clients * requests_per_client) as u64;

    let first = run_net_stress(handle.local_addr(), mix, &stress, WireCodec::Json).unwrap();
    assert_eq!(first.requests, requests);
    assert_eq!(
        first.mismatches, 0,
        "TCP responses diverged from the serial reference"
    );
    assert_eq!(first.sheds, 0, "a zero-shed configuration shed");
    assert_eq!(first.wire_failures, 0);
    assert_eq!(first.latency.count(), first.requests);
    assert!(first.latency.quantile(0.5) <= first.latency.quantile(0.999));
    // Every distinct requested configuration missed exactly once;
    // everything else already hit the shared warm cache.
    let after_first = server.stats();
    assert!(after_first.misses <= mix.len() as u64);
    assert_eq!(after_first.hits + after_first.misses, requests);

    // Same seed ⇒ same request multiset ⇒ the whole second pass is warm.
    let second = run_net_stress(handle.local_addr(), mix, &stress, WireCodec::Json).unwrap();
    assert_eq!(second.mismatches, 0);
    assert_eq!(second.sheds, 0);
    assert_eq!(second.wire_failures, 0);
    let after_second = server.stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "second TCP pass was not served entirely from the warm cache"
    );
    assert_eq!(after_second.hits - after_first.hits, requests);

    assert_eq!(server.request_count(), 2 * requests);
    assert_eq!(handle.served(), 2 * requests);
    handle.shutdown();
}

/// A JSON request in the shape earlier clients wrote: the configuration,
/// then disturbance and defect override keys, `null` when unset.
pub fn legacy_request_json(
    config: &SimConfig,
    disturbance: Option<DisturbanceKind>,
    defects: Option<DefectKind>,
) -> String {
    JsonValue::Object(vec![
        ("schema_version".into(), JsonValue::from_u64(1)),
        ("config".into(), config_to_json(config)),
        (
            "disturbance".into(),
            disturbance.map_or(JsonValue::Null, disturbance_to_json),
        ),
        (
            "defects".into(),
            defects.map_or(JsonValue::Null, defect_to_json),
        ),
    ])
    .render()
}

/// A binary request in the shape earlier clients wrote: the config section
/// (tag `0x01`), then a disturbance-override section (`0x02`) and a
/// defect-override section (`0x03`) when set.
pub fn legacy_request_bin(
    config: &SimConfig,
    disturbance: Option<DisturbanceKind>,
    defects: Option<DefectKind>,
) -> Vec<u8> {
    let mut payload = BinWriter::new();
    payload.section(0x01, &config_to_bin(config));
    if let Some(kind) = disturbance {
        payload.section(0x02, &disturbance_to_bin(kind));
    }
    if let Some(kind) = defects {
        payload.section(0x03, &defect_to_bin(kind));
    }
    bincodec::document(bincodec::DOC_REQUEST, &payload.into_bytes())
}
