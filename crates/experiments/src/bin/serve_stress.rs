//! Hammers the `mspt-serve` layer with a Zipf-ish mix of Fig. 5–8
//! configurations over a framed-TCP loopback server and **gates** on the
//! serving layer's contracts, so CI can run this binary as-is:
//!
//! * every response must be bit-identical to a serial evaluation of the
//!   same configuration;
//! * a second pass over the same mix must be served entirely from the warm
//!   cache (100 % hit rate, zero misses);
//! * a zero-shed configuration must produce **zero** sheds and zero wire
//!   failures, and the bounded dispatch queue must shed an over-quota
//!   connection with the framed, typed `overloaded` error — never a hang
//!   or a silent drop.
//!
//! The harness binds one [`NetServer`] and drives N real loopback
//! connections through it, once per wire codec — JSON, then binary — and
//! reports sustained RPS plus p50/p99/p999 round-trip latency from an
//! HDR-style histogram. `MSPT_STRESS_JSON=<path>` writes the numbers as a
//! CI artifact whose `benchmarks` rows feed `scripts/bench_compare.sh`:
//! JSON rows keep the PR 6-era `serve_tcp/*` ids, so trajectories stay
//! comparable, and binary rows land under `serve_tcp_bin/*`. Every run also
//! measures a 64-entry cache snapshot in both renderings and **gates** on
//! the binary one being ≥ 40 % smaller than the JSON one.
//!
//! Knobs (all environment variables):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPT_STRESS_CLIENTS` | concurrent client connections | 8 |
//! | `MSPT_STRESS_REQUESTS` | requests per client per pass | 64 |
//! | `MSPT_STRESS_SEED` | run seed of the Zipf request streams | 2009 |
//! | `MSPT_STRESS_JSON` | path of the JSON results artifact | unset |
//! | `MSPT_NET_WORKERS` | TCP worker pool size | available parallelism |
//! | `MSPT_NET_QUEUE` | TCP dispatch-queue bound | 64 |
//! | `MSPT_NET_ADDR` | TCP bind address | 127.0.0.1:0 |
//! | `MSPT_NET_DRAIN_MS` | shutdown drain grace (ms) | 250 |
//! | `MSPT_ENGINE_THREADS` | engine worker threads | available parallelism |
//! | `MSPT_CACHE_PATH` | warm-cache snapshot to load/save | unset |

use std::path::Path;
use std::sync::Arc;

use decoder_sim::codec::JsonValue;
use decoder_sim::{
    CacheConfig, CacheStats, EngineConfig, ExecutionEngine, MonteCarloConfig, ReportCache,
    SamplingStats, SimulationPlatform, StageStats, CACHE_PATH_ENV,
};
use mspt_serve::{
    probe_shed, run_net_stress, NetServer, NetStressOutcome, ReportRequest, ReportServer,
    ServeConfig, StressConfig, WireCodec,
};

/// Environment variable naming the JSON results artifact path.
const STRESS_JSON_ENV: &str = "MSPT_STRESS_JSON";

/// How many entries the snapshot-size measurement fills its cache with —
/// the 64-entry figure the acceptance gate is stated against.
const SNAPSHOT_ENTRIES: usize = 64;

struct PassStats {
    hits: u64,
    misses: u64,
}

fn delta(before: &CacheStats, after: &CacheStats) -> PassStats {
    PassStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    }
}

fn benchmark_row(id: &str, median_ns: f64) -> JsonValue<'static> {
    JsonValue::Object(vec![
        ("id".into(), JsonValue::String(id.to_string().into())),
        ("median_ns".into(), JsonValue::from_f64(median_ns)),
    ])
}

/// The per-stage memo rows of the engine's stage cache — one object per
/// stage, in `Stage::ALL` order. Rides alongside the aggregate report-cache
/// counters in the results artifact (new key, old fields untouched, so
/// pre-stage-cache consumers keep parsing).
fn stage_stats_json(rows: &[StageStats]) -> JsonValue<'static> {
    JsonValue::Array(
        rows.iter()
            .map(|row| {
                JsonValue::Object(vec![
                    ("stage".into(), JsonValue::String(row.stage.name().into())),
                    ("hits".into(), JsonValue::from_u64(row.stats.hits)),
                    ("misses".into(), JsonValue::from_u64(row.stats.misses)),
                    ("evictions".into(), JsonValue::from_u64(row.stats.evictions)),
                ])
            })
            .collect(),
    )
}

fn print_stage_stats(rows: &[StageStats]) {
    println!("stage cache (hits / misses / evictions):");
    for row in rows {
        println!(
            "  {:<14} {:>8} / {:>6} / {:>4}",
            row.stage.name(),
            row.stats.hits,
            row.stats.misses,
            row.stats.evictions,
        );
    }
}

/// The adaptive-sampling measurement: one configuration sampled under a
/// fixed budget and again under a Wilson-score stopping target, plus the
/// engine's cumulative sampling counters.
struct SamplingDemo {
    fixed_used: usize,
    adaptive_used: usize,
    cap: usize,
    stats: SamplingStats,
}

/// Runs the fixed-vs-adaptive Monte-Carlo comparison on `engine` and
/// gates on the adaptive run never drawing more samples than the fixed one.
fn sampling_demo(
    engine: &ExecutionEngine,
    mix: &[ReportRequest],
) -> Result<SamplingDemo, Box<dyn std::error::Error>> {
    let config = &mix[0].config;
    // A 4 096-sample budget under the canonical 2009 seed; the adaptive arm
    // stops at a 0.05 Wilson half-width at the default 95 % confidence.
    let adaptive_config = MonteCarloConfig::fixed(4_096, 2_009).with_target_half_width(0.05);
    let fixed_config = MonteCarloConfig::fixed(adaptive_config.sample_cap(), adaptive_config.seed);
    let fixed = engine.monte_carlo_for_config(config, fixed_config)?;
    let adaptive = engine.monte_carlo_for_config(config, adaptive_config)?;
    if adaptive.samples_used > fixed.samples_used {
        return Err(format!(
            "adaptive sampling drew {} samples, more than the fixed budget of {}",
            adaptive.samples_used, fixed.samples_used
        )
        .into());
    }
    Ok(SamplingDemo {
        fixed_used: fixed.samples_used,
        adaptive_used: adaptive.samples_used,
        cap: adaptive.samples,
        stats: engine.sampling_stats(),
    })
}

/// The snapshot-size measurement: one cache, [`SNAPSHOT_ENTRIES`] rows,
/// both snapshot encodings.
struct SnapshotSizes {
    json_bytes: u64,
    bin_bytes: u64,
}

impl SnapshotSizes {
    /// How much smaller the binary snapshot is, as a fraction of the JSON
    /// one (0.4 = 40 % smaller).
    fn saving(&self) -> f64 {
        if self.json_bytes == 0 {
            0.0
        } else {
            1.0 - self.bin_bytes as f64 / self.json_bytes as f64
        }
    }
}

/// Fills a dedicated cache with [`SNAPSHOT_ENTRIES`] distinct
/// configurations (one evaluated report, re-keyed under a sweep of
/// decision-window overrides — a field every report reads, so each is its
/// own entry; the snapshot encodes the full config/report pair per row
/// either way) and renders it in both snapshot formats.
fn snapshot_sizes(mix: &[ReportRequest]) -> Result<SnapshotSizes, Box<dyn std::error::Error>> {
    let base = &mix[0];
    let report = SimulationPlatform::new(base.config.clone()).evaluate()?;
    let cache = ReportCache::new(CacheConfig::unsharded(SNAPSHOT_ENTRIES));
    for index in 0..SNAPSHOT_ENTRIES {
        let window = 0.1 + index as f64 / (4 * SNAPSHOT_ENTRIES) as f64;
        let config = base.config.clone().with_window(window.into());
        let row = report.clone();
        cache.get_or_compute(&config, || Ok(row))?;
    }
    if cache.len() != SNAPSHOT_ENTRIES {
        return Err(format!(
            "snapshot-size cache holds {} entries, expected {SNAPSHOT_ENTRIES}",
            cache.len()
        )
        .into());
    }
    Ok(SnapshotSizes {
        json_bytes: cache.snapshot_json().len() as u64,
        bin_bytes: cache.snapshot_bin().len() as u64,
    })
}

/// Renders the loadgen results with a `benchmarks` list of `{id,
/// median_ns}` rows, so `scripts/bench_compare.sh` can diff two runs'
/// latency trajectories. `labeled` holds one `(row prefix,
/// outcome)` pair per codec run; the first is the primary outcome the
/// top-level scalars describe. `transport` and `shed_path_exercised` keep
/// their places in the artifact for its consumers.
fn results_json(
    labeled: &[(&str, NetStressOutcome)],
    snapshot: &SnapshotSizes,
    stage_rows: &[StageStats],
    sampling: &SamplingDemo,
) -> String {
    let (_, outcome) = &labeled[0];
    let latency = &outcome.latency;
    let mut benchmarks = Vec::new();
    for (prefix, outcome) in labeled {
        let latency = &outcome.latency;
        let rps = outcome.throughput_rps();
        let ns_per_req = if rps > 0.0 && rps.is_finite() {
            1e9 / rps
        } else {
            0.0
        };
        let bytes_per_req = if outcome.requests == 0 {
            0.0
        } else {
            (outcome.bytes_sent + outcome.bytes_received) as f64 / outcome.requests as f64
        };
        benchmarks.push(benchmark_row(
            &format!("{prefix}/p50"),
            latency.quantile(0.5) as f64,
        ));
        benchmarks.push(benchmark_row(
            &format!("{prefix}/p99"),
            latency.quantile(0.99) as f64,
        ));
        benchmarks.push(benchmark_row(
            &format!("{prefix}/p999"),
            latency.quantile(0.999) as f64,
        ));
        benchmarks.push(benchmark_row(&format!("{prefix}/mean"), latency.mean()));
        benchmarks.push(benchmark_row(&format!("{prefix}/ns_per_req"), ns_per_req));
        benchmarks.push(benchmark_row(
            &format!("{prefix}/bytes_per_req"),
            bytes_per_req,
        ));
    }
    // The snapshot sizes ride along as benchmark rows too (the "ns" in the
    // field name is historical; bench_compare.sh only diffs medians by id).
    benchmarks.push(benchmark_row(
        "snapshot/json_bytes",
        snapshot.json_bytes as f64,
    ));
    benchmarks.push(benchmark_row(
        "snapshot/bin_bytes",
        snapshot.bin_bytes as f64,
    ));
    // The sampling comparison rides along the same way: medians by id.
    benchmarks.push(benchmark_row(
        "sampling/fixed_samples_used",
        sampling.fixed_used as f64,
    ));
    benchmarks.push(benchmark_row(
        "sampling/adaptive_samples_used",
        sampling.adaptive_used as f64,
    ));
    JsonValue::Object(vec![
        ("schema_version".into(), JsonValue::from_u64(1)),
        ("transport".into(), JsonValue::String("tcp".into())),
        ("requests".into(), JsonValue::from_u64(outcome.requests)),
        ("mismatches".into(), JsonValue::from_u64(outcome.mismatches)),
        ("sheds".into(), JsonValue::from_u64(outcome.sheds)),
        (
            "wire_failures".into(),
            JsonValue::from_u64(outcome.wire_failures),
        ),
        ("shed_path_exercised".into(), JsonValue::Bool(true)),
        ("rps".into(), JsonValue::from_f64(outcome.throughput_rps())),
        ("p50_ns".into(), JsonValue::from_u64(latency.quantile(0.5))),
        ("p99_ns".into(), JsonValue::from_u64(latency.quantile(0.99))),
        (
            "p999_ns".into(),
            JsonValue::from_u64(latency.quantile(0.999)),
        ),
        ("max_ns".into(), JsonValue::from_u64(latency.max())),
        ("mean_ns".into(), JsonValue::from_f64(latency.mean())),
        (
            "snapshot_size".into(),
            JsonValue::Object(vec![
                (
                    "entries".into(),
                    JsonValue::from_u64(SNAPSHOT_ENTRIES as u64),
                ),
                (
                    "json_bytes".into(),
                    JsonValue::from_u64(snapshot.json_bytes),
                ),
                ("bin_bytes".into(), JsonValue::from_u64(snapshot.bin_bytes)),
            ]),
        ),
        ("stage_cache".into(), stage_stats_json(stage_rows)),
        (
            "sampling".into(),
            JsonValue::Object(vec![
                (
                    "fixed_samples_used".into(),
                    JsonValue::from_u64(sampling.fixed_used as u64),
                ),
                (
                    "adaptive_samples_used".into(),
                    JsonValue::from_u64(sampling.adaptive_used as u64),
                ),
                (
                    "sample_cap".into(),
                    JsonValue::from_u64(sampling.cap as u64),
                ),
                ("runs".into(), JsonValue::from_u64(sampling.stats.runs)),
                (
                    "samples_requested".into(),
                    JsonValue::from_u64(sampling.stats.samples_requested),
                ),
                (
                    "samples_used".into(),
                    JsonValue::from_u64(sampling.stats.samples_used),
                ),
            ]),
        ),
        ("benchmarks".into(), JsonValue::Array(benchmarks)),
    ])
    .render()
}

fn print_pass(label: &str, outcome: &NetStressOutcome, pass: &PassStats) {
    println!(
        "{label}: {:8.0} req/s  p50 {:7.1}µs  p99 {:7.1}µs  p999 {:7.1}µs  hit rate {:5.1}%  ({} hits / {} misses, {} mismatches, {} sheds)",
        outcome.throughput_rps(),
        outcome.latency.quantile(0.5) as f64 / 1e3,
        outcome.latency.quantile(0.99) as f64 / 1e3,
        outcome.latency.quantile(0.999) as f64 / 1e3,
        hit_rate(pass) * 100.0,
        pass.hits,
        pass.misses,
        outcome.mismatches,
        outcome.sheds,
    );
}

fn hit_rate(pass: &PassStats) -> f64 {
    let total = pass.hits + pass.misses;
    if total == 0 {
        0.0
    } else {
        pass.hits as f64 / total as f64
    }
}

fn gate(outcome: &NetStressOutcome, label: &str) -> Result<(), String> {
    if outcome.mismatches != 0 {
        return Err(format!(
            "{label}: served reports diverged from the serial reference ({} mismatches)",
            outcome.mismatches
        ));
    }
    if outcome.sheds != 0 {
        return Err(format!(
            "{label}: a zero-shed configuration shed {} request(s)",
            outcome.sheds
        ));
    }
    if outcome.wire_failures != 0 {
        return Err(format!(
            "{label}: {} non-overloaded wire error(s)",
            outcome.wire_failures
        ));
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every knob is read exactly once, here, through the typed configs.
    let stress = StressConfig::from_env();
    let serve_config = ServeConfig::from_env();
    let artifact = std::env::var(STRESS_JSON_ENV)
        .ok()
        .filter(|p| !p.is_empty());

    let engine = Arc::new(ExecutionEngine::new(EngineConfig::default()));
    let cache_path = std::env::var(CACHE_PATH_ENV).ok().filter(|p| !p.is_empty());
    if let Some(path) = &cache_path {
        match engine.load_cache(Path::new(path)) {
            Ok(count) => println!("warm cache: loaded {count} report(s) from {path}"),
            Err(error) => println!("warm cache: starting cold ({error})"),
        }
    }
    let server = ReportServer::new(Arc::clone(&engine));
    let mix = mspt_experiments::stress_mix()?;

    println!("==========================================================");
    println!(" serve_stress — tcp serving over the shared cache");
    println!("==========================================================");
    println!(
        " engine: {} thread(s); cache capacity {} in {} shard(s)",
        engine.config().threads,
        engine.cache_config().capacity,
        engine.cache_config().shards,
    );
    println!(
        " mix: {} distinct configuration(s); {} client(s) × {} request(s)/pass; seed {}",
        mix.len(),
        stress.clients,
        stress.requests_per_client,
        stress.seed
    );
    let handle = NetServer::bind(serve_config, Arc::new(server.clone()))?;
    let serve_config = handle.config();
    println!(
        " tcp: {} worker(s), queue bound {}, drain {:?}",
        serve_config.workers, serve_config.queue_bound, serve_config.drain_grace,
    );
    println!(" tcp: listening on {}", handle.local_addr());

    // JSON keeps the PR 6-era row ids so bench trajectories stay
    // comparable; binary rows ride alongside under their own ids.
    let mut labeled = Vec::new();
    for (codec, prefix) in [
        (WireCodec::Json, "serve_tcp"),
        (WireCodec::Binary, "serve_tcp_bin"),
    ] {
        let name = codec.as_str();
        let before = engine.cache_stats();
        let first = run_net_stress(handle.local_addr(), &mix, &stress, codec)?;
        let mid = engine.cache_stats();
        // Only the JSON run's first pass runs cold; the binary run reuses
        // the warm cache, which is the point — the codec delta is pure wire
        // cost.
        let cold = if codec == WireCodec::Json {
            "cold"
        } else {
            "warm"
        };
        print_pass(
            &format!("{name} pass 1 ({cold})"),
            &first,
            &delta(&before, &mid),
        );
        let second = run_net_stress(handle.local_addr(), &mix, &stress, codec)?;
        let after = engine.cache_stats();
        let warm = delta(&mid, &after);
        print_pass(&format!("{name} pass 2 (warm)"), &second, &warm);
        if warm.misses != 0 {
            return Err(format!(
                "{name} second pass was not served entirely from the warm cache ({} misses)",
                warm.misses
            )
            .into());
        }
        gate(&first, &format!("{name} pass 1")).map_err(std::io::Error::other)?;
        gate(&second, &format!("{name} pass 2")).map_err(std::io::Error::other)?;
        println!(
            "{name} wire cost: {:.0} bytes/request ({} sent + {} received over {} requests)",
            (second.bytes_sent + second.bytes_received) as f64 / second.requests as f64,
            second.bytes_sent,
            second.bytes_received,
            second.requests,
        );
        labeled.push((prefix, second));
    }

    // Exercise the backpressure path against a deliberately tiny dedicated
    // server: 1 worker, queue bound 1 — the third connection must receive
    // the framed, typed overloaded error.
    let tiny = NetServer::bind(
        ServeConfig {
            workers: 1,
            queue_bound: 1,
            ..ServeConfig::default()
        },
        Arc::new(server.clone()),
    )?;
    let shed = probe_shed(&tiny, mix[0].to_json_string().as_bytes())?;
    println!("shed probe: over-quota connection refused with typed {shed}");
    tiny.shutdown();

    let served = handle.served();
    handle.shutdown();
    println!("tcp: {served} frame(s) served, graceful shutdown drained");

    // The snapshot-size gate: the binary persistence format must stay at
    // least 40 % smaller than JSON for a 64-entry cache.
    let snapshot = snapshot_sizes(&mix)?;
    println!(
        "snapshot size: {SNAPSHOT_ENTRIES} entries — json {} bytes, binary {} bytes ({:.1}% smaller)",
        snapshot.json_bytes,
        snapshot.bin_bytes,
        snapshot.saving() * 100.0,
    );
    if snapshot.saving() < 0.40 {
        return Err(format!(
            "binary snapshot is only {:.1}% smaller than JSON (gate: >= 40%)",
            snapshot.saving() * 100.0
        )
        .into());
    }

    // The adaptive-sampling demonstration: the same configuration under a
    // fixed budget vs a Wilson-score target, plus the engine's counters.
    let sampling = sampling_demo(&engine, &mix)?;
    println!(
        "monte-carlo sampling: fixed used {} / {}, adaptive used {} / {} ({:.1}x fewer)",
        sampling.fixed_used,
        sampling.cap,
        sampling.adaptive_used,
        sampling.cap,
        sampling.fixed_used as f64 / sampling.adaptive_used.max(1) as f64,
    );
    println!(
        "sampling stats: {} run(s), {} sample(s) requested, {} drawn",
        sampling.stats.runs, sampling.stats.samples_requested, sampling.stats.samples_used,
    );

    if let Some(path) = &artifact {
        let rendered = results_json(&labeled, &snapshot, &server.stage_stats(), &sampling);
        std::fs::write(path, rendered.as_bytes())?;
        println!("results artifact: wrote {path}");
    }

    if let Some(path) = &cache_path {
        let saved = engine.save_cache(Path::new(path))?;
        println!("warm cache: saved {saved} report(s) to {path}");
    }
    print_stage_stats(&server.stage_stats());
    println!(
        "serve_stress: OK — {} request(s) total, final cache: {:?}",
        server.request_count(),
        engine.cache_stats()
    );
    Ok(())
}
