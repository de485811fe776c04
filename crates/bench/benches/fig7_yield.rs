//! Bench for Fig. 7: regenerating the crossbar-yield series for TC/BGC
//! (M = 6, 8, 10) and HC/AHC (M = 4, 6, 8) on the 16 kB platform. A fresh
//! serial engine per iteration keeps every sweep cold: the bench times
//! evaluation, not report-cache hits.

use criterion::{criterion_group, criterion_main, Criterion};
use decoder_sim::ExecutionEngine;
use mspt_bench::bench_base_config;
use nanowire_codes::{CodeKind, LogicLevel};

fn bench_fig7(c: &mut Criterion) {
    let base = bench_base_config().expect("base config");
    let mut group = c.benchmark_group("fig7_crossbar_yield");
    group.sample_size(10);

    for (kind, lengths) in [
        (CodeKind::Tree, vec![6usize, 8, 10]),
        (CodeKind::BalancedGray, vec![6, 8, 10]),
        (CodeKind::Hot, vec![4, 6, 8]),
        (CodeKind::ArrangedHot, vec![4, 6, 8]),
    ] {
        group.bench_function(format!("{}_series", kind.label()), |b| {
            b.iter(|| {
                ExecutionEngine::serial()
                    .yield_sweep(&base, kind, LogicLevel::BINARY, &lengths)
                    .expect("fig7 series")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
