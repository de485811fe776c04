//! Bench for Fig. 8: regenerating the effective-bit-area series for every
//! code family on the 16 kB platform. A fresh serial engine per iteration
//! keeps every sweep cold: the bench times evaluation, not report-cache
//! hits.

use criterion::{criterion_group, criterion_main, Criterion};
use decoder_sim::ExecutionEngine;
use mspt_bench::bench_base_config;
use nanowire_codes::{CodeKind, LogicLevel};

fn bench_fig8(c: &mut Criterion) {
    let base = bench_base_config().expect("base config");
    let mut group = c.benchmark_group("fig8_bit_area");
    group.sample_size(10);

    for kind in [
        CodeKind::Tree,
        CodeKind::Gray,
        CodeKind::BalancedGray,
        CodeKind::Hot,
        CodeKind::ArrangedHot,
    ] {
        let lengths: Vec<usize> = if kind.is_hot_family() {
            vec![4, 6, 8]
        } else {
            vec![6, 8, 10]
        };
        group.bench_function(format!("{}_series", kind.label()), |b| {
            b.iter(|| {
                ExecutionEngine::serial()
                    .bit_area_sweep(&base, kind, LogicLevel::BINARY, &lengths)
                    .expect("fig8 series")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
