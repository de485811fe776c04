//! Bench for Fig. 5: regenerating the fabrication-complexity sweep (tree vs
//! Gray codes, binary/ternary/quaternary logic, N = 10) on a fresh serial
//! engine per iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use decoder_sim::ExecutionEngine;
use mspt_bench::bench_base_config;
use nanowire_codes::{CodeKind, LogicLevel};

fn bench_fig5(c: &mut Criterion) {
    let base = bench_base_config().expect("base config");
    let mut group = c.benchmark_group("fig5_fabrication_complexity");
    group.sample_size(20);

    group.bench_function("tc_gc_binary_to_quaternary_n10", |b| {
        b.iter(|| {
            ExecutionEngine::serial()
                .complexity_sweep(
                    &base,
                    &[CodeKind::Tree, CodeKind::Gray],
                    &[
                        LogicLevel::BINARY,
                        LogicLevel::TERNARY,
                        LogicLevel::QUATERNARY,
                    ],
                    8,
                    10,
                )
                .expect("fig5 sweep")
        })
    });

    for radix in [
        LogicLevel::BINARY,
        LogicLevel::TERNARY,
        LogicLevel::QUATERNARY,
    ] {
        group.bench_function(format!("single_point_gc_{radix}"), |b| {
            b.iter(|| {
                ExecutionEngine::serial()
                    .complexity_sweep(&base, &[CodeKind::Gray], &[radix], 8, 10)
                    .expect("fig5 point")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
