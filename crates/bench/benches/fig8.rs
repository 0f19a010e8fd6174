//! Criterion bench for the Fig. 8 experiment: the adpcmdecode workload
//! through the full platform at each published input size. The measured
//! quantity is host simulation time; the *simulated* results (speedups,
//! decomposition) are asserted inside the runner and reported by the
//! `fig8` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use vcop::SystemBuilder;
use vcop_bench::experiments::adpcm_vim;

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_adpcmdecode");
    group.sample_size(10);
    for kb in [2usize, 4, 8] {
        group.throughput(Throughput::Bytes((kb * 1024) as u64));
        group.bench_with_input(BenchmarkId::new("vim", format!("{kb}KB")), &kb, |b, &kb| {
            b.iter(|| black_box(adpcm_vim(kb, SystemBuilder::epxa1()).report.total()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
