//! Criterion bench for the Fig. 9 experiment: the IDEA workload through
//! the full platform (VIM-based) and on the manually managed interface
//! (normal coprocessor) at each published input size, plus the
//! simulation-kernel comparison on the 32 KB point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use vcop::Kernel;
use vcop_bench::app::AppKind;
use vcop_bench::experiments::{idea_vim, typical, ExperimentOptions, Harness};

fn bench_fig9(c: &mut Criterion) {
    let opts = ExperimentOptions::default();
    let mut group = c.benchmark_group("fig9_idea");
    group.sample_size(10);
    for kb in [4usize, 8, 16, 32] {
        group.throughput(Throughput::Bytes((kb * 1024) as u64));
        group.bench_with_input(BenchmarkId::new("vim", format!("{kb}KB")), &kb, |b, &kb| {
            b.iter(|| black_box(idea_vim(kb, &opts).report.total()))
        });
    }
    for kb in [4usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("typical", format!("{kb}KB")),
            &kb,
            |b, &kb| b.iter(|| black_box(typical(AppKind::Idea, kb).expect("fits").total())),
        );
    }
    group.finish();
}

/// Stepped vs event-driven kernel on one warmed IDEA 32 KB system each.
/// Both kernels simulate exactly the same edges, so the `elem/s` column
/// is simulated cycles (IMU edges + coprocessor cycles) per host second.
/// Each iteration also maps, copies out and verifies the objects, which
/// costs the same on both kernels.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_idea_32KB_kernel");
    group.sample_size(10);
    let mut stepped_cycles = None;
    for (name, kernel) in [("stepped", Kernel::Stepped), ("event", Kernel::EventDriven)] {
        let opts = ExperimentOptions {
            kernel,
            ..Default::default()
        };
        let mut harness = Harness::new(AppKind::Idea, 32, &opts);
        let warm = harness.run().report;
        let cycles = warm.imu_edges + warm.cp_cycles;
        assert_eq!(
            *stepped_cycles.get_or_insert(cycles),
            cycles,
            "the event kernel must consume exactly the stepped kernel's edges"
        );
        group.throughput(Throughput::Elements(cycles));
        group.bench_function(name, |b| b.iter(|| black_box(harness.run().report.total())));
    }
    group.finish();
}

criterion_group!(benches, bench_fig9, bench_kernels);
criterion_main!(benches);
