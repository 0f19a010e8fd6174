//! Criterion bench over the ablation configurations (pipelined IMU,
//! transfer strategies, replacement policies, device scaling), all on
//! the IDEA 8 KB point so configurations are directly comparable, plus
//! the host cost of overlapped paging against synchronous paging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use vcop::{PolicyKind, PrefetchMode, TransferMode};
use vcop_bench::experiments::{idea_vim, AdpcmHarness, ExperimentOptions, IdeaHarness};
use vcop_fabric::DeviceProfile;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations_idea_8kb");
    group.sample_size(10);

    let configs: Vec<(String, ExperimentOptions)> = vec![
        ("prototype".into(), ExperimentOptions::default()),
        (
            "pipelined_imu".into(),
            ExperimentOptions {
                pipeline_depth: 4,
                ..Default::default()
            },
        ),
        (
            "single_transfer".into(),
            ExperimentOptions {
                transfer: TransferMode::Single,
                ..Default::default()
            },
        ),
        ("improved_vim".into(), ExperimentOptions::improved()),
        (
            "lru_prefetch".into(),
            ExperimentOptions {
                policy: PolicyKind::Lru,
                prefetch: PrefetchMode::NextPage { degree: 1 },
                ..Default::default()
            },
        ),
        (
            "epxa10".into(),
            ExperimentOptions {
                device: DeviceProfile::epxa10(),
                ..Default::default()
            },
        ),
    ];

    for (name, opts) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(&name), &opts, |b, opts| {
            b.iter(|| black_box(idea_vim(8, opts).report.total()))
        });
    }
    group.finish();
}

/// Sync vs overlapped paging (next-page prefetch, 2 DMA channels) on
/// the `ablations overlap` points, adpcm 8 KB and IDEA 32 KB, one warmed
/// system per configuration. The `elem/s` column is simulated cycles
/// (IMU edges + coprocessor cycles) per host second.
fn bench_overlap(c: &mut Criterion) {
    let sync = ExperimentOptions::default();
    let overlap = ExperimentOptions {
        overlap: true,
        prefetch: PrefetchMode::NextPage { degree: 1 },
        dma_channels: 2,
        ..Default::default()
    };
    let mut group = c.benchmark_group("ablations_overlap");
    group.sample_size(10);
    for (name, opts) in [("sync", sync), ("overlap", overlap)] {
        let mut adpcm = AdpcmHarness::new(8, &opts);
        let warm = adpcm.run().report;
        group.throughput(Throughput::Elements(warm.imu_edges + warm.cp_cycles));
        group.bench_function(format!("adpcm_8KB/{name}"), |b| {
            b.iter(|| black_box(adpcm.run().report.total()))
        });
    }
    for (name, opts) in [("sync", sync), ("overlap", overlap)] {
        let mut idea = IdeaHarness::new(32, &opts);
        let warm = idea.run().report;
        group.throughput(Throughput::Elements(warm.imu_edges + warm.cp_cycles));
        group.bench_function(format!("idea_32KB/{name}"), |b| {
            b.iter(|| black_box(idea.run().report.total()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations, bench_overlap);
criterion_main!(benches);
