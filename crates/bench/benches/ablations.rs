//! Criterion bench over the ablation configurations (pipelined IMU,
//! transfer strategies, replacement policies, device scaling), all on
//! the IDEA 8 KB point so configurations are directly comparable, plus
//! the host cost of overlapped paging against synchronous paging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use vcop::{PolicyKind, PrefetchMode, SystemBuilder, TransferMode};
use vcop_bench::app::AppKind;
use vcop_bench::experiments::{idea_vim, Harness};
use vcop_fabric::DeviceProfile;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations_idea_8kb");
    group.sample_size(10);

    let proto = SystemBuilder::epxa1;
    let configs = [
        ("prototype", proto()),
        ("pipelined_imu", proto().pipeline_depth(4)),
        ("single_transfer", proto().transfer(TransferMode::Single)),
        (
            "improved_vim",
            proto()
                .transfer(TransferMode::Single)
                .skip_out_page_load(true),
        ),
        (
            "lru_prefetch",
            proto()
                .policy(PolicyKind::Lru)
                .prefetch(PrefetchMode::NextPage { degree: 1 }),
        ),
        ("epxa10", SystemBuilder::new(DeviceProfile::epxa10())),
    ];

    for (name, builder) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(name), &builder, |b, builder| {
            b.iter(|| black_box(idea_vim(8, builder.clone()).report.total()))
        });
    }
    group.finish();
}

/// Sync vs overlapped paging (next-page prefetch, 2 DMA channels) on
/// the `ablations overlap` points, adpcm 8 KB and IDEA 32 KB, one warmed
/// system per configuration. The `elem/s` column is simulated cycles
/// (IMU edges + coprocessor cycles) per host second.
fn bench_overlap(c: &mut Criterion) {
    let sync = SystemBuilder::epxa1();
    let overlap = SystemBuilder::epxa1()
        .overlap(true)
        .prefetch(PrefetchMode::NextPage { degree: 1 })
        .dma_channels(2);
    let mut group = c.benchmark_group("ablations_overlap");
    group.sample_size(10);
    for (name, builder) in [("sync", sync.clone()), ("overlap", overlap.clone())] {
        let mut adpcm = Harness::new(AppKind::Adpcm, 8, builder);
        let warm = adpcm.run().report;
        group.throughput(Throughput::Elements(warm.imu_edges + warm.cp_cycles));
        group.bench_function(format!("adpcm_8KB/{name}"), |b| {
            b.iter(|| black_box(adpcm.run().report.total()))
        });
    }
    for (name, builder) in [("sync", sync), ("overlap", overlap)] {
        let mut idea = Harness::new(AppKind::Idea, 32, builder);
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
