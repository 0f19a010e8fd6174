//! Ablation studies over the design choices the paper calls out.
//!
//! Usage: `ablations [pipeline|transfer|policy|overlap|pagesize|sensitivity|device|all]`
//!
//! * `pipeline` — the pipelined IMU the authors announce ("expected to
//!   mask almost completely the translation overhead", Section 4.1);
//! * `transfer` — removing the double-transfer page copies ("we are
//!   currently removing this limitation", Section 4.1), plus skipping
//!   useless loads of output pages;
//! * `policy`   — the replacement policies of Section 3.3 (FIFO, LRU,
//!   random, clock) and next-page prefetching;
//! * `device`   — the porting claim of Section 4: EPXA4/EPXA10 need only
//!   a "module recompile" (a different `DeviceProfile`), application and
//!   coprocessor untouched.

use std::env;

use vcop::{ExecutionReport, PolicyKind, PrefetchMode, TransferMode};
use vcop_bench::app::AppKind;
use vcop_bench::experiments::{adpcm_vim, idea_vim, matmul_vim, ExperimentOptions, Harness};
use vcop_bench::table::{ms, speedup, Table};
use vcop_fabric::DeviceProfile;

fn pipeline() {
    println!("== abl-pipe: pipelined IMU (IDEA workload, 8 KB) ==\n");
    let mut table = Table::new(vec!["IMU", "HW", "VIM total", "speedup"]);
    for (name, depth) in [("prototype (depth 1)", 1usize), ("pipelined (depth 4)", 4)] {
        let opts = ExperimentOptions {
            pipeline_depth: depth,
            ..Default::default()
        };
        let run = idea_vim(8, &opts);
        table.row(vec![
            name.to_owned(),
            ms(run.report.hw),
            ms(run.report.total()),
            speedup(run.speedup()),
        ]);
    }
    println!("{}", table.render());
    println!("(the IDEA core bursts its four reads/writes per block, so a deeper");
    println!("IMU overlaps their translations and recovers most of the overhead —");
    println!("the effect the authors predicted for their pipelined IMU)\n");
}

fn transfer() {
    println!("== abl-xfer: page transfer strategy (adpcmdecode 8 KB) ==\n");
    let mut table = Table::new(vec!["VIM copies", "SW (DP)", "VIM total", "speedup"]);
    let variants: [(&str, ExperimentOptions); 4] = [
        ("double (prototype)", ExperimentOptions::default()),
        (
            "single",
            ExperimentOptions {
                transfer: TransferMode::Single,
                ..Default::default()
            },
        ),
        ("single + skip OUT loads", ExperimentOptions::improved()),
        (
            "DMA + skip OUT loads",
            ExperimentOptions {
                transfer: TransferMode::Dma,
                skip_out_page_load: true,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in variants {
        let run = adpcm_vim(8, &opts);
        table.row(vec![
            name.to_owned(),
            ms(run.report.sw_dp),
            ms(run.report.total()),
            speedup(run.speedup()),
        ]);
    }
    println!("{}", table.render());
}

fn policy() {
    println!("== abl-policy: replacement policy and prefetch (IDEA 32 KB) ==\n");
    let mut table = Table::new(vec!["policy", "prefetch", "faults", "SW (DP)", "VIM total"]);
    for kind in [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Clock,
    ] {
        for (pname, prefetch) in [
            ("none", PrefetchMode::None),
            ("next-page", PrefetchMode::NextPage { degree: 1 }),
        ] {
            let opts = ExperimentOptions {
                policy: kind,
                prefetch,
                ..Default::default()
            };
            let run = idea_vim(32, &opts);
            table.row(vec![
                kind.to_string(),
                pname.to_owned(),
                run.report.faults.to_string(),
                ms(run.report.sw_dp),
                ms(run.report.total()),
            ]);
        }
    }
    println!("{}", table.render());

    println!("== abl-policy (strided): matrix multiply 64×64 (3 × 16 KB) ==\n");
    println!("the column-strided walk over B makes the policy choice matter far");
    println!("more than on the paper's sequential kernels\n");
    let mut table = Table::new(vec!["policy", "prefetch", "faults", "SW (DP)", "VIM total"]);
    for kind in [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Clock,
        PolicyKind::Adaptive,
    ] {
        for (pname, prefetch) in [
            ("none", PrefetchMode::None),
            ("next-page", PrefetchMode::NextPage { degree: 1 }),
        ] {
            let opts = ExperimentOptions {
                policy: kind,
                prefetch,
                ..Default::default()
            };
            let run = matmul_vim(64, &opts);
            table.row(vec![
                kind.to_string(),
                pname.to_owned(),
                run.report.faults.to_string(),
                ms(run.report.sw_dp),
                ms(run.report.total()),
            ]);
        }
    }
    println!("{}", table.render());
}

/// The overlapped-paging configurations: display name, prefetch,
/// overlap, DMA channels.
const OVERLAP_CONFIGS: [(&str, PrefetchMode, bool, usize); 7] = [
    ("sync, no prefetch", PrefetchMode::None, false, 1),
    (
        "sync, prefetch d1",
        PrefetchMode::NextPage { degree: 1 },
        false,
        1,
    ),
    ("overlap, no prefetch", PrefetchMode::None, true, 2),
    (
        "overlap d1, 1 ch",
        PrefetchMode::NextPage { degree: 1 },
        true,
        1,
    ),
    (
        "overlap d1, 2 ch",
        PrefetchMode::NextPage { degree: 1 },
        true,
        2,
    ),
    (
        "overlap d1, 4 ch",
        PrefetchMode::NextPage { degree: 1 },
        true,
        4,
    ),
    (
        "overlap d2, 2 ch",
        PrefetchMode::NextPage { degree: 2 },
        true,
        2,
    ),
];

/// Sweeps the overlap configurations through one warmed-up system,
/// `point` re-running the workload after each reconfiguration.
fn overlap_app(label: &str, mut point: impl FnMut(&ExperimentOptions) -> (ExecutionReport, f64)) {
    println!("{label}:\n");
    let mut table = Table::new(vec![
        "VIM",
        "faults",
        "wall total",
        "HW+SW sum",
        "hidden CPU",
        "hidden DMA",
        "speedup",
    ]);
    for (name, prefetch, overlap_on, channels) in OVERLAP_CONFIGS {
        let opts = ExperimentOptions {
            prefetch,
            overlap: overlap_on,
            dma_channels: channels,
            ..Default::default()
        };
        let (report, sp) = point(&opts);
        table.row(vec![
            name.to_owned(),
            report.faults.to_string(),
            ms(report.total()),
            ms(report.cpu_and_hw_time()),
            ms(report.overlap_saved()),
            ms(report.dma_hidden),
            speedup(sp),
        ]);
    }
    println!("{}", table.render());
}

fn overlap() {
    println!("== abl-overlap: overlapped paging (async DMA engine) ==\n");
    println!("the paper's closing future work: \"prefetching ... allowing");
    println!("overlapping of processor and coprocessor execution\". Page");
    println!("movements run on a multi-channel DMA engine raising completion");
    println!("interrupts; prefetches and coalesced write-backs proceed under");
    println!("coprocessor execution (adpcm 8 KB / IDEA 32 KB, next-page");
    println!("prefetch). Each workload reuses one warmed-up system across");
    println!("the configurations.\n");

    let base = ExperimentOptions::default();

    let mut adpcm = Harness::new(AppKind::Adpcm, 8, &base);
    overlap_app("adpcm 8 KB", |opts| {
        adpcm.reconfigure(opts);
        let run = adpcm.run();
        let sp = run.speedup();
        (run.report, sp)
    });

    let mut idea = Harness::new(AppKind::Idea, 32, &base);
    overlap_app("IDEA 32 KB", |opts| {
        idea.reconfigure(opts);
        let run = idea.run();
        let sp = run.speedup();
        (run.report, sp)
    });
}

fn device() {
    println!("== abl-device: porting across the device family (IDEA 32 KB) ==\n");
    println!("identical application code and coprocessor FSM; only the device");
    println!("profile (dual-port RAM size) changes — Section 4's porting claim\n");
    let mut table = Table::new(vec!["device", "DP-RAM", "faults", "VIM total", "speedup"]);
    for dev in [
        DeviceProfile::epxa1(),
        DeviceProfile::epxa4(),
        DeviceProfile::epxa10(),
    ] {
        let opts = ExperimentOptions {
            device: dev,
            ..Default::default()
        };
        let run = idea_vim(32, &opts);
        table.row(vec![
            dev.kind.to_string(),
            format!("{} KB", dev.dpram_bytes / 1024),
            run.report.faults.to_string(),
            ms(run.report.total()),
            speedup(run.speedup()),
        ]);
    }
    println!("{}", table.render());
}

fn pagesize() {
    println!("== abl-pagesize: interface page size (VIM tuning) ==\n");
    println!("the prototype uses 2 KB pages; smaller pages cut transfer waste on");
    println!("strided workloads at the price of more faults (fixed per-fault cost)\n");
    for (wl, runner) in [
        ("IDEA 32 KB (sequential)", 0usize),
        ("matmul 64x64 (strided)", 1),
    ] {
        let mut table = Table::new(vec![
            "page size",
            "frames",
            "faults",
            "SW (DP)",
            "SW (IMU)",
            "total",
        ]);
        for page_bytes in [512usize, 1024, 2048, 4096] {
            let opts = ExperimentOptions {
                device: DeviceProfile::epxa1().with_page_bytes(page_bytes),
                ..Default::default()
            };
            let report = if runner == 0 {
                idea_vim(32, &opts).report
            } else {
                matmul_vim(64, &opts).report
            };
            table.row(vec![
                format!("{page_bytes} B"),
                (16 * 1024 / page_bytes).to_string(),
                report.faults.to_string(),
                ms(report.sw_dp),
                ms(report.sw_imu),
                ms(report.total()),
            ]);
        }
        println!("{wl}:\n{}", table.render());
    }
}

fn sensitivity() {
    println!("== abl-sens: sensitivity to the fixed OS overhead constants ==\n");
    println!("EXPERIMENTS.md claims the figure shapes are insensitive to 2x");
    println!("changes in the kernel-path constants because page copies dominate\n");
    let mut table = Table::new(vec![
        "OS overheads",
        "adpcm 8KB speedup",
        "IDEA 32KB speedup",
    ]);
    for pct in [50u32, 100, 200, 400] {
        let opts = ExperimentOptions {
            os_overhead_pct: pct,
            ..Default::default()
        };
        let a = adpcm_vim(8, &opts);
        let i = idea_vim(32, &opts);
        table.row(vec![
            format!("{pct}%"),
            speedup(a.speedup()),
            speedup(i.speedup()),
        ]);
    }
    println!("{}", table.render());
}

type Arm = (&'static str, fn());

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let which = match args.as_slice() {
        [] => "all".to_owned(),
        [arm] => arm.clone(),
        _ => args.join(" "),
    };
    let arms: Vec<Arm> = vec![
        ("pipeline", pipeline),
        ("transfer", transfer),
        ("policy", policy),
        ("overlap", overlap),
        ("pagesize", pagesize),
        ("sensitivity", sensitivity),
        ("device", device),
    ];
    let selected: Vec<_> = if which == "all" {
        arms
    } else {
        arms.into_iter().filter(|&(n, _)| n == which).collect()
    };
    if selected.is_empty() {
        eprintln!(
            "unknown ablation '{which}'; use pipeline|transfer|policy|overlap|pagesize|sensitivity|device|all"
        );
        std::process::exit(2);
    }
    for (_, arm) in selected {
        arm();
    }
}
