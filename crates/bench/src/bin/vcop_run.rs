//! General-purpose workload runner: any workload × any platform
//! configuration from the command line.
//!
//! ```text
//! vcop_run <adpcm|idea|matmul|vecadd> [options]
//!   --size-kb N          input size in KB (adpcm/idea; default 8)
//!   --n N                matrix dimension / vector length (matmul/vecadd; default 64 / 4096)
//!   --device D           epxa1|epxa4|epxa10          (default epxa1)
//!   --policy P           fifo|lru|random|clock       (default fifo)
//!   --prefetch P         none|next:<degree>|hinted   (default none)
//!   --transfer T         double|single|dma           (default double)
//!   --pipeline-depth D   IMU translations in flight  (default 1)
//!   --skip-out-loads     do not load pages of pure-OUT objects
//! ```

use std::env;
use std::process::ExitCode;

use vcop::{PolicyKind, PrefetchMode, TransferMode};
use vcop_bench::app::AppKind;
use vcop_bench::experiments::{matmul_vim, ExperimentOptions, Harness};
use vcop_bench::table::ms;
use vcop_fabric::DeviceProfile;

#[derive(Debug)]
struct Cli {
    workload: String,
    size_kb: usize,
    n: usize,
    opts: ExperimentOptions,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = env::args().skip(1);
    let workload = args.next().ok_or("missing workload")?;
    let mut cli = Cli {
        workload,
        size_kb: 8,
        n: 0,
        opts: ExperimentOptions::default(),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--size-kb" => {
                cli.size_kb = value()?.parse().map_err(|e| format!("--size-kb: {e}"))?;
                if cli.size_kb == 0 {
                    return Err("--size-kb must be at least 1".to_owned());
                }
            }
            "--n" => cli.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--device" => {
                cli.opts.device = match value()?.as_str() {
                    "epxa1" => DeviceProfile::epxa1(),
                    "epxa4" => DeviceProfile::epxa4(),
                    "epxa10" => DeviceProfile::epxa10(),
                    d => return Err(format!("unknown device '{d}'")),
                }
            }
            "--policy" => {
                cli.opts.policy = match value()?.as_str() {
                    "fifo" => PolicyKind::Fifo,
                    "lru" => PolicyKind::Lru,
                    "random" => PolicyKind::Random,
                    "clock" => PolicyKind::Clock,
                    "adaptive" => PolicyKind::Adaptive,
                    p => return Err(format!("unknown policy '{p}'")),
                }
            }
            "--prefetch" => {
                let v = value()?;
                cli.opts.prefetch = if v == "none" {
                    PrefetchMode::None
                } else if v == "hinted" {
                    PrefetchMode::HintedOnly
                } else if let Some(d) = v.strip_prefix("next:") {
                    PrefetchMode::NextPage {
                        degree: d.parse().map_err(|e| format!("--prefetch: {e}"))?,
                    }
                } else {
                    return Err(format!("unknown prefetch '{v}'"));
                }
            }
            "--transfer" => {
                cli.opts.transfer = match value()?.as_str() {
                    "double" => TransferMode::Double,
                    "single" => TransferMode::Single,
                    "dma" => TransferMode::Dma,
                    t => return Err(format!("unknown transfer '{t}'")),
                }
            }
            "--pipeline-depth" => {
                cli.opts.pipeline_depth = value()?
                    .parse()
                    .map_err(|e| format!("--pipeline-depth: {e}"))?;
                if cli.opts.pipeline_depth == 0 {
                    return Err("--pipeline-depth must be at least 1".to_owned());
                }
            }
            "--skip-out-loads" => cli.opts.skip_out_page_load = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("usage: vcop_run <adpcm|idea|matmul|vecadd> [--size-kb N] [--n N]");
            eprintln!(
                "       [--device epxa1|epxa4|epxa10] [--policy fifo|lru|random|clock|adaptive]"
            );
            eprintln!("       [--prefetch none|next:K|hinted] [--transfer double|single|dma]");
            eprintln!("       [--pipeline-depth D] [--skip-out-loads]");
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} on {} (policy {}, transfer {:?}, pipeline depth {})\n",
        cli.workload, cli.opts.device, cli.opts.policy, cli.opts.transfer, cli.opts.pipeline_depth
    );

    let (sw, report) = match cli.workload.as_str() {
        "adpcm" | "idea" => {
            let kind = if cli.workload == "adpcm" {
                AppKind::Adpcm
            } else {
                AppKind::Idea
            };
            match Harness::try_new(kind, cli.size_kb, &cli.opts) {
                Ok(mut harness) => {
                    let run = harness.run();
                    (run.sw, run.report)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "matmul" => {
            let n = if cli.n == 0 { 64 } else { cli.n };
            let run = matmul_vim(n, &cli.opts);
            (run.sw, run.report)
        }
        "vecadd" => {
            let n = if cli.n == 0 { 4096 } else { cli.n };
            return match run_vecadd(n, &cli.opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        w => {
            eprintln!("unknown workload '{w}'");
            return ExitCode::from(2);
        }
    };

    println!("software baseline: {}", ms(sw));
    println!("{report}");
    println!(
        "\nspeedup {:.2}x  |  IMU mgmt {:.2}%  |  DP mgmt {:.2}%  |  TLB hit rate {:.4}",
        sw.as_ps() as f64 / report.total().as_ps() as f64,
        report.imu_overhead_fraction() * 100.0,
        report.dp_overhead_fraction() * 100.0,
        report.tlb_hit_rate()
    );
    ExitCode::SUCCESS
}

fn run_vecadd(n: usize, opts: &ExperimentOptions) -> Result<(), vcop::Error> {
    use vcop::{Direction, ElemSize, MapHints, SystemBuilder};
    use vcop_apps::vecadd::{VecAddCoprocessor, OBJ_A, OBJ_B, OBJ_C};
    use vcop_fabric::bitstream::Bitstream;

    let mut system = SystemBuilder::new(opts.device)
        .policy(opts.policy)
        .prefetch(opts.prefetch)
        .transfer(opts.transfer)
        .pipeline_depth(opts.pipeline_depth)
        .skip_out_page_load(opts.skip_out_page_load)
        .build();
    let bs = Bitstream::builder("vecadd")
        .device(opts.device.kind)
        .synthetic_payload(4096)
        .build();
    system.fpga_load(&bs.to_bytes(), Box::new(VecAddCoprocessor::new()))?;
    let bytes =
        |f: fn(u32) -> u32| -> Vec<u8> { (0..n as u32).flat_map(|x| f(x).to_le_bytes()).collect() };
    system.fpga_map_object(
        OBJ_A,
        bytes(|x| x),
        ElemSize::U32,
        Direction::In,
        MapHints::default(),
    )?;
    system.fpga_map_object(
        OBJ_B,
        bytes(|x| 3 * x),
        ElemSize::U32,
        Direction::In,
        MapHints::default(),
    )?;
    system.fpga_map_object(
        OBJ_C,
        vec![0; 4 * n],
        ElemSize::U32,
        Direction::Out,
        MapHints::default(),
    )?;
    let report = system.fpga_execute(&[n as u32])?;
    let (_, sw) = vcop_apps::timing::vecadd_sw(
        &(0..n as u32).collect::<Vec<_>>(),
        &(0..n as u32).map(|x| 3 * x).collect::<Vec<_>>(),
    );
    println!("software baseline: {}", ms(sw));
    println!("{report}");
    Ok(())
}
