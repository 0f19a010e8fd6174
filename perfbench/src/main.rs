//! Command-line entry point: runs one workload and prints its metrics, the
//! last line being one JSON object.
//!
//! ```text
//! vcop-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vcop_bench::json::Value;
use vcop_perfbench::run::{host_layer_metrics, measure, peak_rss_mb, Metric, Modeled};
use vcop_perfbench::stats::{beyond, median};
use vcop_perfbench::trace::Tracer;
use vcop_perfbench::workloads::{setup, Workload, WorkloadKind};

const USAGE: &str =
    "usage: vcop-perfbench --workload <idea_sync|adpcm_overlap|serving_mix|adpcm_faults> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median. A set-up takes
/// milliseconds, so many are cheap and steady the median.
const SETUPS: usize = 21;
/// Where traced runs write their Chrome trace, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

/// Fig. 9 at 32 KB: the VIM speedup range and the pure-software time.
const PAPER_SPEEDUP: (f64, f64) = (11.0, 12.0);
const PAPER_SW_MS: f64 = 211.0;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadKind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn setup_repeated(args: &Args, tr: &mut Tracer) -> (Box<dyn Workload>, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(args.workload, args.seed, tr));
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), seconds)
}

fn print_metric(m: &Metric, note: &str) {
    println!("  {:<32} {:>16.6} {:<9} {note}", m.name, m.value, m.unit);
}

/// Fig. 9 reference beside the model, for the one validated workload.
fn paper_note(kind: WorkloadKind, modeled: &Modeled) -> String {
    if kind != WorkloadKind::IdeaSync {
        return "no paper reference: unvalidated".to_owned();
    }
    let s = modeled.speedup_vs_sw();
    let (lo, hi) = PAPER_SPEEDUP;
    let err = if s < lo {
        s / lo - 1.0
    } else if s > hi {
        s / hi - 1.0
    } else {
        0.0
    };
    let sw_ms = modeled.sw.as_ms_f64() / modeled.attempted as f64;
    format!(
        "paper Fig. 9: {lo}-{hi}x (model error {:+.1} %); pure SW {sw_ms:.2} ms vs paper {PAPER_SW_MS} ms ({:+.1} %)",
        err * 100.0,
        (sw_ms / PAPER_SW_MS - 1.0) * 100.0
    )
}

fn write_trace(tr: &Tracer, args: &Args) -> std::io::Result<String> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let path =
        Path::new(TRACE_DIR).join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    f.write_all(tr.to_chrome().render().as_bytes())?;
    f.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = Duration::from_secs(args.seconds);

    let (mut w, setup_s) = setup_repeated(&args, &mut Tracer::off());
    let untraced = measure(w.as_mut(), run, &mut Tracer::off());
    drop(w);
    let modeled = Modeled::of(&untraced);
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    // `correct`: no output the program delivered was wrong. Requests
    // that returned `Err` are counted in `failed` and `error_rate`.
    let mut correct = untraced.wrong == 0;

    let metric = |name, value, unit| Metric { name, value, unit };
    let end_to_end = vec![
        metric("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s"),
        metric("host_peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
        metric("sim_requests_per_s", modeled.requests_per_s(), "1/s"),
        metric("speedup_vs_sw", modeled.speedup_vs_sw(), "x"),
        metric(
            "hw_served_fraction",
            modeled.hw_served_fraction(),
            "fraction",
        ),
    ];
    // End-to-end figures a user reads but that suit no spread-based
    // bound: host throughput drifts by a quarter and more between runs
    // on a shared host, modeled latencies repeat exactly, and the error
    // rate is zero on a healthy run. They are reported with the
    // per-layer metrics.
    let reported = vec![
        metric("host_requests_per_s", untraced.host_requests_per_s(), "1/s"),
        metric("sim_latency_p50_us", modeled.latency_us(0.50), "us"),
        metric("sim_latency_p95_us", modeled.latency_us(0.95), "us"),
        metric("error_rate", untraced.error_rate(), "fraction"),
    ];
    println!(
        "workload {}  seed {}  {} units in {:.3} s",
        args.workload.name(),
        args.seed,
        untraced.units,
        untraced.seconds
    );
    let n = modeled.latencies.len();
    for m in end_to_end.iter().chain(&reported) {
        let note = match m.name {
            "setup_s" => format!("median of {SETUPS} set-ups"),
            "speedup_vs_sw" => paper_note(args.workload, &modeled),
            "sim_latency_p50_us" | "sim_latency_p95_us" => {
                format!("{n} samples, {} beyond p95", beyond(n, 0.95))
            }
            "error_rate" => format!("{failed} of {attempted} requests failed"),
            _ => String::new(),
        };
        print_metric(m, &note);
    }
    if let Some((unit, why)) = &untraced.halted {
        println!("  halted after unit {unit}: {why}");
    }

    let metrics = if args.trace {
        let mut tr = Tracer::on();
        let (mut w, _) = setup_repeated(&args, &mut tr);
        let traced = measure(w.as_mut(), run, &mut tr);
        attempted += traced.attempted;
        failed += traced.failed;
        // Tracing must not change what is simulated.
        correct &= traced.wrong == 0 && Modeled::of(&traced) == modeled;
        match write_trace(&tr, &args) {
            Ok(path) => println!("trace: {} spans written to {path}", tr.spans().len()),
            Err(e) => {
                eprintln!("cannot write the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
        let mut layers = reported;
        layers.extend(host_layer_metrics(&tr, &traced, &untraced, SETUPS));
        layers.extend(modeled.layer_metrics());
        println!("per layer:");
        for m in &layers {
            print_metric(m, "");
        }
        layers
    } else {
        end_to_end
    };

    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} could not be computed", m.name);
        return ExitCode::FAILURE;
    }
    let mut values = Value::object();
    for m in &metrics {
        let mut v = Value::object();
        v.set("value", Value::Num(m.value));
        v.set("unit", Value::Str(m.unit.to_owned()));
        values.set(m.name, v);
    }
    let mut out = Value::object();
    out.set("correct", Value::Bool(correct));
    out.set("attempted", Value::Num(attempted as f64));
    out.set("failed", Value::Num(failed as f64));
    out.set("metrics", values);
    // One line: the renderer's indentation carries no data.
    let line: String = out.render().lines().map(str::trim_start).collect();
    println!("{line}");
    ExitCode::SUCCESS
}
