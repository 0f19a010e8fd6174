//! Multi-tenant serving throughput: requests/sec for N tenants sharing
//! one fabric, against the serial reconfigure-per-switch baseline.
//!
//! The workload is a closed-loop alternating mix of adpcmdecode (1 KB)
//! and IDEA (1 KB) requests. `N = 1` is the serial baseline — one
//! process at a time owns the fabric and every application switch pays
//! a full bitstream reconfiguration. `N ∈ {2, 4, 8}` admit N tenants
//! whose cores are co-resident (configured once, up front) and
//! time-slice the ASID-tagged interface at translation-miss
//! boundaries. An ablation compares the fully shared frame pool with
//! per-tenant partitioning and the round-robin scheduler with the
//! deficit-weighted one at N = 8. Takes no arguments.

use vcop::SchedulerKind;
use vcop_bench::serving::{
    run_serial_baseline, run_serving, ServingOutcome, ServingSpec, ADPCM_REQUEST_BYTES,
    IDEA_REQUEST_BYTES,
};
use vcop_bench::table::{us, Table};
use vcop_sim::histogram::percentile;
use vcop_sim::time::SimTime;

/// Total requests across all tenants, split equally (a multiple of 8).
const TOTAL_REQUESTS: usize = 48;

fn table_row(table: &mut Table, o: &ServingOutcome) {
    let latency: Vec<SimTime> = o
        .tenants
        .iter()
        .flat_map(|t| t.latency.iter().copied())
        .collect();
    table.row(vec![
        o.label.clone(),
        o.scheduler.to_owned(),
        o.requests.to_string(),
        format!("{:.0}", o.requests_per_sec()),
        format!("{:.0}", o.requests_per_sec_cold()),
        format!("{:.2}", o.serving_time().as_ms_f64()),
        format!("{:.2}", o.config_time.as_ms_f64()),
        o.reconfigs.to_string(),
        o.ctx_switches.to_string(),
        o.cross_asid_steals.to_string(),
        format!("{:.0}", us(percentile(&latency, 0.5))),
        format!("{:.0}", us(percentile(&latency, 0.99))),
    ]);
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("throughput takes no arguments");
        std::process::exit(2);
    }
    println!(
        "Multi-tenant serving throughput — EPXA4, {}/{} KB adpcm/IDEA requests, {} total",
        ADPCM_REQUEST_BYTES / 1024,
        IDEA_REQUEST_BYTES / 1024,
        TOTAL_REQUESTS,
    );
    println!("serial = exclusive fabric, reconfigure per app switch; multi = co-resident cores\n");

    let serial = run_serial_baseline(TOTAL_REQUESTS);
    let sweeps: Vec<ServingOutcome> = [2usize, 4, 8]
        .iter()
        .map(|&n| {
            let spec = ServingSpec {
                tenants: n,
                total_requests: TOTAL_REQUESTS,
                scheduler: SchedulerKind::RoundRobin,
                partition: false,
                frame_limit: None,
            };
            run_serving(&format!("n{n}"), &spec)
        })
        .collect();
    // The frame ablation runs under a constrained 16-frame pool (2
    // frames per tenant when partitioned) where the shared pool's
    // cross-ASID steals and the partition's thrashing both show up;
    // the scheduler ablation keeps the full pool.
    let ablations: Vec<ServingOutcome> = [
        ("n8_shared_16f", SchedulerKind::RoundRobin, false, Some(16)),
        (
            "n8_partitioned_16f",
            SchedulerKind::RoundRobin,
            true,
            Some(16),
        ),
        ("n8_deficit", SchedulerKind::DeficitRoundRobin, false, None),
    ]
    .iter()
    .map(|&(label, scheduler, partition, frame_limit)| {
        let spec = ServingSpec {
            tenants: 8,
            total_requests: TOTAL_REQUESTS,
            scheduler,
            partition,
            frame_limit,
        };
        run_serving(label, &spec)
    })
    .collect();

    let mut table = Table::new(vec![
        "arm",
        "scheduler",
        "req",
        "req/s",
        "req/s cold",
        "serving ms",
        "config ms",
        "reconf",
        "ctx sw",
        "steals",
        "p50 us",
        "p99 us",
    ]);
    table_row(&mut table, &serial);
    for o in sweeps.iter().chain(&ablations) {
        table_row(&mut table, o);
    }
    println!("{}", table.render());

    let n8 = sweeps.iter().find(|o| o.label == "n8").expect("n8 arm ran");
    let speedup = n8.requests_per_sec() / serial.requests_per_sec();
    let speedup_cold = n8.requests_per_sec_cold() / serial.requests_per_sec_cold();
    println!(
        "n8 shared vs serial: {speedup:.2}x steady-state ({speedup_cold:.2}x cold-start, \
         one-off core configuration included)"
    );
    assert!(
        speedup >= 2.0,
        "acceptance: n8 shared throughput must be >= 2x the serial baseline (got {speedup:.2}x)"
    );
}
