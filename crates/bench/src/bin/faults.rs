//! Fault-injection sweep: availability, recovery latency and retained
//! throughput as the injected fault rate rises.
//!
//! The workload is a 4 KB adpcmdecode request with the recovery layer
//! armed and the software twin registered as fallback. Four sites are
//! swept independently — corrupt DMA payloads (synchronous paging,
//! retried), silently lost DMA transfers (overlapped paging,
//! re-submitted at their deadline), dropped fault interrupts
//! (synchronous paging, found by the watchdog's status poll) and TLB
//! parity upsets (re-resolved or escalated) — each over a grid of rates
//! with several PRNG seeds per point.
//!
//! Reported per point:
//!
//! - **served**: fraction of runs that delivered byte-correct output
//!   (hardware or fallback — the transparency guarantee, always 1.0);
//! - **hw availability**: fraction served by the coprocessor itself;
//! - **recovery latency**: p50/p99 of the report's `recovery_time`
//!   across runs where at least one fault fired, as observed
//!   nearest-rank values;
//! - **throughput retained**: mean fault-free wall over mean wall.
//!
//! Three acceptance checks ride along: a zero-rate armed injector must
//! be byte- and report-identical to a plain system (the fault path is
//! free when disabled), one dropped interrupt and one lost transfer
//! must be recovered in place (served by hardware, no fabric reset),
//! and a co-tenant of a hard-faulting tenant must produce byte-identical
//! output to its solo run (isolation).
//!
//! `--quick` cuts the seed count.

use vcop::{
    FaultPlan, FaultSite, MultiSystem, MultiSystemBuilder, SchedulerKind, System, SystemBuilder,
};
use vcop_apps::adpcm::hw as adpcm_hw;
use vcop_apps::timing;
use vcop_bench::app::{adpcm_fallback, AppKind, Job};
use vcop_bench::table::{us, Table};
use vcop_fabric::bitstream::Bitstream;
use vcop_imu::tlb::Asid;
use vcop_sim::histogram::percentile;
use vcop_sim::time::SimTime;

const INPUT_BYTES: usize = 4096;
const RATES: [f64; 5] = [0.0, 0.05, 0.2, 0.5, 1.0];

/// The swept sites and the paging mode that exposes each of them.
fn sites() -> [(FaultSite, bool); 4] {
    [
        (FaultSite::DmaCorrupt, false),
        (FaultSite::DmaTimeout, true),
        (FaultSite::IrqDrop, false),
        (FaultSite::TlbParity, false),
    ]
}

/// An adpcm system with `job` mapped. The bitstream keeps a 2 KiB
/// payload: recovery charges the configuration time once per pass, so
/// the sweep's latencies depend on its size.
fn build_system(job: &Job, plan: Option<FaultPlan>, overlap: bool) -> System {
    let mut builder =
        SystemBuilder::epxa1().clocks(timing::ADPCM_CORE_FREQ, timing::ADPCM_IMU_FREQ);
    if overlap {
        builder = builder.overlap(true).dma_channels(2);
    }
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let mut system = builder.build();
    let bs = Bitstream::builder("adpcmdecode")
        .synthetic_payload(2048)
        .build();
    system
        .fpga_load(&bs.to_bytes(), AppKind::Adpcm.core())
        .expect("load");
    job.map(&mut system).expect("map objects");
    system
}

/// One sweep point: every seed at one (site, rate).
#[derive(Default)]
struct Point {
    runs: u64,
    served: u64,
    hw_served: u64,
    fallbacks: u64,
    retries: u64,
    resets: u64,
    wall_sum: SimTime,
    /// `recovery_time` of every run in which a fault fired.
    recovery: Vec<SimTime>,
}

impl Point {
    fn served_fraction(&self) -> f64 {
        self.served as f64 / self.runs as f64
    }
    fn hw_availability(&self) -> f64 {
        self.hw_served as f64 / self.runs as f64
    }
    fn mean_wall(&self) -> SimTime {
        SimTime::from_ps(self.wall_sum.as_ps() / self.runs)
    }
}

fn run_point(job: &Job, site: FaultSite, rate: f64, seeds: u64) -> Point {
    let (_, overlap) = sites()
        .into_iter()
        .find(|(s, _)| *s == site)
        .expect("known site");
    let mut point = Point::default();
    for seed in 0..seeds {
        let plan = FaultPlan::new(0xFA17 + seed * 7919).rate(site, rate);
        let mut sys = build_system(job, Some(plan), overlap);
        sys.set_software_fallback(adpcm_fallback());
        point.runs += 1;
        match sys.fpga_execute(&job.request.params) {
            Ok(report) => {
                let out = sys.take_object(adpcm_hw::OBJ_OUTPUT).expect("mapped");
                assert_eq!(
                    out, job.expect,
                    "transparency violated: wrong bytes delivered"
                );
                point.served += 1;
                if report.fallback_taken {
                    point.fallbacks += 1;
                } else {
                    point.hw_served += 1;
                }
                point.retries += report.transfer_retries;
                point.resets += report.watchdog_resets;
                point.wall_sum += report.wall;
                if report.injected_faults > 0 {
                    point.recovery.push(report.recovery_time);
                }
            }
            Err(e) => panic!("run with fallback registered must not fail: {e}"),
        }
    }
    point
}

/// Acceptance: with every rate at zero, an armed injector is
/// observationally identical to a plain system.
fn zero_rate_identity(job: &Job) -> bool {
    let params = &job.request.params;
    let mut identical = true;
    for overlap in [false, true] {
        let mut plain = build_system(job, None, overlap);
        let r_plain = plain.fpga_execute(params).expect("plain run");
        let mut armed = build_system(job, Some(FaultPlan::new(1)), overlap);
        let mut r_armed = armed.fpga_execute(params).expect("armed run");
        // The attempt counter is pure bookkeeping (0 when recovery is
        // off); everything else must match exactly.
        r_armed.execute_attempts = r_plain.execute_attempts;
        identical &= r_plain == r_armed
            && plain.vim().counters() == armed.vim().counters()
            && plain.vim().times() == armed.vim().times()
            && plain.imu().counters() == armed.imu().counters();
        identical &=
            plain.take_object(adpcm_hw::OBJ_OUTPUT) == armed.take_object(adpcm_hw::OBJ_OUTPUT);
    }
    identical
}

/// Acceptance: one dropped fault interrupt (synchronous paging) and one
/// lost DMA transfer (overlapped paging) under the default recovery
/// policy are each recovered within the first hardware attempt — served
/// by the coprocessor, no fabric reset, correct bytes.
fn in_place_recovery(job: &Job) -> bool {
    let mut in_place = true;
    for (site, overlap) in [(FaultSite::IrqDrop, false), (FaultSite::DmaTimeout, true)] {
        let plan = FaultPlan::new(0xFA17).once(site, 1);
        let mut sys = build_system(job, Some(plan), overlap);
        sys.set_software_fallback(adpcm_fallback());
        let report = sys
            .fpga_execute(&job.request.params)
            .expect("fallback registered");
        let recovered = report.lost_irqs_polled + report.lost_transfers_resubmitted;
        in_place &= report.injected_faults == 1
            && recovered == 1
            && !report.fallback_taken
            && report.watchdog_resets == 0
            && report.execute_attempts == 1;
        in_place &= sys.take_object(adpcm_hw::OBJ_OUTPUT).as_ref() == Some(&job.expect);
    }
    in_place
}

/// An adpcm and an IDEA tenant, admitted in that order to an EPXA4.
fn mixed_system(plan: Option<FaultPlan>) -> (MultiSystem, Asid, Asid) {
    let mut builder = MultiSystemBuilder::epxa4().scheduler(SchedulerKind::RoundRobin);
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let mut sys = builder.build();
    let mut admit = |kind: AppKind| kind.admit(&mut sys, kind.name()).expect("admit tenant");
    let (adpcm, idea) = (admit(AppKind::Adpcm), admit(AppKind::Idea));
    (sys, adpcm, idea)
}

/// Acceptance: a hard-faulting tenant is degraded to software while its
/// co-tenant's output stays byte-identical to a solo run.
fn isolation_spot_check() -> (bool, u64) {
    // Solo reference: the idea tenant alone on a healthy system.
    let (mut solo, _, idea) = mixed_system(None);
    let idea_job = AppKind::Idea.synthetic_job(2048);
    solo.submit(idea, idea_job.request.clone());
    solo.run().expect("solo run");
    let solo_out: Vec<Vec<u8>> = solo
        .take_completed(idea)
        .into_iter()
        .map(|c| c.outputs.into_iter().next().expect("one output").1)
        .collect();
    assert_eq!(solo_out, vec![idea_job.expect.clone()]);

    // Faulted mixed run: every adpcm transfer corrupt until abort.
    let plan = FaultPlan::new(99)
        .rate(FaultSite::DmaCorrupt, 1.0)
        .target(1);
    let (mut sys, adpcm, idea) = mixed_system(Some(plan));
    sys.set_software_fallback(adpcm, adpcm_fallback());
    let adpcm_job = AppKind::Adpcm.synthetic_job(2048);
    sys.submit(adpcm, adpcm_job.request);
    sys.submit(idea, idea_job.request);
    let report = sys.run().expect("degraded run completes");
    let a_out: Vec<Vec<u8>> = sys
        .take_completed(adpcm)
        .into_iter()
        .map(|c| c.outputs.into_iter().next().expect("one output").1)
        .collect();
    let i_out: Vec<Vec<u8>> = sys
        .take_completed(idea)
        .into_iter()
        .map(|c| c.outputs.into_iter().next().expect("one output").1)
        .collect();
    let isolated = i_out == solo_out && a_out == vec![adpcm_job.expect] && sys.is_degraded(adpcm);
    (isolated, report.fallbacks)
}

fn main() {
    let mut seeds = 12u64;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => seeds = 4,
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);
    println!(
        "Fault-injection sweep — EPXA1, {} KB adpcmdecode, {} seeds per point",
        INPUT_BYTES / 1024,
        seeds
    );
    println!(
        "recovery: bounded retries + in-place poll/re-submit + watchdog reset + \
         software fallback (always registered)\n"
    );

    assert!(
        zero_rate_identity(&job),
        "acceptance: a zero-rate armed injector must be byte-identical to a plain system"
    );
    println!("zero-rate identity: armed injector == plain system (reports and bytes)");

    assert!(
        in_place_recovery(&job),
        "acceptance: one dropped IRQ and one lost transfer must be recovered \
         in place (hardware-served, no reset)"
    );
    println!(
        "in-place recovery: one dropped IRQ (status poll) and one lost transfer \
         (re-submitted) served by hardware, 0 resets"
    );

    let (isolated, iso_fallbacks) = isolation_spot_check();
    assert!(
        isolated,
        "acceptance: co-tenant of a hard-faulting tenant must match its solo run"
    );
    println!(
        "isolation: faulting tenant degraded ({iso_fallbacks} fallback(s)), \
         co-tenant byte-identical to solo run\n"
    );

    let mut table = Table::new(vec![
        "site",
        "rate",
        "runs",
        "served",
        "hw avail",
        "fallbacks",
        "resets",
        "retries",
        "rec p50 us",
        "rec p99 us",
        "tput ret",
    ]);
    for (site, _) in sites() {
        let mut clean_wall = SimTime::ZERO;
        for rate in RATES {
            let point = run_point(&job, site, rate, seeds);
            if rate == 0.0 {
                clean_wall = point.mean_wall();
            }
            let retained = clean_wall.as_ps() as f64 / point.mean_wall().as_ps().max(1) as f64;
            table.row(vec![
                site.name().to_owned(),
                format!("{rate:.2}"),
                point.runs.to_string(),
                format!("{:.2}", point.served_fraction()),
                format!("{:.2}", point.hw_availability()),
                point.fallbacks.to_string(),
                point.resets.to_string(),
                point.retries.to_string(),
                format!("{:.1}", us(percentile(&point.recovery, 0.50))),
                format!("{:.1}", us(percentile(&point.recovery, 0.99))),
                format!("{retained:.3}"),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "every run delivered byte-correct output; hardware availability degrades \
         gracefully into the software fallback"
    );
}
