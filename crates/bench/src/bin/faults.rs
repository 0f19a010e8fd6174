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
    Direction, ElemSize, FallbackFn, FaultPlan, FaultSite, MapHints, MultiSystemBuilder, Request,
    RequestObject, SchedulerKind, SoftwareFallback, System, SystemBuilder,
};
use vcop_apps::adpcm::codec as adpcm_codec;
use vcop_apps::adpcm::hw as adpcm_hw;
use vcop_apps::idea::cipher as idea_cipher;
use vcop_apps::idea::hw as idea_hw;
use vcop_apps::timing;
use vcop_bench::table::Table;
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::device::DeviceKind;
use vcop_fabric::resources::Resources;
use vcop_sim::time::{Frequency, SimTime};

const INPUT_BYTES: usize = 4096;
const RATES: [f64; 5] = [0.0, 0.05, 0.2, 0.5, 1.0];

fn us(t: SimTime) -> f64 {
    t.as_ms_f64() * 1e3
}

/// The swept sites and the paging mode that exposes each of them.
fn sites() -> [(FaultSite, bool); 4] {
    [
        (FaultSite::DmaCorrupt, false),
        (FaultSite::DmaTimeout, true),
        (FaultSite::IrqDrop, false),
        (FaultSite::TlbParity, false),
    ]
}

/// Nearest-rank percentile of kept samples: always an observed value
/// (zero when there are none).
fn percentile(samples: &[SimTime], q: f64) -> SimTime {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    match sorted.len() {
        0 => SimTime::ZERO,
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Synthetic adpcm workload: (coded input, expected output bytes).
fn workload() -> (Vec<u8>, Vec<u8>) {
    let pcm = adpcm_codec::synthetic_pcm(INPUT_BYTES * 2);
    let coded = adpcm_codec::encode(&pcm, &mut ());
    let (expected, _) = timing::adpcm_sw(&coded);
    let expect_bytes = expected
        .iter()
        .flat_map(|s| (*s as u16).to_le_bytes())
        .collect();
    (coded, expect_bytes)
}

fn adpcm_fallback() -> Box<dyn SoftwareFallback> {
    Box::new(FallbackFn::new("adpcm-sw", |io, params| {
        let n = params[0] as usize;
        let input = io.object(adpcm_hw::OBJ_INPUT).ok_or("input not mapped")?[..n].to_vec();
        let (samples, cpu) = timing::adpcm_sw(&input);
        let out = io
            .object_mut(adpcm_hw::OBJ_OUTPUT)
            .ok_or("output not mapped")?;
        for (chunk, s) in out.chunks_exact_mut(2).zip(&samples) {
            chunk.copy_from_slice(&(*s as u16).to_le_bytes());
        }
        Ok(cpu)
    }))
}

fn build_system(coded: &[u8], plan: Option<FaultPlan>, overlap: bool) -> System {
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
        .fpga_load(&bs.to_bytes(), Box::new(adpcm_hw::AdpcmCoprocessor::new()))
        .expect("load");
    let hints = MapHints {
        sequential: true,
        ..Default::default()
    };
    system
        .fpga_map_object(
            adpcm_hw::OBJ_INPUT,
            coded.to_vec(),
            ElemSize::U8,
            Direction::In,
            hints,
        )
        .expect("map input");
    system
        .fpga_map_object(
            adpcm_hw::OBJ_OUTPUT,
            vec![0; coded.len() * 4],
            ElemSize::U16,
            Direction::Out,
            hints,
        )
        .expect("map output");
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

fn run_point(coded: &[u8], expect: &[u8], site: FaultSite, rate: f64, seeds: u64) -> Point {
    let (_, overlap) = sites()
        .into_iter()
        .find(|(s, _)| *s == site)
        .expect("known site");
    let n = coded.len() as u32;
    let mut point = Point::default();
    for seed in 0..seeds {
        let plan = FaultPlan::new(0xFA17 + seed * 7919).rate(site, rate);
        let mut sys = build_system(coded, Some(plan), overlap);
        sys.set_software_fallback(adpcm_fallback());
        point.runs += 1;
        match sys.fpga_execute(&[n]) {
            Ok(report) => {
                let out = sys.take_object(adpcm_hw::OBJ_OUTPUT).expect("mapped");
                assert_eq!(out, expect, "transparency violated: wrong bytes delivered");
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
fn zero_rate_identity(coded: &[u8]) -> bool {
    let n = coded.len() as u32;
    let mut identical = true;
    for overlap in [false, true] {
        let mut plain = build_system(coded, None, overlap);
        let r_plain = plain.fpga_execute(&[n]).expect("plain run");
        let mut armed = build_system(coded, Some(FaultPlan::new(1)), overlap);
        let mut r_armed = armed.fpga_execute(&[n]).expect("armed run");
        // The attempt counter is pure bookkeeping (0 when recovery is
        // off); everything else must match exactly.
        r_armed.execute_attempts = r_plain.execute_attempts;
        identical &= r_plain == r_armed;
        identical &=
            plain.take_object(adpcm_hw::OBJ_OUTPUT) == armed.take_object(adpcm_hw::OBJ_OUTPUT);
    }
    identical
}

/// Acceptance: one dropped fault interrupt (synchronous paging) and one
/// lost DMA transfer (overlapped paging) under the default recovery
/// policy are each recovered within the first hardware attempt — served
/// by the coprocessor, no fabric reset, correct bytes.
fn in_place_recovery(coded: &[u8], expect: &[u8]) -> bool {
    let n = coded.len() as u32;
    let mut in_place = true;
    for (site, overlap) in [(FaultSite::IrqDrop, false), (FaultSite::DmaTimeout, true)] {
        let plan = FaultPlan::new(0xFA17).once(site, 1);
        let mut sys = build_system(coded, Some(plan), overlap);
        sys.set_software_fallback(adpcm_fallback());
        let report = sys.fpga_execute(&[n]).expect("fallback registered");
        let recovered = report.lost_irqs_polled + report.lost_transfers_resubmitted;
        in_place &= report.injected_faults == 1
            && recovered == 1
            && !report.fallback_taken
            && report.watchdog_resets == 0
            && report.execute_attempts == 1;
        in_place &= sys.take_object(adpcm_hw::OBJ_OUTPUT).as_deref() == Some(expect);
    }
    in_place
}

fn adpcm_request(n: usize) -> (Request, Vec<u8>) {
    let pcm = adpcm_codec::synthetic_pcm(n * 2);
    let input = adpcm_codec::encode(&pcm, &mut ());
    let expect = adpcm_codec::decode(&input, &mut ())
        .iter()
        .flat_map(|s| (*s as u16).to_le_bytes())
        .collect();
    let hints = MapHints {
        sequential: true,
        ..Default::default()
    };
    let req = Request {
        objects: vec![
            RequestObject {
                id: adpcm_hw::OBJ_INPUT,
                data: input,
                elem: ElemSize::U8,
                direction: Direction::In,
                hints,
            },
            RequestObject {
                id: adpcm_hw::OBJ_OUTPUT,
                data: vec![0u8; n * 4],
                elem: ElemSize::U16,
                direction: Direction::Out,
                hints,
            },
        ],
        params: vec![n as u32],
    };
    (req, expect)
}

fn idea_request(n: usize) -> (Request, Vec<u8>) {
    let pt = idea_cipher::synthetic_plaintext(n);
    let ek = idea_cipher::expand_key(idea_cipher::IdeaKey([1, 2, 3, 4, 5, 6, 7, 8]));
    let ct = idea_cipher::crypt_buffer(&pt, &ek, &mut ());
    let expect = idea_cipher::pack_words(&ct);
    let mut params = vec![(n / idea_cipher::BLOCK_BYTES) as u32];
    params.extend(ek.iter().map(|&k| u32::from(k)));
    let hints = MapHints {
        sequential: true,
        ..Default::default()
    };
    let req = Request {
        objects: vec![
            RequestObject {
                id: idea_hw::OBJ_INPUT,
                data: idea_cipher::pack_words(&pt),
                elem: ElemSize::U16,
                direction: Direction::In,
                hints,
            },
            RequestObject {
                id: idea_hw::OBJ_OUTPUT,
                data: vec![0u8; n],
                elem: ElemSize::U16,
                direction: Direction::Out,
                hints,
            },
        ],
        params,
    };
    (req, expect)
}

fn mixed_system(
    plan: Option<FaultPlan>,
) -> (vcop::MultiSystem, vcop_imu::tlb::Asid, vcop_imu::tlb::Asid) {
    let mut builder = MultiSystemBuilder::epxa4().scheduler(SchedulerKind::RoundRobin);
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let mut sys = builder.build();
    let adpcm = sys
        .add_tenant(
            "adpcm",
            1,
            Frequency::from_mhz(40),
            Frequency::from_mhz(40),
            &Bitstream::builder("adpcmdecode")
                .device(DeviceKind::Epxa4)
                .resources(Resources::new(1_100, 6_144))
                .core_clock(timing::ADPCM_CORE_FREQ)
                .synthetic_payload(48 * 1024)
                .build()
                .to_bytes(),
            Box::new(adpcm_hw::AdpcmCoprocessor::new()),
        )
        .expect("admit adpcm");
    let idea = sys
        .add_tenant(
            "idea",
            1,
            Frequency::from_mhz(6),
            Frequency::from_mhz(24),
            &Bitstream::builder("idea")
                .device(DeviceKind::Epxa4)
                .resources(Resources::new(3_600, 24_576))
                .core_clock(timing::IDEA_CORE_FREQ)
                .synthetic_payload(96 * 1024)
                .build()
                .to_bytes(),
            Box::new(idea_hw::IdeaCoprocessor::new()),
        )
        .expect("admit idea");
    (sys, adpcm, idea)
}

/// Acceptance: a hard-faulting tenant is degraded to software while its
/// co-tenant's output stays byte-identical to a solo run.
fn isolation_spot_check() -> (bool, u64) {
    // Solo reference: the idea tenant alone on a healthy system.
    let (mut solo, _, idea) = mixed_system(None);
    let (ireq, iexp) = idea_request(2048);
    solo.submit(idea, ireq);
    solo.run().expect("solo run");
    let solo_out: Vec<Vec<u8>> = solo
        .take_completed(idea)
        .into_iter()
        .map(|c| c.outputs.into_iter().next().expect("one output").1)
        .collect();
    assert_eq!(solo_out, vec![iexp.clone()]);

    // Faulted mixed run: every adpcm transfer corrupt until abort.
    let plan = FaultPlan::new(99)
        .rate(FaultSite::DmaCorrupt, 1.0)
        .target(1);
    let (mut sys, adpcm, idea) = mixed_system(Some(plan));
    sys.set_software_fallback(adpcm, adpcm_fallback());
    let (areq, aexp) = adpcm_request(2048);
    let (ireq, _) = idea_request(2048);
    sys.submit(adpcm, areq);
    sys.submit(idea, ireq);
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
    let isolated = i_out == solo_out && a_out == vec![aexp] && sys.is_degraded(adpcm);
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

    let (coded, expect) = workload();
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
        zero_rate_identity(&coded),
        "acceptance: a zero-rate armed injector must be byte-identical to a plain system"
    );
    println!("zero-rate identity: armed injector == plain system (reports and bytes)");

    assert!(
        in_place_recovery(&coded, &expect),
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
            let point = run_point(&coded, &expect, site, rate, seeds);
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
