//! Fault injection, in-place recovery, watchdog resets and transparent
//! software fallback: whatever the injector throws at the platform, the
//! application receives byte-identical results (or a clean error when
//! no fallback is registered), and the detour is visible only in the
//! report's recovery counters.

use vcop::{
    Direction, ElemSize, Error, FaultInjector, FaultPlan, FaultSite, Kernel, MapHints,
    MultiSystemBuilder, RecoveryPolicy, System, SystemBuilder,
};
use vcop_apps::adpcm::hw::{AdpcmCoprocessor, OBJ_OUTPUT};
use vcop_apps::timing;
use vcop_bench::app::{adpcm_fallback, AppKind, Job};
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::loader::LoadError;
use vcop_fabric::port::{Coprocessor, CoprocessorPort, ObjectId, Wake};
use vcop_imu::imu::ImuStats;
use vcop_sim::time::SimTime;
use vcop_vim::{VimCounts, VimError, VimTimes};

/// Bytes of adpcm input every single-request test decodes.
const INPUT_BYTES: usize = 3 * 1024;

/// The lifetime VIM and IMU statistics of `sys`, for comparing two
/// runs beyond their reports.
fn lifetime_stats(sys: &System) -> (VimCounts, VimTimes, ImuStats) {
    (
        sys.vim().counters().clone(),
        sys.vim().times().clone(),
        sys.imu().counters().clone(),
    )
}

/// An adpcm system with `job` mapped, optionally faulty/overlapped.
fn build_adpcm(job: &Job, plan: Option<FaultPlan>, overlap: bool) -> System {
    build_adpcm_on(job, plan, overlap, Kernel::default())
}

/// [`build_adpcm`] on a chosen simulation kernel.
fn build_adpcm_on(job: &Job, plan: Option<FaultPlan>, overlap: bool, kernel: Kernel) -> System {
    let mut builder = SystemBuilder::epxa1()
        .clocks(timing::ADPCM_CORE_FREQ, timing::ADPCM_IMU_FREQ)
        .kernel(kernel);
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
        .fpga_load(&bs.to_bytes(), Box::new(AdpcmCoprocessor::new()))
        .expect("load");
    job.map(&mut system).expect("map objects");
    system
}

#[test]
fn zero_rate_injector_is_byte_identical_to_plain_run() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    let mut plain = build_adpcm(&job, None, false);
    let r_plain = plain.fpga_execute(&job.request.params).expect("plain run");

    // An armed injector whose plan never fires must be observationally
    // invisible: same report, same bytes, no PRNG-induced drift.
    let mut armed = build_adpcm(&job, Some(FaultPlan::new(0xDEAD_BEEF)), false);
    assert!(armed.fault_injector().is_enabled());
    let mut r_armed = armed.fpga_execute(&job.request.params).expect("armed run");

    assert_eq!(r_armed.execute_attempts, 1, "clean first attempt");
    assert_eq!(r_armed.injected_faults, 0);
    assert_eq!(r_armed.watchdog_resets, 0);
    assert_eq!(r_armed.recovery_time, SimTime::ZERO);
    assert!(!r_armed.fallback_taken);
    // The attempt counter is pure bookkeeping (0 when recovery is off);
    // normalise it and demand full equality of everything else.
    r_armed.execute_attempts = r_plain.execute_attempts;
    assert_eq!(r_plain, r_armed);
    assert_eq!(lifetime_stats(&plain), lifetime_stats(&armed));

    let out_plain = plain.take_object(OBJ_OUTPUT).expect("mapped");
    let out_armed = armed.take_object(OBJ_OUTPUT).expect("mapped");
    assert_eq!(out_plain, out_armed);
    assert_eq!(out_plain, job.expect);
}

/// A coprocessor that writes one element in each of a scripted list of
/// pages, hopping across the object so demand paging can never stream:
/// under overlapped paging every hop submits an asynchronous DMA load,
/// keeping both channels busy — exactly the in-flight burst the
/// watchdog tests need to interrupt.
#[derive(Debug)]
struct PageHopper {
    targets: Vec<u32>,
    pos: usize,
    state: u8, // 0 wait, 1 fetch param, 2 await, 3 issue, 4 await, 5 done
}

/// The value PageHopper stores at element `index`.
fn hop_value(index: u32) -> u32 {
    index.wrapping_mul(0x9E37_79B9) | 1
}

impl Coprocessor for PageHopper {
    fn name(&self) -> &str {
        "page-hopper"
    }

    fn reset(&mut self) {
        self.pos = 0;
        self.state = 0;
    }

    fn step(&mut self, port: &mut CoprocessorPort) {
        match self.state {
            0 if port.started() => self.state = 1,
            1 if port.can_issue() => {
                port.issue_read(ObjectId::PARAM, 0);
                self.state = 2;
            }
            2 if port.take_completed().is_some() => {
                port.param_done();
                self.state = 3;
            }
            3 => {
                if self.pos == self.targets.len() {
                    port.finish();
                    self.state = 5;
                } else if port.can_issue() {
                    let index = self.targets[self.pos];
                    port.issue_write(ObjectId(0), index, hop_value(index));
                    self.state = 4;
                }
            }
            4 if port.take_completed().is_some() => {
                self.pos += 1;
                self.state = 3;
            }
            _ => {}
        }
    }

    fn is_finished(&self) -> bool {
        self.state == 5
    }

    fn next_wake(&self, port: &CoprocessorPort) -> Wake {
        let gate = |acts: bool| if acts { Wake::In(1) } else { Wake::Never };
        match self.state {
            0 => gate(port.started()),
            1 => gate(port.can_issue()),
            2 | 4 => gate(port.peek_completed().is_some()),
            3 if self.pos == self.targets.len() => Wake::In(1),
            3 => gate(port.can_issue()),
            _ => Wake::Never,
        }
    }
}

/// Runs the page hopper over a 16-page object (EPXA1 has 8 frames, so
/// the hops page constantly) and returns (report, final object bytes).
fn run_hopper(plan: Option<FaultPlan>) -> (vcop::ExecutionReport, Vec<u8>) {
    const ELEMS_PER_PAGE: u32 = 512; // 2 KB pages of u32
    let order: &[u32] = &[0, 5, 10, 15, 1, 6, 11, 2, 7, 12, 3, 8, 13, 4, 9, 14];
    let targets: Vec<u32> = order.iter().map(|p| p * ELEMS_PER_PAGE + 7).collect();

    let mut builder = SystemBuilder::epxa1().overlap(true).dma_channels(2);
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let mut system = builder.build();
    let bs = Bitstream::builder("page-hopper").build();
    system
        .fpga_load(
            &bs.to_bytes(),
            Box::new(PageHopper {
                targets: targets.clone(),
                pos: 0,
                state: 0,
            }),
        )
        .expect("load");
    let data: Vec<u8> = (0..16 * 2048u32).map(|i| i as u8).collect();
    system
        .fpga_map_object(
            ObjectId(0),
            data,
            ElemSize::U32,
            Direction::InOut,
            MapHints::default(),
        )
        .expect("map");
    let report = system.fpga_execute(&[targets.len() as u32]).expect("run");
    let out = system.take_object(ObjectId(0)).expect("mapped");
    (report, out)
}

#[test]
fn watchdog_recovers_lost_dma_mid_burst() {
    // Fault-free reference, and a sanity check that the workload really
    // keeps several asynchronous transfers in flight.
    let (r_clean, clean) = run_hopper(None);
    assert!(
        r_clean.dma_transfers >= 8,
        "hopper must generate a DMA burst, got {}",
        r_clean.dma_transfers
    );

    // Silently lose the 4th DMA submission — the middle of the burst.
    // No completion interrupt will ever arrive; the driver's deadline
    // expires when the transfer would have completed and re-submits it
    // under the transfer retry budget, without resetting the fabric.
    let plan = FaultPlan::new(5).once(FaultSite::DmaTimeout, 4);
    let (report, out) = run_hopper(Some(plan));

    assert_eq!(report.injected_faults, 1, "exactly the scheduled loss");
    assert_eq!(report.execute_attempts, 1, "recovered within the attempt");
    assert_eq!(report.watchdog_resets, 0, "no fabric reset");
    assert_eq!(report.lost_transfers_resubmitted, 1);
    assert_eq!(report.transfer_retries, 1);
    assert!(!report.fallback_taken);
    assert!(report.wall >= report.recovery_time);
    assert_eq!(out, clean, "recovered bytes match the fault-free run");
}

#[test]
fn watchdog_recovers_lost_demand_page() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    // The adpcm stream's one demand transfer is silently dropped: the
    // coprocessor stalls on a page that will not arrive until the
    // deadline re-submits its transfer.
    let plan = FaultPlan::new(5).once(FaultSite::DmaTimeout, 1);
    let mut sys = build_adpcm(&job, Some(plan), true);
    let report = sys
        .fpga_execute(&job.request.params)
        .expect("recovered run");

    assert_eq!(report.injected_faults, 1);
    assert_eq!(report.execute_attempts, 1, "recovered within the attempt");
    assert_eq!(report.watchdog_resets, 0, "no fabric reset");
    assert_eq!(report.lost_transfers_resubmitted, 1);
    assert!(
        report.recovery_time > SimTime::ZERO,
        "the deadline the coprocessor sat out is recovery time"
    );
    assert!(!report.fallback_taken);
    assert_eq!(sys.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);
}

#[test]
fn lost_transfers_escalate_when_the_retry_budget_is_spent() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    // Every submission and every re-submission is lost: the retry
    // budget runs out, the watchdog resets the fabric, and after the
    // last hardware attempt the software twin serves the request.
    let plan = FaultPlan::new(13).rate(FaultSite::DmaTimeout, 1.0);
    let mut sys = build_adpcm(&job, Some(plan), true);
    sys.set_software_fallback(adpcm_fallback());
    let report = sys
        .fpga_execute(&job.request.params)
        .expect("fallback serves the app");

    assert!(report.fallback_taken);
    assert_eq!(
        report.execute_attempts,
        u64::from(RecoveryPolicy::default().max_attempts),
        "all hardware attempts were spent first"
    );
    assert!(report.watchdog_resets >= 1, "watchdog reset the fabric");
    assert!(
        report.lost_transfers_resubmitted > 0,
        "re-submission was tried first"
    );
    assert!(report.recovery_time > SimTime::ZERO);
    assert_eq!(sys.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);
}

#[test]
fn dropped_fault_irq_is_caught_by_watchdog() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    // Drop the very first translation-fault interrupt: the IMU sits
    // faulted and the OS is never told, until the no-progress watchdog
    // reads the status register, finds the latched miss and serves it.
    let plan = FaultPlan::new(7).once(FaultSite::IrqDrop, 1);
    let mut sys = build_adpcm(&job, Some(plan), false);
    sys.set_recovery(Some(RecoveryPolicy {
        watchdog_edges: Some(20_000),
        ..RecoveryPolicy::default()
    }));
    let report = sys
        .fpga_execute(&job.request.params)
        .expect("recovered run");

    assert_eq!(report.injected_faults, 1);
    assert_eq!(report.execute_attempts, 1, "recovered within the attempt");
    assert_eq!(report.watchdog_resets, 0, "no fabric reset");
    assert_eq!(report.lost_irqs_polled, 1);
    assert!(!report.fallback_taken);
    assert_eq!(sys.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);
}

#[test]
fn dropped_irq_window_closes_the_layer_sum() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    // Synchronous paging with one dropped fault interrupt under the
    // default policy: the watchdog's detection window is recovery time,
    // charged once, so the layers add up to the wall time exactly.
    let plan = FaultPlan::new(7).once(FaultSite::IrqDrop, 1);
    let mut sys = build_adpcm(&job, Some(plan), false);
    let report = sys
        .fpga_execute(&job.request.params)
        .expect("recovered run");

    assert_eq!(report.lost_irqs_polled, 1);
    assert_eq!(report.watchdog_resets, 0);
    assert!(report.recovery_time > SimTime::ZERO);
    assert_eq!(
        report.wall,
        report.hw + report.sw_dp + report.sw_imu + report.recovery_time,
        "layers must add up to the picosecond"
    );
    assert_eq!(sys.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);

    // Every other layer equals the fault-free run's: the window moved
    // out of `hw` and into recovery, nothing else changed.
    let mut clean = build_adpcm(&job, None, false);
    let r_clean = clean.fpga_execute(&job.request.params).expect("clean run");
    assert_eq!(r_clean.wall, r_clean.hw + r_clean.sw_dp + r_clean.sw_imu);
    assert_eq!(report.hw, r_clean.hw);
    assert_eq!(report.sw_dp, r_clean.sw_dp);
    assert_eq!(report.sw_imu, r_clean.sw_imu);
    assert_eq!(report.wall, r_clean.wall + report.recovery_time);

    // One delayed fault interrupt: the late delivery lengthens the
    // stall and is charged to recovery, once, to the picosecond.
    let plan = FaultPlan::new(7).once(FaultSite::IrqDelay, 1);
    let mut delayed = build_adpcm(&job, Some(plan), false);
    let r_delay = delayed
        .fpga_execute(&job.request.params)
        .expect("delayed run");
    let delay = SimTime::from_ps(
        timing::ADPCM_IMU_FREQ.period().as_ps() * delayed.fault_injector().irq_delay_edges(),
    );
    assert_eq!(delayed.fault_injector().fired(FaultSite::IrqDelay), 1);
    assert_eq!(r_delay.recovery_time, delay);
    assert_eq!(
        r_delay.wall,
        r_delay.hw + r_delay.sw_dp + r_delay.sw_imu + r_delay.recovery_time,
        "a delayed IRQ must close the layer sum to the picosecond"
    );
    assert_eq!(r_delay.hw, r_clean.hw);
    assert_eq!(r_delay.sw_dp, r_clean.sw_dp);
    assert_eq!(r_delay.sw_imu, r_clean.sw_imu);
    assert_eq!(delayed.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);
}

#[test]
fn kernels_agree_under_every_fault_site() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    // Every site armed at once, in both paging modes: the stepped
    // reference kernel and the event-driven one must take the same
    // recovery decisions (status polls, re-submissions, resets,
    // fallbacks) at the same instants, and both deliver correct bytes.
    let mut polled = 0;
    let mut resubmitted = 0;
    for overlap in [false, true] {
        for seed in 1..=4 {
            let reports: Vec<_> = [Kernel::Stepped, Kernel::EventDriven]
                .into_iter()
                .map(|kernel| {
                    let plan = FaultSite::ALL
                        .into_iter()
                        .fold(FaultPlan::new(seed), |p, site| p.rate(site, 0.1));
                    let mut sys = build_adpcm_on(&job, Some(plan), overlap, kernel);
                    sys.set_software_fallback(adpcm_fallback());
                    let report = sys.fpga_execute(&job.request.params).expect("served");
                    assert_eq!(sys.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);
                    (report, lifetime_stats(&sys))
                })
                .collect();
            assert_eq!(reports[0], reports[1], "overlap {overlap}, seed {seed}");
            polled += reports[0].0.lost_irqs_polled;
            resubmitted += reports[0].0.lost_transfers_resubmitted;
        }
    }
    assert!(polled > 0, "some dropped IRQ was polled");
    assert!(resubmitted > 0, "some lost transfer was re-submitted");
}

#[test]
fn exhausted_retries_fall_back_to_software() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    // Every page transfer arrives corrupt: bounded retries exhaust,
    // every hardware attempt dies, and the registered software twin
    // serves the request transparently.
    let plan = FaultPlan::new(11).rate(FaultSite::DmaCorrupt, 1.0);
    let mut sys = build_adpcm(&job, Some(plan), false);
    sys.set_software_fallback(adpcm_fallback());
    let report = sys
        .fpga_execute(&job.request.params)
        .expect("fallback serves the app");

    assert!(report.fallback_taken);
    assert_eq!(
        report.execute_attempts,
        u64::from(RecoveryPolicy::default().max_attempts),
        "all hardware attempts were spent first"
    );
    assert!(report.transfer_retries > 0, "retries were tried first");
    assert!(report.injected_faults > 0);
    assert!(report.recovery_time > SimTime::ZERO);
    assert!(
        report.wall > report.recovery_time,
        "fallback CPU time added"
    );
    assert_eq!(sys.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);
}

#[test]
fn exhausted_retries_without_fallback_surface_the_error() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    let plan = FaultPlan::new(11).rate(FaultSite::DmaCorrupt, 1.0);
    let mut sys = build_adpcm(&job, Some(plan), false);
    let err = sys
        .fpga_execute(&job.request.params)
        .expect_err("no fallback registered");
    assert!(
        matches!(err, Error::Vim(VimError::TransferFault { .. })),
        "the original hardware cause is surfaced, got: {err}"
    );
}

#[test]
fn parity_upsets_are_absorbed_or_served_in_software() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    // Flip a translation entry after every synchronous fault service.
    // Upsets on clean pages re-resolve; an upset on a dirty page loses
    // data and burns the whole attempt. Either way the application
    // sees the right bytes.
    let plan = FaultPlan::new(23).rate(FaultSite::TlbParity, 1.0);
    let mut sys = build_adpcm(&job, Some(plan), false);
    sys.set_software_fallback(adpcm_fallback());
    let report = sys
        .fpga_execute(&job.request.params)
        .expect("run completes");

    assert!(report.injected_faults > 0, "upsets actually fired");
    assert_eq!(sys.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);
}

#[test]
fn bus_stalls_delay_but_never_corrupt() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);

    let mut clean = build_adpcm(&job, None, true);
    let r_clean = clean.fpga_execute(&job.request.params).expect("clean run");

    let plan = FaultPlan::new(31).rate(FaultSite::BusStall, 0.5);
    let mut sys = build_adpcm(&job, Some(plan), true);
    let report = sys.fpga_execute(&job.request.params).expect("stalled run");

    assert!(report.injected_faults > 0, "stalls actually fired");
    assert!(!report.fallback_taken);
    assert_eq!(report.watchdog_resets, 0, "late is not lost");
    assert!(
        report.wall >= r_clean.wall,
        "starved transfers cannot speed things up"
    );
    assert_eq!(sys.take_object(OBJ_OUTPUT).expect("mapped"), job.expect);
}

#[test]
fn dead_fabric_fails_configuration_cleanly() {
    // Every configuration pass fails CRC: FPGA_LOAD gives up after the
    // policy's bounded passes and reports the attempt count.
    let plan = FaultPlan::new(3).rate(FaultSite::BitstreamLoad, 1.0);
    let mut system = SystemBuilder::epxa1().faults(plan).build();
    let bs = Bitstream::builder("adpcmdecode")
        .synthetic_payload(2048)
        .build();
    let err = system
        .fpga_load(&bs.to_bytes(), Box::new(AdpcmCoprocessor::new()))
        .expect_err("configuration can never succeed");
    match err {
        Error::Load(LoadError::ConfigurationFault { attempts }) => {
            assert_eq!(
                attempts,
                RecoveryPolicy::default().max_load_attempts,
                "bounded by the recovery policy"
            );
        }
        other => panic!("expected a configuration fault, got: {other}"),
    }
}

/// The platform configurations of the fault-site matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    SingleSync,
    SingleOverlap,
    MultiTenant,
}

/// Serves the adpcm workload with `plan` armed in `mode` — one request
/// on a `System`, or one request for each of two tenants sharing a
/// `MultiSystem` — with software fallbacks registered. Returns each
/// request's output bytes or typed error, and the fault injector.
fn serve_under(
    plan: FaultPlan,
    mode: Mode,
    job: &Job,
) -> (Vec<Result<Vec<u8>, Error>>, FaultInjector) {
    let kind = AppKind::Adpcm;
    if mode == Mode::MultiTenant {
        let mut sys = MultiSystemBuilder::epxa4().faults(plan).build();
        let mut tenants = Vec::new();
        for name in ["adpcm0", "adpcm1"] {
            match kind.admit(&mut sys, name) {
                Ok(asid) => tenants.push(asid),
                Err(e) => return (vec![Err(e)], sys.fault_injector().clone()),
            }
        }
        for &asid in &tenants {
            sys.set_software_fallback(asid, adpcm_fallback());
            sys.submit(asid, job.request.clone());
        }
        let outcome = match sys.run() {
            Ok(_) => tenants
                .iter()
                .map(|&asid| {
                    let mut done = sys.take_completed(asid);
                    assert_eq!(done.len(), 1, "one completed request per tenant");
                    Ok(done.remove(0).outputs.remove(0).1)
                })
                .collect(),
            Err(e) => vec![Err(e)],
        };
        return (outcome, sys.fault_injector().clone());
    }
    let mut builder = SystemBuilder::epxa1()
        .clocks(kind.cp_freq(), kind.imu_freq())
        .faults(plan);
    if mode == Mode::SingleOverlap {
        builder = builder.overlap(true).dma_channels(2);
    }
    let mut sys = builder.build();
    sys.set_software_fallback(adpcm_fallback());
    let bs = Bitstream::builder("adpcmdecode")
        .synthetic_payload(2048)
        .build();
    let outcome = sys
        .fpga_load(&bs.to_bytes(), kind.core())
        .and_then(|_| {
            job.map(&mut sys)?;
            sys.fpga_execute(&job.request.params)
        })
        .map(|_| sys.take_object(OBJ_OUTPUT).expect("mapped"));
    (vec![outcome], sys.fault_injector().clone())
}

#[test]
fn every_fault_site_in_every_mode_serves_correct_bytes_or_a_typed_error() {
    let job = AppKind::Adpcm.synthetic_job(INPUT_BYTES);
    for mode in [Mode::SingleSync, Mode::SingleOverlap, Mode::MultiTenant] {
        for site in FaultSite::ALL {
            let mut fired = 0;
            let mut opportunities = 0;
            for seed in 1..=4 {
                let plan = FaultPlan::new(0xFA17 + seed * 7919).rate(site, 0.5);
                // A panic or a hang past the edge budget fails the test
                // here; anything else must be the right bytes or an
                // error value.
                let (outcomes, injector) = serve_under(plan, mode, &job);
                for bytes in outcomes.into_iter().flatten() {
                    assert_eq!(bytes, job.expect, "{mode:?}, {site:?}, seed {seed}");
                }
                fired += injector.fired(site);
                opportunities += injector.opportunities(site);
            }
            // Two sites have no opportunity in some modes. A parity
            // upset is rolled while the synchronous fault handler has the
            // IMU open, and with overlapped paging (always on for a
            // shared fabric) no handler runs synchronously. A DMA timeout
            // is rolled when a transfer is submitted to the DMA engine,
            // which synchronous paging does not use.
            let no_opportunity = match site {
                FaultSite::TlbParity => mode != Mode::SingleSync,
                FaultSite::DmaTimeout => mode == Mode::SingleSync,
                _ => false,
            };
            if no_opportunity {
                assert_eq!(opportunities, 0, "{site:?} now rolls in {mode:?}");
                continue;
            }
            assert!(fired > 0, "{site:?} never fired in {mode:?}");
        }
    }
}
