//! Multi-tenant serving: end-to-end correctness and isolation.
//!
//! Two real workloads (adpcmdecode and IDEA) share one EPXA4 fabric
//! under the time-slicing engine. The tests check that (a) every
//! tenant's outputs are bit-identical to the software references no
//! matter how the streams interleave, (b) context switches happen only
//! at stall boundaries, and (c) the ASID tagging actually isolates
//! translations (a property test over random interleavings).

use proptest::prelude::*;
use vcop::{
    Error, FaultPlan, FaultSite, Kernel, MultiReport, MultiSystem, MultiSystemBuilder, PolicyKind,
    SchedulerKind,
};
use vcop_bench::app::{adpcm_fallback, AppKind};
use vcop_bench::serving::{adpcm_request, idea_request};
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::device::DeviceKind;
use vcop_fabric::resources::Resources;
use vcop_imu::tlb::Asid;
use vcop_vim::VimError;

fn mixed_system(scheduler: SchedulerKind, partition: bool) -> (MultiSystem, Asid, Asid) {
    mixed_system_with(scheduler, partition, None)
}

fn mixed_system_with(
    scheduler: SchedulerKind,
    partition: bool,
    faults: Option<FaultPlan>,
) -> (MultiSystem, Asid, Asid) {
    let mut builder = MultiSystemBuilder::epxa4()
        .scheduler(scheduler)
        .partition(partition);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    mixed_system_from(builder)
}

/// An adpcm tenant and an IDEA tenant admitted, in that order, to the
/// system `builder` assembles.
fn mixed_system_from(builder: MultiSystemBuilder) -> (MultiSystem, Asid, Asid) {
    let mut sys = builder.build();
    let mut admit = |kind: AppKind| kind.admit(&mut sys, kind.name()).expect("admit tenant");
    let (adpcm, idea) = (admit(AppKind::Adpcm), admit(AppKind::Idea));
    (sys, adpcm, idea)
}

/// Collects the single output buffer of each completed request.
fn output_bytes(sys: &mut MultiSystem, asid: Asid) -> Vec<Vec<u8>> {
    sys.take_completed(asid)
        .into_iter()
        .map(|c| {
            assert_eq!(c.outputs.len(), 1, "one output object per request");
            assert!(c.finished > c.started);
            c.outputs.into_iter().next().unwrap().1
        })
        .collect()
}

#[test]
fn two_tenants_produce_reference_outputs() {
    let (mut sys, adpcm, idea) = mixed_system(SchedulerKind::RoundRobin, false);
    let (areq, aexp) = adpcm_request(2048, 0);
    let (ireq, iexp) = idea_request(4096, 0);
    sys.submit(adpcm, areq);
    sys.submit(idea, ireq);
    let report = sys.run().expect("mixed run completes");

    assert_eq!(report.requests, 2);
    assert_eq!(report.scheduler, "round-robin");
    assert!(report.ctx_switches >= 2, "both tenants occupied the IMU");
    let adpcm_out = output_bytes(&mut sys, adpcm);
    let idea_out = output_bytes(&mut sys, idea);
    assert_eq!(adpcm_out, vec![aexp]);
    assert_eq!(idea_out, vec![iexp]);

    // Both tenants faulted (demand paging) and their faults parked them
    // rather than idling the fabric.
    for t in &report.tenants {
        assert!(t.stats.faults > 0, "{} never faulted", t.name);
        assert_eq!(t.stats.completed, 1);
    }
}

#[test]
fn deficit_scheduler_also_produces_reference_outputs() {
    let (mut sys, adpcm, idea) = mixed_system(SchedulerKind::DeficitRoundRobin, false);
    let mut expect_a = Vec::new();
    let mut expect_i = Vec::new();
    for salt in 0..2 {
        let (areq, aexp) = adpcm_request(2048, salt);
        let (ireq, iexp) = idea_request(2048, salt);
        sys.submit(adpcm, areq);
        sys.submit(idea, ireq);
        expect_a.push(aexp);
        expect_i.push(iexp);
    }
    let report = sys.run().expect("mixed run completes");
    assert_eq!(report.requests, 4);
    assert_eq!(report.scheduler, "deficit-weighted");
    assert_eq!(output_bytes(&mut sys, adpcm), expect_a);
    assert_eq!(output_bytes(&mut sys, idea), expect_i);
}

#[test]
fn partitioned_frames_produce_reference_outputs() {
    let (mut sys, adpcm, idea) = mixed_system(SchedulerKind::RoundRobin, true);
    let (areq, aexp) = adpcm_request(4096, 1);
    let (ireq, iexp) = idea_request(4096, 1);
    sys.submit(adpcm, areq);
    sys.submit(idea, ireq);
    let report = sys.run().expect("partitioned run completes");
    assert_eq!(output_bytes(&mut sys, adpcm), vec![aexp]);
    assert_eq!(output_bytes(&mut sys, idea), vec![iexp]);
    // Partitioned tenants can never steal each other's frames.
    assert_eq!(report.cross_asid_steals, 0);
}

#[test]
fn partition_too_small_for_another_tenant_is_an_error_that_changes_nothing() {
    // Four frames give two tenants two each; a third would get one.
    let builder = || MultiSystemBuilder::epxa4().partition(true).frame_limit(4);
    let (mut sys, adpcm, idea) = mixed_system_from(builder());
    let page = sys.device().page_bytes;
    match AppKind::Idea.admit(&mut sys, "third") {
        Err(vcop::Error::ExceedsMemory {
            required,
            available,
        }) => assert_eq!((required, available), (3 * 2 * page, 4 * page)),
        other => panic!("third tenant admitted into one frame: {other:?}"),
    }

    let run = |sys: &mut MultiSystem| {
        let (areq, aexp) = adpcm_request(512, 0);
        let (ireq, iexp) = idea_request(512, 0);
        sys.submit(adpcm, areq);
        sys.submit(idea, ireq);
        let report = sys.run().expect("both tenants still serve");
        assert_eq!(output_bytes(sys, adpcm), vec![aexp]);
        assert_eq!(output_bytes(sys, idea), vec![iexp]);
        report.config_time
    };
    let two_loads = run(&mut mixed_system_from(builder()).0);
    assert_eq!(
        run(&mut sys),
        two_loads,
        "the rejected tenant was never loaded"
    );
}

#[test]
fn single_tenant_never_context_switches_mid_run() {
    // Preemption happens only at stall boundaries, and a lone tenant is
    // re-picked at every boundary: the IMU context is loaded exactly
    // once no matter how many faults and requests the run spans.
    let mut sys = MultiSystemBuilder::epxa4().build();
    let adpcm = AppKind::Adpcm
        .admit(&mut sys, "adpcm")
        .expect("admit tenant");
    let mut expect = Vec::new();
    for salt in 0..3 {
        let (req, exp) = adpcm_request(4096, salt);
        sys.submit(adpcm, req);
        expect.push(exp);
    }
    let report = sys.run().expect("solo run completes");
    assert_eq!(report.requests, 3);
    assert_eq!(report.ctx_switches, 1, "context loaded once, never evicted");
    assert!(report.tenants[0].stats.faults > 0);
    assert_eq!(output_bytes(&mut sys, adpcm), expect);
}

#[test]
fn context_switches_bounded_by_stall_boundaries() {
    // Each scheduling decision happens at a yield point: a parking
    // fault or a request completion. The engine can therefore never
    // switch contexts more often than it yields.
    let (mut sys, adpcm, idea) = mixed_system(SchedulerKind::RoundRobin, false);
    for salt in 0..2 {
        sys.submit(adpcm, adpcm_request(2048, salt).0);
        sys.submit(idea, idea_request(2048, salt).0);
    }
    let report = sys.run().expect("mixed run completes");
    let yields: u64 = report
        .tenants
        .iter()
        .map(|t| t.stats.faults + t.stats.completed)
        .sum();
    assert!(
        report.ctx_switches <= yields,
        "{} switches exceed {} yield points",
        report.ctx_switches,
        yields
    );
}

/// Runs `reqs_a` on the adpcm tenant and `reqs_i` on the IDEA tenant
/// under the given submission interleaving, returning each tenant's
/// output streams.
fn run_interleaved(
    sizes_a: &[usize],
    sizes_i: &[usize],
    order: &[bool],
    scheduler: SchedulerKind,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let (mut sys, adpcm, idea) = mixed_system(scheduler, false);
    let mut next_a = 0;
    let mut next_i = 0;
    // `order[k]` picks which tenant submits its next request; leftovers
    // are appended after the pattern is exhausted.
    for &pick_a in order {
        if pick_a && next_a < sizes_a.len() {
            sys.submit(adpcm, adpcm_request(sizes_a[next_a], next_a).0);
            next_a += 1;
        } else if !pick_a && next_i < sizes_i.len() {
            sys.submit(idea, idea_request(sizes_i[next_i], next_i).0);
            next_i += 1;
        }
    }
    while next_a < sizes_a.len() {
        sys.submit(adpcm, adpcm_request(sizes_a[next_a], next_a).0);
        next_a += 1;
    }
    while next_i < sizes_i.len() {
        sys.submit(idea, idea_request(sizes_i[next_i], next_i).0);
        next_i += 1;
    }
    sys.run().expect("interleaved run completes");
    sys.vim()
        .check_invariants(sys.imu())
        .expect("VIM invariants hold after the run");
    (output_bytes(&mut sys, adpcm), output_bytes(&mut sys, idea))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Isolation: whatever the interleaving of two tenants' request
    /// streams — submission order, request sizes, scheduling policy —
    /// each tenant's outputs are byte-identical to running its stream
    /// alone on an otherwise idle system.
    #[test]
    fn interleaving_preserves_per_tenant_outputs(
        sizes_a in proptest::collection::vec(
            (1usize..4).prop_map(|kb| kb * 1024), 1..3),
        sizes_i in proptest::collection::vec(
            (1usize..4).prop_map(|kb| kb * 1024), 1..3),
        order in proptest::collection::vec(proptest::bool::ANY, 0..6),
        deficit in proptest::bool::ANY,
    ) {
        let scheduler = if deficit {
            SchedulerKind::DeficitRoundRobin
        } else {
            SchedulerKind::RoundRobin
        };
        let (mixed_a, mixed_i) = run_interleaved(&sizes_a, &sizes_i, &order, scheduler);
        let (solo_a, _) = run_interleaved(&sizes_a, &[], &[], scheduler);
        let (_, solo_i) = run_interleaved(&[], &sizes_i, &[], scheduler);
        prop_assert_eq!(&mixed_a, &solo_a);
        prop_assert_eq!(&mixed_i, &solo_i);
        // And both match the software references.
        for (k, (size, out)) in sizes_a.iter().zip(&mixed_a).enumerate() {
            let (_, exp) = adpcm_request(*size, k);
            prop_assert_eq!(out, &exp, "adpcm request {} diverged", k);
        }
        for (k, (size, out)) in sizes_i.iter().zip(&mixed_i).enumerate() {
            let (_, exp) = idea_request(*size, k);
            prop_assert_eq!(out, &exp, "idea request {} diverged", k);
        }
    }
}

#[test]
fn lost_transfer_is_resubmitted_without_degrading_the_tenant() {
    // The adpcm tenant's first DMA submission (its first demand page)
    // is silently lost. The VIM re-submits it at the transfer's
    // deadline, so the parked tenant is woken by the re-submission's
    // completion instead of being aborted and degraded.
    let plan = FaultPlan::new(3).once(FaultSite::DmaTimeout, 1).target(1);
    let (mut sys, adpcm, idea) = mixed_system_with(SchedulerKind::RoundRobin, false, Some(plan));
    sys.set_software_fallback(adpcm, adpcm_fallback());
    let (areq, aexp) = adpcm_request(2048, 0);
    let (ireq, iexp) = idea_request(2048, 0);
    sys.submit(adpcm, areq);
    sys.submit(idea, ireq);
    let report = sys.run().expect("run completes");

    assert_eq!(sys.fault_injector().fired(FaultSite::DmaTimeout), 1);
    assert_eq!(sys.vim().counters().timeout_resubmit, 1);
    assert!(!sys.is_degraded(adpcm));
    assert_eq!(report.fallbacks, 0, "served on hardware");
    for t in &report.tenants {
        assert_eq!(t.stats.aborts, 0, "{} was aborted", t.name);
    }
    assert_eq!(output_bytes(&mut sys, adpcm), vec![aexp]);
    let out_i = output_bytes(&mut sys, idea);
    let (_, solo_i) = run_interleaved(&[], &[2048], &[], SchedulerKind::RoundRobin);
    assert_eq!(out_i, solo_i, "co-tenant diverged from its solo run");
    assert_eq!(out_i, vec![iexp]);
}

#[test]
fn corrupted_transfers_during_cross_asid_steals_retry_clean() {
    // Six small tenants squeezed into 16 shared frames steal pages
    // from each other constantly; a twentieth of all transfers arrives
    // corrupt. The bounded retry path must absorb every corruption in
    // the middle of the frame-stealing traffic without degrading
    // anyone.
    let plan = FaultPlan::new(17).rate(FaultSite::DmaCorrupt, 0.05);
    let mut sys = MultiSystemBuilder::epxa4()
        .scheduler(SchedulerKind::RoundRobin)
        .frame_limit(16)
        .faults(plan)
        .build();
    let mut tenants = Vec::new();
    for pair in 0..3 {
        // Shrunken resources and payloads, so that six tenants fit.
        let mut admit = |kind: AppKind, bitstream_name: &str, resources| {
            let bitstream = Bitstream::builder(bitstream_name)
                .device(DeviceKind::Epxa4)
                .resources(resources)
                .core_clock(kind.cp_freq())
                .synthetic_payload(8 * 1024)
                .build()
                .to_bytes();
            let name = format!("{}{pair}", kind.name());
            sys.add_tenant(
                &name,
                1,
                kind.cp_freq(),
                kind.imu_freq(),
                &bitstream,
                kind.core(),
            )
            .expect("admit tenant")
        };
        let adpcm = admit(AppKind::Adpcm, "adpcmdecode", Resources::new(100, 614));
        let idea = admit(AppKind::Idea, "idea", Resources::new(360, 2_457));
        tenants.push((adpcm, idea));
    }
    let mut expect = Vec::new();
    for salt in 0..2 {
        for (k, &(adpcm, idea)) in tenants.iter().enumerate() {
            let (areq, aexp) = adpcm_request(2048, salt * 3 + k);
            let (ireq, iexp) = idea_request(2048, salt * 3 + k);
            sys.submit(adpcm, areq);
            sys.submit(idea, ireq);
            expect.push((adpcm, aexp));
            expect.push((idea, iexp));
        }
    }
    let report = sys.run().expect("corrupted run completes");

    assert!(
        report.cross_asid_steals > 0,
        "16 shared frames across 6 tenants must force steals"
    );
    assert!(
        sys.fault_injector().fired(FaultSite::DmaCorrupt) > 0,
        "corruptions actually fired"
    );
    assert_eq!(report.fallbacks, 0, "retries absorbed every corruption");
    let mut outputs: std::collections::BTreeMap<u16, Vec<Vec<u8>>> =
        std::collections::BTreeMap::new();
    for &(adpcm, idea) in &tenants {
        assert!(!sys.is_degraded(adpcm));
        assert!(!sys.is_degraded(idea));
        outputs.insert(adpcm.0, output_bytes(&mut sys, adpcm));
        outputs.insert(idea.0, output_bytes(&mut sys, idea));
    }
    for (asid, exp) in expect {
        let outs = outputs.get_mut(&asid.0).expect("tenant produced output");
        assert_eq!(outs.remove(0), exp, "tenant {} diverged", asid.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Fault isolation: every transfer of the adpcm tenant is corrupted
    /// until hardware service is withdrawn, yet (a) the co-tenant's
    /// outputs are byte-identical to a solo run on a healthy system,
    /// and (b) the faulting tenant still receives correct bytes from
    /// its software fallback, with the degradation fully recorded.
    #[test]
    fn faulting_tenant_cannot_corrupt_co_tenant(
        seed in any::<u64>(),
        sizes_a in proptest::collection::vec(
            (1usize..3).prop_map(|kb| kb * 1024), 1..3),
        sizes_i in proptest::collection::vec(
            (1usize..3).prop_map(|kb| kb * 1024), 1..3),
    ) {
        let plan = FaultPlan::new(seed)
            .rate(FaultSite::DmaCorrupt, 1.0)
            .target(1); // the first admitted tenant: adpcm
        let (mut sys, adpcm, idea) =
            mixed_system_with(SchedulerKind::RoundRobin, false, Some(plan));
        prop_assert_eq!(adpcm, Asid(1), "plan targets the adpcm tenant");
        sys.set_software_fallback(adpcm, adpcm_fallback());

        let mut expect_a = Vec::new();
        let mut expect_i = Vec::new();
        for (k, &size) in sizes_a.iter().enumerate() {
            let (req, exp) = adpcm_request(size, k);
            sys.submit(adpcm, req);
            expect_a.push(exp);
        }
        for (k, &size) in sizes_i.iter().enumerate() {
            let (req, exp) = idea_request(size, k);
            sys.submit(idea, req);
            expect_i.push(exp);
        }
        let report = sys.run().expect("degraded run completes");
        prop_assert_eq!(sys.vim().check_invariants(sys.imu()), Ok(()));

        let out_a = output_bytes(&mut sys, adpcm);
        let out_i = output_bytes(&mut sys, idea);
        // The co-tenant is untouched: byte-identical to its solo run.
        let (_, solo_i) = run_interleaved(&[], &sizes_i, &[], SchedulerKind::RoundRobin);
        prop_assert_eq!(&out_i, &solo_i, "co-tenant diverged from solo run");
        prop_assert_eq!(&out_i, &expect_i);
        // The faulting tenant was degraded, not wedged: all requests
        // completed correctly in software.
        prop_assert_eq!(&out_a, &expect_a);
        prop_assert!(sys.is_degraded(adpcm));
        prop_assert!(!sys.is_degraded(idea));
        let ta = report.tenants.iter().find(|t| t.name == "adpcm").unwrap();
        prop_assert!(ta.stats.aborts >= 1, "hardware service was withdrawn");
        prop_assert_eq!(ta.stats.fallbacks, sizes_a.len() as u64);
        prop_assert_eq!(report.fallbacks, sizes_a.len() as u64);
        let ti = report.tenants.iter().find(|t| t.name == "idea").unwrap();
        prop_assert_eq!(ti.stats.fallbacks, 0);
    }
}

/// A multi-tenant run's report and each tenant's output streams.
type Served = (MultiReport, Vec<Vec<Vec<u8>>>);

/// Four tenants, admitted as adpcm, IDEA, adpcm, IDEA, share a pool of
/// `frames` frames (split evenly when `partition`) replaced by
/// `policy`; each is sent two 1 KiB requests, round by round. Returns
/// the run report and each tenant's outputs (checked against the
/// software references), or the run's typed error.
fn four_tenants(
    kernel: Kernel,
    scheduler: SchedulerKind,
    policy: PolicyKind,
    frames: usize,
    partition: bool,
) -> Result<Served, Error> {
    let mut sys = MultiSystemBuilder::epxa4()
        .kernel(kernel)
        .scheduler(scheduler)
        .policy(policy)
        .frame_limit(frames)
        .partition(partition)
        .build();
    let kinds = [AppKind::Adpcm, AppKind::Idea, AppKind::Adpcm, AppKind::Idea];
    let mut tenants = Vec::new();
    for kind in kinds {
        tenants.push(kind.admit(&mut sys, kind.name()).expect("admit tenant"));
    }
    let mut expect = vec![Vec::new(); kinds.len()];
    for round in 0..2 {
        for (t, kind) in kinds.into_iter().enumerate() {
            let request = match kind {
                AppKind::Adpcm => adpcm_request,
                AppKind::Idea => idea_request,
            };
            let (req, exp) = request(1024, 4 * round + t);
            sys.submit(tenants[t], req);
            expect[t].push(exp);
        }
    }
    let report = sys.run()?;
    let outputs: Vec<_> = tenants
        .iter()
        .map(|&asid| output_bytes(&mut sys, asid))
        .collect();
    assert_eq!(outputs, expect, "outputs match the software references");
    Ok((report, outputs))
}

/// Runs [`four_tenants`] on the stepped reference kernel and on the
/// event-driven one and asserts that both give the same report and
/// output bytes, or the same typed error. Returns the event kernel's
/// outcome.
fn kernels_agree_on_four_tenants(
    scheduler: SchedulerKind,
    policy: PolicyKind,
    frames: usize,
    partition: bool,
) -> Result<MultiReport, Error> {
    let case = format!("{scheduler:?}, {policy:?}, {frames} frames, partition {partition}");
    let stepped = four_tenants(Kernel::Stepped, scheduler, policy, frames, partition);
    let event = four_tenants(Kernel::EventDriven, scheduler, policy, frames, partition);
    match (&stepped, &event) {
        (Ok(s), Ok(e)) => assert!(s == e, "{case}: reports or outputs differ"),
        (Err(s), Err(e)) => assert_eq!(format!("{s:?}"), format!("{e:?}"), "{case}"),
        (s, e) => panic!(
            "{case}: stepped {:?}, event {:?}",
            s.as_ref().map(|r| &r.0),
            e.as_ref().map(|r| &r.0)
        ),
    }
    event.map(|(report, _)| report)
}

/// The stepped reference kernel and the event-driven one agree with
/// four tenants on a shared pool small enough that they steal each
/// other's frames, on a larger one and on a partitioned one, under
/// FIFO and LRU replacement and both schedulers. Fused TLB hits then
/// run beside other tenants' transfers.
#[test]
fn stepped_and_event_kernels_agree_multi_tenant() {
    let mut steals = 0;
    for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::DeficitRoundRobin] {
        for policy in [PolicyKind::Fifo, PolicyKind::Lru] {
            for (frames, partition) in [(6, false), (8, false), (8, true)] {
                let outcome = kernels_agree_on_four_tenants(scheduler, policy, frames, partition);
                if let Ok(report) = outcome {
                    steals += report.cross_asid_steals;
                }
            }
        }
    }
    assert!(steals > 0, "some case steals frames across tenants");
}

/// Under LRU, a demand page that arrived for a parked tenant used to
/// look never referenced, so tenants stole each other's arrived pages
/// forever and round robin never returned. Every pool size now ends in
/// `Ok` or a typed error, the same on both kernels.
#[test]
fn lru_on_a_shared_pool_terminates_with_four_tenants() {
    for frames in [4, 6, 8] {
        let outcome = kernels_agree_on_four_tenants(
            SchedulerKind::RoundRobin,
            PolicyKind::Lru,
            frames,
            false,
        );
        match outcome {
            Ok(_) | Err(Error::Vim(VimError::NoFrameAvailable)) => {}
            Err(e) => panic!("{frames} frames: {e:?}"),
        }
    }
}

/// ASIDs are 16-bit, so the 65 536th admission panics. It does so
/// before the core is loaded: no configuration time is charged and the
/// bitstream-load fault site is not rolled.
#[test]
fn the_65536th_tenant_is_refused_before_anything_is_loaded() {
    let kind = AppKind::Adpcm;
    let bitstream = Bitstream::builder("adpcmdecode")
        .device(DeviceKind::Epxa4)
        .resources(Resources::new(100, 614))
        .core_clock(kind.cp_freq())
        .build()
        .to_bytes();
    let mut sys = MultiSystemBuilder::epxa4()
        .faults(FaultPlan::new(1))
        .build();
    let admit = |sys: &mut MultiSystem| {
        sys.add_tenant(
            "t",
            1,
            kind.cp_freq(),
            kind.imu_freq(),
            &bitstream,
            kind.core(),
        )
    };
    for _ in 0..u16::MAX {
        admit(&mut sys).expect("admit tenant");
    }
    let rolls = sys.fault_injector().opportunities(FaultSite::BitstreamLoad);
    let config_time = sys.run().expect("nothing to serve").config_time;
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| admit(&mut sys)));
    assert!(refused.is_err(), "a 65 536th ASID does not exist");
    assert_eq!(
        sys.fault_injector().opportunities(FaultSite::BitstreamLoad),
        rolls
    );
    assert_eq!(
        sys.run().expect("nothing to serve").config_time,
        config_time
    );
}
