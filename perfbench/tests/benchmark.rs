//! The benchmark's own checks: exact percentiles, counted failures,
//! held-out seeds and trace coverage.

use std::time::Duration;

use vcop::{MultiSystem, MultiSystemBuilder};
use vcop_bench::serving::{idea_request, AppKind};
use vcop_fabric::DeviceProfile;
use vcop_imu::tlb::Asid;
use vcop_perfbench::run::{measure, Modeled};
use vcop_perfbench::stats::beyond;
use vcop_perfbench::trace::Tracer;
use vcop_perfbench::workloads::{setup, Unit, WorkloadKind};

/// A seed not used while the benchmark was tuned.
const HELD_OUT: u64 = 0x5EED_0BAD;

fn first_pass(kind: WorkloadKind, seed: u64, tr: &mut Tracer) -> Modeled {
    let mut w = setup(kind, seed, tr);
    Modeled::of(&measure(w.as_mut(), Duration::ZERO, tr))
}

fn serve(kind: WorkloadKind, seed: u64, units: u64) -> Vec<Unit> {
    let mut tr = Tracer::off();
    let mut w = setup(kind, seed, &mut tr);
    (0..units).map(|u| w.serve(u, &mut tr)).collect()
}

#[test]
fn reported_percentiles_are_observed_samples_with_a_tail() {
    let mut tr = Tracer::on();
    let m = first_pass(WorkloadKind::ServingMix, 3, &mut tr);
    assert_eq!(m.failed, 0);
    for q in [0.50, 0.95] {
        let us = m.latency_us(q);
        assert!(
            m.latencies.iter().any(|t| t.as_ps() as f64 / 1e6 == us),
            "p{q} = {us} µs is not an observed latency"
        );
    }
    assert!(beyond(m.latencies.len(), 0.95) >= 10);
    assert!(
        m.latency_us(0.95) > m.latency_us(0.50),
        "serving latencies spread"
    );

    let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
    for call in [
        "MultiSystemBuilder::build",
        "MultiSystem::add_tenant",
        "MultiSystem::submit",
        "MultiSystem::run",
        "MultiSystem::take_completed",
        "MultiSystem::vim",
        "MultiSystem::imu",
    ] {
        assert!(names.contains(&call), "no span for {call}");
    }
}

#[test]
fn wrong_bytes_count_as_errors_without_aborting() {
    for kind in [WorkloadKind::IdeaSync, WorkloadKind::ServingMix] {
        let mut tr = Tracer::off();
        let mut w = setup(kind, 1, &mut tr);
        w.corrupt_references();
        let measured = measure(w.as_mut(), Duration::ZERO, &mut tr);
        assert!(
            measured.error_rate() > 0.0,
            "{kind:?}: corrupted references went unnoticed"
        );
        assert_eq!(measured.wrong, measured.attempted);
        assert!(measured.halted.is_none());
        let m = Modeled::of(&measured);
        assert_eq!(m.hw_served, 0);
        assert!(m.latencies.is_empty(), "failed requests have no latency");
    }
}

#[test]
fn held_out_seed_keeps_modeled_latency_on_data_independent_cores() {
    let mut tr = Tracer::on();
    let tuned = first_pass(WorkloadKind::IdeaSync, 1, &mut tr);
    let held = first_pass(WorkloadKind::IdeaSync, HELD_OUT, &mut Tracer::off());
    assert_eq!(held.failed, 0);
    assert_eq!(tuned.latencies, held.latencies);
    let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
    for call in [
        "SystemBuilder::build",
        "System::fpga_load",
        "System::fpga_map_object",
        "System::fpga_execute",
        "System::take_object",
        "verify",
    ] {
        assert!(names.contains(&call), "no span for {call}");
    }

    let latencies =
        |units: &[Unit]| -> Vec<_> { units.iter().flat_map(|u| u.latencies.clone()).collect() };
    let tuned = serve(WorkloadKind::AdpcmOverlap, 1, 12);
    let held = serve(WorkloadKind::AdpcmOverlap, HELD_OUT, 12);
    assert!(held.iter().all(|u| u.failed == 0));
    assert_eq!(latencies(&tuned), latencies(&held));
}

#[test]
fn held_out_seed_keeps_fault_workload_outputs_correct() {
    let units = serve(WorkloadKind::AdpcmFaults, HELD_OUT, 40);
    assert!(
        units.iter().all(|u| u.failed == 0),
        "a faulted request delivered wrong bytes"
    );
    let injected: u64 = units.iter().map(|u| u.layers.injected_faults).sum();
    assert!(injected > 0, "the fault plan fired");
}

/// A `MultiSystem` with one IDEA tenant and edge budget `budget`.
fn idea_tenant_system(budget: u64) -> (MultiSystem, Asid) {
    let device = DeviceProfile::epxa4();
    let mut sys = MultiSystemBuilder::new(device).edge_budget(budget).build();
    let kind = AppKind::Idea;
    let asid = sys
        .add_tenant(
            "idea",
            1,
            kind.cp_freq(),
            kind.imu_freq(),
            &kind.bitstream(&device),
            kind.core(),
        )
        .expect("the canonical bitstream loads");
    (sys, asid)
}

/// Documents the finding `serving_mix` works around with
/// `SERVING_EDGE_BUDGET`: the edge budget of a `MultiSystem` is spent
/// over its lifetime, not per `run`. When the budget becomes per run,
/// every run below succeeds and this test should be inverted.
#[test]
fn multi_system_edge_budget_spans_its_lifetime() {
    let serve_once = |sys: &mut MultiSystem, asid| {
        sys.submit(asid, idea_request(1024, 0).0);
        let report = sys.run();
        sys.take_completed(asid);
        report
    };
    // The smallest power-of-two budget one run fits in on a fresh system.
    let fits = (10..40)
        .map(|bits| 1u64 << bits)
        .find(|&b| {
            let (mut sys, asid) = idea_tenant_system(b);
            serve_once(&mut sys, asid).is_ok()
        })
        .expect("one request fits some budget");
    // Four times that covers any single run of the same request, yet
    // identical runs on one system exhaust it.
    let (mut sys, asid) = idea_tenant_system(4 * fits);
    let outcomes: Vec<_> = (0..20).map(|_| serve_once(&mut sys, asid)).collect();
    assert!(outcomes[0].is_ok());
    assert!(
        outcomes
            .iter()
            .any(|r| matches!(r, Err(vcop::Error::Timeout { .. }))),
        "identical runs all fitted the budget: it is per run now"
    );
}
