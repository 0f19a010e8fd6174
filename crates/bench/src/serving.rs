//! Multi-tenant serving workloads for the throughput harness.
//!
//! A serving system answers a stream of small `FPGA_EXECUTE` requests
//! from many processes. The serial baseline gives each request
//! exclusive use of the fabric, paying a full reconfiguration at every
//! application switch; the multi-tenant engine keeps every tenant's
//! core co-resident and time-slices the *interface* instead. Both paths
//! verify every output byte against the software references, so the
//! throughput numbers always describe correct executions.

use vcop::{MultiSystem, MultiSystemBuilder, Request, SchedulerKind, SystemBuilder};
use vcop_apps::adpcm::codec as adpcm_codec;
use vcop_apps::idea::cipher as idea_cipher;
use vcop_fabric::DeviceProfile;
use vcop_imu::tlb::Asid;
use vcop_sim::time::SimTime;

pub use crate::app::AppKind;

/// Input bytes of one adpcmdecode serving request.
pub const ADPCM_REQUEST_BYTES: usize = 1024;
/// Plaintext bytes of one IDEA serving request.
pub const IDEA_REQUEST_BYTES: usize = 1024;

/// An adpcmdecode request over `input_bytes` of synthetic input (the
/// `salt` varies the data between requests), plus its expected output.
pub fn adpcm_request(input_bytes: usize, salt: usize) -> (Request, Vec<u8>) {
    let pcm = adpcm_codec::synthetic_pcm(input_bytes * 2 + salt * 16);
    let input = adpcm_codec::encode(&pcm[salt * 16..], &mut ());
    let job = AppKind::Adpcm.job(input);
    (job.request, job.expect)
}

/// An IDEA request over `input_bytes` of synthetic plaintext, plus its
/// expected ciphertext.
pub fn idea_request(input_bytes: usize, salt: usize) -> (Request, Vec<u8>) {
    let mut pt = idea_cipher::synthetic_plaintext(input_bytes);
    for (i, b) in pt.iter_mut().enumerate() {
        *b = b.wrapping_add((salt * 31 + i % 7) as u8);
    }
    let job = AppKind::Idea.job(pt);
    (job.request, job.expect)
}

/// The `salt`-th serving request of `kind`, with its expected output.
fn request(kind: AppKind, salt: usize) -> (Request, Vec<u8>) {
    match kind {
        AppKind::Adpcm => adpcm_request(ADPCM_REQUEST_BYTES, salt),
        AppKind::Idea => idea_request(IDEA_REQUEST_BYTES, salt),
    }
}

/// One serving arm's configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// Number of tenant processes (alternating adpcm/IDEA kinds).
    pub tenants: usize,
    /// Total requests across all tenants (split equally).
    pub total_requests: usize,
    /// Fabric scheduling policy.
    pub scheduler: SchedulerKind,
    /// Per-tenant frame partitioning instead of a fully shared pool.
    pub partition: bool,
    /// Optional cap on the managed DP-RAM frames (frame-pressure knob
    /// for the shared-vs-partitioned ablation).
    pub frame_limit: Option<usize>,
}

/// Per-tenant results of a serving run.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Tenant label (`adpcm0`, `idea1`, ...).
    pub name: String,
    /// Requests this tenant completed.
    pub requests: u64,
    /// Translation faults taken.
    pub faults: u64,
    /// Time parked on demand page transfers.
    pub stall: SimTime,
    /// Fabric time its segments consumed.
    pub fabric_busy: SimTime,
    /// Service latency of each request, in completion order.
    pub latency: Vec<SimTime>,
}

/// Results of one serving arm (serial or multi-tenant).
#[derive(Debug)]
pub struct ServingOutcome {
    /// Arm label for tables and JSON keys.
    pub label: String,
    /// Scheduler name driving the arm.
    pub scheduler: &'static str,
    /// Requests completed.
    pub requests: u64,
    /// End-to-end simulated time, configuration included.
    pub wall: SimTime,
    /// Time spent configuring cores. Up-front and one-off for the
    /// multi-tenant engine; for the serial baseline only the *first*
    /// load counts here — every later application switch reconfigures
    /// on the serving path.
    pub config_time: SimTime,
    /// Reconfigurations paid on the serving path (zero for multi).
    pub reconfigs: u64,
    /// Time those serving-path reconfigurations took.
    pub reconfig_time: SimTime,
    /// Context switches performed (zero for serial).
    pub ctx_switches: u64,
    /// CPU time spent in context switches.
    pub ctx_switch_time: SimTime,
    /// Frames stolen across ASIDs (shared-pool pressure metric).
    pub cross_asid_steals: u64,
    /// Pages written back to user space.
    pub page_writebacks: u64,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantOutcome>,
}

impl ServingOutcome {
    /// Steady-state serving time: wall minus the one-off configuration.
    pub fn serving_time(&self) -> SimTime {
        self.wall.saturating_sub(self.config_time)
    }

    /// Aggregate steady-state throughput in requests per simulated
    /// second (cores configured at deployment, as in a serving system).
    pub fn requests_per_sec(&self) -> f64 {
        let s = self.serving_time().as_ms_f64() / 1e3;
        if s > 0.0 {
            self.requests as f64 / s
        } else {
            0.0
        }
    }

    /// Cold-start throughput: configuration time included.
    pub fn requests_per_sec_cold(&self) -> f64 {
        let s = self.wall.as_ms_f64() / 1e3;
        if s > 0.0 {
            self.requests as f64 / s
        } else {
            0.0
        }
    }
}

/// The alternating request-kind pattern of the mixed workload.
fn request_kinds(total_requests: usize) -> Vec<AppKind> {
    (0..total_requests)
        .map(|i| {
            if i % 2 == 0 {
                AppKind::Adpcm
            } else {
                AppKind::Idea
            }
        })
        .collect()
}

/// Runs the serial baseline: one process at a time owns the whole
/// fabric, and every application switch in the alternating stream pays
/// a full reconfiguration (`FPGA_RELEASE` + `FPGA_LOAD`).
///
/// # Panics
///
/// Panics if any output mismatches its software reference (a model
/// bug, not a throughput outcome).
pub fn run_serial_baseline(total_requests: usize) -> ServingOutcome {
    let device = DeviceProfile::epxa4();
    let mut wall = SimTime::ZERO;
    let mut config_time = SimTime::ZERO;
    let mut reconfigs = 0u64;
    let mut reconfig_time = SimTime::ZERO;
    let mut latency = Vec::with_capacity(total_requests);
    let mut faults = 0u64;
    let mut current: Option<AppKind> = None;
    for (i, kind) in request_kinds(total_requests).into_iter().enumerate() {
        // The single-tenant system pins its clocks at build time, so an
        // application switch rebuilds the platform for the incoming
        // app's clock pair — the timeline restarts per execution either
        // way, and the switch itself is priced as the bitstream load.
        let mut system = SystemBuilder::new(device)
            .clocks(kind.cp_freq(), kind.imu_freq())
            .overlap(true)
            .build();
        let load = kind.load(&mut system).expect("load serving core");
        if current.is_none() {
            // Deployment-time configuration, like the multi engine's
            // up-front loads.
            config_time += load;
            wall += load;
        } else {
            reconfigs += 1;
            reconfig_time += load;
            wall += load;
        }
        current = Some(kind);
        let (req, expect) = request(kind, i / 2);
        let out_id = req.objects[1].id;
        let params = req.params.clone();
        for o in req.objects {
            system
                .fpga_map_object(o.id, o.data, o.elem, o.direction, o.hints)
                .expect("map serving object");
        }
        let report = system.fpga_execute(&params).expect("serial execute");
        let out = system.take_object(out_id).expect("output mapped");
        assert_eq!(out, expect, "serial {} request {i} diverged", kind.name());
        faults += report.faults;
        wall += report.total();
        latency.push(if i == 0 {
            report.total()
        } else {
            // An application switch sits on the request's critical path.
            report.total() + system.load_time()
        });
    }
    ServingOutcome {
        label: "serial".to_owned(),
        scheduler: "exclusive",
        requests: total_requests as u64,
        wall,
        config_time,
        reconfigs,
        reconfig_time,
        ctx_switches: 0,
        ctx_switch_time: SimTime::ZERO,
        cross_asid_steals: 0,
        page_writebacks: 0,
        tenants: vec![TenantOutcome {
            name: "serial".to_owned(),
            requests: total_requests as u64,
            faults,
            stall: SimTime::ZERO,
            fabric_busy: SimTime::ZERO,
            latency,
        }],
    }
}

/// Each tenant's expected request outputs, in submission order.
type ExpectedOutputs = Vec<(Asid, Vec<Vec<u8>>)>;

/// Builds the multi-tenant system of `spec` with its tenants admitted
/// (alternating adpcm/IDEA kinds) and each tenant's request stream plus
/// expected outputs prepared.
fn build_serving_system(spec: &ServingSpec) -> (MultiSystem, ExpectedOutputs) {
    assert!(spec.tenants >= 1, "at least one tenant");
    assert!(
        spec.total_requests.is_multiple_of(spec.tenants),
        "requests split equally across tenants"
    );
    let per_tenant = spec.total_requests / spec.tenants;
    let mut builder = MultiSystemBuilder::epxa4()
        .scheduler(spec.scheduler)
        .partition(spec.partition);
    if let Some(limit) = spec.frame_limit {
        builder = builder.frame_limit(limit);
    }
    let mut sys = builder.build();
    let mut expected = Vec::new();
    for t in 0..spec.tenants {
        let kind = if t % 2 == 0 {
            AppKind::Adpcm
        } else {
            AppKind::Idea
        };
        let asid = kind
            .admit(&mut sys, &format!("{}{}", kind.name(), t))
            .expect("admit serving tenant");
        let mut expects = Vec::with_capacity(per_tenant);
        for r in 0..per_tenant {
            let (req, expect) = request(kind, t * per_tenant + r);
            sys.submit(asid, req);
            expects.push(expect);
        }
        expected.push((asid, expects));
    }
    (sys, expected)
}

/// Runs one multi-tenant serving arm and verifies every tenant's
/// outputs bit-exactly.
///
/// # Panics
///
/// Panics on an output mismatch or a hung run (model bugs).
pub fn run_serving(label: &str, spec: &ServingSpec) -> ServingOutcome {
    let (mut sys, expected) = build_serving_system(spec);
    let report = sys.run().expect("serving run completes");
    let mut latencies = Vec::with_capacity(expected.len());
    for (asid, expects) in &expected {
        let completed = sys.take_completed(*asid);
        latencies.push(
            completed
                .iter()
                .map(|c| c.finished.saturating_sub(c.started))
                .collect(),
        );
        assert_eq!(completed.len(), expects.len(), "tenant drained its queue");
        for (i, (c, expect)) in completed.iter().zip(expects).enumerate() {
            assert_eq!(c.outputs.len(), 1, "one output object per request");
            assert_eq!(
                &c.outputs[0].1, expect,
                "tenant {asid:?} request {i} diverged"
            );
        }
    }
    ServingOutcome {
        label: label.to_owned(),
        scheduler: report.scheduler,
        requests: report.requests,
        wall: report.wall,
        config_time: report.config_time,
        reconfigs: 0,
        reconfig_time: SimTime::ZERO,
        ctx_switches: report.ctx_switches,
        ctx_switch_time: report.ctx_switch_time,
        cross_asid_steals: report.cross_asid_steals,
        page_writebacks: report.page_writebacks,
        // Both in admission order.
        tenants: report
            .tenants
            .into_iter()
            .zip(latencies)
            .map(|(t, latency)| TenantOutcome {
                name: t.name,
                requests: t.stats.completed,
                faults: t.stats.faults,
                stall: t.stats.stall,
                fabric_busy: t.stats.fabric_busy,
                latency,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_multi_complete_the_same_workload() {
        let serial = run_serial_baseline(4);
        assert_eq!(serial.requests, 4);
        assert_eq!(serial.reconfigs, 3);
        assert!(serial.requests_per_sec() > 0.0);
        assert!(serial.requests_per_sec_cold() < serial.requests_per_sec());

        let spec = ServingSpec {
            tenants: 2,
            total_requests: 4,
            scheduler: SchedulerKind::RoundRobin,
            partition: false,
            frame_limit: None,
        };
        let multi = run_serving("n2", &spec);
        assert_eq!(multi.requests, 4);
        assert_eq!(multi.reconfigs, 0);
        assert!(multi.ctx_switches >= 2);
        assert!(multi.requests_per_sec() > serial.requests_per_sec());
    }
}
