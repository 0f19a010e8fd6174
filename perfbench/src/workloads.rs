//! The four seeded workloads and the calls they make into `vcop`.
//!
//! Each workload is set up once (inputs, software references, system
//! build, core load) and then served unit by unit: a unit is one
//! `FPGA_EXECUTE` request for the single-tenant workloads and one
//! `MultiSystem::run` over a full submission batch for `serving_mix`.
//! Every output byte is compared with the `vcop_apps` reference; a
//! mismatch or an `Err` is counted, never panicked on.

use vcop::{
    Direction, ElemSize, ExecutionReport, FallbackFn, FaultPlan, FaultSite, MapHints, MultiSystem,
    MultiSystemBuilder, PrefetchMode, RecoveryPolicy, Request, RequestObject, SchedulerKind,
    System, SystemBuilder,
};
use vcop_apps::adpcm::codec as adpcm_codec;
use vcop_apps::adpcm::hw as adpcm_hw;
use vcop_apps::idea::cipher as idea_cipher;
use vcop_apps::timing;
use vcop_bench::serving::AppKind;
use vcop_fabric::port::ObjectId;
use vcop_fabric::DeviceProfile;
use vcop_imu::tlb::Asid;
use vcop_sim::time::SimTime;

use crate::layers::Layers;
use crate::trace::Tracer;

/// The benchmark's workloads. Later changes refer to them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Fig. 9 point: IDEA, 32 KB, synchronous paging, FIFO, no prefetch.
    IdeaSync,
    /// adpcmdecode, 32 KB, overlapped paging, next-page prefetch.
    AdpcmOverlap,
    /// 8 tenants alternating adpcm/IDEA 1 KB requests on 16 frames.
    ServingMix,
    /// adpcmdecode, 8 KB, overlapped paging, 3 % faults on every site.
    AdpcmFaults,
}

impl WorkloadKind {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::IdeaSync,
        WorkloadKind::AdpcmOverlap,
        WorkloadKind::ServingMix,
        WorkloadKind::AdpcmFaults,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::IdeaSync => "idea_sync",
            WorkloadKind::AdpcmOverlap => "adpcm_overlap",
            WorkloadKind::ServingMix => "serving_mix",
            WorkloadKind::AdpcmFaults => "adpcm_faults",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Injected fault rate of `adpcm_faults`, applied to every site.
pub const FAULT_RATE: f64 = 0.03;

/// Distinct seeded inputs a single-tenant workload cycles through.
const CASES: usize = 8;
/// Requests in a single-tenant pass: enough for ten samples beyond p95.
const SINGLE_PASS: usize = 200;
/// `adpcm_faults` draws its fault pattern from the seed; a longer pass
/// keeps the seed-to-seed spread of its outcomes small.
const FAULTS_PASS: usize = 400;
/// `serving_mix`: tenants, requests per tenant per batch, batches per pass.
const TENANTS: usize = 8;
const PER_TENANT: usize = 40;
const SERVING_PASS: usize = 2;
/// Frames of the shared pool in `serving_mix`.
const SERVING_FRAMES: usize = 16;
/// Edge budget of the `serving_mix` system. `MultiSystem::run` never
/// resets its edge counter, so the budget is spent over the system's
/// lifetime: at the default of 2·10⁹ edges, batch 123 times out, and
/// whether a run gets that far depends on host speed. One batch takes
/// about 1.6·10⁷ edges; this budget lasts for millions of batches, far
/// more than a run can serve, so every run serves the same requests.
pub const SERVING_EDGE_BUDGET: u64 = 1 << 46;

/// What serving one unit produced.
#[derive(Debug, Default, Clone)]
pub struct Unit {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that returned `Err` or wrong bytes.
    pub failed: u64,
    /// Requests that reported success with wrong or missing bytes.
    pub wrong: u64,
    /// Why the workload cannot serve further units, if it cannot.
    pub halted: Option<String>,
    /// Requests served correctly by the hardware path.
    pub hw_served: u64,
    /// Modeled latency of each correctly served request.
    pub latencies: Vec<SimTime>,
    /// Modeled platform time the unit took (configuration excluded).
    pub busy: SimTime,
    /// Modeled pure-software time of the requests behind `busy`.
    pub sw: SimTime,
    /// Modeled per-layer sums.
    pub layers: Layers,
}

/// A set-up workload, ready to serve units.
pub trait Workload {
    /// Units in the deterministic first pass that modeled metrics use.
    fn units_per_pass(&self) -> usize;
    /// Requests per unit.
    fn requests_per_unit(&self) -> u64;
    /// One-off modeled configuration time (all `FPGA_LOAD`s).
    fn config_time(&self) -> SimTime;
    /// Serves unit number `unit` and verifies its outputs.
    fn serve(&mut self, unit: u64, tr: &mut Tracer) -> Unit;
    /// Flips one byte of every expected output, so that the checker
    /// must report failures. Only for testing the checker.
    fn corrupt_references(&mut self);
}

/// Sets workload `kind` up from `seed`: inputs, software references,
/// system build and core load.
pub fn setup(kind: WorkloadKind, seed: u64, tr: &mut Tracer) -> Box<dyn Workload> {
    let span = tr.begin("setup", None);
    let w: Box<dyn Workload> = match kind {
        WorkloadKind::IdeaSync => Box::new(Single::new(
            AppKind::Idea,
            32 * 1024,
            SINGLE_PASS,
            seed,
            tr,
            |b| (b, false),
        )),
        WorkloadKind::AdpcmOverlap => Box::new(Single::new(
            AppKind::Adpcm,
            32 * 1024,
            SINGLE_PASS,
            seed,
            tr,
            |b| {
                let b = b.overlap(true).dma_channels(2);
                (b.prefetch(PrefetchMode::NextPage { degree: 1 }), false)
            },
        )),
        WorkloadKind::AdpcmFaults => Box::new(Single::new(
            AppKind::Adpcm,
            8 * 1024,
            FAULTS_PASS,
            seed,
            tr,
            |b| {
                let plan = FaultSite::ALL
                    .into_iter()
                    .fold(FaultPlan::new(mix(seed, 0xFA17)), |p, site| {
                        p.rate(site, FAULT_RATE)
                    });
                let b = b.overlap(true).dma_channels(2).faults(plan);
                (b.recovery(RecoveryPolicy::default()), true)
            },
        )),
        WorkloadKind::ServingMix => Box::new(Serving::new(seed, tr)),
    };
    tr.end(span);
    w
}

/// One request's objects, parameters and expected output.
#[derive(Debug, Clone)]
struct Case {
    input: Vec<u8>,
    expect: Vec<u8>,
    params: Vec<u32>,
    /// Modeled pure-software time of the same request.
    sw: SimTime,
}

/// SplitMix64 finaliser: decorrelates (seed, stream) pairs.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed, stream))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }
}

/// A request of `kind` over `bytes` of seeded input, with its reference.
fn make_case(kind: AppKind, bytes: usize, rng: &mut Rng) -> Case {
    match kind {
        AppKind::Idea => {
            let key = idea_cipher::IdeaKey(std::array::from_fn(|_| rng.next() as u16));
            let pt: Vec<u8> = (0..bytes).map(|_| rng.next() as u8).collect();
            let (ct, sw) = timing::idea_sw(&pt, key);
            let mut params = vec![(bytes / idea_cipher::BLOCK_BYTES) as u32];
            params.extend(idea_cipher::expand_key(key).iter().map(|&k| u32::from(k)));
            Case {
                input: idea_cipher::pack_words(&pt),
                expect: idea_cipher::pack_words(&ct),
                params,
                sw,
            }
        }
        AppKind::Adpcm => {
            // A bounded random walk: audio-like PCM, so the encoder's
            // step adaptation sees both quiet and loud stretches.
            let mut s = 0i32;
            let pcm: Vec<i16> = (0..bytes * 2)
                .map(|_| {
                    s = (s + (rng.next() % 4097) as i32 - 2048).clamp(-32768, 32767);
                    s as i16
                })
                .collect();
            let input = adpcm_codec::encode(&pcm, &mut ());
            let (samples, sw) = timing::adpcm_sw(&input);
            Case {
                params: vec![input.len() as u32],
                expect: adpcm_codec::samples_to_bytes(&samples),
                input,
                sw,
            }
        }
    }
}

fn input_elem(kind: AppKind) -> ElemSize {
    match kind {
        AppKind::Idea => ElemSize::U16,
        AppKind::Adpcm => ElemSize::U8,
    }
}

fn sequential() -> MapHints {
    MapHints {
        sequential: true,
        ..Default::default()
    }
}

// Both cores use object 0 for input and object 1 for output.
const OBJ_INPUT: ObjectId = adpcm_hw::OBJ_INPUT;
const OBJ_OUTPUT: ObjectId = adpcm_hw::OBJ_OUTPUT;

/// One warmed single-tenant `System` serving back-to-back requests.
struct Single {
    kind: AppKind,
    pass: usize,
    system: System,
    cases: Vec<Case>,
    load_time: SimTime,
}

impl Single {
    fn new(
        kind: AppKind,
        bytes: usize,
        pass: usize,
        seed: u64,
        tr: &mut Tracer,
        // Returns the configured builder and whether to register the
        // software fallback.
        configure: impl FnOnce(SystemBuilder) -> (SystemBuilder, bool),
    ) -> Single {
        let cases = tr.time("reference", None, || {
            let mut rng = Rng::new(seed, 1);
            (0..CASES)
                .map(|_| make_case(kind, bytes, &mut rng))
                .collect()
        });
        let device = DeviceProfile::epxa1();
        let (mut system, fallback) = tr.time("SystemBuilder::build", None, || {
            let (builder, fallback) =
                configure(SystemBuilder::new(device).clocks(kind.cp_freq(), kind.imu_freq()));
            (builder.build(), fallback)
        });
        let (bitstream, core) = (kind.bitstream(&device), kind.core());
        let load_time = tr
            .time("System::fpga_load", None, || {
                system.fpga_load(&bitstream, core)
            })
            .expect("the canonical bitstream loads");
        if fallback {
            tr.time("System::set_software_fallback", None, || {
                system.set_software_fallback(Box::new(adpcm_fallback()))
            });
        }
        Single {
            kind,
            pass,
            system,
            cases,
            load_time,
        }
    }

    fn execute(
        &mut self,
        case: usize,
        id: Option<u64>,
        tr: &mut Tracer,
    ) -> Result<ExecutionReport, vcop::Error> {
        let (sys, case) = (&mut self.system, &self.cases[case]);
        let input = case.input.clone();
        let elem = input_elem(self.kind);
        tr.time("System::fpga_map_object", id, || {
            sys.fpga_map_object(OBJ_INPUT, input, elem, Direction::In, sequential())
        })?;
        let output = vec![0u8; case.expect.len()];
        tr.time("System::fpga_map_object", id, || {
            sys.fpga_map_object(
                OBJ_OUTPUT,
                output,
                ElemSize::U16,
                Direction::Out,
                sequential(),
            )
        })?;
        tr.time("System::fpga_execute", id, || {
            sys.fpga_execute(&case.params)
        })
    }
}

/// The adpcm software reference as the platform's fallback.
fn adpcm_fallback() -> FallbackFn {
    FallbackFn::new("adpcm-sw", |io, params| {
        let n = *params.first().ok_or("no length parameter")? as usize;
        let input = io.object(OBJ_INPUT).ok_or("input not mapped")?;
        let input = input.get(..n).ok_or("length exceeds the input")?.to_vec();
        let (samples, cpu) = timing::adpcm_sw(&input);
        let out = io.object_mut(OBJ_OUTPUT).ok_or("output not mapped")?;
        out.copy_from_slice(&adpcm_codec::samples_to_bytes(&samples));
        Ok(cpu)
    })
}

impl Workload for Single {
    fn units_per_pass(&self) -> usize {
        self.pass
    }

    fn requests_per_unit(&self) -> u64 {
        1
    }

    fn config_time(&self) -> SimTime {
        self.load_time
    }

    fn serve(&mut self, unit: u64, tr: &mut Tracer) -> Unit {
        let id = Some(unit);
        let case = unit as usize % self.cases.len();
        let span = tr.begin("request", id);
        let result = self.execute(case, id, tr);
        let sys = &mut self.system;
        let out = tr.time("System::take_object", id, || sys.take_object(OBJ_OUTPUT));
        tr.time("System::take_object", id, || sys.take_object(OBJ_INPUT));
        let expect = &self.cases[case].expect;
        let correct = tr.time("verify", id, || out.as_ref() == Some(expect));
        tr.end(span);

        let mut u = Unit {
            attempted: 1,
            ..Unit::default()
        };
        match result {
            Ok(r) => {
                u.busy = r.wall;
                u.sw = self.cases[case].sw;
                u.layers = Layers::from_report(&r);
                if correct {
                    u.latencies.push(r.wall);
                    u.hw_served = u64::from(!r.fallback_taken);
                } else {
                    u.failed = 1;
                    u.wrong = 1;
                }
            }
            Err(_) => u.failed = 1,
        }
        u
    }

    fn corrupt_references(&mut self) {
        for c in &mut self.cases {
            c.expect[0] ^= 0xFF;
        }
    }
}

/// Cumulative multi-tenant counters at a batch boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    wall: SimTime,
    ctx_switches: u64,
    ctx_switch_time: SimTime,
    fabric_busy: SimTime,
    stall: SimTime,
    cp_cycles: u64,
    fallbacks: u64,
    vim: [u64; 6],
    sw_dp: SimTime,
    sw_imu: SimTime,
    tlb: [u64; 2],
}

const VIM_COUNTERS: [&str; 6] = [
    "fault",
    "page_load",
    "page_writeback",
    "eviction",
    "prefetch",
    "dma_transfer",
];

/// `serving_mix`: one `MultiSystem`, every batch submits the same
/// seeded requests to all tenants and runs them to completion.
struct Serving {
    system: MultiSystem,
    tenants: Vec<(Asid, AppKind, Vec<Case>)>,
    config: SimTime,
    prev: Option<Snapshot>,
}

impl Serving {
    fn new(seed: u64, tr: &mut Tracer) -> Serving {
        let kind_of = |t: usize| {
            if t.is_multiple_of(2) {
                AppKind::Adpcm
            } else {
                AppKind::Idea
            }
        };
        let cases: Vec<Vec<Case>> = tr.time("reference", None, || {
            let mut rng = Rng::new(seed, 2);
            (0..TENANTS)
                .map(|t| {
                    (0..PER_TENANT)
                        .map(|_| make_case(kind_of(t), 1024, &mut rng))
                        .collect()
                })
                .collect()
        });
        let device = DeviceProfile::epxa4();
        let mut system = tr.time("MultiSystemBuilder::build", None, || {
            MultiSystemBuilder::new(device)
                .scheduler(SchedulerKind::RoundRobin)
                .frame_limit(SERVING_FRAMES)
                .edge_budget(SERVING_EDGE_BUDGET)
                .build()
        });
        let tenants = cases
            .into_iter()
            .enumerate()
            .map(|(t, cases)| {
                let kind = kind_of(t);
                let (name, bitstream, core) = (
                    format!("{}{t}", kind.name()),
                    kind.bitstream(&device),
                    kind.core(),
                );
                let (cp, imu) = (kind.cp_freq(), kind.imu_freq());
                let asid = tr
                    .time("MultiSystem::add_tenant", None, || {
                        system.add_tenant(&name, 1, cp, imu, &bitstream, core)
                    })
                    .expect("the canonical bitstreams load");
                (asid, kind, cases)
            })
            .collect();
        Serving {
            system,
            tenants,
            config: SimTime::ZERO,
            prev: None,
        }
    }

    fn snapshot(&self, report: &vcop::MultiReport, tr: &mut Tracer) -> Snapshot {
        let sys = &self.system;
        let (counters, times) = tr.time("MultiSystem::vim", None, || {
            (sys.vim().counters().clone(), sys.vim().times().clone())
        });
        let tlb = tr.time("MultiSystem::imu", None, || sys.imu().counters());
        let tenants = report.tenants.iter().map(|t| &t.stats);
        Snapshot {
            wall: report.wall,
            ctx_switches: report.ctx_switches,
            ctx_switch_time: report.ctx_switch_time,
            fabric_busy: tenants.clone().map(|s| s.fabric_busy).sum(),
            stall: tenants.clone().map(|s| s.stall).sum(),
            cp_cycles: tenants.clone().map(|s| s.cp_cycles).sum(),
            fallbacks: tenants.map(|s| s.fallbacks).sum(),
            vim: VIM_COUNTERS.map(|c| counters.get(c)),
            sw_dp: times.get("sw_dp"),
            sw_imu: times.get("sw_imu"),
            tlb: [tlb.get("tlb_hit"), tlb.get("tlb_miss")],
        }
    }
}

impl Workload for Serving {
    fn units_per_pass(&self) -> usize {
        SERVING_PASS
    }

    fn requests_per_unit(&self) -> u64 {
        (TENANTS * PER_TENANT) as u64
    }

    fn config_time(&self) -> SimTime {
        self.config
    }

    fn serve(&mut self, unit: u64, tr: &mut Tracer) -> Unit {
        let first = unit * self.requests_per_unit();
        let span = tr.begin("batch", None);
        let mut id = first;
        for (asid, kind, cases) in &self.tenants {
            for case in cases {
                let request = Request {
                    objects: vec![
                        RequestObject {
                            id: OBJ_INPUT,
                            data: case.input.clone(),
                            elem: input_elem(*kind),
                            direction: Direction::In,
                            hints: sequential(),
                        },
                        RequestObject {
                            id: OBJ_OUTPUT,
                            data: vec![0u8; case.expect.len()],
                            elem: ElemSize::U16,
                            direction: Direction::Out,
                            hints: sequential(),
                        },
                    ],
                    params: case.params.clone(),
                };
                let sys = &mut self.system;
                tr.time("MultiSystem::submit", Some(id), || {
                    sys.submit(*asid, request)
                });
                id += 1;
            }
        }
        let sys = &mut self.system;
        let report = tr.time("MultiSystem::run", None, || sys.run());

        let mut u = Unit {
            attempted: self.requests_per_unit(),
            ..Unit::default()
        };
        let mut verified = 0u64;
        let mut id = first;
        for (asid, _, cases) in &self.tenants {
            let sys = &mut self.system;
            let done = tr.time("MultiSystem::take_completed", None, || {
                sys.take_completed(*asid)
            });
            for (i, case) in cases.iter().enumerate() {
                let c = done.get(i);
                let ok = tr.time("verify", Some(id), || {
                    c.is_some_and(|c| c.outputs.len() == 1 && c.outputs[0].1 == case.expect)
                });
                match c {
                    Some(c) if ok => {
                        verified += 1;
                        u.latencies.push(c.finished.saturating_sub(c.started));
                        u.sw += case.sw;
                    }
                    // Completed with wrong bytes, or lost by a run that
                    // reported success.
                    Some(_) => u.wrong += 1,
                    None if report.is_ok() => u.wrong += 1,
                    None => {}
                }
                id += 1;
            }
        }
        u.failed = u.attempted - verified;
        match report {
            // A failed run leaves its queues undrained; submitting more
            // would only pile requests up.
            Err(e) => u.halted = Some(e.to_string()),
            Ok(report) => self.record_layers(&report, verified, &mut u, tr),
        }
        tr.end(span);
        u
    }

    fn corrupt_references(&mut self) {
        for (_, _, cases) in &mut self.tenants {
            for c in cases {
                c.expect[0] ^= 0xFF;
            }
        }
    }
}

impl Serving {
    /// Fills `u`'s modeled layers from the counters `report` moved.
    fn record_layers(
        &mut self,
        report: &vcop::MultiReport,
        verified: u64,
        u: &mut Unit,
        tr: &mut Tracer,
    ) {
        let now = self.snapshot(report, tr);
        let prev = self.prev.unwrap_or(Snapshot {
            wall: report.config_time,
            ..Snapshot::default()
        });
        if self.prev.is_none() {
            self.config = report.config_time;
        }
        let d = |a: SimTime, b: SimTime| a.saturating_sub(b).as_ps();
        let fallbacks = now.fallbacks - prev.fallbacks;
        u.hw_served = verified.saturating_sub(fallbacks);
        u.busy = now.wall.saturating_sub(prev.wall);
        u.layers = Layers {
            hw_ps: d(now.fabric_busy, prev.fabric_busy),
            cp_cycles: now.cp_cycles - prev.cp_cycles,
            tlb_hits: now.tlb[0] - prev.tlb[0],
            tlb_misses: now.tlb[1] - prev.tlb[1],
            sw_imu_ps: d(now.sw_imu, prev.sw_imu),
            faults: now.vim[0] - prev.vim[0],
            page_loads: now.vim[1] - prev.vim[1],
            page_writebacks: now.vim[2] - prev.vim[2],
            evictions: now.vim[3] - prev.vim[3],
            prefetches: now.vim[4] - prev.vim[4],
            dma_transfers: now.vim[5] - prev.vim[5],
            sw_dp_ps: d(now.sw_dp, prev.sw_dp),
            ctx_switches: now.ctx_switches - prev.ctx_switches,
            ctx_switch_ps: d(now.ctx_switch_time, prev.ctx_switch_time),
            cross_asid_steals: report.cross_asid_steals,
            stall_ps: d(now.stall, prev.stall),
            fallbacks,
            ..Layers::default()
        };
        self.prev = Some(now);
    }
}
