//! Multi-tenant coprocessor serving: time-slicing one reconfigurable
//! fabric across several concurrent `FPGA_EXECUTE` requests.
//!
//! The single-tenant [`System`](crate::System) gives one process
//! exclusive use of the fabric for the whole execution. This module
//! relaxes that: several tenants' cores are co-resident (each loaded
//! once through the configuration port, as in partial-reconfiguration
//! serving systems), and the *interface* — IMU translation state,
//! dual-port RAM frames, VIM bookkeeping — is virtualised per process:
//!
//! * every TLB entry and DP-RAM frame is tagged with the owning
//!   [`Asid`], so translations never alias across tenants;
//! * the VIM keeps per-process contexts (mapped-object tables, parameter
//!   frames) keyed by ASID, and a context switch lazily writes back only
//!   the dirty frames the incoming tenant actually steals;
//! * a [`CoprocessorScheduler`] picks which tenant's coprocessor runs
//!   whenever the fabric yields. Execution is preempted only at natural
//!   stall boundaries: a translation miss parks the tenant on its
//!   demand DMA transfer (overlapped paging), freeing the fabric for a
//!   neighbour instead of idling through the page wait.
//!
//! One tenant context occupies the IMU datapath at a time; switching
//! costs [`OsOverheads::ctx_switch`](vcop_vim::OsOverheads) CPU cycles
//! plus whatever frame write-backs the incoming tenant's demand misses
//! later force (priced lazily, per stolen frame, by the VIM). Each
//! slice is one segment of the same execution engine the single-tenant
//! `System` runs, so both front ends share the platform loop, the
//! simulation kernels and the fault sites.
//!
//! With [`Builder::faults`] the shared platform injects deterministic
//! faults, which a [`FaultPlan::target`](vcop_sim::fault::FaultPlan::target)
//! can confine to one tenant's address space. A dropped fault interrupt
//! is found by the watchdog's status poll and the VIM re-submits a lost
//! or corrupt transfer within its retry budget; a tenant whose hardware
//! run still fails is *aborted and degraded*: its fabric state is torn
//! down (co-tenants' chained work is rescued, their frames untouched),
//! its interrupted request is completed by the tenant's registered
//! [`SoftwareFallback`], and its remaining queue is served in software —
//! co-tenants keep their hardware service and byte-identical outputs
//! throughout.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use vcop_fabric::loader::ConfigController;
use vcop_fabric::port::{Coprocessor, CoprocessorPort, ObjectId};
use vcop_fabric::DeviceProfile;
use vcop_imu::imu::{ElemSize, Imu, ImuConfig, ImuExecContext};
use vcop_imu::tlb::Asid;
use vcop_sim::fault::FaultInjector;
use vcop_sim::time::{Frequency, SimTime};
use vcop_sim::trace::TraceSink;
use vcop_vim::manager::{DemandReady, Scope, ServiceTimes, Vim, VimConfig};
use vcop_vim::object::{Direction, MapHints};
use vcop_vim::prefetch::PrefetchMode;

use crate::builder::{cdc_sync_edges, Builder};
use crate::engine::{self, Engine, Segment, Yield};
use crate::error::Error;
use crate::fallback::{FallbackIo, SoftwareFallback};

/// Decides which runnable tenant gets the fabric at each yield point.
///
/// The engine calls [`CoprocessorScheduler::pick`] whenever the fabric
/// is free and at least one tenant can run, and
/// [`CoprocessorScheduler::charge`] with the fabric time each segment
/// consumed. Implementations must be deterministic.
pub trait CoprocessorScheduler: fmt::Debug {
    /// Human-readable policy name (appears in reports).
    fn name(&self) -> &'static str;

    /// Registers a tenant with its share weight (higher = more fabric).
    fn admit(&mut self, asid: Asid, weight: u32);

    /// Picks the next tenant to run from `runnable` (never empty).
    fn pick(&mut self, runnable: &[Asid]) -> Option<Asid>;

    /// Accounts `used` fabric time to `asid` after a segment.
    fn charge(&mut self, asid: Asid, used: SimTime);
}

/// Cycle the admitted tenants in admission order, skipping the ones
/// that cannot run. Weights are ignored.
#[derive(Debug, Default)]
pub struct RoundRobin {
    order: Vec<Asid>,
    cursor: usize,
}

impl RoundRobin {
    /// An empty rotation.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl CoprocessorScheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn admit(&mut self, asid: Asid, _weight: u32) {
        self.order.push(asid);
    }

    fn pick(&mut self, runnable: &[Asid]) -> Option<Asid> {
        let n = self.order.len();
        for i in 0..n {
            let cand = self.order[(self.cursor + i) % n];
            if runnable.contains(&cand) {
                self.cursor = (self.cursor + i + 1) % n;
                return Some(cand);
            }
        }
        None
    }

    fn charge(&mut self, _asid: Asid, _used: SimTime) {}
}

/// Weighted fair sharing: each tenant accumulates `used / weight`
/// virtual time, and the runnable tenant furthest behind runs next (a
/// deficit-style scheduler — tenants that received less than their
/// share carry the deficit forward). Admission order breaks ties, so
/// equal weights degenerate to round-robin on a symmetric workload.
#[derive(Debug, Default)]
pub struct DeficitRoundRobin {
    /// `(asid, weight, accumulated virtual picoseconds)`.
    entries: Vec<(Asid, u64, u128)>,
}

impl DeficitRoundRobin {
    /// An empty schedule.
    pub fn new() -> Self {
        DeficitRoundRobin::default()
    }
}

impl CoprocessorScheduler for DeficitRoundRobin {
    fn name(&self) -> &'static str {
        "deficit-weighted"
    }

    fn admit(&mut self, asid: Asid, weight: u32) {
        self.entries.push((asid, u64::from(weight.max(1)), 0));
    }

    fn pick(&mut self, runnable: &[Asid]) -> Option<Asid> {
        self.entries
            .iter()
            .filter(|(a, _, _)| runnable.contains(a))
            .min_by_key(|&&(_, _, v)| v)
            .map(|&(a, _, _)| a)
    }

    fn charge(&mut self, asid: Asid, used: SimTime) {
        if let Some(e) = self.entries.iter_mut().find(|(a, _, _)| *a == asid) {
            e.2 += u128::from(used.as_ps()) / u128::from(e.1);
        }
    }
}

/// Built-in scheduling policies for [`MultiSystemBuilder::scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// [`RoundRobin`].
    #[default]
    RoundRobin,
    /// [`DeficitRoundRobin`].
    DeficitRoundRobin,
}

impl SchedulerKind {
    fn build(self) -> Box<dyn CoprocessorScheduler> {
        match self {
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerKind::DeficitRoundRobin => Box::new(DeficitRoundRobin::new()),
        }
    }
}

/// One interface object of a [`Request`] (the `FPGA_MAP_OBJECT`
/// arguments).
#[derive(Debug, Clone)]
pub struct RequestObject {
    /// Object id (a per-process name; tenants may reuse ids).
    pub id: ObjectId,
    /// The user-space buffer.
    pub data: Vec<u8>,
    /// Element size the coprocessor indexes with.
    pub elem: ElemSize,
    /// Transfer direction.
    pub direction: Direction,
    /// Paging hints.
    pub hints: MapHints,
}

/// One queued `FPGA_EXECUTE` invocation: the objects to map and the
/// scalar parameters to pass.
#[derive(Debug, Clone)]
pub struct Request {
    /// Objects mapped before the execution starts.
    pub objects: Vec<RequestObject>,
    /// Scalar parameters written to the parameter page.
    pub params: Vec<u32>,
}

/// A finished request with its collected output buffers.
#[derive(Debug)]
pub struct CompletedRequest {
    /// Time the request's setup began on the CPU.
    pub started: SimTime,
    /// Time the end-of-operation service (dirty write-backs included)
    /// finished.
    pub finished: SimTime,
    /// Output buffers of every non-`IN` object, in mapping order.
    pub outputs: Vec<(ObjectId, Vec<u8>)>,
}

/// Accumulated per-tenant statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests completed.
    pub completed: u64,
    /// Fabric time spent executing this tenant's segments.
    pub fabric_busy: SimTime,
    /// Translation faults taken.
    pub faults: u64,
    /// Time spent parked on demand page transfers.
    pub stall: SimTime,
    /// Coprocessor cycles executed.
    pub cp_cycles: u64,
    /// Requests served by the tenant's software fallback after the
    /// tenant was degraded.
    pub fallbacks: u64,
    /// Hardware aborts: times the tenant's fabric state was torn down
    /// after unrecoverable injected faults.
    pub aborts: u64,
}

/// Execution phase of a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TenantState {
    /// No queued work and no execution in progress.
    Idle,
    /// Queued work; the next segment starts a fresh request.
    Ready,
    /// Mid-execution, stalled on a demand page transfer.
    Parked {
        /// Fault time (stall accounting baseline).
        t_fault: SimTime,
        /// Synchronous CPU share of the fault service.
        svc_cpu: SimTime,
    },
    /// Mid-execution, demand page arrived; can resume from `at`.
    Resumable {
        /// Earliest fabric instant the coprocessor may resume
        /// (completion time plus interrupt and resume overhead).
        at: SimTime,
        /// Fault time (stall accounting baseline).
        t_fault: SimTime,
    },
}

/// The manifest of the request currently executing for a tenant.
#[derive(Debug)]
struct ActiveRequest {
    manifest: Vec<(ObjectId, Direction)>,
    params: Vec<u32>,
    started: SimTime,
}

/// One tenant process sharing the fabric.
#[derive(Debug)]
struct Tenant {
    name: String,
    asid: Asid,
    cp_freq: Frequency,
    imu_freq: Frequency,
    sync_edges: u32,
    coprocessor: Box<dyn Coprocessor>,
    port: CoprocessorPort,
    /// Saved IMU execution context while not occupying the datapath.
    ctx: Option<ImuExecContext>,
    state: TenantState,
    queue: VecDeque<Request>,
    active: Option<ActiveRequest>,
    completed: Vec<CompletedRequest>,
    stats: TenantStats,
    /// Hardware service was withdrawn after unrecoverable faults; all
    /// further requests are served by the software fallback.
    degraded: bool,
}

impl Tenant {
    /// Back to `Ready` if more work is queued, else `Idle`.
    fn settle(&mut self) {
        self.state = if self.queue.is_empty() {
            TenantState::Idle
        } else {
            TenantState::Ready
        };
    }
}

/// Summary of one tenant after [`MultiSystem::run`].
#[derive(Debug, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name given at admission.
    pub name: String,
    /// Address-space id assigned at admission.
    pub asid: Asid,
    /// Accumulated statistics.
    pub stats: TenantStats,
}

/// Whole-run summary returned by [`MultiSystem::run`].
#[derive(Debug, PartialEq, Eq)]
pub struct MultiReport {
    /// End-to-end wall time: the later of the last fabric activity and
    /// the last CPU service, measured from time zero (which includes
    /// the serial up-front configuration of every core).
    pub wall: SimTime,
    /// Serial configuration time paid once, up front, for all cores.
    pub config_time: SimTime,
    /// Requests completed across all tenants.
    pub requests: u64,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// CPU time spent switching contexts (excludes lazy write-backs).
    pub ctx_switch_time: SimTime,
    /// Frames one tenant stole from another (each priced with a lazy
    /// write-back if dirty).
    pub cross_asid_steals: u64,
    /// Pages written back to user space across the run.
    pub page_writebacks: u64,
    /// Requests served in software across all tenants (degraded
    /// service after hardware aborts).
    pub fallbacks: u64,
    /// Scheduling policy that produced this run.
    pub scheduler: &'static str,
    /// Per-tenant breakdown, in admission order.
    pub tenants: Vec<TenantReport>,
}

/// Builder for a [`MultiSystem`].
///
/// # Examples
///
/// ```
/// use vcop::multi::{MultiSystemBuilder, SchedulerKind};
///
/// let system = MultiSystemBuilder::epxa4()
///     .scheduler(SchedulerKind::DeficitRoundRobin)
///     .partition(true)
///     .build();
/// assert_eq!(system.device().page_count(), 32);
/// ```
pub type MultiSystemBuilder = Builder<MultiTenant>;

/// The knobs only the multi-tenant [`MultiSystem`] has.
#[derive(Debug)]
pub struct MultiTenant {
    scheduler: SchedulerKind,
    partition: bool,
    frame_limit: Option<usize>,
}

impl Builder<MultiTenant> {
    /// Starts from a device profile.
    pub fn new(device: DeviceProfile) -> Self {
        Builder::with_mode(
            device,
            MultiTenant {
                scheduler: SchedulerKind::default(),
                partition: false,
                frame_limit: None,
            },
        )
    }

    /// The mid-range device (32 × 2 KB frames) — enough interface
    /// memory for several co-resident tenants.
    pub fn epxa4() -> Self {
        MultiSystemBuilder::new(DeviceProfile::epxa4())
    }

    /// Selects the fabric scheduling policy.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.mode.scheduler = kind;
        self
    }

    /// Partitions the DP-RAM frames into equal per-tenant ranges
    /// instead of sharing the whole pool (the "partitioned" arm of the
    /// throughput ablation): tenants never steal each other's frames,
    /// trading cross-tenant write-back traffic for a smaller working
    /// set each.
    pub fn partition(mut self, partition: bool) -> Self {
        self.mode.partition = partition;
        self
    }

    /// Caps the number of DP-RAM frames the VIM manages (models
    /// reserving part of the interface memory for other uses) — the
    /// frame-pressure knob of the shared-vs-partitioned ablation. The
    /// cap never exceeds the device's frame count.
    pub fn frame_limit(mut self, frames: usize) -> Self {
        self.mode.frame_limit = Some(frames.max(2));
        self
    }

    /// Assembles the system (no tenants yet).
    pub fn build(self) -> MultiSystem {
        let device = self.device;
        let frames = self
            .mode
            .frame_limit
            .map_or(device.page_count(), |limit| limit.min(device.page_count()));
        // Multi-tenant serving is demand-driven: no preload (tenants
        // only occupy frames they touch) and no speculative prefetch
        // (a parked tenant's demand transfer must never be cancelled to
        // make room for a neighbour's speculation). Overlap is
        // mandatory — it is what turns a translation miss into a yield.
        let paging = VimConfig {
            prefetch: PrefetchMode::None,
            preload: false,
            overlap: true,
            ..VimConfig::prototype(frames, device.page_bytes)
        };
        let imu = Imu::new(ImuConfig::prototype(frames, device.page_bytes));
        let (engine, k) = self.engine(imu, TraceSink::disabled(), paging, Scope::Tenant);
        MultiSystem {
            device,
            frames,
            engine,
            scheduler: k.scheduler.build(),
            partition: k.partition,
            tenants: Vec::new(),
            loaded: None,
            now: SimTime::ZERO,
            cpu_free_at: SimTime::ZERO,
            config_time: SimTime::ZERO,
            ctx_switches: 0,
            ctx_switch_time: SimTime::ZERO,
            fallbacks: BTreeMap::new(),
        }
    }
}

/// A fabric shared by several tenant processes under a scheduler.
#[derive(Debug)]
pub struct MultiSystem {
    device: DeviceProfile,
    /// DP-RAM frames under VIM management (≤ the device's frame count).
    frames: usize,
    engine: Engine,
    scheduler: Box<dyn CoprocessorScheduler>,
    partition: bool,
    tenants: Vec<Tenant>,
    /// Tenant whose execution context currently occupies the IMU.
    loaded: Option<usize>,
    /// Latest instant the fabric has simulated to.
    now: SimTime,
    /// The (single) CPU serialises all OS work: setup, services,
    /// context switches.
    cpu_free_at: SimTime,
    config_time: SimTime,
    ctx_switches: u64,
    ctx_switch_time: SimTime,
    /// Per-tenant software fallbacks, keyed by ASID.
    fallbacks: BTreeMap<u16, Box<dyn SoftwareFallback>>,
}

impl MultiSystem {
    /// The device profile in use.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Read access to the shared VIM (its counts and service times).
    pub fn vim(&self) -> &Vim {
        &self.engine.vim
    }

    /// Read access to the shared IMU (TLB, counters).
    pub fn imu(&self) -> &Imu {
        &self.engine.imu
    }

    /// Admits a tenant: validates and "loads" its core (each core is
    /// configured once, up front, into its own region of the fabric),
    /// registers it with the scheduler, and returns its address-space
    /// id. With [`MultiSystemBuilder::partition`] the frame ranges are
    /// re-divided equally among all admitted tenants. With fault
    /// injection armed, each programming pass rolls
    /// [`FaultSite::BitstreamLoad`](vcop_sim::fault::FaultSite) and a
    /// failed pass is retried (and charged) as in `System::fpga_load`.
    ///
    /// # Errors
    ///
    /// Propagates [`vcop_fabric::loader::LoadError`] for a bad or
    /// incompatible bitstream. With partitioning, returns
    /// [`Error::ExceedsMemory`] when admitting the tenant would leave a
    /// tenant fewer than 2 frames; the system is then unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `imu_freq` is not an integer multiple of `cp_freq`
    /// (same contract as the single-tenant builder), or if more than
    /// `u16::MAX` tenants are admitted; either panic fires before the
    /// core is loaded.
    pub fn add_tenant(
        &mut self,
        name: &str,
        weight: u32,
        cp_freq: Frequency,
        imu_freq: Frequency,
        bitstream_bytes: &[u8],
        core: Box<dyn Coprocessor>,
    ) -> Result<Asid, Error> {
        let n = self.tenants.len() + 1;
        if self.partition && self.frames / n < 2 {
            let page = self.device.page_bytes;
            return Err(Error::ExceedsMemory {
                required: 2 * n * page,
                available: self.frames * page,
            });
        }
        let asid = Asid(u16::try_from(n).expect("tenant count fits u16"));
        let sync_edges = cdc_sync_edges(cp_freq, imu_freq);
        let mut ctl = ConfigController::new(self.device);
        let (loaded, passes) = self.engine.load(&mut ctl, bitstream_bytes)?;
        // One configuration port: cores are programmed serially before
        // any execution starts.
        let load_time = loaded.load_time * u64::from(passes);
        self.config_time += load_time;
        self.cpu_free_at += load_time;
        self.scheduler.admit(asid, weight);
        self.tenants.push(Tenant {
            name: name.to_owned(),
            asid,
            cp_freq,
            imu_freq,
            sync_edges,
            coprocessor: core,
            port: CoprocessorPort::new(1),
            ctx: None,
            state: TenantState::Idle,
            queue: VecDeque::new(),
            active: None,
            completed: Vec::new(),
            stats: TenantStats::default(),
            degraded: false,
        });
        if self.partition {
            let frames = self.frames;
            let chunk = frames / n;
            let ranges: Vec<(Asid, core::ops::Range<usize>)> = self
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let end = if i + 1 == n { frames } else { (i + 1) * chunk };
                    (t.asid, i * chunk..end)
                })
                .collect();
            self.engine.vim.partition_frames(&ranges);
        }
        Ok(asid)
    }

    /// Registers the software fallback used to serve `asid`'s requests
    /// after the tenant is degraded. Without one, an unrecoverable
    /// fault in the tenant's transfers fails the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `asid` was not returned by [`MultiSystem::add_tenant`].
    pub fn set_software_fallback(&mut self, asid: Asid, fallback: Box<dyn SoftwareFallback>) {
        assert!(
            self.tenants.iter().any(|t| t.asid == asid),
            "fallback for an unknown tenant"
        );
        self.fallbacks.insert(asid.0, fallback);
    }

    /// The fault injector shared by the platform (opportunity and fired
    /// counts per site).
    pub fn fault_injector(&self) -> &FaultInjector {
        self.engine.vim.fault_injector()
    }

    /// Whether `asid` has been degraded to software service.
    pub fn is_degraded(&self, asid: Asid) -> bool {
        self.tenants
            .iter()
            .find(|t| t.asid == asid)
            .is_some_and(|t| t.degraded)
    }

    /// Queues a request for `asid`.
    ///
    /// # Panics
    ///
    /// Panics if `asid` was not returned by [`MultiSystem::add_tenant`].
    pub fn submit(&mut self, asid: Asid, request: Request) {
        let t = self
            .tenants
            .iter_mut()
            .find(|t| t.asid == asid)
            .expect("submit to an admitted tenant");
        t.queue.push_back(request);
        if t.state == TenantState::Idle {
            t.state = TenantState::Ready;
        }
    }

    /// Drains the completed requests of `asid` (oldest first).
    pub fn take_completed(&mut self, asid: Asid) -> Vec<CompletedRequest> {
        self.tenants
            .iter_mut()
            .find(|t| t.asid == asid)
            .map(|t| std::mem::take(&mut t.completed))
            .unwrap_or_default()
    }

    /// Runs until every queued request has completed, time-slicing the
    /// fabric across tenants at stall boundaries, and returns the run
    /// summary.
    ///
    /// # Errors
    ///
    /// * [`Error::Vim`] for coprocessor protocol violations;
    /// * [`Error::Timeout`] if the edge budget is exhausted or no
    ///   tenant can make progress.
    pub fn run(&mut self) -> Result<MultiReport, Error> {
        let before = self.engine.snapshot();
        let requests0: u64 = self.tenants.iter().map(|t| t.stats.completed).sum();
        let fallbacks0: u64 = self.tenants.iter().map(|t| t.stats.fallbacks).sum();
        let recovery = self.engine.recovery.is_some();
        loop {
            // Degraded tenants never touch the fabric again: their
            // queued requests are served by the software fallback.
            for idx in 0..self.tenants.len() {
                if self.tenants[idx].degraded && self.tenants[idx].state == TenantState::Ready {
                    self.serve_queue_in_software(idx)?;
                }
            }
            let runnable: Vec<Asid> = self
                .tenants
                .iter()
                .filter(|t| matches!(t.state, TenantState::Ready | TenantState::Resumable { .. }))
                .map(|t| t.asid)
                .collect();
            if runnable.is_empty() {
                let parked = |t: &Tenant| matches!(t.state, TenantState::Parked { .. });
                if !self.tenants.iter().any(parked) {
                    break; // every queue drained
                }
                // Recovery: a parked tenant whose demand transfer spent
                // its retry budget (the VIM re-submits lost and corrupt
                // transfers until then) will never see a completion
                // interrupt — abort its hardware state and degrade it.
                if recovery {
                    let lost: Vec<usize> = (0..self.tenants.len())
                        .filter(|&i| {
                            let t = &self.tenants[i];
                            parked(t) && self.engine.vim.demand_lost_for(t.asid)
                        })
                        .collect();
                    if !lost.is_empty() {
                        for idx in lost {
                            self.abort_degrade(idx, None)?;
                        }
                        continue;
                    }
                }
                // All tenants are waiting for pages: idle the fabric to
                // the next DMA bus edge and retry.
                let Some(te) = self.engine.vim.dma_next_edge() else {
                    // The engine is idle yet tenants are parked: their
                    // transfers are gone. With recovery armed, abort
                    // every parked tenant; otherwise this is a hang.
                    if recovery {
                        for idx in 0..self.tenants.len() {
                            if parked(&self.tenants[idx]) {
                                self.abort_degrade(idx, None)?;
                            }
                        }
                        continue;
                    }
                    return Err(Error::Timeout {
                        budget: self.engine.edge_budget,
                    });
                };
                let e = &mut self.engine;
                let ready = e.vim.advance_dma(&mut e.imu, &mut e.dpram, te);
                e.check_invariants();
                route_demand_ready(&mut self.tenants, &mut e.vim, ready);
                continue;
            }
            let pick = self
                .scheduler
                .pick(&runnable)
                .expect("scheduler picks from a non-empty runnable set");
            let idx = self
                .tenants
                .iter()
                .position(|t| t.asid == pick)
                .expect("scheduler picked an admitted tenant");
            match self.run_slice(idx) {
                Ok(()) => {}
                // A transfer that kept failing past the retry budget,
                // dirty data lost to a parity upset, or a watchdog with
                // nothing latched: the hardware run of this tenant
                // cannot be trusted. Degrade the tenant and keep serving
                // the others.
                Err(e) if recovery && engine::hardware_fault(&e) => {
                    self.abort_degrade(idx, Some(e))?;
                }
                Err(e) => return Err(e),
            }
        }
        let d = self.engine.snapshot() - before;
        Ok(MultiReport {
            wall: self.now.max(self.cpu_free_at),
            config_time: self.config_time,
            requests: self.tenants.iter().map(|t| t.stats.completed).sum::<u64>() - requests0,
            ctx_switches: self.ctx_switches,
            ctx_switch_time: self.ctx_switch_time,
            cross_asid_steals: d.counts.cross_asid_steal,
            page_writebacks: d.counts.page_writeback,
            fallbacks: self.tenants.iter().map(|t| t.stats.fallbacks).sum::<u64>() - fallbacks0,
            scheduler: self.scheduler.name(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.name.clone(),
                    asid: t.asid,
                    stats: t.stats.clone(),
                })
                .collect(),
        })
    }

    /// Runs one scheduling slice for tenant `idx`: context switch,
    /// request start or resume, then one engine segment to the next
    /// yield — a park on a demand transfer or end of operation. Updates
    /// global time and charges the scheduler with the fabric time the
    /// segment consumed.
    fn run_slice(&mut self, idx: usize) -> Result<(), Error> {
        self.context_switch(idx);
        let start = match self.tenants[idx].state {
            TenantState::Ready => self.start_request(idx)?,
            TenantState::Resumable { at, t_fault } => {
                self.engine.imu.resume();
                let start = self.now.max(self.cpu_free_at).max(at);
                self.tenants[idx].stats.stall += start.saturating_sub(t_fault);
                start
            }
            _ => unreachable!("picked tenant is runnable"),
        };
        let t = &mut self.tenants[idx];
        let mut seg = Segment::new(
            &self.engine,
            t.imu_freq,
            t.cp_freq,
            Some(start),
            self.cpu_free_at,
        );
        let outcome = self
            .engine
            .run_until_yield(&mut seg, t.coprocessor.as_mut(), &mut t.port);
        // Arrivals for parked neighbours make them runnable at the next
        // yield.
        let arrivals = std::mem::take(&mut self.engine.arrivals);
        route_demand_ready(&mut self.tenants, &mut self.engine.vim, arrivals);
        self.cpu_free_at = seg.cpu_free_at;
        let t = &mut self.tenants[idx];
        t.stats.cp_cycles += seg.cp_cycles;
        t.stats.faults += seg.faults;
        t.stats.stall += seg.stalls.fault_latency.sum();
        let at = match outcome {
            Yield::Parked { at } => {
                let (t_fault, svc_cpu) = seg
                    .stalls
                    .demand_start
                    .expect("a parked segment records its demand stall");
                t.state = TenantState::Parked { t_fault, svc_cpu };
                at
            }
            Yield::Done { at, service } => {
                let finish = self.cpu_free_at.max(at) + service.total();
                self.cpu_free_at = finish;
                let active = t.active.take().expect("done implies an active request");
                let outputs = take_outputs(&mut self.engine.vim, active.manifest);
                self.finish_request(idx, active.started, finish, outputs, false);
                self.tenants[idx].settle();
                at
            }
            Yield::Failed { error, .. } => return Err(error),
        };
        let used = at.saturating_sub(start);
        let t = &mut self.tenants[idx];
        t.stats.fabric_busy += used;
        self.now = self.now.max(at);
        self.scheduler.charge(t.asid, used);
        Ok(())
    }

    /// Records tenant `idx`'s request started at `started` as finished
    /// at `finish` with `outputs`.
    fn finish_request(
        &mut self,
        idx: usize,
        started: SimTime,
        finish: SimTime,
        outputs: Vec<(ObjectId, Vec<u8>)>,
        fallback: bool,
    ) {
        let t = &mut self.tenants[idx];
        t.stats.completed += 1;
        t.stats.fallbacks += u64::from(fallback);
        t.completed.push(CompletedRequest {
            started,
            finished: finish,
            outputs,
        });
    }

    /// Withdraws hardware service from tenant `idx` after unrecoverable
    /// faults: tears down its fabric state (rescuing co-tenants' chained
    /// transfers), completes its interrupted request with the registered
    /// software fallback, and marks it degraded so the rest of its queue
    /// is served in software too. `cause` is the error that condemned
    /// the tenant (None when its demand transfer was lost for good).
    ///
    /// # Errors
    ///
    /// Returns `cause` (or [`Error::Timeout`]) when no fallback is
    /// registered for the tenant, [`Error::FallbackFailed`] when the
    /// fallback rejects the request.
    fn abort_degrade(&mut self, idx: usize, cause: Option<Error>) -> Result<(), Error> {
        let asid = self.tenants[idx].asid;
        let Some(fallback) = self.fallbacks.get(&asid.0) else {
            return Err(cause.unwrap_or(Error::Timeout {
                budget: self.engine.edge_budget,
            }));
        };
        let now = self.now.max(self.cpu_free_at);
        let e = &mut self.engine;
        let ready = e.vim.abort_tenant(asid, &mut e.imu, &mut e.dpram, now);
        e.check_invariants();
        route_demand_ready(&mut self.tenants, &mut e.vim, ready);
        self.tenants[idx].degraded = true;
        self.tenants[idx].stats.aborts += 1;
        // Complete the interrupted request in software over the very
        // objects it had mapped; partial hardware output is overwritten.
        if let Some(active) = self.tenants[idx].active.take() {
            let prev_asid = e.vim.asid();
            e.vim.set_asid(asid);
            let result = engine::run_fallback(&mut e.vim, fallback.as_ref(), &active.params)
                .map(|cpu| (cpu, take_outputs(&mut e.vim, active.manifest)));
            e.vim.set_asid(prev_asid);
            let (cpu, outputs) = result?;
            let finish = self.cpu_free_at.max(self.now) + cpu;
            self.cpu_free_at = finish;
            self.finish_request(idx, active.started, finish, outputs, true);
        }
        self.tenants[idx].settle();
        Ok(())
    }

    /// Serves every queued request of degraded tenant `idx` with its
    /// software fallback, directly over the request buffers (no
    /// mapping, no fabric).
    fn serve_queue_in_software(&mut self, idx: usize) -> Result<(), Error> {
        while let Some(mut req) = self.tenants[idx].queue.pop_front() {
            let asid = self.tenants[idx].asid;
            let fb = self
                .fallbacks
                .get(&asid.0)
                .expect("degraded tenant has a fallback");
            let start = self.cpu_free_at.max(self.now);
            let mut io = RequestIo {
                objects: &mut req.objects,
            };
            let cpu = fb
                .run(&mut io, &req.params)
                .map_err(|reason| Error::FallbackFailed { reason })?;
            let finish = start + cpu;
            self.cpu_free_at = finish;
            let outputs = req
                .objects
                .into_iter()
                .filter(|o| o.direction != Direction::In)
                .map(|o| (o.id, o.data))
                .collect();
            self.finish_request(idx, start, finish, outputs, true);
        }
        self.tenants[idx].state = TenantState::Idle;
        Ok(())
    }

    /// Loads tenant `idx`'s execution context into the IMU datapath,
    /// saving the outgoing tenant's first. CPU-priced only when the
    /// occupant actually changes; page write-backs are *not* part of
    /// the switch (they happen lazily, when the incoming tenant steals
    /// a dirty frame).
    fn context_switch(&mut self, idx: usize) {
        if self.loaded == Some(idx) {
            return;
        }
        let imu = &mut self.engine.imu;
        if let Some(prev) = self.loaded {
            self.tenants[prev].ctx = Some(imu.save_context());
        }
        let t = &mut self.tenants[idx];
        imu.set_asid(t.asid);
        imu.set_sync_edges(t.sync_edges);
        self.engine.vim.set_asid(t.asid);
        if let Some(ctx) = t.ctx.take() {
            imu.restore_context(ctx);
        }
        let cost = self.engine.vim.cost().ctx_switch_time();
        self.cpu_free_at = self.cpu_free_at.max(self.now) + cost;
        self.ctx_switches += 1;
        self.ctx_switch_time += cost;
        self.loaded = Some(idx);
    }

    /// Pops the next queued request of tenant `idx`, maps its objects,
    /// stages parameters and starts the coprocessor. Returns the fabric
    /// instant the execution begins.
    fn start_request(&mut self, idx: usize) -> Result<SimTime, Error> {
        let req = self.tenants[idx]
            .queue
            .pop_front()
            .expect("ready tenant has queued work");
        let manifest: Vec<(ObjectId, Direction)> =
            req.objects.iter().map(|o| (o.id, o.direction)).collect();
        let setup_begin = self.cpu_free_at.max(self.now);
        let mut cpu = SimTime::ZERO;
        for o in req.objects {
            cpu += self
                .engine
                .vim
                .map_object(o.id, o.data, o.elem, o.direction, o.hints)?;
        }
        let t = &mut self.tenants[idx];
        cpu += self
            .engine
            .start(t.coprocessor.as_mut(), &mut t.port, &req.params)?;
        t.active = Some(ActiveRequest {
            manifest,
            params: req.params,
            started: setup_begin,
        });
        self.cpu_free_at = setup_begin + cpu;
        Ok(self.cpu_free_at)
    }
}

/// Unmaps the objects of `manifest` from the VIM's current address
/// space and returns the buffers of every non-`IN` one, in order.
fn take_outputs(vim: &mut Vim, manifest: Vec<(ObjectId, Direction)>) -> Vec<(ObjectId, Vec<u8>)> {
    let mut outputs = Vec::new();
    for (id, dir) in manifest {
        if let Some(obj) = vim.take_object(id) {
            if dir != Direction::In {
                outputs.push((id, obj.into_data()));
            }
        }
    }
    outputs
}

/// [`FallbackIo`] view over a queued request's raw object buffers — the
/// degraded-service path computes in place, no mapping involved.
struct RequestIo<'a> {
    objects: &'a mut [RequestObject],
}

impl FallbackIo for RequestIo<'_> {
    fn object(&self, id: ObjectId) -> Option<&[u8]> {
        self.objects
            .iter()
            .find(|o| o.id == id)
            .map(|o| o.data.as_slice())
    }

    fn object_mut(&mut self, id: ObjectId) -> Option<&mut [u8]> {
        self.objects
            .iter_mut()
            .find(|o| o.id == id)
            .map(|o| o.data.as_mut_slice())
    }
}

/// Routes demand-page arrivals to their parked tenants: credits the
/// stall decomposition to the VIM and marks each tenant resumable from
/// completion-plus-interrupt time.
fn route_demand_ready(
    tenants: &mut [Tenant],
    vim: &mut Vim,
    ready: impl IntoIterator<Item = DemandReady>,
) {
    for r in ready {
        let Some(t) = tenants.iter_mut().find(|t| t.asid == r.asid) else {
            continue;
        };
        if let TenantState::Parked { t_fault, svc_cpu } = t.state {
            let irq = vim.cost().dma_completion_time() + vim.cost().resume_time();
            // Tenant reports have no recovery layer: the deadlines of
            // lost attempts (`r.recovered`) stay in the DMA wait.
            let dp = r.at.saturating_sub(t_fault + svc_cpu);
            vim.charge(ServiceTimes { dp, imu: irq });
            t.state = TenantState::Resumable {
                at: r.at + irq,
                t_fault,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asids(n: u16) -> Vec<Asid> {
        (1..=n).map(Asid).collect()
    }

    #[test]
    fn round_robin_cycles_in_admission_order() {
        let mut rr = RoundRobin::new();
        let ids = asids(3);
        for &a in &ids {
            rr.admit(a, 1);
        }
        let picks: Vec<Asid> = (0..9).map(|_| rr.pick(&ids).unwrap()).collect();
        assert_eq!(
            picks,
            ids.iter().cycle().take(9).copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn round_robin_fairness_bound() {
        // With every tenant always runnable, no tenant waits more than
        // n-1 picks between two of its own turns, and over k*n picks
        // each tenant runs exactly k times.
        let mut rr = RoundRobin::new();
        let ids = asids(4);
        for &a in &ids {
            rr.admit(a, 1);
        }
        let mut last_pick = vec![None::<usize>; ids.len()];
        let mut counts = vec![0u32; ids.len()];
        for turn in 0..40 {
            let p = rr.pick(&ids).unwrap();
            let i = usize::from(p.0 - 1);
            if let Some(prev) = last_pick[i] {
                assert!(
                    turn - prev <= ids.len(),
                    "tenant {i} waited {} turns",
                    turn - prev
                );
            }
            last_pick[i] = Some(turn);
            counts[i] += 1;
        }
        assert!(
            counts.iter().all(|&c| c == 10),
            "unequal shares: {counts:?}"
        );
    }

    #[test]
    fn round_robin_skips_unrunnable() {
        let mut rr = RoundRobin::new();
        let ids = asids(3);
        for &a in &ids {
            rr.admit(a, 1);
        }
        // Only tenant 2 runnable: it is picked, repeatedly.
        assert_eq!(rr.pick(&[ids[1]]), Some(ids[1]));
        assert_eq!(rr.pick(&[ids[1]]), Some(ids[1]));
        // When the others come back, rotation resumes after the pick.
        assert_eq!(rr.pick(&ids), Some(ids[2]));
        assert_eq!(rr.pick(&ids), Some(ids[0]));
        // Empty runnable set: no pick.
        assert_eq!(rr.pick(&[]), None);
    }

    #[test]
    fn deficit_weights_share_proportionally() {
        // Tenant 1 has weight 2, tenant 2 weight 1. With equal-length
        // segments the scheduler should grant tenant 1 twice the turns.
        let mut drr = DeficitRoundRobin::new();
        let ids = asids(2);
        drr.admit(ids[0], 2);
        drr.admit(ids[1], 1);
        let slice = SimTime::from_ps(1_000_000);
        let mut counts = [0u32; 2];
        for _ in 0..300 {
            let p = drr.pick(&ids).unwrap();
            counts[usize::from(p.0 - 1)] += 1;
            drr.charge(p, slice);
        }
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "weight-2 tenant got {} turns vs {} (ratio {ratio:.3}, want 2.0)",
            counts[0],
            counts[1]
        );
    }

    #[test]
    fn deficit_carries_backlog_forward() {
        // While tenant 2 is unrunnable, tenant 1 accumulates virtual
        // time; when tenant 2 returns it catches up before tenant 1
        // runs again.
        let mut drr = DeficitRoundRobin::new();
        let ids = asids(2);
        drr.admit(ids[0], 1);
        drr.admit(ids[1], 1);
        let slice = SimTime::from_ps(1_000_000);
        for _ in 0..4 {
            let p = drr.pick(&[ids[0]]).unwrap();
            assert_eq!(p, ids[0]);
            drr.charge(p, slice);
        }
        for _ in 0..4 {
            let p = drr.pick(&ids).unwrap();
            assert_eq!(p, ids[1], "lagging tenant must catch up first");
            drr.charge(p, slice);
        }
        // Now even: admission order breaks the tie.
        assert_eq!(drr.pick(&ids), Some(ids[0]));
    }

    #[test]
    fn scheduler_kind_builds_named_policies() {
        assert_eq!(SchedulerKind::RoundRobin.build().name(), "round-robin");
        assert_eq!(
            SchedulerKind::DeficitRoundRobin.build().name(),
            "deficit-weighted"
        );
    }
}
