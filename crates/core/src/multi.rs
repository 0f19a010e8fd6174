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
//! later force (priced lazily, per stolen frame, by the VIM).
//!
//! With [`MultiSystemBuilder::faults`] the shared platform injects
//! deterministic DMA and bus faults, which a [`FaultPlan::target`] can
//! confine to one tenant's address space. The VIM re-submits a lost or
//! corrupt transfer within its retry budget; a tenant whose transfers
//! keep failing past it is *aborted and degraded*: its fabric state is torn down
//! (co-tenants' chained work is rescued, their frames untouched), its
//! interrupted request is completed by the tenant's registered
//! [`SoftwareFallback`], and its remaining
//! queue is served in software — co-tenants keep their hardware service
//! and byte-identical outputs throughout.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use vcop_fabric::loader::ConfigController;
use vcop_fabric::port::{Coprocessor, CoprocessorPort, ObjectId, PortLink};
use vcop_fabric::DeviceProfile;
use vcop_imu::imu::{ElemSize, Imu, ImuConfig, ImuEvent, ImuExecContext};
use vcop_imu::registers::ControlRegister;
use vcop_imu::tlb::Asid;
use vcop_sim::bus::BurstKind;
use vcop_sim::clock::{ClockDomain, EdgeScheduler};
use vcop_sim::fault::{FaultInjector, FaultPlan};
use vcop_sim::histogram::LatencyHistogram;
use vcop_sim::irq::{InterruptController, IrqLine};
use vcop_sim::mem::DualPortRam;
use vcop_sim::sched::{EventKernel, WakeSource};
use vcop_sim::time::{Frequency, SimTime};
use vcop_sim::trace::TraceSink;
use vcop_vim::cost::{OsCostModel, OsOverheads};
use vcop_vim::manager::{DemandReady, Vim, VimConfig};
use vcop_vim::object::{Direction, MapHints};
use vcop_vim::policy::PolicyKind;
use vcop_vim::prefetch::PrefetchMode;
use vcop_vim::{TransferMode, VimError};

use crate::error::Error;
use crate::fallback::{FallbackIo, RecoveryPolicy, SoftwareFallback};
use crate::system::{VimIo, DEFAULT_EDGE_BUDGET};

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
#[derive(Debug, Default)]
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
    /// Per-request service latency (setup start → write-back end).
    pub latency: LatencyHistogram,
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

/// Summary of one tenant after [`MultiSystem::run`].
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant name given at admission.
    pub name: String,
    /// Address-space id assigned at admission.
    pub asid: Asid,
    /// Accumulated statistics.
    pub stats: TenantStats,
}

/// Whole-run summary returned by [`MultiSystem::run`].
#[derive(Debug)]
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
#[derive(Debug)]
pub struct MultiSystemBuilder {
    device: DeviceProfile,
    policy: PolicyKind,
    transfer: TransferMode,
    burst: BurstKind,
    skip_out_page_load: bool,
    dma_channels: usize,
    os_overheads: OsOverheads,
    scheduler: SchedulerKind,
    partition: bool,
    frame_limit: Option<usize>,
    edge_budget: u64,
    faults: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
}

impl MultiSystemBuilder {
    /// Starts from a device profile.
    pub fn new(device: DeviceProfile) -> Self {
        MultiSystemBuilder {
            device,
            policy: PolicyKind::Fifo,
            transfer: TransferMode::Double,
            burst: BurstKind::Single,
            skip_out_page_load: false,
            dma_channels: 2,
            os_overheads: OsOverheads::paper_era(),
            scheduler: SchedulerKind::default(),
            partition: false,
            frame_limit: None,
            edge_budget: DEFAULT_EDGE_BUDGET,
            faults: None,
            recovery: None,
        }
    }

    /// The mid-range device (32 × 2 KB frames) — enough interface
    /// memory for several co-resident tenants.
    pub fn epxa4() -> Self {
        MultiSystemBuilder::new(DeviceProfile::epxa4())
    }

    /// Selects the VIM replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Selects single- or double-transfer page copies.
    pub fn transfer(mut self, transfer: TransferMode) -> Self {
        self.transfer = transfer;
        self
    }

    /// Selects the AHB burst kind used by page copies.
    pub fn burst(mut self, burst: BurstKind) -> Self {
        self.burst = burst;
        self
    }

    /// Skips the load copy for pages of pure-`OUT` objects.
    pub fn skip_out_page_load(mut self, skip: bool) -> Self {
        self.skip_out_page_load = skip;
        self
    }

    /// Number of DMA channels for the overlapped paging engine.
    pub fn dma_channels(mut self, channels: usize) -> Self {
        self.dma_channels = channels.max(1);
        self
    }

    /// Overrides the fixed OS overhead constants.
    pub fn os_overheads(mut self, overheads: OsOverheads) -> Self {
        self.os_overheads = overheads;
        self
    }

    /// Selects the fabric scheduling policy.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Partitions the DP-RAM frames into equal per-tenant ranges
    /// instead of sharing the whole pool (the "partitioned" arm of the
    /// throughput ablation): tenants never steal each other's frames,
    /// trading cross-tenant write-back traffic for a smaller working
    /// set each.
    pub fn partition(mut self, partition: bool) -> Self {
        self.partition = partition;
        self
    }

    /// Caps the number of DP-RAM frames the VIM manages (models
    /// reserving part of the interface memory for other uses) — the
    /// frame-pressure knob of the shared-vs-partitioned ablation. The
    /// cap never exceeds the device's frame count.
    pub fn frame_limit(mut self, frames: usize) -> Self {
        self.frame_limit = Some(frames.max(2));
        self
    }

    /// Overrides the run edge budget (hang detection).
    pub fn edge_budget(mut self, budget: u64) -> Self {
        self.edge_budget = budget.max(1);
        self
    }

    /// Arms deterministic fault injection with `plan` and, unless
    /// [`MultiSystemBuilder::recovery`] overrides it, the default
    /// [`RecoveryPolicy`]. Use [`FaultPlan::target`] to confine faults
    /// to one tenant's address space.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the recovery policy. In the shared system only the
    /// transfer-retry budget applies per fault; an exhausted budget
    /// aborts and degrades the offending tenant rather than the run.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Assembles the system (no tenants yet).
    pub fn build(self) -> MultiSystem {
        let frames = self.frame_limit.map_or(self.device.page_count(), |limit| {
            limit.min(self.device.page_count())
        });
        let page_bytes = self.device.page_bytes;
        let cost = OsCostModel::epxa1()
            .with_transfer(self.transfer)
            .with_burst(self.burst)
            .with_overheads(self.os_overheads);
        // Multi-tenant serving is demand-driven: no preload (tenants
        // only occupy frames they touch) and no speculative prefetch
        // (a parked tenant's demand transfer must never be cancelled to
        // make room for a neighbour's speculation). Overlap is
        // mandatory — it is what turns a translation miss into a yield.
        let vim_config = VimConfig {
            page_bytes,
            frame_count: frames,
            policy: self.policy,
            prefetch: PrefetchMode::None,
            skip_out_page_load: self.skip_out_page_load,
            preload: false,
            overlap: true,
            dma_channels: self.dma_channels,
        };
        let mut irq = InterruptController::new(1);
        let pld_irq = irq.line(0).expect("one line");
        irq.enable(pld_irq);
        let recovery = self
            .recovery
            .or_else(|| self.faults.as_ref().map(|_| RecoveryPolicy::default()));
        let mut vim = Vim::new(vim_config, cost);
        if let Some(plan) = self.faults {
            vim.set_fault_injector(FaultInjector::new(plan));
        }
        MultiSystem {
            device: self.device,
            frames,
            dpram: DualPortRam::new(self.device.dpram_bytes, page_bytes)
                .expect("device geometry is valid"),
            imu: Imu::new(ImuConfig::prototype(frames, page_bytes)),
            vim,
            irq,
            pld_irq,
            trace: TraceSink::disabled(),
            scheduler: self.scheduler.build(),
            partition: self.partition,
            tenants: Vec::new(),
            loaded: None,
            edge_budget: self.edge_budget,
            edges: 0,
            now: SimTime::ZERO,
            cpu_free_at: SimTime::ZERO,
            config_time: SimTime::ZERO,
            ctx_switches: 0,
            ctx_switch_time: SimTime::ZERO,
            recovery,
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
    dpram: DualPortRam,
    imu: Imu,
    vim: Vim,
    irq: InterruptController,
    pld_irq: IrqLine,
    trace: TraceSink,
    scheduler: Box<dyn CoprocessorScheduler>,
    partition: bool,
    tenants: Vec<Tenant>,
    /// Tenant whose execution context currently occupies the IMU.
    loaded: Option<usize>,
    edge_budget: u64,
    edges: u64,
    /// Latest instant the fabric has simulated to.
    now: SimTime,
    /// The (single) CPU serialises all OS work: setup, services,
    /// context switches.
    cpu_free_at: SimTime,
    config_time: SimTime,
    ctx_switches: u64,
    ctx_switch_time: SimTime,
    recovery: Option<RecoveryPolicy>,
    /// Per-tenant software fallbacks, keyed by ASID.
    fallbacks: BTreeMap<u16, Box<dyn SoftwareFallback>>,
}

impl MultiSystem {
    /// The device profile in use.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Read access to the shared VIM (counters, time buckets).
    pub fn vim(&self) -> &Vim {
        &self.vim
    }

    /// Read access to the shared IMU (TLB, counters).
    pub fn imu(&self) -> &Imu {
        &self.imu
    }

    /// Admits a tenant: validates and "loads" its core (each core is
    /// configured once, up front, into its own region of the fabric),
    /// registers it with the scheduler, and returns its address-space
    /// id. With [`MultiSystemBuilder::partition`] the frame ranges are
    /// re-divided equally among all admitted tenants.
    ///
    /// # Errors
    ///
    /// Propagates [`vcop_fabric::loader::LoadError`] for a bad or
    /// incompatible bitstream.
    ///
    /// # Panics
    ///
    /// Panics if `imu_freq` is not an integer multiple of `cp_freq`
    /// (same contract as the single-tenant builder), or if more than
    /// `u16::MAX - 1` tenants are admitted.
    pub fn add_tenant(
        &mut self,
        name: &str,
        weight: u32,
        cp_freq: Frequency,
        imu_freq: Frequency,
        bitstream_bytes: &[u8],
        core: Box<dyn Coprocessor>,
    ) -> Result<Asid, Error> {
        assert!(
            imu_freq.hz().is_multiple_of(cp_freq.hz()),
            "IMU clock {imu_freq} must be an integer multiple of the coprocessor clock {cp_freq}"
        );
        let mut ctl = ConfigController::new(self.device);
        let loaded = ctl.load(bitstream_bytes)?;
        // One configuration port: cores are programmed serially before
        // any execution starts.
        self.config_time += loaded.load_time;
        self.cpu_free_at += loaded.load_time;
        let asid = Asid(u16::try_from(self.tenants.len() + 1).expect("tenant count fits u16"));
        self.scheduler.admit(asid, weight);
        self.tenants.push(Tenant {
            name: name.to_owned(),
            asid,
            cp_freq,
            imu_freq,
            sync_edges: if imu_freq == cp_freq { 0 } else { 2 },
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
            let n = self.tenants.len();
            let chunk = frames / n;
            assert!(
                chunk >= 2,
                "partitioning needs at least 2 frames per tenant"
            );
            let ranges: Vec<(Asid, core::ops::Range<usize>)> = self
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let end = if i + 1 == n { frames } else { (i + 1) * chunk };
                    (t.asid, i * chunk..end)
                })
                .collect();
            self.vim.partition_frames(&ranges);
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
        self.vim.fault_injector()
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
        let steals0 = self.vim.counters().get("cross_asid_steal");
        let wb0 = self.vim.counters().get("page_writeback");
        let requests0: u64 = self.tenants.iter().map(|t| t.stats.completed).sum();
        let fallbacks0: u64 = self.tenants.iter().map(|t| t.stats.fallbacks).sum();
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
                let parked = self
                    .tenants
                    .iter()
                    .any(|t| matches!(t.state, TenantState::Parked { .. }));
                if !parked {
                    break; // every queue drained
                }
                // Recovery: a parked tenant whose demand transfer spent
                // its retry budget (the VIM re-submits lost and corrupt
                // transfers until then) will never see a completion
                // interrupt — abort its hardware state and degrade it.
                if self.recovery.is_some() {
                    let lost: Vec<usize> = (0..self.tenants.len())
                        .filter(|&i| {
                            matches!(self.tenants[i].state, TenantState::Parked { .. })
                                && self.vim.demand_lost_for(self.tenants[i].asid)
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
                let Some(te) = self.vim.dma_next_edge() else {
                    // The engine is idle yet tenants are parked: their
                    // transfers are gone. With recovery armed, abort
                    // every parked tenant; otherwise this is a hang.
                    if self.recovery.is_some() {
                        for idx in 0..self.tenants.len() {
                            if matches!(self.tenants[idx].state, TenantState::Parked { .. }) {
                                self.abort_degrade(idx, None)?;
                            }
                        }
                        continue;
                    }
                    return Err(Error::Timeout {
                        budget: self.edge_budget,
                    });
                };
                let ready = self.vim.advance_dma_all(&mut self.imu, &mut self.dpram, te);
                route_demand_ready(&mut self.tenants, &mut self.vim, ready);
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
                // A transfer that kept failing past the retry budget, or
                // dirty data lost to a parity upset: the hardware run of
                // this tenant cannot be trusted. Degrade the tenant and
                // keep serving the others.
                Err(e) if self.recovery.is_some() && Self::tenant_recoverable(&e) => {
                    self.abort_degrade(idx, Some(e))?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(MultiReport {
            wall: self.now.max(self.cpu_free_at),
            config_time: self.config_time,
            requests: self.tenants.iter().map(|t| t.stats.completed).sum::<u64>() - requests0,
            ctx_switches: self.ctx_switches,
            ctx_switch_time: self.ctx_switch_time,
            cross_asid_steals: self.vim.counters().get("cross_asid_steal") - steals0,
            page_writebacks: self.vim.counters().get("page_writeback") - wb0,
            fallbacks: self.tenants.iter().map(|t| t.stats.fallbacks).sum::<u64>() - fallbacks0,
            scheduler: self.scheduler.name(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.name.clone(),
                    asid: t.asid,
                    stats: TenantStats {
                        completed: t.stats.completed,
                        fabric_busy: t.stats.fabric_busy,
                        faults: t.stats.faults,
                        stall: t.stats.stall,
                        cp_cycles: t.stats.cp_cycles,
                        latency: t.stats.latency.clone(),
                        fallbacks: t.stats.fallbacks,
                        aborts: t.stats.aborts,
                    },
                })
                .collect(),
        })
    }

    /// An error that condemns one tenant's hardware service rather than
    /// the whole run.
    fn tenant_recoverable(e: &Error) -> bool {
        matches!(
            e,
            Error::Vim(VimError::TransferFault { .. } | VimError::ParityLoss { .. })
        )
    }

    /// Runs one scheduling slice for tenant `idx`: context switch,
    /// request start or resume, then a fabric segment to the next yield.
    fn run_slice(&mut self, idx: usize) -> Result<(), Error> {
        self.context_switch(idx);
        let segment_start = match self.tenants[idx].state {
            TenantState::Ready => self.start_request(idx)?,
            TenantState::Resumable { at, t_fault } => {
                self.imu.resume();
                let start = self.now.max(self.cpu_free_at).max(at);
                let t = &mut self.tenants[idx];
                t.stats.stall += start.saturating_sub(t_fault);
                start
            }
            _ => unreachable!("picked tenant is runnable"),
        };
        self.run_segment(idx, segment_start)
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
        if !self.fallbacks.contains_key(&asid.0) {
            return Err(cause.unwrap_or(Error::Timeout {
                budget: self.edge_budget,
            }));
        }
        let now = self.now.max(self.cpu_free_at);
        let ready = self
            .vim
            .abort_tenant(asid, &mut self.imu, &mut self.dpram, now);
        route_demand_ready(&mut self.tenants, &mut self.vim, ready);
        self.tenants[idx].degraded = true;
        self.tenants[idx].stats.aborts += 1;
        // Complete the interrupted request in software over the very
        // objects it had mapped; partial hardware output is overwritten.
        if let Some(active) = self.tenants[idx].active.take() {
            let prev_asid = self.vim.asid();
            self.vim.set_asid(asid);
            let fb = self.fallbacks.get(&asid.0).expect("checked above");
            let mut io = VimIo { vim: &mut self.vim };
            let result = fb.run(&mut io, &active.params);
            let cpu = match result {
                Ok(cpu) => cpu,
                Err(reason) => {
                    self.vim.set_asid(prev_asid);
                    return Err(Error::FallbackFailed { reason });
                }
            };
            let start = self.cpu_free_at.max(self.now);
            let finish = start + cpu;
            self.cpu_free_at = finish;
            let mut outputs = Vec::new();
            for (id, dir) in active.manifest {
                if let Some(obj) = self.vim.take_object(id) {
                    if dir != Direction::In {
                        outputs.push((id, obj.into_data()));
                    }
                }
            }
            self.vim.set_asid(prev_asid);
            let t = &mut self.tenants[idx];
            t.stats.completed += 1;
            t.stats.fallbacks += 1;
            t.stats
                .latency
                .record(finish.saturating_sub(active.started));
            t.completed.push(CompletedRequest {
                started: active.started,
                finished: finish,
                outputs,
            });
        }
        let t = &mut self.tenants[idx];
        t.state = if t.queue.is_empty() {
            TenantState::Idle
        } else {
            TenantState::Ready
        };
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
            let t = &mut self.tenants[idx];
            t.stats.completed += 1;
            t.stats.fallbacks += 1;
            t.stats.latency.record(finish.saturating_sub(start));
            t.completed.push(CompletedRequest {
                started: start,
                finished: finish,
                outputs,
            });
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
        if let Some(prev) = self.loaded {
            self.tenants[prev].ctx = Some(self.imu.save_context());
        }
        let t = &mut self.tenants[idx];
        self.imu.set_asid(t.asid);
        self.imu.set_sync_edges(t.sync_edges);
        self.vim.set_asid(t.asid);
        if let Some(ctx) = t.ctx.take() {
            self.imu.restore_context(ctx);
        }
        let cost = self.vim.cost().ctx_switch_time();
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
                .vim
                .map_object(o.id, o.data, o.elem, o.direction, o.hints)?;
        }
        {
            let t = &mut self.tenants[idx];
            let mut link = PortLink::new(&mut t.port);
            self.imu.write_control(
                ControlRegister {
                    reset: true,
                    irq_enable: true,
                    ..Default::default()
                },
                &mut link,
            );
        }
        cpu += self
            .vim
            .prepare_execute_multi(&mut self.imu, &mut self.dpram, &req.params)?;
        let t = &mut self.tenants[idx];
        t.coprocessor.reset();
        {
            let mut link = PortLink::new(&mut t.port);
            self.imu.write_control(
                ControlRegister {
                    start: true,
                    ..Default::default()
                },
                &mut link,
            );
        }
        t.active = Some(ActiveRequest {
            manifest,
            params: req.params,
            started: setup_begin,
        });
        self.cpu_free_at = setup_begin + cpu;
        Ok(self.cpu_free_at)
    }

    /// Runs tenant `idx` on the fabric from `segment_start` until it
    /// yields: a translation miss parks it on its demand transfer, end
    /// of operation completes the request. Updates global time and
    /// charges the scheduler with the fabric time consumed.
    fn run_segment(&mut self, idx: usize, segment_start: SimTime) -> Result<(), Error> {
        let mut sched = EdgeScheduler::new();
        let imu_clk = sched.add_clock(ClockDomain::new(self.tenants[idx].imu_freq));
        let cp_clk = sched.add_clock(ClockDomain::new(self.tenants[idx].cp_freq));
        sched.clock_mut(imu_clk).fast_forward_past(segment_start);
        sched.clock_mut(cp_clk).fast_forward_past(segment_start);

        loop {
            if self.edges >= self.edge_budget {
                return Err(Error::Timeout {
                    budget: self.edge_budget,
                });
            }
            // Event-driven skip: fast-forward both domains across spans
            // where neither side can act (the active tenant is never
            // demand-stalled, so this is always legal here).
            {
                let t = &self.tenants[idx];
                let imu_clock = sched.clock(imu_clk);
                let cp_clock = sched.clock(cp_clk);
                let horizon = EventKernel::horizon(&[
                    WakeSource {
                        next_edge: imu_clock.next_edge(),
                        period: imu_clock.period(),
                        wake: self.imu.next_wake(&t.port),
                    },
                    WakeSource {
                        next_edge: cp_clock.next_edge(),
                        period: cp_clock.period(),
                        wake: t.coprocessor.next_wake(&t.port),
                    },
                ]);
                if let Some(h) = horizon {
                    let imu_skip = imu_clock.edges_before(h);
                    let cp_skip = cp_clock.edges_before(h);
                    let total = imu_skip + cp_skip;
                    if total > 0 && self.edges + total < self.edge_budget {
                        self.edges += total;
                        if imu_skip > 0 {
                            let clk = sched.clock_mut(imu_clk);
                            let last = clk.next_edge()
                                + SimTime::from_ps(clk.period().as_ps() * (imu_skip - 1));
                            clk.fast_forward_to(h);
                            self.imu.skip_idle_edges(imu_skip, last);
                        }
                        if cp_skip > 0 {
                            sched.clock_mut(cp_clk).fast_forward_to(h);
                            let t = &mut self.tenants[idx];
                            t.coprocessor.skip(cp_skip);
                            t.stats.cp_cycles += cp_skip;
                        }
                    }
                }
            }

            self.edges += 1;
            let (t_edge, id) = sched.pop().expect("two clocks registered");

            // Drain the shared DMA engine up to this edge; arrivals for
            // parked neighbours make them runnable at the next yield.
            let ready = self
                .vim
                .advance_dma_all(&mut self.imu, &mut self.dpram, t_edge);
            if !ready.is_empty() {
                route_demand_ready(&mut self.tenants, &mut self.vim, ready);
            }

            if id == imu_clk {
                let event = {
                    let t = &mut self.tenants[idx];
                    let mut link = PortLink::new(&mut t.port);
                    self.imu
                        .step(t_edge, &mut link, &mut self.dpram, &mut self.trace)
                };
                match event {
                    Some(ImuEvent::Fault) => {
                        self.irq.raise(self.pld_irq);
                        let svc = self.vim.service_fault(&mut self.imu, &mut self.dpram)?;
                        self.irq.acknowledge(self.pld_irq);
                        self.cpu_free_at = self.cpu_free_at.max(t_edge) + svc.times.total();
                        let used = t_edge.saturating_sub(segment_start);
                        let t = &mut self.tenants[idx];
                        t.stats.faults += 1;
                        if svc.pending {
                            // The demand movement is on the DMA engine:
                            // park this tenant and yield the fabric.
                            t.state = TenantState::Parked {
                                t_fault: t_edge,
                                svc_cpu: svc.times.total(),
                            };
                            t.stats.fabric_busy += used;
                            let asid = t.asid;
                            self.now = self.now.max(t_edge);
                            self.scheduler.charge(asid, used);
                            return Ok(());
                        }
                        // Synchronous service (page already arrived via
                        // a racing transfer): stall in place.
                        let resume_at = t_edge + svc.times.total();
                        t.stats.stall += svc.times.total();
                        sched.clock_mut(imu_clk).fast_forward_past(resume_at);
                        sched.clock_mut(cp_clk).fast_forward_past(resume_at);
                    }
                    Some(ImuEvent::Done) => {
                        self.irq.raise(self.pld_irq);
                        let done_svc = self
                            .vim
                            .service_done_multi(&mut self.imu, &mut self.dpram)?;
                        self.irq.acknowledge(self.pld_irq);
                        let svc_start = self.cpu_free_at.max(t_edge);
                        let finish = svc_start + done_svc.total();
                        self.cpu_free_at = finish;
                        let active = self.tenants[idx]
                            .active
                            .take()
                            .expect("done implies an active request");
                        let mut outputs = Vec::new();
                        for (id, dir) in active.manifest {
                            if let Some(obj) = self.vim.take_object(id) {
                                if dir != Direction::In {
                                    outputs.push((id, obj.into_data()));
                                }
                            }
                        }
                        let used = t_edge.saturating_sub(segment_start);
                        let t = &mut self.tenants[idx];
                        t.stats.completed += 1;
                        t.stats.fabric_busy += used;
                        t.stats
                            .latency
                            .record(finish.saturating_sub(active.started));
                        t.completed.push(CompletedRequest {
                            started: active.started,
                            finished: finish,
                            outputs,
                        });
                        t.state = if t.queue.is_empty() {
                            TenantState::Idle
                        } else {
                            TenantState::Ready
                        };
                        let asid = t.asid;
                        self.now = self.now.max(t_edge);
                        self.scheduler.charge(asid, used);
                        return Ok(());
                    }
                    None => {}
                }
            } else {
                let t = &mut self.tenants[idx];
                t.coprocessor.step(&mut t.port);
                t.stats.cp_cycles += 1;
            }
        }
    }
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
fn route_demand_ready(tenants: &mut [Tenant], vim: &mut Vim, ready: Vec<DemandReady>) {
    for r in ready {
        let Some(t) = tenants.iter_mut().find(|t| t.asid == r.asid) else {
            continue;
        };
        if let TenantState::Parked { t_fault, svc_cpu } = t.state {
            let irq = vim.cost().dma_completion_time() + vim.cost().resume_time();
            // Tenant reports have no recovery layer: the deadlines of
            // lost attempts (`r.recovered`) stay in the DMA wait.
            let wait_dp = r.at.saturating_sub(t_fault + svc_cpu);
            vim.credit_demand_stall(wait_dp, irq);
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
