//! The Virtual Interface Manager itself.
//!
//! "The interface manager responds to the requests coming from the IMU.
//! The OS determines the cause of the interrupt by examining the state of
//! the IMU. There are two possible requests: *Page Fault* [...] and *End
//! of Operation*." (Section 3.3.) [`Vim`] implements both services plus
//! the setup performed by `FPGA_MAP_OBJECT` / `FPGA_EXECUTE`, and prices
//! every action through the [`OsCostModel`] so the caller can split time
//! into the paper's `SW (DP)` and `SW (IMU)` components.

use std::collections::{BTreeMap, VecDeque};

use vcop_fabric::port::ObjectId;
use vcop_imu::imu::{ElemSize, FaultCause, Imu};
use vcop_imu::tlb::{Asid, TlbEntry, VirtualPage};
use vcop_sim::bus::SlaveProfile;
use vcop_sim::clock::ClockDomain;
use vcop_sim::dma::{AsyncDmaEngine, TransferId};
use vcop_sim::fault::{FaultInjector, FaultSite};
use vcop_sim::mem::{DualPortRam, PageIndex, Port};
use vcop_sim::time::SimTime;

use crate::cost::OsCostModel;
use crate::error::VimError;
use crate::frames::{FrameState, FrameTable, Resident};
use crate::object::{Direction, MapHints, MappedObject};
use crate::policy::{FrameView, PolicyKind, ReplacementPolicy};
use crate::prefetch::PrefetchMode;

/// Static VIM configuration ("tuned to the hardware characteristics of
/// the particular system; using the module on a system with a different
/// size of the dual-port memory would require only recompiling the
/// module").
#[derive(Debug, Clone, Copy)]
pub struct VimConfig {
    /// Interface page size in bytes.
    pub page_bytes: usize,
    /// Number of physical frames in the dual-port RAM.
    pub frame_count: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Prefetch strategy.
    pub prefetch: PrefetchMode,
    /// Skip the load copy for pages of pure-`OUT` objects (they carry no
    /// data into the coprocessor). The prototype copies unconditionally.
    pub skip_out_page_load: bool,
    /// Preload mapped pages into free frames during `FPGA_EXECUTE`
    /// ("FPGA_EXECUTE performs the mapping", Section 3.1) — this is why
    /// the paper's 2 KB adpcmdecode run "completes without causing page
    /// faults". Pages are installed round-robin across objects so
    /// sequential kernels keep both inputs and outputs resident.
    pub preload: bool,
    /// Overlap page traffic with coprocessor execution: demand faults
    /// *enqueue* their page movement on an asynchronous DMA engine and
    /// return; the coprocessor resumes on the completion interrupt
    /// rather than at fault-service return, and speculative (prefetch)
    /// loads and victim write-backs stream over the bus while the
    /// coprocessor keeps running — the paper's announced future work of
    /// "overlapping of processor and coprocessor execution"
    /// (Section 4.1).
    pub overlap: bool,
    /// Number of DMA channels when [`VimConfig::overlap`] is set. More
    /// channels let an urgent demand transfer run beside queued
    /// prefetches instead of behind them (round-robin bus arbitration at
    /// burst granularity).
    pub dma_channels: usize,
}

impl VimConfig {
    /// Prototype configuration for a device geometry.
    pub fn prototype(frame_count: usize, page_bytes: usize) -> Self {
        VimConfig {
            page_bytes,
            frame_count,
            policy: PolicyKind::Fifo,
            prefetch: PrefetchMode::None,
            skip_out_page_load: false,
            preload: true,
            overlap: false,
            dma_channels: 2,
        }
    }
}

/// Time a single OS service consumed, split into the paper's two software
/// components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceTimes {
    /// Dual-port RAM management: data transfers between user space and
    /// the interface memory.
    pub dp: SimTime,
    /// IMU management: interrupt handling, fault decode, translation
    /// table updates.
    pub imu: SimTime,
}

impl ServiceTimes {
    /// Sum of both components.
    pub fn total(&self) -> SimTime {
        self.dp + self.imu
    }
}

/// How much of the interface memory one execution owns, and so what its
/// setup and end-of-operation services may tear down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Exclusive use of the fabric, the paper's model: setup cancels
    /// every transfer and clears the whole frame table and TLB, and end
    /// of operation writes back and releases every frame.
    Table,
    /// One tenant of a shared fabric: setup and end of operation touch
    /// only the current address space's frames, parameter page and
    /// object layouts. Co-tenants' frames, TLB entries and in-flight
    /// transfers survive.
    Tenant,
}

/// Outcome of a fault service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultService {
    /// Synchronous CPU service time (decode, allocation, descriptor
    /// setup; in synchronous mode also the page copies).
    pub times: ServiceTimes,
    /// The demand page movement is in flight on the DMA engine
    /// (overlapped paging): the IMU was *not* resumed. The platform must
    /// keep calling [`Vim::advance_dma`] and resume the coprocessor when
    /// it reports [`DemandReady`].
    pub pending: bool,
}

/// Reported by [`Vim::advance_dma`] when the transfer the coprocessor is
/// stalled on completes: the page is mapped and the platform should
/// model the completion interrupt, resume the IMU, and account the
/// stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandReady {
    /// Bus-edge time the demand transfer completed.
    pub at: SimTime,
    /// Frame now holding the demand page.
    pub frame: PageIndex,
    /// Address space whose stalled coprocessor can now resume (the
    /// multi-tenant engine routes the wake-up by this).
    pub asid: Asid,
    /// Deadlines of timed-out attempts the page sat out before its
    /// re-submission arrived: time the platform charges to recovery
    /// rather than to data movement.
    pub recovered: SimTime,
}

/// The load that takes over an `Evicting` frame once its write-back
/// retires (coalesced write-back + load: the frame double-buffers
/// between the outgoing and incoming page).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainedLoad {
    asid: Asid,
    obj: ObjectId,
    vpage: u32,
    /// The coprocessor is stalled on this page.
    demand: bool,
}

/// Role of an in-flight DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InFlightKind {
    /// Inbound page load into a `Loading` frame.
    Load { demand: bool },
    /// Outbound write-back from an `Evicting` frame, optionally chained
    /// to the load that reuses the frame.
    Writeback { then_load: Option<ChainedLoad> },
}

/// Bookkeeping for one transfer queued on the async DMA engine.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    ticket: TransferId,
    frame: PageIndex,
    /// Address space the moving page belongs to.
    asid: Asid,
    /// Page moving (inbound for loads, outbound for write-backs).
    obj: ObjectId,
    vpage: u32,
    kind: InFlightKind,
    /// Times this transfer was re-submitted after a corrupt completion
    /// or a timeout.
    attempts: u32,
    /// The descriptor was dropped by an injected timeout: no data
    /// arrives, and the engine retiring the transfer when it would have
    /// completed stands for the driver's deadline expiring.
    timed_out: bool,
    /// Bus time of the timed-out attempts so far (see
    /// [`DemandReady::recovered`]).
    recovered: SimTime,
    /// The retry budget is spent: the transfer will never complete. Only
    /// a watchdog at a higher layer notices; the entry keeps its frame
    /// pinned until the execution is torn down or the tenant aborted.
    lost: bool,
}

vcop_sim::stats! {
    /// The VIM's event counts, one plain field per event, read through
    /// [`Vim::counters`].
    pub struct VimCounts: u64 {
        /// Fault interrupts serviced, whatever their cause.
        fault,
        /// Pages copied user memory → dual-port RAM.
        page_load,
        /// Pages copied dual-port RAM → user memory.
        page_writeback,
        /// Frames reclaimed from a resident page.
        eviction,
        /// Speculative page loads.
        prefetch,
        /// DMA transfers submitted (overlapped paging).
        dma_transfer,
        /// Parameter frames freed once the coprocessor invalidated them.
        param_freed,
        /// Lost fault interrupts found latched by the watchdog's poll.
        irq_poll,
        /// Transfers delayed by an injected bus stall.
        bus_stalled,
        /// Page transfers redone after an injected corruption or timeout.
        transfer_retry,
        /// Victims taken from another address space.
        cross_asid_steal,
        /// DMA transfers whose deadline expired.
        dma_timeout,
        /// DMA transfers given up after the retry budget.
        dma_lost,
        /// Timed-out DMA transfers re-submitted.
        timeout_resubmit,
        /// DMA loads that completed and were mapped.
        install_committed,
        /// In-flight transfers cancelled by a [`Scope::Table`] service.
        dma_cancelled,
        /// TLB parity upsets serviced.
        parity_fault,
        /// Faults on a page already inbound on the DMA engine.
        fault_on_loading,
        /// Demand loads deferred because every frame was pinned.
        demand_deferred,
    }
}

vcop_sim::stats! {
    /// The VIM's service time per component, read through
    /// [`Vim::times`].
    pub struct VimTimes: SimTime {
        /// Data movement between user memory and the dual-port RAM —
        /// the figures' `SW (DP)`.
        sw_dp,
        /// Fault decoding, translation upkeep and syscall entry — the
        /// figures' `SW (IMU)`.
        sw_imu,
        /// DMA bus time hidden under coprocessor execution.
        dma_hidden,
    }
}

/// The Virtual Interface Manager.
#[derive(Debug)]
pub struct Vim {
    config: VimConfig,
    /// Mapped objects, keyed by `(asid, object id)`: object ids are
    /// per-process names, so two tenants can both map an `ObjectId(0)`.
    objects: BTreeMap<(u16, u8), MappedObject>,
    frames: FrameTable,
    /// Per frame: its page arrived on the DMA engine as a demand page
    /// (see [`FrameView::awaited`]).
    demand_arrived: Vec<bool>,
    policy: Box<dyn ReplacementPolicy>,
    cost: OsCostModel,
    counts: VimCounts,
    times: VimTimes,
    user_alloc_next: usize,
    /// Parameter frame per address space (one per active execution).
    param_frames: BTreeMap<u16, PageIndex>,
    /// Address space the syscall-facing methods act for.
    current_asid: Asid,
    /// Per-tenant frame ownership ranges; `None` = fully shared frames
    /// (any tenant's allocation may steal any resident frame).
    partition: Option<BTreeMap<u16, (usize, usize)>>,
    /// The async DMA engine (overlapped paging only).
    dma: Option<AsyncDmaEngine>,
    /// Bus clock the engine advances on; [`Vim::advance_dma`] catches it
    /// up to the platform's current time.
    bus_clock: Option<ClockDomain>,
    /// Transfers queued on the engine, by ticket.
    in_flight: Vec<InFlight>,
    /// Demand pages whose loads could not start because every candidate
    /// frame was pinned by an in-flight transfer; retried on each
    /// completion. One entry per stalled tenant.
    deferred_demand: VecDeque<(Asid, ObjectId, u32)>,
    /// Fault injector consulted at every transfer opportunity. Disabled
    /// by default, in which case every injection path is a single
    /// branch.
    faults: FaultInjector,
    /// A synchronous transfer exhausted its retries; surfaced as
    /// [`VimError::TransferFault`] by the service that triggered it.
    transfer_failure: Option<(ObjectId, u32)>,
    /// The dirty pages the last end-of-operation service found, with
    /// the bytes their frames held: [`Vim::check_invariants`] verifies
    /// that user memory received them. Cleared when an object is mapped,
    /// an execution is prepared or the CPU writes an object.
    done_dirty: Vec<(Resident, Vec<u8>)>,
}

impl Vim {
    /// Bounded retry budget for one page transfer before the fault
    /// escalates ([`VimError::TransferFault`] on synchronous paths, a
    /// lost transfer on overlapped ones).
    const MAX_TRANSFER_RETRIES: u32 = 3;

    /// Creates a VIM for the given geometry and cost model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero frames or pages).
    pub fn new(config: VimConfig, cost: OsCostModel) -> Self {
        assert!(config.frame_count > 0, "VIM needs frames");
        assert!(config.page_bytes > 0, "VIM needs a page size");
        let dma = config
            .overlap
            .then(|| AsyncDmaEngine::new(*cost.dma_config(), config.dma_channels));
        let bus_clock = config
            .overlap
            .then(|| ClockDomain::new(cost.bus().frequency()));
        Vim {
            frames: FrameTable::new(config.frame_count),
            demand_arrived: vec![false; config.frame_count],
            policy: config.policy.build(),
            config,
            objects: BTreeMap::new(),
            cost,
            counts: VimCounts::default(),
            times: VimTimes::default(),
            // Skip address 0 so object bases look like real user pointers.
            user_alloc_next: 0x10000,
            param_frames: BTreeMap::new(),
            current_asid: Asid::SINGLE,
            partition: None,
            dma,
            bus_clock,
            in_flight: Vec::new(),
            deferred_demand: VecDeque::new(),
            faults: FaultInjector::disabled(),
            transfer_failure: None,
            done_dirty: Vec::new(),
        }
    }

    /// The address space the syscall-facing methods currently act for.
    pub fn asid(&self) -> Asid {
        self.current_asid
    }

    /// Selects the address space for subsequent syscalls and services.
    /// The multi-tenant engine calls this on every context switch,
    /// together with [`Imu::set_asid`].
    pub fn set_asid(&mut self, asid: Asid) {
        self.current_asid = asid;
    }

    /// Assigns each tenant an exclusive frame range (`start..end`).
    /// Allocations for a tenant then never leave its range, so tenants
    /// cannot steal each other's frames — the "partitioned" arm of the
    /// throughput ablation. Pass ranges covering disjoint frames; no
    /// validation is performed beyond clamping to the frame count.
    pub fn partition_frames(&mut self, ranges: &[(Asid, core::ops::Range<usize>)]) {
        self.partition = Some(
            ranges
                .iter()
                .map(|(a, r)| (a.0, (r.start, r.end)))
                .collect(),
        );
    }

    /// The frame range tenant `asid` may allocate from.
    fn alloc_range(&self, asid: Asid) -> core::ops::Range<usize> {
        match self
            .partition
            .as_ref()
            .and_then(|p| p.get(&asid.0).copied())
        {
            Some((start, end)) => start..end,
            None => 0..self.config.frame_count,
        }
    }

    /// Whether tenant `asid`'s allocation range has a free frame, as
    /// [`Vim::prepare_execute`] needs for the parameter page.
    pub fn has_free_frame(&self, asid: Asid) -> bool {
        self.frames.find_free_in(self.alloc_range(asid)).is_some()
    }

    /// The configuration in force.
    pub fn config(&self) -> &VimConfig {
        &self.config
    }

    /// Event counts since construction (see [`VimCounts`]): `fault`,
    /// `page_load`, `page_writeback`, `eviction`, `prefetch`,
    /// `dma_transfer`, `param_freed`, `irq_poll`, `bus_stalled`,
    /// `transfer_retry`, `cross_asid_steal`, `dma_timeout`, `dma_lost`,
    /// `timeout_resubmit`, `install_committed`, `dma_cancelled`,
    /// `parity_fault`, `fault_on_loading` and `demand_deferred`.
    /// Subtract two snapshots for an interval; [`VimCounts::get`] reads
    /// a field by name for external readers.
    pub fn counters(&self) -> &VimCounts {
        &self.counts
    }

    /// The OS cost model pricing the manager's work.
    pub fn cost(&self) -> &OsCostModel {
        &self.cost
    }

    /// Service time since construction: `sw_dp`, `sw_imu` and
    /// `dma_hidden` (see [`VimTimes`]). Subtract two snapshots for an
    /// interval; [`VimTimes::get`] reads a field by name for external
    /// readers.
    pub fn times(&self) -> &VimTimes {
        &self.times
    }

    /// The mapped object `id` of the current address space, if present.
    pub fn object(&self, id: ObjectId) -> Option<&MappedObject> {
        self.objects.get(&(self.current_asid.0, id.0))
    }

    /// Mutable view of object `id`'s user buffer in the current address
    /// space. The software-fallback path writes recomputed results
    /// through this, exactly where the hardware write-backs would have
    /// landed.
    pub fn object_data_mut(&mut self, id: ObjectId) -> Option<&mut [u8]> {
        self.done_dirty.clear();
        self.objects
            .get_mut(&(self.current_asid.0, id.0))
            .map(|o| o.data_mut().as_mut_slice())
    }

    /// Arms (or disarms) fault injection. All transfer, bus and
    /// configuration opportunities in this manager roll on the given
    /// injector from now on.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = injector;
    }

    /// The fault injector (for reading fired counters).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Mutable injector access — the platform rolls IRQ, bitstream and
    /// parity opportunities on the same injector so one seed drives the
    /// whole stack.
    pub fn fault_injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// Changes whenever the manager serviced a fault or moved a page in
    /// or out; the platform's no-progress watchdog compares it between
    /// loop iterations.
    pub fn progress_epoch(&self) -> u64 {
        let c = &self.counts;
        c.fault + c.page_load + c.page_writeback
    }

    /// The watchdog's last look before it resets the fabric: reads the
    /// IMU status register and reports whether a translation miss is
    /// latched in `SR.fault` — a miss whose interrupt was lost, which
    /// [`Vim::service_fault`] can still serve in place. Counted as
    /// `irq_poll` when it finds one.
    pub fn poll_lost_fault(&mut self, imu: &Imu) -> bool {
        let latched = imu.status().fault;
        if latched {
            self.counts.irq_poll += 1;
        }
        latched
    }

    /// Whether a page tenant `asid`'s coprocessor is (or will be)
    /// stalled on can no longer arrive: its transfer exhausted its retry
    /// budget. The platform's watchdogs poll this to fail fast instead
    /// of idling out the edge budget.
    pub fn demand_lost_for(&self, asid: Asid) -> bool {
        self.in_flight.iter().any(|f| {
            f.lost
                && match f.kind {
                    InFlightKind::Load { demand } => demand && f.asid == asid,
                    InFlightKind::Writeback { then_load } => {
                        matches!(then_load, Some(c) if c.demand && c.asid == asid)
                    }
                }
        })
    }

    /// Converts a recorded synchronous-transfer failure into its error.
    fn check_transfer_failure(&mut self) -> Result<(), VimError> {
        match self.transfer_failure.take() {
            Some((obj, vpage)) => Err(VimError::TransferFault { obj, vpage }),
            None => Ok(()),
        }
    }

    /// Rolls the injected-fault sites that afflict one synchronous page
    /// copy priced at `base`: a corrupt copy is redone (bounded by the
    /// retry budget, each redo paying the copy again plus descriptor
    /// setup), and a bus stall stretches the copy. Returns the total
    /// time; on an exhausted retry budget the failure is recorded for
    /// [`Vim::check_transfer_failure`] and the page's data must not be
    /// trusted.
    fn inject_copy_faults(
        &mut self,
        base: SimTime,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
    ) -> SimTime {
        if !self.faults.is_enabled() {
            return base;
        }
        let mut total = base;
        if self.faults.roll_tagged(FaultSite::BusStall, asid.0) {
            total += self.bus_time(self.faults.bus_stall_cycles());
            self.counts.bus_stalled += 1;
        }
        let mut attempts = 0u32;
        while self.faults.roll_tagged(FaultSite::DmaCorrupt, asid.0) {
            attempts += 1;
            if attempts > Self::MAX_TRANSFER_RETRIES {
                self.transfer_failure = Some((obj, vpage));
                return total;
            }
            // Redo the copy: the CRC check caught the corruption, the
            // driver reprograms the descriptor and pays the move again.
            total += base + self.cost.dma_setup_time();
            self.counts.transfer_retry += 1;
        }
        total
    }

    /// Objects mapped by the current address space, in id order.
    fn own_objects(&self) -> impl Iterator<Item = &MappedObject> {
        let asid = self.current_asid.0;
        self.objects
            .range((asid, 0)..=(asid, u8::MAX))
            .map(|(_, o)| o)
    }

    /// Removes and returns object `id` of the current address space
    /// (results retrieval after end-of-operation service).
    pub fn take_object(&mut self, id: ObjectId) -> Option<MappedObject> {
        let taken = self.objects.remove(&(self.current_asid.0, id.0));
        if self.objects.is_empty() {
            // With nothing mapped the user allocator can rewind, so a
            // re-mapped object set lands on the same user addresses (and
            // the same SDRAM row geometry) as on a fresh system.
            self.user_alloc_next = 0x10000;
        }
        taken
    }

    /// Implements `FPGA_MAP_OBJECT`: declares `data` as object `id` with
    /// the given element size, direction and hints. Returns the syscall
    /// service time.
    ///
    /// # Errors
    ///
    /// Rejects the reserved id, duplicates, empty buffers, lengths that
    /// are not a multiple of the element size, and objects that do not
    /// fit the rest of user SDRAM.
    pub fn map_object(
        &mut self,
        id: ObjectId,
        data: Vec<u8>,
        elem: ElemSize,
        direction: Direction,
        hints: MapHints,
    ) -> Result<SimTime, VimError> {
        if id.is_param() {
            return Err(VimError::ReservedObject);
        }
        if self.objects.contains_key(&(self.current_asid.0, id.0)) {
            return Err(VimError::DuplicateObject(id));
        }
        if data.is_empty() {
            return Err(VimError::EmptyObject(id));
        }
        if !data.len().is_multiple_of(elem.bytes()) {
            return Err(VimError::UnalignedObject(id));
        }
        let user_base = self.user_alloc_next;
        let reserved = data.len().next_multiple_of(64);
        if !self.cost.fits_user_memory(user_base, reserved) {
            return Err(VimError::ExceedsUserMemory(id));
        }
        self.done_dirty.clear();
        self.user_alloc_next += reserved;
        self.objects.insert(
            (self.current_asid.0, id.0),
            MappedObject::new(id, direction, elem, data, user_base, hints),
        );
        let t = self.cost.syscall_time();
        self.times.sw_imu += t;
        Ok(t)
    }

    /// Implements the setup half of `FPGA_EXECUTE`: programs the current
    /// address space's object layouts into the IMU, writes the scalar
    /// `params` into a free parameter frame and designates it, and (with
    /// [`VimConfig::preload`]) installs mapped pages into the free
    /// frames. With [`Scope::Table`] the translation state is cleared
    /// first. Returns the setup service time. The caller then asserts
    /// `CR.start`.
    ///
    /// # Errors
    ///
    /// [`VimError::TooManyParams`] if `params` exceeds one page;
    /// [`VimError::NoFrameAvailable`] when no frame in the address
    /// space's allocation range is free for the parameter page.
    pub fn prepare_execute(
        &mut self,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        params: &[u32],
        scope: Scope,
    ) -> Result<SimTime, VimError> {
        self.done_dirty.clear();
        let capacity = self.config.page_bytes / 4;
        if params.len() > capacity {
            return Err(VimError::TooManyParams {
                requested: params.len(),
                capacity,
            });
        }
        if scope == Scope::Table {
            self.cancel_in_flight(imu);
            if let Some(clock) = &mut self.bus_clock {
                // The platform restarts its edge timeline at zero for
                // each execution; the DMA bus clock follows suit.
                *clock = ClockDomain::new(self.cost.bus().frequency());
            }
            // Refresh during the idle gap between operations precharges
            // all SDRAM banks, so row locality never leaks across
            // executions.
            self.cost.precharge_sdram();
            self.frames.clear();
            imu.tlb_mut().invalidate_all();
        }
        imu.clear_object_layouts();
        let asid = self.current_asid;
        for o in self.own_objects() {
            imu.set_object_layout(o.id(), o.elem());
        }
        let pframe = self
            .frames
            .find_free_in(self.alloc_range(asid))
            .ok_or(VimError::NoFrameAvailable)?;
        self.frames.reserve_params(pframe, asid);
        self.param_frames.insert(asid.0, pframe);
        let base = pframe.0 * self.config.page_bytes;
        for (i, &w) in params.iter().enumerate() {
            dpram
                .write_word(Port::Cpu, base + i * 4, w)
                .expect("parameter page is in range");
        }
        imu.set_param_frame(pframe);

        // Perform the initial mapping: install pages into the free
        // frames, round-robin across objects by ascending virtual page,
        // until the interface memory is full. Demand paging covers the
        // rest.
        let mut preload_times = ServiceTimes::default();
        if self.config.preload {
            let plan: Vec<(ObjectId, u32)> = {
                let ids: Vec<(ObjectId, u32)> = self
                    .own_objects()
                    .map(|o| (o.id(), o.page_count(self.config.page_bytes)))
                    .collect();
                let max_pages = ids.iter().map(|&(_, p)| p).max().unwrap_or(0);
                (0..max_pages)
                    .flat_map(|vp| {
                        ids.iter()
                            .filter(move |&&(_, pages)| vp < pages)
                            .map(move |&(id, _)| (id, vp))
                    })
                    .collect()
            };
            for (obj, vpage) in plan {
                let Some(frame) = self.frames.find_free_in(self.alloc_range(asid)) else {
                    break;
                };
                self.install_page(asid, obj, vpage, frame, imu, dpram, &mut preload_times);
            }
        }

        let t = self.cost.syscall_time()
            + self.cost.param_setup_time(params.len())
            + preload_times.total();
        self.times.sw_imu += self.cost.syscall_time() + preload_times.imu;
        self.times.sw_dp += self.cost.param_setup_time(params.len()) + preload_times.dp;
        Ok(t)
    }

    /// Releases the parameter frame if the coprocessor has invalidated
    /// the parameter page since the last service.
    fn reap_param_frame(&mut self, imu: &Imu) {
        if imu.param_frame().is_none() {
            if let Some(f) = self.param_frames.remove(&self.current_asid.0) {
                self.frames.release_params(f);
                self.counts.param_freed += 1;
            }
        }
    }

    /// Replacement-candidate views for an allocation by `asid`: every
    /// unpinned resident frame in the tenant's allocation range. With
    /// shared frames that is all residents — another tenant's page is a
    /// legitimate victim (its write-back is the lazy, pay-per-steal part
    /// of the context switch); partitioned, only the tenant's own.
    fn frame_views(&self, imu: &Imu, asid: Asid) -> Vec<FrameView> {
        let range = self.alloc_range(asid);
        self.frames
            .residents()
            .into_iter()
            .filter(|(frame, _)| range.contains(&frame.0))
            .map(|(frame, r)| {
                let usage = imu.tlb().usage(frame.0);
                let sticky = self
                    .objects
                    .get(&(r.asid.0, r.obj.0))
                    .map(|o| o.hints().sticky)
                    .unwrap_or(false);
                FrameView {
                    frame: frame.0,
                    loaded_seq: r.loaded_seq,
                    accesses: usage.accesses,
                    last_access: usage.last_access,
                    awaited: self.demand_arrived[frame.0] && usage.accesses == 0,
                    sticky,
                }
            })
            .collect()
    }

    /// Functionally copies page `vpage` of `obj` from user space into
    /// `frame` (no cost accounting). Returns `(user_addr, bytes)`, or
    /// `None` when the load is skipped for a pure-`OUT` object.
    fn copy_page_in(
        &mut self,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        frame: PageIndex,
        dpram: &mut DualPortRam,
    ) -> Option<(usize, usize)> {
        let o = self
            .objects
            .get(&(asid.0, obj.0))
            .expect("validated by caller");
        let (start, end) = o
            .page_range(vpage, self.config.page_bytes)
            .expect("validated by caller");
        let bytes = end - start;
        if self.config.skip_out_page_load && !o.direction().loads() {
            return None;
        }
        let user_addr = o.user_base() + start;
        let slice = o.data()[start..end].to_vec();
        dpram
            .write_slice(Port::Cpu, frame.0 * self.config.page_bytes, &slice)
            .expect("frame address in range");
        self.counts.page_load += 1;
        Some((user_addr, bytes))
    }

    /// Functionally copies `frame` back into page `vpage` of `obj` (no
    /// cost accounting). Returns `(user_addr, bytes)`.
    fn copy_page_out(
        &mut self,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        frame: PageIndex,
        dpram: &mut DualPortRam,
    ) -> (usize, usize) {
        let page_bytes = self.config.page_bytes;
        let o = self
            .objects
            .get_mut(&(asid.0, obj.0))
            .expect("resident object exists");
        let (start, end) = o
            .page_range(vpage, page_bytes)
            .expect("resident page is in range");
        let bytes = end - start;
        let user_addr = o.user_base() + start;
        let mut buf = vec![0u8; bytes];
        dpram
            .read_slice(Port::Cpu, frame.0 * page_bytes, &mut buf)
            .expect("frame address in range");
        o.data_mut()[start..end].copy_from_slice(&buf);
        self.counts.page_writeback += 1;
        (user_addr, bytes)
    }

    /// Copies page `vpage` of object `obj` from user space into `frame`,
    /// returning the transfer time (zero if the load is skipped for a
    /// pure-`OUT` object).
    fn load_page(
        &mut self,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        frame: PageIndex,
        dpram: &mut DualPortRam,
    ) -> SimTime {
        match self.copy_page_in(asid, obj, vpage, frame, dpram) {
            Some((user_addr, bytes)) => {
                let base = self.cost.page_move_time(user_addr, bytes);
                self.inject_copy_faults(base, asid, obj, vpage)
            }
            None => SimTime::ZERO,
        }
    }

    /// Copies `frame` back into page `vpage` of object `obj`, returning
    /// the transfer time.
    fn writeback_page(
        &mut self,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        frame: PageIndex,
        dpram: &mut DualPortRam,
    ) -> SimTime {
        let (user_addr, bytes) = self.copy_page_out(asid, obj, vpage, frame, dpram);
        let base = self.cost.page_move_time(user_addr, bytes);
        self.inject_copy_faults(base, asid, obj, vpage)
    }

    /// Claims a frame in `asid`'s allocation range for an incoming page:
    /// a free frame if one exists, else a policy-chosen victim among the
    /// unpinned residents — only clean ones when `clean_only`, never
    /// `protect`. A victim is unmapped and dropped from the policy; its
    /// frame-table state is the caller's to change. Returns the frame
    /// and, for a victim, the page that resided there and whether it was
    /// dirty; `None` when no frame qualifies.
    fn claim_frame(
        &mut self,
        asid: Asid,
        imu: &mut Imu,
        clean_only: bool,
        protect: Option<PageIndex>,
        out: &mut ServiceTimes,
    ) -> Option<(PageIndex, Option<(Resident, bool)>)> {
        if let Some(f) = self.frames.find_free_in(self.alloc_range(asid)) {
            return Some((f, None));
        }
        let views: Vec<FrameView> = self
            .frame_views(imu, asid)
            .into_iter()
            .filter(|v| {
                Some(PageIndex(v.frame)) != protect
                    && !(clean_only && imu.tlb().entry(v.frame).dirty)
            })
            .collect();
        if views.is_empty() {
            return None;
        }
        let victim = PageIndex(self.policy.choose_victim(&views));
        let FrameState::Resident(resident) = self.frames.state(victim) else {
            return None;
        };
        // The TLB entry for a frame lives at the same index (one entry
        // per frame; see vcop-imu::tlb). The victim may belong to a
        // parked tenant — its write-back is priced lazily, only because
        // the incoming tenant actually steals the frame.
        if resident.asid != asid {
            self.counts.cross_asid_steal += 1;
        }
        let dirty = imu.tlb().entry(victim.0).dirty;
        imu.tlb_mut().invalidate(victim.0);
        out.imu += self.cost.tlb_update_time();
        self.policy.on_evict(resident.obj, resident.vpage);
        self.counts.eviction += 1;
        Some((victim, Some((resident, dirty))))
    }

    /// Allocates a frame for a new demand page, evicting (and writing
    /// back a dirty victim) if necessary.
    fn allocate_frame(
        &mut self,
        asid: Asid,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        out: &mut ServiceTimes,
    ) -> Result<PageIndex, VimError> {
        let (frame, victim) = self
            .claim_frame(asid, imu, false, None, out)
            .ok_or(VimError::NoFrameAvailable)?;
        if let Some((r, dirty)) = victim {
            if dirty {
                out.dp += self.writeback_page(r.asid, r.obj, r.vpage, frame, dpram);
            }
            self.frames.evict(frame);
        }
        Ok(frame)
    }

    /// Installs page `vpage` of `obj` into `frame`: loads the data and
    /// writes the TLB entry.
    #[allow(clippy::too_many_arguments)]
    fn install_page(
        &mut self,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        frame: PageIndex,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        out: &mut ServiceTimes,
    ) {
        out.dp += self.load_page(asid, obj, vpage, frame, dpram);
        self.frames.install(frame, asid, obj, vpage);
        self.demand_arrived[frame.0] = false;
        imu.tlb_mut().set_entry(
            frame.0,
            TlbEntry {
                valid: true,
                dirty: false,
                asid,
                vpage: VirtualPage { obj, page: vpage },
                frame,
            },
        );
        out.imu += self.cost.tlb_update_time();
        self.policy.on_load(frame.0);
    }

    /// Time of `cycles` bus cycles at the DMA engine's clock.
    fn bus_time(&self, cycles: u64) -> SimTime {
        self.cost.bus().frequency().cycles(cycles)
    }

    /// Whether page `vpage` of `obj` is inbound on an in-flight transfer
    /// (a queued load, or the chained load of a write-back).
    fn is_inbound(&self, asid: Asid, obj: ObjectId, vpage: u32) -> bool {
        self.in_flight.iter().any(|f| match f.kind {
            InFlightKind::Load { .. } => f.asid == asid && f.obj == obj && f.vpage == vpage,
            InFlightKind::Writeback { then_load } => {
                matches!(then_load, Some(c) if c.asid == asid && c.obj == obj && c.vpage == vpage)
            }
        })
    }

    /// Marks the inbound transfer of `(obj, vpage)` — queued load or
    /// chained load — as the demand the coprocessor is stalled on.
    /// Returns whether such a transfer existed.
    fn mark_inbound_demand(&mut self, asid: Asid, obj: ObjectId, vpage: u32) -> bool {
        for f in &mut self.in_flight {
            match &mut f.kind {
                InFlightKind::Load { demand }
                    if f.asid == asid && f.obj == obj && f.vpage == vpage =>
                {
                    *demand = true;
                    return true;
                }
                InFlightKind::Writeback { then_load: Some(c) }
                    if c.asid == asid && c.obj == obj && c.vpage == vpage =>
                {
                    c.demand = true;
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Enqueues an asynchronous DMA load of `(obj, vpage)` into `frame`.
    /// The caller has already put the frame into the `Loading` state.
    /// The data is staged functionally now — the TLB entry is written
    /// *invalid*, so the coprocessor cannot observe the page until the
    /// transfer's timing completes — and the CPU pays only descriptor
    /// setup.
    #[allow(clippy::too_many_arguments)]
    fn submit_load(
        &mut self,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        frame: PageIndex,
        demand: bool,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        out: &mut ServiceTimes,
    ) {
        imu.tlb_mut().set_entry(
            frame.0,
            TlbEntry {
                valid: false,
                dirty: false,
                asid,
                vpage: VirtualPage { obj, page: vpage },
                frame,
            },
        );
        out.imu += self.cost.tlb_update_time() + self.cost.dma_setup_time();
        let kind = InFlightKind::Load { demand };
        self.track(frame, asid, obj, vpage, kind, dpram);
    }

    /// Enqueues an asynchronous write-back of `resident` out of `frame`
    /// (already in the `Evicting` state), optionally chaining the load
    /// that reuses the frame once the write-back retires. The user
    /// buffer is updated functionally now; the departing page was
    /// unmapped by the caller, so the coprocessor can no longer dirty it.
    fn submit_writeback(
        &mut self,
        frame: PageIndex,
        resident: Resident,
        then_load: Option<ChainedLoad>,
        dpram: &mut DualPortRam,
        out: &mut ServiceTimes,
    ) {
        out.imu += self.cost.dma_setup_time();
        let kind = InFlightKind::Writeback { then_load };
        let r = resident;
        self.track(frame, r.asid, r.obj, r.vpage, kind, dpram);
    }

    /// Stages the data of a transfer of page `vpage` of `obj` through
    /// `frame` — inbound for a load, outbound for a write-back — and
    /// submits it to the DMA engine. Returns the engine ticket.
    fn stage_and_submit(
        &mut self,
        frame: PageIndex,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        kind: InFlightKind,
        dpram: &mut DualPortRam,
    ) -> TransferId {
        // Pure-OUT pages with `skip_out_page_load` move no data: the
        // descriptor-only transfer still round-trips the engine so every
        // demand resolves through the same completion path.
        let (bytes, from, to) = match kind {
            InFlightKind::Load { .. } => (
                self.copy_page_in(asid, obj, vpage, frame, dpram)
                    .map_or(0, |(_, b)| b),
                SlaveProfile::SDRAM,
                SlaveProfile::DPRAM,
            ),
            InFlightKind::Writeback { .. } => (
                self.copy_page_out(asid, obj, vpage, frame, dpram).1,
                SlaveProfile::DPRAM,
                SlaveProfile::SDRAM,
            ),
        };
        let bus = *self.cost.bus();
        self.dma
            .as_mut()
            .expect("overlap engine")
            .submit(&bus, bytes, from, to)
    }

    /// Submits a new transfer (see [`Vim::stage_and_submit`]), tracks it
    /// in flight and rolls its submit-time fault sites.
    fn track(
        &mut self,
        frame: PageIndex,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        kind: InFlightKind,
        dpram: &mut DualPortRam,
    ) {
        let ticket = self.stage_and_submit(frame, asid, obj, vpage, kind, dpram);
        self.in_flight.push(InFlight {
            ticket,
            frame,
            asid,
            obj,
            vpage,
            kind,
            attempts: 0,
            timed_out: false,
            recovered: SimTime::ZERO,
            lost: false,
        });
        self.counts.dma_transfer += 1;
        self.inject_submit_faults(ticket, asid);
    }

    /// Rolls the injected-fault sites that afflict a freshly submitted
    /// asynchronous transfer: a timeout drops its descriptor (the
    /// tracked entry is marked timed out and its engine completion
    /// becomes the deadline), a bus stall stretches it. Must be called
    /// with the transfer already pushed onto `in_flight`.
    fn inject_submit_faults(&mut self, ticket: TransferId, asid: Asid) {
        if !self.faults.is_enabled() {
            return;
        }
        if self.faults.roll_tagged(FaultSite::DmaTimeout, asid.0) {
            if let Some(f) = self.in_flight.iter_mut().find(|f| f.ticket == ticket) {
                f.timed_out = true;
            }
            self.counts.dma_timeout += 1;
        } else if self.faults.roll_tagged(FaultSite::BusStall, asid.0) {
            let cycles = self.faults.bus_stall_cycles();
            self.dma
                .as_mut()
                .expect("overlap engine")
                .stall_transfer(ticket, cycles);
            self.counts.bus_stalled += 1;
        }
    }

    /// Allocates a frame for the demand page and starts its asynchronous
    /// load. A dirty victim coalesces: its write-back is enqueued with
    /// the demand load chained onto completion. Returns `false` when
    /// every candidate frame is pinned (the caller defers the demand).
    fn start_demand_load(
        &mut self,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        out: &mut ServiceTimes,
    ) -> bool {
        let Some((frame, victim)) = self.claim_frame(asid, imu, false, None, out) else {
            return false;
        };
        match victim {
            Some((resident, true)) => {
                self.frames.begin_evict(frame);
                let chain = ChainedLoad {
                    asid,
                    obj,
                    vpage,
                    demand: true,
                };
                self.submit_writeback(frame, resident, Some(chain), dpram, out);
            }
            _ => {
                self.frames.evict(frame);
                self.frames.begin_load(frame, asid, obj, vpage);
                self.submit_load(asid, obj, vpage, frame, true, imu, dpram, out);
            }
        }
        true
    }

    /// Retries deferred demands after a completion freed or unpinned
    /// frames. Reports [`DemandReady`] directly into `ready` if a page
    /// arrived by other means (e.g. a speculative load of the same
    /// page). With several tenants parked on the same engine, one
    /// completion window can unblock more than one of them.
    fn retry_deferred(
        &mut self,
        t: SimTime,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        ready: &mut Vec<DemandReady>,
    ) {
        let pending = std::mem::take(&mut self.deferred_demand);
        for (asid, obj, vpage) in pending {
            if let Some(frame) = self.frames.frame_of(asid, obj, vpage) {
                ready.push(DemandReady {
                    at: t,
                    frame,
                    asid,
                    recovered: SimTime::ZERO,
                });
                continue;
            }
            if self.mark_inbound_demand(asid, obj, vpage) {
                continue;
            }
            let mut out = ServiceTimes::default();
            if self.start_demand_load(asid, obj, vpage, imu, dpram, &mut out) {
                // Retry work happens under the completion interrupt,
                // hidden from the synchronous stall only in the sense
                // that the platform folds it into the demand wait it
                // measures.
                self.charge(out);
            } else {
                self.deferred_demand.push_back((asid, obj, vpage));
            }
        }
    }

    /// Requeues the transfer at `in_flight[idx]` after its completion
    /// arrived corrupt or its deadline expired: the data is re-staged
    /// and a fresh engine transfer submitted with the same geometry,
    /// charged as completion interrupt + descriptor setup. The
    /// re-submission rolls the submit-time fault sites again, so it can
    /// itself time out or stall. With the retry budget spent the
    /// transfer is abandoned instead — its frame stays pinned and the
    /// entry is marked lost, which a demand-side watchdog will notice.
    fn retry_completion(&mut self, idx: usize, dpram: &mut DualPortRam) {
        let e = self.in_flight[idx];
        if e.attempts >= Self::MAX_TRANSFER_RETRIES {
            self.in_flight[idx].lost = true;
            self.counts.dma_lost += 1;
            self.times.sw_imu += self.cost.dma_completion_time();
            return;
        }
        let ticket = self.stage_and_submit(e.frame, e.asid, e.obj, e.vpage, e.kind, dpram);
        let f = &mut self.in_flight[idx];
        f.ticket = ticket;
        f.attempts += 1;
        f.timed_out = false;
        self.times.sw_imu += self.cost.dma_completion_time() + self.cost.dma_setup_time();
        self.counts.transfer_retry += 1;
        if e.timed_out {
            self.counts.timeout_resubmit += 1;
        }
        self.inject_submit_faults(ticket, e.asid);
    }

    /// Applies one engine completion at bus-edge time `t`.
    fn handle_completion(
        &mut self,
        completion: vcop_sim::dma::DmaCompletion,
        t: SimTime,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        ready: &mut Vec<DemandReady>,
    ) {
        let idx = self
            .in_flight
            .iter()
            .position(|f| f.ticket == completion.id)
            .expect("completion for a tracked transfer");
        if self.in_flight[idx].timed_out {
            // The dropped descriptor's deadline: the driver re-submits
            // the transfer (or, with the retry budget spent, abandons it
            // as lost). The coprocessor's wait so far is recovery time.
            let deadline = self.bus_time(completion.bus_cycles);
            self.in_flight[idx].recovered += deadline;
            self.retry_completion(idx, dpram);
            return;
        }
        if self
            .faults
            .roll_tagged(FaultSite::DmaCorrupt, self.in_flight[idx].asid.0)
        {
            // The payload arrived corrupt: the completion handler's CRC
            // check rejects it and the transfer is re-queued (or, with
            // the retry budget spent, abandoned as lost).
            self.retry_completion(idx, dpram);
            return;
        }
        let entry = self.in_flight.remove(idx);
        match entry.kind {
            InFlightKind::Load { demand } => {
                self.frames
                    .finish_load(entry.frame)
                    .expect("completed load frame was Loading");
                self.demand_arrived[entry.frame.0] = demand;
                imu.tlb_mut().set_entry(
                    entry.frame.0,
                    TlbEntry {
                        valid: true,
                        dirty: false,
                        asid: entry.asid,
                        vpage: VirtualPage {
                            obj: entry.obj,
                            page: entry.vpage,
                        },
                        frame: entry.frame,
                    },
                );
                self.policy.on_load(entry.frame.0);
                self.counts.install_committed += 1;
                if demand {
                    // Stall accounting (wait time, completion interrupt,
                    // resume) is the platform's: it knows the fault time.
                    ready.push(DemandReady {
                        at: t,
                        frame: entry.frame,
                        asid: entry.asid,
                        recovered: entry.recovered,
                    });
                } else {
                    // Fully hidden under coprocessor execution: the bus
                    // time goes to the separate hidden account, the
                    // completion interrupt to the serial `sw_imu` sum.
                    self.times.dma_hidden += self.bus_time(completion.bus_cycles);
                    self.times.sw_imu += self.cost.dma_completion_time();
                    self.retry_deferred(t, imu, dpram, ready);
                }
            }
            InFlightKind::Writeback { then_load } => {
                match then_load {
                    Some(chain) => {
                        self.frames
                            .retarget_load(entry.frame, chain.asid, chain.obj, chain.vpage)
                            .expect("completed write-back frame was Evicting");
                        let mut out = ServiceTimes::default();
                        self.submit_load(
                            chain.asid,
                            chain.obj,
                            chain.vpage,
                            entry.frame,
                            chain.demand,
                            imu,
                            dpram,
                            &mut out,
                        );
                        // A timed-out write-back delayed the chained
                        // page too.
                        if let Some(load) = self.in_flight.last_mut() {
                            load.recovered += entry.recovered;
                        }
                        self.times.sw_imu += out.imu;
                        if !chain.demand {
                            self.times.dma_hidden += self.bus_time(completion.bus_cycles);
                        }
                    }
                    None => {
                        self.frames.finish_evict(entry.frame);
                        self.times.dma_hidden += self.bus_time(completion.bus_cycles);
                    }
                }
                self.times.sw_imu += self.cost.dma_completion_time();
                self.retry_deferred(t, imu, dpram, ready);
            }
        }
    }

    /// Advances the asynchronous DMA engine's bus clock up to `now`,
    /// applying every completion that occurs on the way: finished loads
    /// become valid mappings, coalesced write-backs chain into their
    /// loads, and deferred demands are retried. Returns every
    /// demand-page arrival in the window, so the platform can model the
    /// completion interrupt and resume each stalled coprocessor context
    /// (with several tenants sharing the engine, one advance can unblock
    /// more than one).
    ///
    /// Cheap when idle: with nothing queued the bus clock fast-forwards
    /// past `now` without visiting edges.
    pub fn advance_dma(
        &mut self,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        now: SimTime,
    ) -> Vec<DemandReady> {
        let mut ready = Vec::new();
        if self.dma.is_none() {
            return ready;
        }
        loop {
            if !self.dma.as_ref().expect("checked above").busy() {
                self.bus_clock
                    .as_mut()
                    .expect("overlap clock")
                    .fast_forward_past(now);
                break;
            }
            let clock = self.bus_clock.as_mut().expect("overlap clock");
            if clock.next_edge() > now {
                break;
            }
            let t = clock.advance();
            if let Some(completion) = self.dma.as_mut().expect("checked above").tick() {
                self.handle_completion(completion, t, imu, dpram, &mut ready);
            }
        }
        ready
    }

    /// Whether any DMA transfer is queued or in flight.
    pub fn dma_busy(&self) -> bool {
        self.dma.as_ref().is_some_and(|d| d.busy())
    }

    /// Next bus edge the DMA engine can make progress on, if transfers
    /// are queued or in flight. The multi-tenant engine advances to this
    /// instant when every tenant is parked waiting for a page.
    pub fn dma_next_edge(&self) -> Option<SimTime> {
        if self.dma_busy() {
            self.bus_clock.as_ref().map(|c| c.next_edge())
        } else {
            None
        }
    }

    /// Checks the manager's structural invariants against `imu` and
    /// describes the first violation found:
    ///
    /// * every frame-state transition so far was legal;
    /// * a frame is pinned (`Loading` / `Evicting`) exactly when one
    ///   tracked transfer of the matching kind moves it, for the same page;
    /// * a valid TLB entry exists exactly for each resident frame and maps
    ///   that frame's page in that frame's address space;
    /// * no frame is owned by two address spaces: each parameter frame is
    ///   reserved for the one address space that holds it;
    /// * every page the last end-of-operation service found dirty reached
    ///   user memory: each still-mapped object holds the bytes its frame
    ///   held at done.
    ///
    /// The platform runs it after every service call in debug builds.
    pub fn check_invariants(&self, imu: &Imu) -> Result<(), String> {
        if let Some((frame, from, to)) = self.frames.illegal_transition() {
            return Err(format!(
                "frame {frame}: illegal transition {from:?} -> {to:?}"
            ));
        }
        let tlb = imu.tlb();
        for i in 0..tlb.len() {
            let frame = PageIndex(i);
            let state = if i < self.frames.len() {
                self.frames.state(frame)
            } else {
                FrameState::Free
            };
            let movers: Vec<&InFlight> =
                self.in_flight.iter().filter(|f| f.frame == frame).collect();
            let pinned = match state {
                FrameState::Loading(r) => Some((r, true)),
                FrameState::Evicting(r) => Some((r, false)),
                _ => None,
            };
            let moved_right = match (pinned, movers.as_slice()) {
                (None, []) => true,
                (Some((r, loading)), [f]) => {
                    matches!(f.kind, InFlightKind::Load { .. }) == loading
                        && (f.asid, f.obj, f.vpage) == (r.asid, r.obj, r.vpage)
                }
                _ => false,
            };
            if !moved_right {
                return Err(format!(
                    "frame {frame} is {state:?} with {} transfer(s) in flight",
                    movers.len()
                ));
            }
            let e = tlb.entry(i);
            let mapped_right = match state {
                FrameState::Resident(r) => {
                    e.valid
                        && e.frame == frame
                        && (e.asid, e.vpage.obj, e.vpage.page) == (r.asid, r.obj, r.vpage)
                }
                _ => !e.valid,
            };
            if !mapped_right {
                return Err(format!("frame {frame} is {state:?} with TLB entry {e:?}"));
            }
            if let FrameState::Params(asid) = state {
                if self.param_frames.get(&asid.0) != Some(&frame) {
                    return Err(format!("frame {frame} holds parameters of unknown {asid}"));
                }
            }
        }
        for (&asid, &frame) in &self.param_frames {
            if self.frames.state(frame) != FrameState::Params(Asid(asid)) {
                return Err(format!(
                    "parameter frame {frame} of asid {asid} is {:?}",
                    self.frames.state(frame)
                ));
            }
        }
        for (r, held) in &self.done_dirty {
            // An object the application took back has nothing to check.
            if self.user_page(r).is_some_and(|user| user != held) {
                return Err(format!(
                    "dirty page {} of object {} in {} did not reach user memory at done",
                    r.vpage, r.obj.0, r.asid
                ));
            }
        }
        Ok(())
    }

    /// The bytes of page `r` in its object's user buffer, or `None` if
    /// the object is no longer mapped.
    fn user_page(&self, r: &Resident) -> Option<&[u8]> {
        let o = self.objects.get(&(r.asid.0, r.obj.0))?;
        let (start, end) = o.page_range(r.vpage, self.config.page_bytes)?;
        Some(&o.data()[start..end])
    }

    /// Charges service time to the `sw_dp` and `sw_imu` totals. The
    /// platform charges the demand stalls it measures this way: the DMA
    /// wait the coprocessor blocked on as `dp`, the completion interrupt
    /// and resume as `imu`.
    pub fn charge(&mut self, t: ServiceTimes) {
        self.times.sw_dp += t.dp;
        self.times.sw_imu += t.imu;
    }

    /// Aborts every in-flight transfer (`FPGA_EXECUTE` teardown or a new
    /// execution's setup): the engine queues are dropped, `Loading`
    /// frames return to `Free` unmapped, and `Evicting` frames are
    /// released (their user-buffer copy was staged at submission, so no
    /// data is lost). No frame stays pinned.
    fn cancel_in_flight(&mut self, imu: &mut Imu) {
        if let Some(engine) = &mut self.dma {
            engine.cancel_all();
        }
        for entry in std::mem::take(&mut self.in_flight) {
            self.unpin(&entry, imu);
        }
        self.deferred_demand.clear();
        self.transfer_failure = None;
    }

    /// Releases the frame a cancelled transfer pinned: a `Loading` frame
    /// returns to `Free` unmapped, an `Evicting` one is released (its
    /// user-buffer copy was staged at submission, so no data is lost).
    fn unpin(&mut self, entry: &InFlight, imu: &mut Imu) {
        match entry.kind {
            InFlightKind::Load { .. } => {
                self.frames.cancel_load(entry.frame);
                imu.tlb_mut().invalidate(entry.frame.0);
            }
            InFlightKind::Writeback { .. } => {
                self.frames.finish_evict(entry.frame);
            }
        }
        self.counts.dma_cancelled += 1;
    }

    /// Services a translation fault: the *Page Fault* request of
    /// Section 3.3. Repairs the mapping (evicting and writing back if
    /// needed), optionally prefetches, and resumes the IMU.
    ///
    /// # Errors
    ///
    /// [`VimError::NoFaultPending`] if the IMU reports no fault;
    /// [`VimError::UnknownObject`] / [`VimError::OutOfBounds`] /
    /// [`VimError::ParamPageGone`] for coprocessor protocol violations
    /// (the real driver would kill the process).
    pub fn service_fault(
        &mut self,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
    ) -> Result<FaultService, VimError> {
        if !imu.status().fault {
            return Err(VimError::NoFaultPending);
        }
        let asid = self.current_asid;
        let mut out = ServiceTimes {
            imu: self.cost.fault_entry_time(),
            ..Default::default()
        };
        self.counts.fault += 1;
        self.reap_param_frame(imu);

        let cause = imu.fault_cause().expect("fault status implies cause");
        match cause {
            FaultCause::UnknownObject { obj } => return Err(VimError::UnknownObject(obj)),
            FaultCause::ParamPageGone => return Err(VimError::ParamPageGone),
            FaultCause::Parity { entry } => {
                // A parity upset corrupted CAM entry `entry`. A clean
                // resident page is repaired in place: drop the mapping
                // and reload the page from its user-space master copy.
                // A dirty page has no master copy of its modifications —
                // the data in the interface memory is lost and the run
                // cannot be trusted.
                self.counts.parity_fault += 1;
                let e = *imu.tlb().entry(entry);
                if e.valid {
                    if e.dirty {
                        return Err(VimError::ParityLoss { frame: e.frame.0 });
                    }
                    imu.tlb_mut().invalidate(entry);
                    out.imu += self.cost.tlb_update_time();
                    if let Some(r) = self.frames.evict(e.frame) {
                        self.policy.on_evict(r.obj, r.vpage);
                    }
                    self.install_page(
                        e.asid,
                        e.vpage.obj,
                        e.vpage.page,
                        e.frame,
                        imu,
                        dpram,
                        &mut out,
                    );
                }
            }
            FaultCause::TlbMiss { vpage, .. } => {
                let o = self
                    .objects
                    .get(&(asid.0, vpage.obj.0))
                    .ok_or(VimError::UnknownObject(vpage.obj))?;
                let pages = o.page_count(self.config.page_bytes);
                let sequential = o.hints().sequential;
                if vpage.page >= pages {
                    return Err(VimError::OutOfBounds {
                        obj: vpage.obj,
                        vpage: vpage.page,
                        pages,
                    });
                }
                self.policy.on_fault(vpage.obj, vpage.page);
                let (obj, page) = (vpage.obj, vpage.page);

                // The demand page. Overlapped paging enqueues its
                // movement and returns with the coprocessor still
                // stalled; it resumes on the completion interrupt, not
                // at service return.
                let demand_frame = if self.config.overlap {
                    if self.mark_inbound_demand(asid, obj, page) {
                        // The page is already inbound (a speculative load
                        // raced the access): just wait for it.
                        self.counts.fault_on_loading += 1;
                    } else if !self.start_demand_load(asid, obj, page, imu, dpram, &mut out) {
                        if self.in_flight.is_empty() {
                            return Err(VimError::NoFrameAvailable);
                        }
                        // Every candidate frame is pinned by an in-flight
                        // transfer; retry as completions free them.
                        self.deferred_demand.push_back((asid, obj, page));
                        self.counts.demand_deferred += 1;
                    }
                    None
                } else {
                    let frame = self.allocate_frame(asid, imu, dpram, &mut out)?;
                    self.install_page(asid, obj, page, frame, imu, dpram, &mut out);
                    Some(frame)
                };

                // Speculative loads ride along: free frames first, then
                // clean victims chosen by the policy — never the demand
                // page, and never at the price of a write-back (pinned
                // frames are invisible to the policy, so in-flight pages
                // are never stolen).
                for target in self.config.prefetch.targets(page, pages, sequential) {
                    if self.frames.frame_of(asid, obj, target).is_some()
                        || self.is_inbound(asid, obj, target)
                        || self.deferred_demand.contains(&(asid, obj, target))
                    {
                        continue;
                    }
                    let Some((slot, _)) = self.claim_frame(asid, imu, true, demand_frame, &mut out)
                    else {
                        break;
                    };
                    self.frames.evict(slot);
                    if self.config.overlap {
                        self.frames.begin_load(slot, asid, obj, target);
                        self.submit_load(asid, obj, target, slot, false, imu, dpram, &mut out);
                    } else {
                        self.install_page(asid, obj, target, slot, imu, dpram, &mut out);
                    }
                    self.counts.prefetch += 1;
                }

                if self.config.overlap {
                    self.charge(out);
                    return Ok(FaultService {
                        times: out,
                        pending: true,
                    });
                }
            }
        }

        self.check_transfer_failure()?;
        imu.resume();
        out.imu += self.cost.resume_time();
        self.charge(out);
        Ok(FaultService {
            times: out,
            pending: false,
        })
    }

    /// Services end of operation: "the interface manager copies back to
    /// user space all the dirty data currently residing in the dual-port
    /// memory" (Section 3.3), releases the frames and acknowledges the
    /// IMU so the coprocessor "should be ready and waiting for new
    /// execution". With [`Scope::Table`] every outstanding transfer is
    /// cancelled and every frame released; with [`Scope::Tenant`] only
    /// the finishing address space's frames are, and co-tenants' demand
    /// loads keep running.
    ///
    /// # Errors
    ///
    /// [`VimError::NotDone`] if the IMU does not report completion.
    pub fn service_done(
        &mut self,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        scope: Scope,
    ) -> Result<ServiceTimes, VimError> {
        if !imu.status().done {
            return Err(VimError::NotDone);
        }
        let asid = self.current_asid;
        let mut out = ServiceTimes {
            imu: self.cost.done_service_time(),
            ..Default::default()
        };
        self.reap_param_frame(imu);
        // The execution is over: the parameter page is dead whether or
        // not the coprocessor invalidated it.
        if let Some(f) = self.param_frames.remove(&asid.0) {
            self.frames.release_params(f);
        }
        if scope == Scope::Table {
            // Outstanding speculative transfers are aborted before
            // teardown; the final write-backs below are synchronous
            // (part of the done service, as in the paper).
            self.cancel_in_flight(imu);
        }
        self.done_dirty.clear();
        for (frame, resident) in self.frames.residents() {
            if scope == Scope::Tenant && resident.asid != asid {
                continue;
            }
            if imu.tlb().entry(frame.0).dirty {
                let len = self.user_page(&resident).expect("resident page").len();
                let base = frame.0 * self.config.page_bytes;
                let held = dpram.peek(base..base + len).to_vec();
                self.done_dirty.push((resident, held));
                out.dp +=
                    self.writeback_page(resident.asid, resident.obj, resident.vpage, frame, dpram);
            }
            imu.tlb_mut().invalidate(frame.0);
            self.frames.evict(frame);
        }
        self.check_transfer_failure()?;
        imu.clear_done();
        self.charge(out);
        Ok(out)
    }

    /// Aborts tenant `asid`'s execution mid-flight so a misbehaving
    /// tenant can be degraded to software without touching co-tenants:
    /// its in-flight transfers are dropped from the engine, its frames
    /// (loading, evicting, resident and parameter) released, its TLB
    /// entries invalidated, and its deferred demands discarded. A
    /// write-back owned by the aborted tenant whose frame was chained to
    /// a *co-tenant's* load re-defers that co-tenant's demand instead of
    /// losing it. The hardware run's partial results are discarded —
    /// callers recompute outputs in software.
    ///
    /// Returns the demand-page arrivals produced by re-deferred
    /// co-tenant demands that could start (and even finish) immediately.
    pub fn abort_tenant(
        &mut self,
        asid: Asid,
        imu: &mut Imu,
        dpram: &mut DualPortRam,
        now: SimTime,
    ) -> Vec<DemandReady> {
        let mut kept = Vec::with_capacity(self.in_flight.len());
        for mut entry in std::mem::take(&mut self.in_flight) {
            let chained = match entry.kind {
                InFlightKind::Writeback { then_load } => then_load,
                InFlightKind::Load { .. } => None,
            };
            if entry.asid != asid {
                // A co-tenant's write-back chained to the aborted
                // tenant's load: keep the write-back, drop only the chain.
                if chained.is_some_and(|c| c.asid == asid) {
                    entry.kind = InFlightKind::Writeback { then_load: None };
                }
                kept.push(entry);
                continue;
            }
            // The aborted tenant owns this transfer.
            if !entry.lost {
                if let Some(engine) = &mut self.dma {
                    engine.drop_transfer(entry.ticket);
                }
            }
            self.unpin(&entry, imu);
            // Restart a co-tenant demand that was chained behind the
            // aborted tenant's write-back.
            if let Some(c) = chained.filter(|c| c.asid != asid && c.demand) {
                self.deferred_demand.push_back((c.asid, c.obj, c.vpage));
            }
        }
        self.in_flight = kept;

        // Release the tenant's resident pages without write-back: the
        // aborted hardware run's partial output is not trusted.
        for (frame, resident) in self.frames.residents() {
            if resident.asid == asid {
                imu.tlb_mut().invalidate(frame.0);
                self.frames.evict(frame);
            }
        }
        if let Some(f) = self.param_frames.remove(&asid.0) {
            self.frames.release_params(f);
        }
        imu.tlb_mut().invalidate_asid(asid);
        self.deferred_demand.retain(|&(a, _, _)| a != asid);
        let mut ready = Vec::new();
        self.retry_deferred(now, imu, dpram, &mut ready);
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcop_fabric::port::CoprocessorPort;
    use vcop_fabric::port::PortLink;
    use vcop_imu::imu::ImuConfig;
    use vcop_imu::registers::ControlRegister;
    use vcop_sim::trace::TraceSink;

    const PAGE: usize = 2048;
    const FRAMES: usize = 8;

    struct Rig {
        vim: Vim,
        imu: Imu,
        dpram: DualPortRam,
        port: CoprocessorPort,
        sink: TraceSink,
        now: SimTime,
    }

    impl Rig {
        fn new(config: VimConfig) -> Self {
            Rig {
                vim: Vim::new(config, OsCostModel::epxa1()),
                imu: Imu::new(ImuConfig::prototype(FRAMES, PAGE)),
                dpram: DualPortRam::new(FRAMES * PAGE, PAGE).expect("valid"),
                port: CoprocessorPort::new(1),
                sink: TraceSink::disabled(),
                now: SimTime::ZERO,
            }
        }

        fn prototype() -> Self {
            Rig::new(VimConfig::prototype(FRAMES, PAGE))
        }

        fn start(&mut self) {
            let mut link = PortLink::new(&mut self.port);
            self.imu.write_control(
                ControlRegister {
                    start: true,
                    ..Default::default()
                },
                &mut link,
            );
        }

        fn step(&mut self) -> Option<vcop_imu::imu::ImuEvent> {
            let mut link = PortLink::new(&mut self.port);
            let ev = self
                .imu
                .step(self.now, &mut link, &mut self.dpram, &mut self.sink);
            self.now += SimTime::from_ns(25);
            ev
        }

        fn step_until_fault(&mut self, max: usize) {
            for _ in 0..max {
                if self.step() == Some(vcop_imu::imu::ImuEvent::Fault) {
                    return;
                }
            }
            panic!("no fault within {max} edges");
        }

        fn step_until_complete(&mut self, max: usize) -> u32 {
            for _ in 0..max {
                self.step();
                if let Some(done) = self.port.take_completed() {
                    return done.data;
                }
            }
            panic!("no completion within {max} edges");
        }

        /// Signals end of operation and steps the IMU until it raises
        /// it.
        fn finish(&mut self) {
            self.port.finish();
            for _ in 0..4 {
                if self.step() == Some(vcop_imu::imu::ImuEvent::Done) {
                    return;
                }
            }
            panic!("no end of operation within 4 edges");
        }

        fn map(&mut self, id: u8, data: Vec<u8>, dir: Direction) {
            self.vim
                .map_object(ObjectId(id), data, ElemSize::U32, dir, MapHints::default())
                .expect("map");
        }
    }

    fn patterned(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn map_object_validation() {
        let mut rig = Rig::prototype();
        assert!(matches!(
            rig.vim.map_object(
                ObjectId::PARAM,
                vec![0; 4],
                ElemSize::U32,
                Direction::In,
                MapHints::default()
            ),
            Err(VimError::ReservedObject)
        ));
        assert!(matches!(
            rig.vim.map_object(
                ObjectId(0),
                vec![],
                ElemSize::U32,
                Direction::In,
                MapHints::default()
            ),
            Err(VimError::EmptyObject(_))
        ));
        assert!(matches!(
            rig.vim.map_object(
                ObjectId(0),
                vec![0; 5],
                ElemSize::U32,
                Direction::In,
                MapHints::default()
            ),
            Err(VimError::UnalignedObject(_))
        ));
        rig.map(0, vec![0; 8], Direction::In);
        assert!(matches!(
            rig.vim.map_object(
                ObjectId(0),
                vec![0; 8],
                ElemSize::U32,
                Direction::In,
                MapHints::default()
            ),
            Err(VimError::DuplicateObject(_))
        ));
        // Distinct user bases per object.
        rig.map(1, vec![0; 8], Direction::In);
        let a = rig.vim.object(ObjectId(0)).unwrap().user_base();
        let b = rig.vim.object(ObjectId(1)).unwrap().user_base();
        assert_ne!(a, b);
    }

    #[test]
    fn prepare_stages_params_and_preloads() {
        let mut rig = Rig::prototype();
        rig.map(0, patterned(PAGE, 1), Direction::In);
        rig.map(1, patterned(2 * PAGE, 2), Direction::Out);
        let t = rig
            .vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[7, 9], Scope::Table)
            .unwrap();
        assert!(t > SimTime::ZERO);
        // Params live in frame 0.
        assert_eq!(rig.dpram.read_word(Port::Cpu, 0).unwrap(), 7);
        assert_eq!(rig.dpram.read_word(Port::Cpu, 4).unwrap(), 9);
        assert_eq!(rig.imu.param_frame(), Some(PageIndex(0)));
        // All three data pages preloaded (round-robin: obj0 p0, obj1 p0, obj1 p1).
        assert_eq!(rig.vim.counters().page_load, 3);
        assert_eq!(rig.imu.tlb().valid_indices().len(), 3);
        // Input page content actually copied.
        assert_eq!(
            rig.dpram.read_byte(Port::Cpu, PAGE).unwrap(),
            patterned(PAGE, 1)[0]
        );
    }

    #[test]
    fn invariant_check_flags_a_resident_frame_without_its_mapping() {
        let mut rig = Rig::prototype();
        rig.map(0, patterned(2 * PAGE, 1), Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        assert_eq!(rig.vim.check_invariants(&rig.imu), Ok(()));
        rig.imu.tlb_mut().invalidate(1);
        let err = rig.vim.check_invariants(&rig.imu).unwrap_err();
        assert!(err.starts_with("frame p1 is Resident"), "{err}");
    }

    #[test]
    fn too_many_params_rejected() {
        let mut rig = Rig::prototype();
        let params = vec![0u32; PAGE / 4 + 1];
        assert!(matches!(
            rig.vim
                .prepare_execute(&mut rig.imu, &mut rig.dpram, &params, Scope::Table),
            Err(VimError::TooManyParams { .. })
        ));
    }

    #[test]
    fn service_fault_requires_fault() {
        let mut rig = Rig::prototype();
        assert!(matches!(
            rig.vim.service_fault(&mut rig.imu, &mut rig.dpram),
            Err(VimError::NoFaultPending)
        ));
        assert!(matches!(
            rig.vim
                .service_done(&mut rig.imu, &mut rig.dpram, Scope::Table),
            Err(VimError::NotDone)
        ));
    }

    #[test]
    fn demand_fault_installs_and_resumes() {
        let mut rig = Rig::new(VimConfig {
            preload: false,
            ..VimConfig::prototype(FRAMES, PAGE)
        });
        let data = patterned(2 * PAGE, 3);
        rig.map(0, data.clone(), Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        // Element 600 lives in virtual page 1 (byte 2400).
        rig.port.issue_read(ObjectId(0), 600);
        rig.step_until_fault(16);
        let svc = rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
        assert!(svc.times.dp > SimTime::ZERO, "a page copy happened");
        assert!(
            svc.times.imu > SimTime::ZERO,
            "decode + TLB update happened"
        );
        assert!(!svc.pending);
        let got = rig.step_until_complete(16);
        let expect = u32::from_le_bytes(data[2400..2404].try_into().unwrap());
        assert_eq!(got, expect);
        assert_eq!(rig.vim.counters().fault, 1);
    }

    #[test]
    fn dirty_eviction_focused() {
        // Object spans 9 pages but only 8 frames exist (param page is
        // reaped after param_done; here no params are read, so 7 data
        // frames + param frame reserved).
        let mut rig = Rig::new(VimConfig {
            preload: false,
            ..VimConfig::prototype(FRAMES, PAGE)
        });
        rig.map(0, vec![0u8; 9 * PAGE], Direction::InOut);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        let elems_per_page = (PAGE / 4) as u32;

        // Dirty page 0.
        rig.port.issue_write(ObjectId(0), 5, 0xAB);
        rig.step_until_fault(16);
        rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
        rig.step_until_complete(16);

        // Touch pages 1..7 (fills the 7 allocatable frames).
        for vp in 1..7u32 {
            rig.port.issue_read(ObjectId(0), vp * elems_per_page);
            rig.step_until_fault(16);
            rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
            rig.step_until_complete(16);
        }
        assert_eq!(rig.vim.counters().eviction, 0);

        // Page 7 faults: FIFO evicts dirty page 0 → write-back.
        rig.port.issue_read(ObjectId(0), 7 * elems_per_page);
        rig.step_until_fault(16);
        rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
        rig.step_until_complete(16);
        assert_eq!(rig.vim.counters().eviction, 1);
        assert_eq!(rig.vim.counters().page_writeback, 1);
        let buf = rig.vim.object(ObjectId(0)).unwrap().data();
        assert_eq!(buf[20], 0xAB, "dirty data reached the user buffer");
    }

    #[test]
    fn done_service_writes_back_all_dirty() {
        let mut rig = Rig::prototype();
        rig.map(0, vec![0u8; PAGE], Direction::Out);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        rig.port.issue_write(ObjectId(0), 0, 0xDEAD_BEEF);
        rig.step_until_complete(16); // preloaded → no fault
        rig.finish();
        let svc = rig
            .vim
            .service_done(&mut rig.imu, &mut rig.dpram, Scope::Table)
            .unwrap();
        assert!(svc.dp > SimTime::ZERO);
        assert!(!rig.imu.status().done);
        let buf = rig.vim.take_object(ObjectId(0)).unwrap().into_data();
        assert_eq!(&buf[0..4], &0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(rig.vim.counters().page_writeback, 1);
    }

    #[test]
    fn invariants_catch_a_dirty_page_missing_from_user_memory() {
        let mut rig = Rig::prototype();
        rig.map(0, vec![0u8; 2 * PAGE], Direction::Out);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        for (index, value) in [(0, 0xDEAD_BEEF), (PAGE as u32 / 4, 0xFEED_F00D)] {
            rig.port.issue_write(ObjectId(0), index, value);
            rig.step_until_complete(16); // preloaded → no fault
        }
        rig.finish();
        rig.vim
            .service_done(&mut rig.imu, &mut rig.dpram, Scope::Table)
            .unwrap();
        assert_eq!(rig.vim.check_invariants(&rig.imu), Ok(()));
        // Undo the write-back of page 1: its dirty bytes never reached
        // user memory.
        let object = rig.vim.objects.get_mut(&(Asid::SINGLE.0, 0)).unwrap();
        object.data_mut()[PAGE] = 0;
        let violation = rig.vim.check_invariants(&rig.imu).unwrap_err();
        assert!(violation.contains("dirty page 1"), "{violation}");
    }

    #[test]
    fn every_statistic_reads_back_by_name() {
        let counts = VimCounts {
            fault: 1,
            page_load: 2,
            page_writeback: 3,
            eviction: 4,
            prefetch: 5,
            dma_transfer: 6,
            param_freed: 7,
            irq_poll: 8,
            bus_stalled: 9,
            transfer_retry: 10,
            cross_asid_steal: 11,
            dma_timeout: 12,
            dma_lost: 13,
            timeout_resubmit: 14,
            install_committed: 15,
            dma_cancelled: 16,
            parity_fault: 17,
            fault_on_loading: 18,
            demand_deferred: 19,
        };
        let names = [
            "fault",
            "page_load",
            "page_writeback",
            "eviction",
            "prefetch",
            "dma_transfer",
            "param_freed",
            "irq_poll",
            "bus_stalled",
            "transfer_retry",
            "cross_asid_steal",
            "dma_timeout",
            "dma_lost",
            "timeout_resubmit",
            "install_committed",
            "dma_cancelled",
            "parity_fault",
            "fault_on_loading",
            "demand_deferred",
        ];
        for (value, name) in (1..).zip(names) {
            assert_eq!(counts.get(name), value, "{name}");
        }
        let times = VimTimes {
            sw_dp: SimTime::from_ps(1),
            sw_imu: SimTime::from_ps(2),
            dma_hidden: SimTime::from_ps(3),
        };
        for (ps, name) in (1..).zip(["sw_dp", "sw_imu", "dma_hidden"]) {
            assert_eq!(times.get(name), SimTime::from_ps(ps), "{name}");
        }
        assert_eq!(counts.get("faults"), 0, "an unknown name reads zero");
        assert_eq!(times.get("hw"), SimTime::ZERO);
    }

    #[test]
    fn skip_out_page_load_saves_copies() {
        let mk = |skip: bool| {
            let mut rig = Rig::new(VimConfig {
                skip_out_page_load: skip,
                ..VimConfig::prototype(FRAMES, PAGE)
            });
            rig.map(0, vec![0u8; 4 * PAGE], Direction::Out);
            rig.vim
                .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
                .unwrap();
            (rig.vim.counters().page_load, rig.vim.times().sw_dp)
        };
        let (loads_copy, t_copy) = mk(false);
        let (loads_skip, t_skip) = mk(true);
        assert_eq!(loads_copy, 4);
        assert_eq!(loads_skip, 0);
        assert!(t_skip < t_copy);
    }

    #[test]
    fn param_frame_reaped_after_coprocessor_frees_it() {
        let mut rig = Rig::new(VimConfig {
            preload: false,
            ..VimConfig::prototype(FRAMES, PAGE)
        });
        rig.map(0, vec![0u8; PAGE], Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[42], Scope::Table)
            .unwrap();
        rig.start();
        // Coprocessor reads the param, then invalidates the page.
        rig.port.issue_read(ObjectId::PARAM, 0);
        assert_eq!(rig.step_until_complete(16), 42);
        rig.port.param_done();
        rig.step();
        // Next fault reaps the parameter frame back into the pool.
        rig.port.issue_read(ObjectId(0), 0);
        rig.step_until_fault(16);
        rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
        assert_eq!(rig.vim.counters().param_freed, 1);
        rig.step_until_complete(16);
    }

    #[test]
    fn preload_skips_when_disabled() {
        let mut rig = Rig::new(VimConfig {
            preload: false,
            ..VimConfig::prototype(FRAMES, PAGE)
        });
        rig.map(0, vec![0u8; 4 * PAGE], Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        assert_eq!(rig.vim.counters().page_load, 0);
        assert!(rig.imu.tlb().valid_indices().is_empty());
    }

    #[test]
    fn service_times_accumulate_in_buckets() {
        let mut rig = Rig::prototype();
        rig.map(0, patterned(PAGE, 0), Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[1], Scope::Table)
            .unwrap();
        let dp = rig.vim.times().sw_dp;
        let imu_t = rig.vim.times().sw_imu;
        assert!(dp > SimTime::ZERO, "preload copies accounted");
        assert!(imu_t > SimTime::ZERO, "syscall + TLB updates accounted");
    }

    fn overlap_config() -> VimConfig {
        VimConfig {
            preload: false,
            overlap: true,
            dma_channels: 1,
            ..VimConfig::prototype(FRAMES, PAGE)
        }
    }

    impl Rig {
        /// Advances the DMA bus clock tick by tick until the demand
        /// page arrives.
        fn pump_dma_until_ready(&mut self, max: usize) -> DemandReady {
            for _ in 0..max {
                self.now += SimTime::from_ns(25);
                if let Some(r) = self
                    .vim
                    .advance_dma(&mut self.imu, &mut self.dpram, self.now)
                    .pop()
                {
                    return r;
                }
            }
            panic!("demand DMA never completed within {max} ticks");
        }

        /// Runs the coprocessor request to completion with the platform's
        /// overlapped-paging protocol: DMA completions drained each edge,
        /// faults parked on the engine, resume on the demand arrival.
        fn step_until_complete_async(&mut self, max: usize) -> u32 {
            for _ in 0..max {
                if self
                    .vim
                    .advance_dma(&mut self.imu, &mut self.dpram, self.now)
                    .pop()
                    .is_some()
                {
                    self.imu.resume();
                }
                if self.step() == Some(vcop_imu::imu::ImuEvent::Fault) {
                    let svc = self
                        .vim
                        .service_fault(&mut self.imu, &mut self.dpram)
                        .unwrap();
                    assert!(svc.pending, "overlap mode parks every fault on the engine");
                }
                if let Some(done) = self.port.take_completed() {
                    return done.data;
                }
            }
            panic!("no completion within {max} edges");
        }
    }

    #[test]
    fn overlap_demand_fault_resolves_on_completion_irq() {
        let mut rig = Rig::new(overlap_config());
        let data = patterned(2 * PAGE, 9);
        rig.map(0, data.clone(), Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        rig.port.issue_read(ObjectId(0), 600);
        rig.step_until_fault(16);
        let svc = rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
        assert!(svc.pending, "demand movement went to the DMA engine");
        assert!(rig.vim.dma_busy());
        assert_eq!(rig.vim.frames.pinned_count(), 1);
        // The coprocessor stays stalled while the transfer is in flight.
        for _ in 0..4 {
            assert_eq!(rig.step(), None);
        }
        let ready = rig.pump_dma_until_ready(100_000);
        assert!(ready.at > SimTime::ZERO);
        assert_eq!(rig.vim.frames.pinned_count(), 0, "arrival unpins the frame");
        assert!(!rig.vim.dma_busy());
        rig.imu.resume();
        let got = rig.step_until_complete(16);
        let expect = u32::from_le_bytes(data[2400..2404].try_into().unwrap());
        assert_eq!(got, expect);
        assert_eq!(rig.vim.counters().dma_transfer, 1);
        assert_eq!(rig.vim.counters().install_committed, 1);
    }

    #[test]
    fn overlap_coalesces_dirty_eviction_with_demand_load() {
        let mut rig = Rig::new(overlap_config());
        rig.map(0, vec![0u8; 9 * PAGE], Direction::InOut);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        let elems_per_page = (PAGE / 4) as u32;

        // Dirty page 0, then fill the remaining allocatable frames.
        rig.port.issue_write(ObjectId(0), 5, 0xAB);
        rig.step_until_complete_async(100_000);
        for vp in 1..7u32 {
            rig.port.issue_read(ObjectId(0), vp * elems_per_page);
            rig.step_until_complete_async(100_000);
        }
        assert_eq!(rig.vim.counters().eviction, 0);

        // Page 7 faults: FIFO picks dirty page 0; its write-back and the
        // incoming load run back-to-back on the same frame (the frame
        // turns Evicting, then Loading — never Free in between).
        rig.port.issue_read(ObjectId(0), 7 * elems_per_page);
        rig.step_until_fault(32);
        assert!(
            rig.vim
                .service_fault(&mut rig.imu, &mut rig.dpram)
                .unwrap()
                .pending
        );
        assert_eq!(rig.vim.counters().page_writeback, 1);
        assert_eq!(rig.vim.counters().eviction, 1);
        assert_eq!(rig.vim.frames.pinned_count(), 1);
        rig.pump_dma_until_ready(200_000);
        rig.imu.resume();
        rig.step_until_complete(32);
        let buf = rig.vim.object(ObjectId(0)).unwrap().data();
        assert_eq!(buf[20], 0xAB, "dirty data reached the user buffer");
    }

    #[test]
    fn overlap_prefetch_steals_clean_cold_frames() {
        let mut rig = Rig::new(VimConfig {
            prefetch: PrefetchMode::NextPage { degree: 1 },
            ..overlap_config()
        });
        let data = patterned(10 * PAGE, 4);
        rig.map(0, data.clone(), Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        let elems_per_page = (PAGE / 4) as u32;
        for vp in 0..10u32 {
            let elem = vp * elems_per_page;
            rig.port.issue_read(ObjectId(0), elem);
            let got = rig.step_until_complete_async(400_000);
            let base = elem as usize * 4;
            let expect = u32::from_le_bytes(data[base..base + 4].try_into().unwrap());
            assert_eq!(got, expect, "page {vp}");
            // Per-page compute time: long enough for the in-flight
            // speculative load to land underneath it.
            for _ in 0..2000 {
                if rig
                    .vim
                    .advance_dma(&mut rig.imu, &mut rig.dpram, rig.now)
                    .pop()
                    .is_some()
                {
                    rig.imu.resume();
                }
                rig.step();
            }
        }
        let c = rig.vim.counters();
        assert!(c.prefetch > 0, "speculative loads happened");
        assert!(
            c.fault < 10,
            "prefetch hid some faults ({} of 10 pages faulted)",
            c.fault
        );
        assert!(
            c.eviction > 0,
            "with all frames warm, speculation stole clean cold frames"
        );
        assert_eq!(c.page_writeback, 0, "speculation never pays a write-back");
        assert_eq!(rig.vim.frames.pinned_count(), 0);
    }

    /// Services one overlapped demand fault with `plan` armed and pumps
    /// the engine until the page arrives. Returns the rig, the arrival
    /// and the word the coprocessor then reads.
    fn overlap_demand_under(plan: vcop_sim::fault::FaultPlan) -> (Rig, DemandReady, u32) {
        let mut rig = Rig::new(overlap_config());
        rig.vim.set_fault_injector(FaultInjector::new(plan));
        rig.map(0, patterned(2 * PAGE, 9), Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        rig.port.issue_read(ObjectId(0), 600);
        rig.step_until_fault(16);
        let svc = rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
        assert!(svc.pending);
        let ready = rig.pump_dma_until_ready(100_000);
        rig.imu.resume();
        let got = rig.step_until_complete(16);
        (rig, ready, got)
    }

    #[test]
    fn timed_out_load_is_resubmitted_at_its_deadline() {
        let plan = vcop_sim::fault::FaultPlan::new(1);
        let (_, clean, want) = overlap_demand_under(plan.clone());
        let (rig, late, got) = overlap_demand_under(plan.once(FaultSite::DmaTimeout, 1));

        assert_eq!(got, want, "the re-submitted page carries the right data");
        assert_eq!(rig.vim.counters().timeout_resubmit, 1);
        assert_eq!(rig.vim.counters().transfer_retry, 1);
        assert_eq!(rig.vim.frames.pinned_count(), 0);
        assert!(!rig.vim.demand_lost_for(Asid::SINGLE));
        // Detection costs one nominal transfer time: the deadline fires
        // when the dropped transfer would have completed, and the
        // re-submission takes as long again.
        assert_eq!(clean.recovered, SimTime::ZERO);
        assert!(late.recovered > SimTime::ZERO);
        assert_eq!(late.at, clean.at + late.recovered);
    }

    #[test]
    fn lost_transfer_spends_the_retry_budget_then_stays_lost() {
        let mut rig = Rig::new(overlap_config());
        rig.vim.set_fault_injector(FaultInjector::new(
            vcop_sim::fault::FaultPlan::new(1).rate(FaultSite::DmaTimeout, 1.0),
        ));
        rig.map(0, patterned(2 * PAGE, 9), Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        rig.port.issue_read(ObjectId(0), 600);
        rig.step_until_fault(16);
        rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
        for _ in 0..100_000 {
            rig.now += SimTime::from_ns(25);
            let ready = rig.vim.advance_dma(&mut rig.imu, &mut rig.dpram, rig.now);
            assert!(ready.is_empty(), "every attempt is lost");
            if !rig.vim.dma_busy() {
                break;
            }
        }
        assert!(!rig.vim.dma_busy());
        assert_eq!(
            rig.vim.counters().timeout_resubmit,
            u64::from(Vim::MAX_TRANSFER_RETRIES)
        );
        assert_eq!(rig.vim.counters().dma_lost, 1);
        assert!(rig.vim.demand_lost_for(Asid::SINGLE));
        assert_eq!(
            rig.vim.frames.pinned_count(),
            1,
            "the lost page keeps its frame"
        );
    }

    #[test]
    fn teardown_cancels_in_flight_transfers_without_pinned_frames() {
        let mut rig = Rig::new(VimConfig {
            prefetch: PrefetchMode::NextPage { degree: 2 },
            ..overlap_config()
        });
        rig.map(0, vec![0u8; 4 * PAGE], Direction::In);
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        rig.start();
        rig.port.issue_read(ObjectId(0), 0);
        rig.step_until_fault(16);
        let svc = rig.vim.service_fault(&mut rig.imu, &mut rig.dpram).unwrap();
        assert!(svc.pending);
        assert!(rig.vim.dma_busy());
        assert_eq!(
            rig.vim.frames.pinned_count(),
            3,
            "demand + two prefetches in flight"
        );
        // A new FPGA_EXECUTE tears the old operation down: every queued
        // transfer dies and no completion ever fires for it.
        rig.vim
            .prepare_execute(&mut rig.imu, &mut rig.dpram, &[], Scope::Table)
            .unwrap();
        assert!(!rig.vim.dma_busy());
        assert_eq!(rig.vim.frames.pinned_count(), 0);
        assert_eq!(rig.vim.counters().dma_cancelled, 3);
        assert_eq!(rig.vim.counters().install_committed, 0);
        let far = rig.now + SimTime::from_ms(10);
        assert!(
            rig.vim
                .advance_dma(&mut rig.imu, &mut rig.dpram, far)
                .is_empty(),
            "cancelled transfers never complete"
        );
        assert!(rig.imu.tlb().valid_indices().is_empty());
    }
}
