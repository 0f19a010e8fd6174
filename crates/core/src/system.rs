//! The reconfigurable-SoC platform harness.
//!
//! [`System`] assembles the full stack of the paper — dual-port RAM,
//! IMU, VIM, configuration controller, interrupt line, and the two
//! PLD-side clock domains — and exposes the three OS services of
//! Section 3.1 (`FPGA_LOAD`, `FPGA_MAP_OBJECT`, `FPGA_EXECUTE`).
//!
//! `FPGA_EXECUTE` runs the event loop: coprocessor and IMU step on their
//! respective clock edges (the IMU first on coincident edges, as on the
//! prototype where the coprocessor clock is the IMU clock or an integer
//! division of it); on a translation fault the coprocessor domain stalls
//! while the VIM services the interrupt on the ARM, and the stall
//! interval is charged to the paper's `SW (DP)` / `SW (IMU)` buckets.
//!
//! With [`SystemBuilder::faults`] the platform additionally injects
//! deterministic hardware faults (corrupted or lost DMA transfers, bus
//! stalls, dropped or delayed interrupts, TLB parity upsets, failed
//! configuration passes), and a [`RecoveryPolicy`] governs how
//! `FPGA_EXECUTE` recovers: lost work recovered in place (a lost
//! transfer re-submitted at its deadline, a miss whose interrupt was
//! dropped found by the no-progress watchdog's status-register poll),
//! bounded retries with fabric resets and backoff, and finally a
//! transparent
//! [`SoftwareFallback`] that serves the request
//! in software so the application still receives correct bytes.

use vcop_fabric::loader::ConfigController;
use vcop_fabric::port::{Coprocessor, CoprocessorPort, ObjectId, PortLink};
use vcop_fabric::DeviceProfile;
use vcop_imu::imu::{ElemSize, Imu, ImuConfig, ImuEvent};
use vcop_imu::registers::ControlRegister;
use vcop_sim::bus::BurstKind;
use vcop_sim::clock::{ClockDomain, EdgeScheduler};
use vcop_sim::fault::{FaultInjector, FaultPlan, FaultSite};
use vcop_sim::histogram::LatencyHistogram;
use vcop_sim::irq::{InterruptController, IrqLine};
use vcop_sim::mem::DualPortRam;
use vcop_sim::sched::{EventKernel, Wake, WakeSource};
use vcop_sim::time::{Frequency, SimTime};
use vcop_sim::trace::{TraceSink, WaveTracer};
use vcop_vim::cost::{OsCostModel, OsOverheads};
use vcop_vim::manager::{Vim, VimConfig};
use vcop_vim::object::{Direction, MapHints};
use vcop_vim::policy::PolicyKind;
use vcop_vim::prefetch::PrefetchMode;
use vcop_vim::process::{MiniScheduler, Pid};
use vcop_vim::{TransferMode, VimError};

use crate::error::Error;
use crate::fallback::{FallbackIo, RecoveryPolicy, SoftwareFallback};
use crate::report::ExecutionReport;

/// Default per-execute edge budget (hang detection).
pub const DEFAULT_EDGE_BUDGET: u64 = 2_000_000_000;

/// Simulation kernel driving the `FPGA_EXECUTE` loop.
///
/// Both kernels produce cycle-identical [`ExecutionReport`]s; the
/// event-driven one is simply faster because provably idle clock edges
/// are bulk-accounted instead of simulated one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Visit every rising edge of both PLD clock domains (the original
    /// reference loop).
    Stepped,
    /// Ask each component for a conservative wake hint and fast-forward
    /// both domains to the earliest instant anything can act.
    #[default]
    EventDriven,
}

/// Builder for a [`System`].
///
/// # Examples
///
/// ```
/// use vcop::SystemBuilder;
/// use vcop_sim::time::Frequency;
///
/// let system = SystemBuilder::epxa1()
///     .clocks(Frequency::from_mhz(40), Frequency::from_mhz(40))
///     .build();
/// assert_eq!(system.device().page_count(), 8);
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    device: DeviceProfile,
    cp_freq: Frequency,
    imu_freq: Frequency,
    pipeline_depth: usize,
    policy: PolicyKind,
    prefetch: PrefetchMode,
    transfer: TransferMode,
    burst: BurstKind,
    skip_out_page_load: bool,
    preload: bool,
    overlap: bool,
    dma_channels: usize,
    sync_edges: Option<u32>,
    os_overheads: OsOverheads,
    trace: bool,
    edge_budget: u64,
    kernel: Kernel,
    faults: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
}

impl SystemBuilder {
    /// Starts from a device profile with 40 MHz PLD clocks.
    pub fn new(device: DeviceProfile) -> Self {
        SystemBuilder {
            device,
            cp_freq: Frequency::from_mhz(40),
            imu_freq: Frequency::from_mhz(40),
            pipeline_depth: 1,
            policy: PolicyKind::Fifo,
            prefetch: PrefetchMode::None,
            transfer: TransferMode::Double,
            burst: BurstKind::Single,
            skip_out_page_load: false,
            preload: true,
            overlap: false,
            dma_channels: 2,
            sync_edges: None,
            os_overheads: OsOverheads::paper_era(),
            trace: false,
            edge_budget: DEFAULT_EDGE_BUDGET,
            kernel: Kernel::default(),
            faults: None,
            recovery: None,
        }
    }

    /// The paper's board.
    pub fn epxa1() -> Self {
        SystemBuilder::new(DeviceProfile::epxa1())
    }

    /// Sets the coprocessor and IMU clock frequencies. The IMU clock
    /// must be the coprocessor clock or an integer multiple of it, as on
    /// the prototype.
    ///
    /// # Panics
    ///
    /// Panics if `imu` is not an integer multiple of `cp`.
    pub fn clocks(mut self, cp: Frequency, imu: Frequency) -> Self {
        assert!(
            imu.hz().is_multiple_of(cp.hz()),
            "IMU clock {imu} must be an integer multiple of the coprocessor clock {cp}"
        );
        self.cp_freq = cp;
        self.imu_freq = imu;
        self
    }

    /// Uses the pipelined IMU variant with `depth` translations in
    /// flight (`1` = the paper's prototype).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Selects the VIM replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the VIM prefetch mode.
    pub fn prefetch(mut self, prefetch: PrefetchMode) -> Self {
        self.prefetch = prefetch;
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

    /// Enables or disables the initial page mapping performed by
    /// `FPGA_EXECUTE` (enabled on the prototype).
    pub fn preload(mut self, preload: bool) -> Self {
        self.preload = preload;
        self
    }

    /// Enables overlapped paging (the paper's announced future work):
    /// page movements run on an asynchronous multi-channel DMA engine
    /// that raises completion interrupts, so prefetches and write-backs
    /// proceed underneath coprocessor execution and a demand fault costs
    /// a DMA transfer rather than a CPU copy loop.
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Compatibility alias for [`SystemBuilder::overlap`].
    pub fn overlap_prefetch(self, overlap: bool) -> Self {
        self.overlap(overlap)
    }

    /// Number of DMA channels used by overlapped paging (clamped to at
    /// least one; ignored when [`SystemBuilder::overlap`] is off).
    pub fn dma_channels(mut self, channels: usize) -> Self {
        self.dma_channels = channels.max(1);
        self
    }

    /// Overrides the clock-domain-crossing synchroniser depth. By
    /// default a two-flop synchroniser (2 IMU edges) is inserted when
    /// the coprocessor runs slower than the IMU, and none when they
    /// share a clock.
    pub fn sync_edges(mut self, edges: u32) -> Self {
        self.sync_edges = Some(edges);
        self
    }

    /// Overrides the fixed OS overhead constants (sensitivity
    /// analysis).
    pub fn os_overheads(mut self, overheads: OsOverheads) -> Self {
        self.os_overheads = overheads;
        self
    }

    /// Records the Fig. 7 signal set during execution.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Overrides the execution edge budget.
    pub fn edge_budget(mut self, budget: u64) -> Self {
        self.edge_budget = budget.max(1);
        self
    }

    /// Selects the simulation kernel (event-driven by default; the
    /// stepped reference loop remains available for cross-checking).
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Arms deterministic fault injection with `plan` and, unless
    /// [`SystemBuilder::recovery`] overrides it, the default
    /// [`RecoveryPolicy`]. A plan whose rates are all zero and that
    /// schedules no one-shot faults leaves every run byte-identical to
    /// an uninstrumented system (only the report's recovery bookkeeping
    /// differs).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the recovery policy (retries, watchdog, backoff) used by
    /// `FPGA_EXECUTE`. Implied with default settings by
    /// [`SystemBuilder::faults`]; set it explicitly to tune the knobs or
    /// to arm the watchdog without injecting faults.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Assembles the system.
    pub fn build(self) -> System {
        let frames = self.device.page_count();
        let page_bytes = self.device.page_bytes;
        let base = if self.pipeline_depth > 1 {
            ImuConfig::pipelined(frames, page_bytes, self.pipeline_depth)
        } else {
            ImuConfig::prototype(frames, page_bytes)
        };
        let sync = self.sync_edges.unwrap_or(if self.imu_freq == self.cp_freq {
            0
        } else {
            2 // two-flop synchroniser into the faster IMU domain
        });
        let imu_config = base.with_sync_edges(sync);
        let mut imu = Imu::new(imu_config);
        let mut trace = if self.trace {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        };
        imu.attach_trace(&mut trace);

        let cost = OsCostModel::epxa1()
            .with_transfer(self.transfer)
            .with_burst(self.burst)
            .with_overheads(self.os_overheads);
        let vim_config = VimConfig {
            page_bytes,
            frame_count: frames,
            policy: self.policy,
            prefetch: self.prefetch,
            skip_out_page_load: self.skip_out_page_load,
            preload: self.preload,
            overlap: self.overlap,
            dma_channels: self.dma_channels,
        };
        let mut irq = InterruptController::new(1);
        let pld_irq = irq.line(0).expect("one line");
        irq.enable(pld_irq);

        // The calling process plus one background process, so the CPU
        // time freed by sleeping in FPGA_EXECUTE is observable.
        let mut sched = MiniScheduler::new();
        let caller = sched.spawn("fpga-app");
        sched.spawn("background");

        let recovery = self
            .recovery
            .or_else(|| self.faults.as_ref().map(|_| RecoveryPolicy::default()));
        let mut vim = Vim::new(vim_config, cost);
        if let Some(plan) = self.faults {
            vim.set_fault_injector(FaultInjector::new(plan));
        }

        System {
            cp_freq: self.cp_freq,
            imu_freq: self.imu_freq,
            dpram: DualPortRam::new(self.device.dpram_bytes, page_bytes)
                .expect("device geometry is valid"),
            imu,
            port: CoprocessorPort::new(self.pipeline_depth),
            vim,
            config_ctl: ConfigController::new(self.device),
            coprocessor: None,
            irq,
            pld_irq,
            trace,
            edge_budget: self.edge_budget,
            kernel: self.kernel,
            device: self.device,
            load_time: SimTime::ZERO,
            sched,
            caller,
            recovery,
            fallback: None,
            config_time: SimTime::ZERO,
        }
    }
}

/// The assembled platform.
#[derive(Debug)]
pub struct System {
    device: DeviceProfile,
    cp_freq: Frequency,
    imu_freq: Frequency,
    dpram: DualPortRam,
    imu: Imu,
    port: CoprocessorPort,
    vim: Vim,
    config_ctl: ConfigController,
    coprocessor: Option<Box<dyn Coprocessor>>,
    irq: InterruptController,
    pld_irq: IrqLine,
    trace: TraceSink,
    edge_budget: u64,
    kernel: Kernel,
    load_time: SimTime,
    sched: MiniScheduler,
    caller: Pid,
    recovery: Option<RecoveryPolicy>,
    fallback: Option<Box<dyn SoftwareFallback>>,
    config_time: SimTime,
}

impl System {
    /// The device profile in use.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The coprocessor clock.
    pub fn cp_freq(&self) -> Frequency {
        self.cp_freq
    }

    /// The IMU clock.
    pub fn imu_freq(&self) -> Frequency {
        self.imu_freq
    }

    /// Read access to the IMU (registers, TLB, counters).
    pub fn imu(&self) -> &Imu {
        &self.imu
    }

    /// Read access to the VIM (counters, time buckets).
    pub fn vim(&self) -> &Vim {
        &self.vim
    }

    /// The interrupt controller (delivery statistics).
    pub fn irq(&self) -> &InterruptController {
        &self.irq
    }

    /// The waveform recorded so far, if tracing was enabled.
    pub fn tracer(&self) -> Option<&WaveTracer> {
        self.trace.tracer()
    }

    /// Configuration time of the last `FPGA_LOAD`.
    pub fn load_time(&self) -> SimTime {
        self.load_time
    }

    /// The process scheduler model: the caller's accumulated sleep time
    /// and the CPU time made available to other processes while the
    /// coprocessor ran (`FPGA_EXECUTE` sleeps rather than busy-waits,
    /// Section 3.1).
    pub fn scheduler(&self) -> &MiniScheduler {
        &self.sched
    }

    /// Accumulated time the calling process has slept across executes.
    pub fn caller_sleep_time(&self) -> SimTime {
        self.sched.total_sleep(self.caller)
    }

    /// The fault injector (opportunity and fired counts per site).
    pub fn fault_injector(&self) -> &FaultInjector {
        self.vim.fault_injector()
    }

    /// Replaces the fault plan between runs (e.g. to schedule a
    /// one-shot fault for the next execution) without rebuilding the
    /// system. Does not change the recovery policy.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.vim.set_fault_injector(FaultInjector::new(plan));
    }

    /// The active recovery policy, if armed.
    pub fn recovery_policy(&self) -> Option<RecoveryPolicy> {
        self.recovery
    }

    /// Arms (`Some`) or disarms (`None`) recovery between runs.
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
    }

    /// Registers the software implementation `FPGA_EXECUTE` falls back
    /// to when hardware recovery is exhausted. The fallback computes
    /// over the same mapped objects, so `take_object` returns the same
    /// bytes either way.
    pub fn set_software_fallback(&mut self, fallback: Box<dyn SoftwareFallback>) {
        self.fallback = Some(fallback);
    }

    /// `FPGA_LOAD`: validates and programs `bitstream_bytes`, attaching
    /// `core` as the synthesised coprocessor. Returns the configuration
    /// time. When fault injection is armed, each programming pass rolls
    /// [`FaultSite::BitstreamLoad`] and a failed pass is retried (and
    /// charged) up to the recovery policy's load-attempt budget.
    ///
    /// # Errors
    ///
    /// Propagates [`vcop_fabric::loader::LoadError`] (bad container,
    /// wrong device, resources, an owner already present, or a
    /// persistent injected configuration fault).
    pub fn fpga_load(
        &mut self,
        bitstream_bytes: &[u8],
        core: Box<dyn Coprocessor>,
    ) -> Result<SimTime, Error> {
        let (loaded, attempts) = if self.vim.fault_injector().is_enabled() {
            let max = self.recovery.unwrap_or_default().max_load_attempts;
            self.config_ctl
                .load_with_faults(bitstream_bytes, self.vim.fault_injector_mut(), max)?
        } else {
            (self.config_ctl.load(bitstream_bytes)?, 1)
        };
        self.coprocessor = Some(core);
        self.config_time = loaded.load_time;
        self.load_time = SimTime::from_ps(loaded.load_time.as_ps() * attempts as u64);
        Ok(self.load_time)
    }

    /// Releases the fabric (ends exclusive use).
    pub fn fpga_release(&mut self) {
        self.config_ctl.release();
        self.coprocessor = None;
    }

    /// `FPGA_MAP_OBJECT`: declares `data` as interface object `id`.
    ///
    /// # Errors
    ///
    /// See [`vcop_vim::VimError`] for the validation rules.
    pub fn fpga_map_object(
        &mut self,
        id: ObjectId,
        data: Vec<u8>,
        elem: ElemSize,
        direction: Direction,
        hints: MapHints,
    ) -> Result<(), Error> {
        self.vim.map_object(id, data, elem, direction, hints)?;
        Ok(())
    }

    /// Retrieves (and unmaps) the buffer of object `id` — how an
    /// application reads results after `FPGA_EXECUTE`.
    pub fn take_object(&mut self, id: ObjectId) -> Option<Vec<u8>> {
        self.vim.take_object(id).map(|o| o.into_data())
    }

    /// Borrows the buffer of object `id` without unmapping.
    pub fn object_data(&self, id: ObjectId) -> Option<&[u8]> {
        self.vim.object(id).map(|o| o.data())
    }

    /// Re-tunes the VIM paging knobs between executions, so a warmed-up
    /// system (bitstream configured, coprocessor loaded) can sweep
    /// paging configurations without paying `FPGA_LOAD` again. The next
    /// execution behaves exactly as on a freshly built system: the
    /// replacement policy restarts from scratch and the DMA engine is
    /// rebuilt for the requested channel count.
    ///
    /// # Panics
    ///
    /// Panics if DMA transfers are still in flight (never the case
    /// between `fpga_execute` calls).
    pub fn reconfigure_paging(
        &mut self,
        policy: PolicyKind,
        prefetch: PrefetchMode,
        overlap: bool,
        dma_channels: usize,
    ) {
        self.vim
            .reconfigure_paging(policy, prefetch, overlap, dma_channels);
    }

    /// `FPGA_EXECUTE`: passes the scalar `params`, launches the
    /// coprocessor, services faults until end of operation, writes dirty
    /// data back, and returns the full time decomposition.
    ///
    /// With a [`RecoveryPolicy`] armed (implied by
    /// [`SystemBuilder::faults`]) the service additionally recovers from
    /// hardware faults. A miss whose interrupt was dropped is served in
    /// place when the no-progress watchdog polls `SR.fault`, and the VIM
    /// re-submits lost transfers within its retry budget. A failed
    /// attempt — a page transfer past that budget, a parity upset on
    /// dirty data, or the watchdog firing with nothing latched — resets
    /// and reprograms the fabric, charges backoff, and retries up to the
    /// attempt budget. If hardware never succeeds and a
    /// [`SoftwareFallback`] is registered, the
    /// request is served in software over the same mapped objects and
    /// the report's `fallback_taken` flag is set; the bytes returned by
    /// [`System::take_object`] are correct either way.
    ///
    /// # Errors
    ///
    /// * [`Error::NoCoprocessor`] if nothing was loaded;
    /// * [`Error::Vim`] for coprocessor protocol violations (unmapped
    ///   object, out-of-bounds access, parameter page misuse);
    /// * [`Error::Timeout`] if the edge budget is exhausted;
    /// * [`Error::Watchdog`] / [`Error::Vim`] transfer faults only when
    ///   recovery is exhausted and no fallback is registered;
    /// * [`Error::FallbackFailed`] if the registered fallback rejected
    ///   the request.
    pub fn fpga_execute(&mut self, params: &[u32]) -> Result<ExecutionReport, Error> {
        let Some(policy) = self.recovery else {
            let mut elapsed = SimTime::ZERO;
            return self.execute_attempt(params, None, &mut elapsed);
        };

        let fired0 = self.vim.fault_injector().total_fired();
        let tally0 = RecoveryTally::read(&self.vim);
        let mut recovery_time = SimTime::ZERO;
        let mut resets = 0u64;
        let mut last_err: Option<Error> = None;
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0u64;
        for attempt in 1..=max_attempts {
            attempts = u64::from(attempt);
            let mut elapsed = SimTime::ZERO;
            match self.execute_attempt(params, policy.watchdog_edges, &mut elapsed) {
                Ok(mut report) => {
                    report.execute_attempts = attempts;
                    report.injected_faults = self.vim.fault_injector().total_fired() - fired0;
                    RecoveryTally::read(&self.vim).since(tally0, &mut report);
                    report.watchdog_resets = resets;
                    // Time recovered in place is already inside the
                    // attempt's wall; failed attempts, resets and
                    // backoff come on top.
                    report.recovery_time += recovery_time;
                    report.wall += recovery_time;
                    return Ok(report);
                }
                Err(e) if Self::recoverable(&e) => {
                    recovery_time += elapsed;
                    last_err = Some(e);
                    if attempt == max_attempts {
                        break;
                    }
                    // Reset the fabric before the next attempt: the
                    // bitstream is reprogrammed (each pass can itself
                    // fault) and linear backoff is charged.
                    match self.reprogram_fabric(policy.max_load_attempts) {
                        Some(t_cfg) => {
                            resets += 1;
                            recovery_time += t_cfg
                                + SimTime::from_ps(policy.backoff.as_ps() * u64::from(attempt));
                        }
                        // The fabric no longer accepts its bitstream:
                        // hardware is gone for good, go straight to
                        // the fallback.
                        None => break,
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.run_fallback(
            params,
            attempts,
            resets,
            recovery_time,
            fired0,
            tally0,
            last_err,
        )
    }

    /// An error `FPGA_EXECUTE` may recover from by resetting and
    /// retrying (or falling back), as opposed to a protocol violation.
    fn recoverable(e: &Error) -> bool {
        matches!(
            e,
            Error::Timeout { .. }
                | Error::Watchdog { .. }
                | Error::Vim(VimError::TransferFault { .. } | VimError::ParityLoss { .. })
        )
    }

    /// Reprograms the fabric after a failed attempt, rolling
    /// [`FaultSite::BitstreamLoad`] per pass. Returns the configuration
    /// time charged, or `None` when every pass failed (fabric dead).
    fn reprogram_fabric(&mut self, max_attempts: u32) -> Option<SimTime> {
        let mut t = SimTime::ZERO;
        for _ in 0..max_attempts.max(1) {
            t += self.config_time;
            if !self.vim.fault_injector_mut().roll(FaultSite::BitstreamLoad) {
                return Some(t);
            }
        }
        None
    }

    /// Rolls a TLB parity upset against the current address space and,
    /// if one fires and a valid victim entry exists, injects it into
    /// the IMU. Returns whether a fault was injected.
    fn maybe_parity_upset(&mut self) -> bool {
        let asid = self.vim.asid();
        if !self
            .vim
            .fault_injector_mut()
            .roll_tagged(FaultSite::TlbParity, asid.0)
        {
            return false;
        }
        let candidates: Vec<usize> = (0..self.imu.tlb().len())
            .filter(|&i| {
                let e = self.imu.tlb().entry(i);
                e.valid && e.asid == asid
            })
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let victim = candidates[self.vim.fault_injector_mut().pick(candidates.len())];
        self.imu.inject_parity_fault(victim)
    }

    /// Serves the request with the registered software fallback after
    /// hardware recovery is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn run_fallback(
        &mut self,
        params: &[u32],
        attempts: u64,
        resets: u64,
        recovery_time: SimTime,
        fired0: u64,
        tally0: RecoveryTally,
        last_err: Option<Error>,
    ) -> Result<ExecutionReport, Error> {
        let Some(fallback) = self.fallback.take() else {
            return Err(last_err.unwrap_or(Error::FallbackFailed {
                reason: "no software fallback registered".into(),
            }));
        };
        let mut io = VimIo { vim: &mut self.vim };
        let result = fallback.run(&mut io, params);
        self.fallback = Some(fallback);
        let cpu = result.map_err(|reason| Error::FallbackFailed { reason })?;
        let mut report = ExecutionReport {
            wall: recovery_time + cpu,
            execute_attempts: attempts,
            injected_faults: self.vim.fault_injector().total_fired() - fired0,
            watchdog_resets: resets,
            recovery_time,
            fallback_taken: true,
            counters: self.vim.counters().clone(),
            ..Default::default()
        };
        RecoveryTally::read(&self.vim).since(tally0, &mut report);
        Ok(report)
    }

    /// Services the translation miss latched in the IMU: the *Page
    /// Fault* request, entered at `t_service` for a miss raised at
    /// `t_fault`. The two differ only when the interrupt was lost and
    /// the watchdog's status poll found the miss; that detection window
    /// is recovery time. `via_irq` asserts the PLD interrupt line
    /// around the handler; `irq_delay` is an injected late delivery.
    ///
    /// Returns the resume instant of a synchronous service (the caller
    /// advances both clock domains past it), or `None` when the demand
    /// page is on the DMA engine and `stalls.demand_start` now records
    /// the pending stall.
    fn service_miss(
        &mut self,
        t_fault: SimTime,
        t_service: SimTime,
        irq_delay: SimTime,
        via_irq: bool,
        stalls: &mut Stalls,
    ) -> Result<Option<SimTime>, Error> {
        if via_irq {
            self.irq.raise(self.pld_irq);
        }
        let svc = self.vim.service_fault(&mut self.imu, &mut self.dpram);
        if via_irq {
            self.irq.acknowledge(self.pld_irq);
        }
        let svc = svc?;
        let window = t_service.saturating_sub(t_fault);
        stalls.recovered += window;
        if svc.pending {
            // Overlapped paging: the demand movement is on the DMA
            // engine; the coprocessor stays stalled until its completion
            // interrupt.
            stalls.demand_start = Some((t_fault, window + svc.times.total() + irq_delay));
            return Ok(None);
        }
        let mut svc_total = svc.times.total() + irq_delay;
        // A parity upset can strike a valid TLB entry while the handler
        // has the IMU open; service it on the spot (a clean page is
        // reloaded, a dirty one is unrecoverable).
        if self.maybe_parity_upset() {
            self.irq.raise(self.pld_irq);
            let parity = self.vim.service_fault(&mut self.imu, &mut self.dpram);
            self.irq.acknowledge(self.pld_irq);
            svc_total += parity?.times.total();
        }
        let resume_at = t_service + svc_total;
        let stall = resume_at.saturating_sub(t_fault);
        stalls.fault_latency.record(stall);
        stalls.fault_stall += stall;
        Ok(Some(resume_at))
    }

    /// One hardware attempt of `FPGA_EXECUTE` — the fault-oblivious
    /// execution path, plus (when `watchdog` is armed) a no-progress
    /// monitor. `elapsed` receives the simulated time the attempt
    /// consumed regardless of outcome, so the recovery layer can charge
    /// failed attempts to the report's recovery time.
    fn execute_attempt(
        &mut self,
        params: &[u32],
        watchdog: Option<u64>,
        elapsed: &mut SimTime,
    ) -> Result<ExecutionReport, Error> {
        if self.coprocessor.is_none() {
            return Err(Error::NoCoprocessor);
        }

        // Snapshot accounting state.
        let dp0 = self.vim.times().get("sw_dp");
        let imu_t0 = self.vim.times().get("sw_imu");
        let hid0 = self.vim.times().get("dma_hidden");
        let dma0 = self.vim.counters().get("dma_transfer");
        let faults0 = self.vim.counters().get("fault");
        let loads0 = self.vim.counters().get("page_load");
        let wb0 = self.vim.counters().get("page_writeback");
        let ev0 = self.vim.counters().get("eviction");
        let pf0 = self.vim.counters().get("prefetch");
        let hits0 = self.imu.tlb().hits();
        let miss0 = self.imu.tlb().misses();
        let imu_edges0 = self.imu.edges();

        // Reset the datapath, then stage parameters and layouts.
        {
            let mut link = PortLink::new(&mut self.port);
            self.imu.write_control(
                ControlRegister {
                    reset: true,
                    irq_enable: true,
                    ..Default::default()
                },
                &mut link,
            );
        }
        let setup = self
            .vim
            .prepare_execute(&mut self.imu, &mut self.dpram, params)?;
        let cp = self.coprocessor.as_mut().expect("checked above");
        cp.reset();
        {
            let mut link = PortLink::new(&mut self.port);
            self.imu.write_control(
                ControlRegister {
                    start: true,
                    ..Default::default()
                },
                &mut link,
            );
        }

        // Event loop over the two PLD clock domains. The IMU is
        // registered first so it wins ties (completions become visible
        // to the coprocessor within the same coincident edge).
        // The caller sleeps for the duration of the operation.
        self.sched.sleep(self.caller, SimTime::ZERO);

        let mut sched = EdgeScheduler::new();
        let imu_clk = sched.add_clock(ClockDomain::new(self.imu_freq));
        let cp_clk = sched.add_clock(ClockDomain::new(self.cp_freq));
        let mut stalls = Stalls::default();
        let mut t_done = None;
        let mut cp_cycles = 0u64;
        let mut edges = 0u64;
        // When the last translation-fault interrupt was dropped.
        let mut irq_dropped_at: Option<SimTime> = None;
        // Watchdog bookkeeping: the edge count at the last observable
        // progress (a translation, a fault, a page movement).
        let mut progress_marker = (0u64, 0u64, 0u64);
        let mut progress_edges = 0u64;

        while edges < self.edge_budget {
            if let Some(limit) = watchdog {
                let marker = (
                    self.imu.tlb().hits(),
                    self.imu.tlb().misses(),
                    self.vim.progress_epoch(),
                );
                if marker != progress_marker {
                    progress_marker = marker;
                    progress_edges = edges;
                }
                // A demand transfer whose retry budget is spent can
                // never complete; fail fast instead of sitting out the
                // whole no-progress window.
                let demand_dead =
                    stalls.demand_start.is_some() && self.vim.demand_lost_for(self.vim.asid());
                if demand_dead || edges.saturating_sub(progress_edges) > limit {
                    let now = sched.clock(imu_clk).next_edge();
                    // Before resetting, read the status register: a
                    // miss latched in SR.fault lost its interrupt and is
                    // served in place, as if the IRQ had arrived late.
                    if !demand_dead
                        && stalls.demand_start.is_none()
                        && self.vim.poll_lost_fault(&self.imu)
                    {
                        let t_fault = irq_dropped_at.take().unwrap_or(now);
                        match self.service_miss(t_fault, now, SimTime::ZERO, false, &mut stalls) {
                            Ok(Some(resume_at)) => {
                                sched.clock_mut(imu_clk).fast_forward_past(resume_at);
                                sched.clock_mut(cp_clk).fast_forward_past(resume_at);
                            }
                            Ok(None) => {}
                            Err(e) => {
                                self.sched.wake(self.caller, now);
                                *elapsed = setup + now;
                                return Err(e);
                            }
                        }
                        continue;
                    }
                    self.sched.wake(self.caller, now);
                    *elapsed = setup + now;
                    return Err(Error::Watchdog {
                        stalled_edges: edges.saturating_sub(progress_edges),
                    });
                }
            }
            // Lean transaction engine: in the common synchronous steady
            // state (no DMA engine, non-pipelined IMU) the whole
            // accept→translate→complete span of a hitting access is
            // deterministic, so it runs as one fused transaction instead
            // of five-plus scheduler iterations, and a computing
            // coprocessor burst runs as one skip-plus-step round. Any
            // milestone the span cannot prove idle — a fault, `CP_FIN`,
            // param-done, pipelining, a blocked pair, budget proximity —
            // drops back to the generic event loop below.
            if self.kernel == Kernel::EventDriven
                && stalls.demand_start.is_none()
                && !self.vim.overlap_active()
            {
                let (imu_clock, cp_clock) = sched.pair_mut(imu_clk, cp_clk);
                let cp = self.coprocessor.as_mut().expect("checked above");
                loop {
                    if !self.imu.lean_ready()
                        || self.port.fin_pending()
                        || self.port.param_done_pending()
                    {
                        break;
                    }
                    if self.port.outstanding_len() > 0 {
                        // A pending access: fuse accept → completion.
                        let lat = self.imu.fused_latency();
                        let t_accept = imu_clock.next_edge();
                        let Some(t_comp) = Wake::In(lat).at(t_accept, imu_clock.period()) else {
                            break;
                        };
                        // The coprocessor must be provably asleep until
                        // the completion edge, or the completed data
                        // would become visible at the wrong cycle.
                        let quiescent = match cp
                            .next_wake(&self.port)
                            .at(cp_clock.next_edge(), cp_clock.period())
                        {
                            None => true,
                            Some(t) => t >= t_comp,
                        };
                        if !quiescent {
                            break;
                        }
                        let cp_skip = cp_clock.edges_before_short(t_comp);
                        if edges + lat + cp_skip >= self.edge_budget {
                            break;
                        }
                        let mut link = PortLink::new(&mut self.port);
                        if !self.imu.fused_access(
                            t_accept,
                            t_comp,
                            &mut link,
                            &mut self.dpram,
                            &mut self.trace,
                        ) {
                            // Would fault: the generic loop raises it.
                            break;
                        }
                        imu_clock.consume_edges(lat);
                        edges += lat;
                        if cp_skip > 0 {
                            cp_clock.consume_edges(cp_skip);
                            cp.skip(cp_skip);
                            cp_cycles += cp_skip;
                            edges += cp_skip;
                        }
                        continue;
                    }
                    // Nothing issued: the coprocessor is computing. Skip
                    // straight to its wake edge and step it once.
                    let Wake::In(k) = cp.next_wake(&self.port) else {
                        // Both sides blocked: the generic hang path.
                        break;
                    };
                    let k = k.max(1);
                    let Some(t_cp) = Wake::In(k).at(cp_clock.next_edge(), cp_clock.period()) else {
                        break;
                    };
                    // IMU edges at or before the step (ties go to the
                    // IMU, which is provably idle here) are bulk-idled.
                    let imu_skip = imu_clock.edges_before_short(t_cp + SimTime::from_ps(1));
                    if edges + imu_skip + k >= self.edge_budget {
                        break;
                    }
                    if imu_skip > 0 {
                        let last = imu_clock.next_edge()
                            + SimTime::from_ps(imu_clock.period().as_ps() * (imu_skip - 1));
                        imu_clock.consume_edges(imu_skip);
                        self.imu.skip_idle_edges(imu_skip, last);
                        edges += imu_skip;
                    }
                    if k > 1 {
                        cp_clock.consume_edges(k - 1);
                        cp_cycles += k - 1;
                        edges += k - 1;
                        cp.skip(k - 1);
                    }
                    cp_clock.advance();
                    edges += 1;
                    cp_cycles += 1;
                    cp.step(&mut self.port);
                }
            }

            // Event-driven kernel: fast-forward both domains across
            // spans where neither the IMU nor the coprocessor can act.
            // A demand-stalled span is advanced by the completion path
            // below instead, and an all-blocked state falls back to
            // stepping so DMA progress and the hang budget behave
            // exactly as in stepped mode.
            if self.kernel == Kernel::EventDriven && stalls.demand_start.is_none() {
                let cp = self.coprocessor.as_ref().expect("checked above");
                let imu_clock = sched.clock(imu_clk);
                let cp_clock = sched.clock(cp_clk);
                let horizon = EventKernel::horizon(&[
                    WakeSource {
                        next_edge: imu_clock.next_edge(),
                        period: imu_clock.period(),
                        wake: self.imu.next_wake(&self.port),
                    },
                    WakeSource {
                        next_edge: cp_clock.next_edge(),
                        period: cp_clock.period(),
                        wake: cp.next_wake(&self.port),
                    },
                ]);
                if let Some(h) = horizon {
                    let imu_skip = imu_clock.edges_before(h);
                    let cp_skip = cp_clock.edges_before(h);
                    let total = imu_skip + cp_skip;
                    // Near the budget a skip could cross the timeout
                    // point; degrade to stepping so hangs behave
                    // identically to the reference loop.
                    if total > 0 && edges + total < self.edge_budget {
                        edges += total;
                        if imu_skip > 0 {
                            let clk = sched.clock_mut(imu_clk);
                            let last = clk.next_edge()
                                + SimTime::from_ps(clk.period().as_ps() * (imu_skip - 1));
                            clk.fast_forward_to(h);
                            self.imu.skip_idle_edges(imu_skip, last);
                        }
                        if cp_skip > 0 {
                            sched.clock_mut(cp_clk).fast_forward_to(h);
                            self.coprocessor
                                .as_mut()
                                .expect("checked above")
                                .skip(cp_skip);
                            cp_cycles += cp_skip;
                        }
                    }
                }
            }

            edges += 1;
            let (t, id) = sched.pop().expect("two clocks registered");

            // Drain DMA completions that occurred by this edge. A
            // demand-page arrival models the completion interrupt:
            // charge the stall, skip both domains past the resume
            // point, and let the IMU retry the faulted translation.
            if let Some(ready) = self.vim.advance_dma(&mut self.imu, &mut self.dpram, t) {
                let (t_fault, svc_cpu) = stalls.demand_start.take().expect("demand fault recorded");
                let irq = self.vim.cost().dma_completion_time() + self.vim.cost().resume_time();
                let resume_at = ready.at + irq;
                // The DP share of the stall is the tail of the DMA wait
                // not already covered by the synchronous service time,
                // less the deadlines of lost attempts (recovery time).
                let wait = ready.at.saturating_sub(t_fault + svc_cpu);
                let recovered = ready.recovered.min(wait);
                stalls.recovered += recovered;
                self.vim.credit_demand_stall(wait - recovered, irq);
                let stall = resume_at.saturating_sub(t_fault);
                stalls.fault_latency.record(stall);
                stalls.fault_stall += stall;
                sched.clock_mut(imu_clk).fast_forward_past(resume_at);
                sched.clock_mut(cp_clk).fast_forward_past(resume_at);
                self.imu.resume();
                continue;
            }

            if id == imu_clk {
                let mut link = PortLink::new(&mut self.port);
                let event = self
                    .imu
                    .step(t, &mut link, &mut self.dpram, &mut self.trace);
                match event {
                    Some(ImuEvent::Fault) => {
                        let asid_tag = self.vim.asid().0;
                        // An injected IRQ drop loses the fault interrupt:
                        // the miss stays latched in SR.fault and the
                        // coprocessor stays stalled until the watchdog
                        // polls the status register.
                        if self
                            .vim
                            .fault_injector_mut()
                            .roll_tagged(FaultSite::IrqDrop, asid_tag)
                        {
                            irq_dropped_at = Some(t);
                            continue;
                        }
                        // A delayed IRQ postpones handler entry by a
                        // fixed number of IMU edges; the coprocessor
                        // stall grows by the same interval.
                        let irq_delay = if self
                            .vim
                            .fault_injector_mut()
                            .roll_tagged(FaultSite::IrqDelay, asid_tag)
                        {
                            let period = sched.clock(imu_clk).period();
                            SimTime::from_ps(
                                period.as_ps() * self.vim.fault_injector().irq_delay_edges(),
                            )
                        } else {
                            SimTime::ZERO
                        };
                        match self.service_miss(t, t, irq_delay, true, &mut stalls) {
                            Ok(Some(resume_at)) => {
                                sched.clock_mut(imu_clk).fast_forward_past(resume_at);
                                sched.clock_mut(cp_clk).fast_forward_past(resume_at);
                            }
                            Ok(None) => {}
                            Err(e) => {
                                self.sched.wake(self.caller, t);
                                *elapsed = setup + t;
                                return Err(e);
                            }
                        }
                    }
                    Some(ImuEvent::Done) => {
                        self.irq.raise(self.pld_irq);
                        t_done = Some(t);
                        break;
                    }
                    None => {}
                }
            } else if let Some(cp) = self.coprocessor.as_mut() {
                cp.step(&mut self.port);
                cp_cycles += 1;
            }
        }

        let Some(t_done) = t_done else {
            // Even a hung coprocessor must not leave the caller asleep.
            let now = sched.clock(imu_clk).next_edge();
            self.sched.wake(self.caller, now);
            *elapsed = setup + now;
            return Err(Error::Timeout {
                budget: self.edge_budget,
            });
        };
        let done_svc = match self.vim.service_done(&mut self.imu, &mut self.dpram) {
            Ok(svc) => svc,
            Err(e) => {
                self.irq.acknowledge(self.pld_irq);
                self.sched.wake(self.caller, t_done);
                *elapsed = setup + t_done;
                return Err(e.into());
            }
        };
        self.irq.acknowledge(self.pld_irq);
        self.sched.wake(self.caller, t_done + done_svc.total());

        let report = ExecutionReport {
            wall: setup + t_done + done_svc.total(),
            hw: t_done.saturating_sub(stalls.fault_stall),
            sw_dp: self.vim.times().get("sw_dp").saturating_sub(dp0),
            sw_imu: self.vim.times().get("sw_imu").saturating_sub(imu_t0),
            setup,
            dma_hidden: self.vim.times().get("dma_hidden").saturating_sub(hid0),
            dma_transfers: self.vim.counters().get("dma_transfer") - dma0,
            faults: self.vim.counters().get("fault") - faults0,
            page_loads: self.vim.counters().get("page_load") - loads0,
            page_writebacks: self.vim.counters().get("page_writeback") - wb0,
            evictions: self.vim.counters().get("eviction") - ev0,
            prefetches: self.vim.counters().get("prefetch") - pf0,
            tlb_hits: self.imu.tlb().hits() - hits0,
            tlb_misses: self.imu.tlb().misses() - miss0,
            cp_cycles,
            imu_edges: self.imu.edges() - imu_edges0,
            fault_latency: stalls.fault_latency,
            recovery_time: stalls.recovered,
            counters: self.vim.counters().clone(),
            ..Default::default()
        };
        *elapsed = report.wall;
        Ok(report)
    }
}

/// Coprocessor stall bookkeeping of one hardware attempt.
#[derive(Debug, Default)]
struct Stalls {
    /// Summed coprocessor stall over all serviced misses.
    fault_stall: SimTime,
    /// Per-miss stall distribution.
    fault_latency: LatencyHistogram,
    /// Overlapped paging: fault time and CPU service time of the demand
    /// transfer the coprocessor is currently stalled on.
    demand_start: Option<(SimTime, SimTime)>,
    /// Stall time recovered in place: lost-interrupt detection windows
    /// and lost-transfer deadlines.
    recovered: SimTime,
}

/// The VIM's recovery counters at one instant; a report carries their
/// growth over its `FPGA_EXECUTE`.
#[derive(Debug, Clone, Copy)]
struct RecoveryTally {
    retries: u64,
    polls: u64,
    resubmits: u64,
}

impl RecoveryTally {
    fn read(vim: &Vim) -> Self {
        let c = vim.counters();
        RecoveryTally {
            retries: c.get("transfer_retry"),
            polls: c.get("irq_poll"),
            resubmits: c.get("timeout_resubmit"),
        }
    }

    /// Writes the growth since `before` into `report`.
    fn since(self, before: RecoveryTally, report: &mut ExecutionReport) {
        report.transfer_retries = self.retries - before.retries;
        report.lost_irqs_polled = self.polls - before.polls;
        report.lost_transfers_resubmitted = self.resubmits - before.resubmits;
    }
}

/// [`FallbackIo`] view over the VIM's mapped objects: the software
/// fallback reads and writes the very buffers the application mapped
/// (scoped to the VIM's current address space).
pub(crate) struct VimIo<'a> {
    pub(crate) vim: &'a mut Vim,
}

impl FallbackIo for VimIo<'_> {
    fn object(&self, id: ObjectId) -> Option<&[u8]> {
        self.vim.object(id).map(|o| o.data())
    }

    fn object_mut(&mut self, id: ObjectId) -> Option<&mut [u8]> {
        self.vim.object_data_mut(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "integer multiple")]
    fn clocks_must_divide() {
        let _ = SystemBuilder::epxa1().clocks(Frequency::from_mhz(7), Frequency::from_mhz(24));
    }

    #[test]
    fn cdc_synchroniser_is_automatic() {
        let same = SystemBuilder::epxa1()
            .clocks(Frequency::from_mhz(40), Frequency::from_mhz(40))
            .build();
        assert_eq!(same.imu().config().sync_edges, 0);
        let cross = SystemBuilder::epxa1()
            .clocks(Frequency::from_mhz(6), Frequency::from_mhz(24))
            .build();
        assert_eq!(cross.imu().config().sync_edges, 2, "two-flop synchroniser");
        let forced = SystemBuilder::epxa1()
            .clocks(Frequency::from_mhz(6), Frequency::from_mhz(24))
            .sync_edges(0)
            .build();
        assert_eq!(forced.imu().config().sync_edges, 0);
    }

    #[test]
    fn builder_wires_device_geometry() {
        let system = SystemBuilder::new(vcop_fabric::DeviceProfile::epxa4()).build();
        assert_eq!(system.device().dpram_bytes, 64 * 1024);
        assert_eq!(system.imu().config().tlb_entries, 32);
        assert_eq!(system.vim().config().frame_count, 32);
    }

    #[test]
    fn pipeline_depth_reaches_imu_and_port() {
        let system = SystemBuilder::epxa1().pipeline_depth(4).build();
        assert_eq!(system.imu().config().pipeline_depth, 4);
        // Depth zero clamps to one.
        let system = SystemBuilder::epxa1().pipeline_depth(0).build();
        assert_eq!(system.imu().config().pipeline_depth, 1);
    }

    #[test]
    fn fresh_system_state() {
        let system = SystemBuilder::epxa1().trace(true).build();
        assert!(system.tracer().is_some());
        assert_eq!(system.load_time(), SimTime::ZERO);
        assert_eq!(system.caller_sleep_time(), SimTime::ZERO);
        assert_eq!(system.cp_freq(), Frequency::from_mhz(40));
        assert_eq!(system.imu_freq(), Frequency::from_mhz(40));
        let untraced = SystemBuilder::epxa1().build();
        assert!(untraced.tracer().is_none());
    }
}
