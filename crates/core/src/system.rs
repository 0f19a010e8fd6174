//! The reconfigurable-SoC platform harness.
//!
//! [`System`] assembles the full stack of the paper — dual-port RAM,
//! IMU, VIM, configuration controller, interrupt line, and the two
//! PLD-side clock domains — and exposes the three OS services of
//! Section 3.1 (`FPGA_LOAD`, `FPGA_MAP_OBJECT`, `FPGA_EXECUTE`).
//!
//! `FPGA_EXECUTE` runs the platform loop of the execution engine for
//! one tenant at [`Asid::SINGLE`](vcop_imu::tlb::Asid::SINGLE), waiting
//! in place whenever the coprocessor parks on a demand page: its
//! timeline starts at zero for each execution, and every stall interval
//! is charged to the paper's `SW (DP)` / `SW (IMU)` buckets.
//!
//! With [`SystemBuilder::faults`] the platform additionally injects
//! deterministic hardware faults (corrupted or lost DMA transfers, bus
//! stalls, dropped or delayed interrupts, TLB parity upsets, failed
//! configuration passes), and a [`RecoveryPolicy`] governs how
//! `FPGA_EXECUTE` recovers: lost work recovered in place (a lost
//! transfer re-submitted at its deadline, a miss whose interrupt was
//! dropped found by the no-progress watchdog's status-register poll),
//! bounded retries with fabric resets and backoff, and finally a
//! transparent [`SoftwareFallback`] that serves the request in software
//! so the application still receives correct bytes.

use vcop_fabric::loader::ConfigController;
use vcop_fabric::port::{Coprocessor, CoprocessorPort, ObjectId};
use vcop_fabric::DeviceProfile;
use vcop_imu::imu::{ElemSize, Imu, ImuConfig};
use vcop_sim::fault::FaultInjector;
use vcop_sim::irq::InterruptController;
use vcop_sim::time::{Frequency, SimTime};
use vcop_sim::trace::{TraceSink, WaveTracer};
use vcop_vim::manager::{Scope, Vim, VimConfig};
use vcop_vim::object::{Direction, MapHints};
use vcop_vim::policy::PolicyKind;
use vcop_vim::prefetch::PrefetchMode;

use crate::builder::{cdc_sync_edges, Builder};
use crate::engine::{self, Engine, Segment, Yield};
pub use crate::engine::{Kernel, DEFAULT_EDGE_BUDGET};
use crate::error::Error;
use crate::fallback::{RecoveryPolicy, SoftwareFallback};
use crate::report::ExecutionReport;

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
pub type SystemBuilder = Builder<SingleTenant>;

/// The knobs only the single-tenant [`System`] has.
#[derive(Debug)]
pub struct SingleTenant {
    cp_freq: Frequency,
    imu_freq: Frequency,
    sync_edges: u32,
    pipeline_depth: usize,
    prefetch: PrefetchMode,
    overlap: bool,
    trace: bool,
}

impl Builder<SingleTenant> {
    /// Starts from a device profile with 40 MHz PLD clocks.
    pub fn new(device: DeviceProfile) -> Self {
        Builder::with_mode(
            device,
            SingleTenant {
                cp_freq: Frequency::from_mhz(40),
                imu_freq: Frequency::from_mhz(40),
                sync_edges: 0,
                pipeline_depth: 1,
                prefetch: PrefetchMode::None,
                overlap: false,
                trace: false,
            },
        )
    }

    /// The paper's board.
    pub fn epxa1() -> Self {
        SystemBuilder::new(DeviceProfile::epxa1())
    }

    /// Sets the coprocessor and IMU clock frequencies. The IMU clock
    /// must be the coprocessor clock or an integer multiple of it, as on
    /// the prototype. A two-flop synchroniser (2 IMU edges) is inserted
    /// when the coprocessor runs slower than the IMU, none when they
    /// share a clock.
    ///
    /// # Panics
    ///
    /// Panics if `imu` is not an integer multiple of `cp`.
    pub fn clocks(mut self, cp: Frequency, imu: Frequency) -> Self {
        self.mode.sync_edges = cdc_sync_edges(cp, imu);
        self.mode.cp_freq = cp;
        self.mode.imu_freq = imu;
        self
    }

    /// Uses the pipelined IMU variant with `depth` translations in
    /// flight (`1` = the paper's prototype).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.mode.pipeline_depth = depth.max(1);
        self
    }

    /// Selects the VIM prefetch mode.
    pub fn prefetch(mut self, prefetch: PrefetchMode) -> Self {
        self.mode.prefetch = prefetch;
        self
    }

    /// Enables overlapped paging (the paper's announced future work):
    /// page movements run on an asynchronous multi-channel DMA engine
    /// that raises completion interrupts, so prefetches and write-backs
    /// proceed underneath coprocessor execution and a demand fault costs
    /// a DMA transfer rather than a CPU copy loop.
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.mode.overlap = overlap;
        self
    }

    /// Records the Fig. 7 signal set during execution.
    pub fn trace(mut self, trace: bool) -> Self {
        self.mode.trace = trace;
        self
    }

    /// Assembles the system.
    pub fn build(self) -> System {
        let device = self.device;
        let k = &self.mode;
        let frames = device.page_count();
        let base = if k.pipeline_depth > 1 {
            ImuConfig::pipelined(frames, device.page_bytes, k.pipeline_depth)
        } else {
            ImuConfig::prototype(frames, device.page_bytes)
        };
        let mut imu = Imu::new(base.with_sync_edges(k.sync_edges));
        let mut trace = if k.trace {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        };
        imu.attach_trace(&mut trace);
        let paging = VimConfig {
            prefetch: k.prefetch,
            overlap: k.overlap,
            ..VimConfig::prototype(frames, device.page_bytes)
        };
        let (engine, k) = self.engine(imu, trace, paging, Scope::Table);
        System {
            cp_freq: k.cp_freq,
            imu_freq: k.imu_freq,
            engine,
            port: CoprocessorPort::new(k.pipeline_depth),
            config_ctl: ConfigController::new(device),
            coprocessor: None,
            device,
            load_time: SimTime::ZERO,
            caller_sleep: SimTime::ZERO,
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
    engine: Engine,
    port: CoprocessorPort,
    config_ctl: ConfigController,
    coprocessor: Option<Box<dyn Coprocessor>>,
    load_time: SimTime,
    /// Time the calling process has slept in `FPGA_EXECUTE`.
    caller_sleep: SimTime,
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
        &self.engine.imu
    }

    /// Read access to the VIM (its counts and service times).
    pub fn vim(&self) -> &Vim {
        &self.engine.vim
    }

    /// The interrupt controller (delivery statistics).
    pub fn irq(&self) -> &InterruptController {
        &self.engine.irq
    }

    /// The waveform recorded so far, if tracing was enabled.
    pub fn tracer(&self) -> Option<&WaveTracer> {
        self.engine.trace.tracer()
    }

    /// Configuration time of the last `FPGA_LOAD`.
    pub fn load_time(&self) -> SimTime {
        self.load_time
    }

    /// Accumulated time the calling process has slept across executes:
    /// `FPGA_EXECUTE` sleeps rather than busy-waits (Section 3.1), from
    /// the coprocessor's start to the end of its end-of-operation
    /// service or its failure. This is also the CPU time made available
    /// to other runnable processes meanwhile.
    pub fn caller_sleep_time(&self) -> SimTime {
        self.caller_sleep
    }

    /// The fault injector (opportunity and fired counts per site).
    pub fn fault_injector(&self) -> &FaultInjector {
        self.engine.vim.fault_injector()
    }

    /// Arms (`Some`) or disarms (`None`) recovery between runs.
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.engine.recovery = policy;
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
    /// [`FaultSite::BitstreamLoad`](vcop_sim::fault::FaultSite) and a
    /// failed pass is retried (and charged) up to the recovery policy's
    /// load-attempt budget.
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
        let (loaded, attempts) = self.engine.load(&mut self.config_ctl, bitstream_bytes)?;
        self.coprocessor = Some(core);
        self.config_time = loaded.load_time;
        self.load_time = loaded.load_time * u64::from(attempts);
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
        self.engine
            .vim
            .map_object(id, data, elem, direction, hints)?;
        Ok(())
    }

    /// Retrieves (and unmaps) the buffer of object `id` — how an
    /// application reads results after `FPGA_EXECUTE`.
    pub fn take_object(&mut self, id: ObjectId) -> Option<Vec<u8>> {
        self.engine.vim.take_object(id).map(|o| o.into_data())
    }

    /// Re-tunes the VIM paging knobs between executions, so a warmed-up
    /// system (bitstream configured, coprocessor loaded) can sweep
    /// paging configurations without paying `FPGA_LOAD` again. The next
    /// execution behaves exactly as on a freshly built system: the
    /// replacement policy restarts from scratch and the DMA engine is
    /// rebuilt for the requested channel count. Transfers a failed
    /// `fpga_execute` left in flight are cancelled.
    pub fn reconfigure_paging(
        &mut self,
        policy: PolicyKind,
        prefetch: PrefetchMode,
        overlap: bool,
        dma_channels: usize,
    ) {
        let engine = &mut self.engine;
        engine
            .vim
            .reconfigure_paging(&mut engine.imu, policy, prefetch, overlap, dma_channels);
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
        let Some(policy) = self.engine.recovery else {
            let mut elapsed = SimTime::ZERO;
            return self.execute_attempt(params, &mut elapsed);
        };

        let before = self.engine.snapshot();
        let mut recovery_time = SimTime::ZERO;
        let mut resets = 0u64;
        let mut last_err: Option<Error> = None;
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0u64;
        let mut served = None;
        for attempt in 1..=max_attempts {
            attempts = u64::from(attempt);
            let mut elapsed = SimTime::ZERO;
            match self.execute_attempt(params, &mut elapsed) {
                Ok(report) => {
                    served = Some(report);
                    break;
                }
                // A hang of this attempt is recoverable too: the edge
                // budget is per attempt.
                Err(e) if engine::hardware_fault(&e) || matches!(e, Error::Timeout { .. }) => {
                    recovery_time += elapsed;
                    last_err = Some(e);
                    if attempt == max_attempts {
                        break;
                    }
                    // Reset the fabric before the next attempt: the
                    // bitstream is reprogrammed (each pass can itself
                    // fault) and linear backoff is charged.
                    let injector = self.engine.vim.fault_injector_mut();
                    match injector.clean_bitstream_pass(policy.max_load_attempts) {
                        Some(passes) => {
                            resets += 1;
                            recovery_time += self.config_time * u64::from(passes)
                                + policy.backoff * u64::from(attempt);
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

        let mut report = match served {
            // Time recovered in place is already inside the attempt's
            // wall; failed attempts, resets and backoff come on top.
            Some(mut report) => {
                report.recovery_time += recovery_time;
                report.wall += recovery_time;
                report
            }
            // Hardware recovery is exhausted: serve the request with the
            // registered software fallback.
            None => {
                let Some(fallback) = self.fallback.as_deref() else {
                    return Err(last_err.unwrap_or(Error::FallbackFailed {
                        reason: "no software fallback registered".into(),
                    }));
                };
                let cpu = engine::run_fallback(&mut self.engine.vim, fallback, params)?;
                ExecutionReport {
                    wall: recovery_time + cpu,
                    recovery_time,
                    fallback_taken: true,
                    ..Default::default()
                }
            }
        };
        let d = self.engine.snapshot() - before;
        report.execute_attempts = attempts;
        report.injected_faults = d.injected;
        report.transfer_retries = d.counts.transfer_retry;
        report.lost_irqs_polled = d.counts.irq_poll;
        report.lost_transfers_resubmitted = d.counts.timeout_resubmit;
        report.watchdog_resets = resets;
        Ok(report)
    }

    /// One hardware attempt of `FPGA_EXECUTE`: the engine's platform
    /// loop from time zero, waiting in place whenever the coprocessor
    /// parks on a demand page. `elapsed` receives the simulated time the
    /// attempt consumed regardless of outcome, so the recovery layer can
    /// charge failed attempts to the report's recovery time.
    fn execute_attempt(
        &mut self,
        params: &[u32],
        elapsed: &mut SimTime,
    ) -> Result<ExecutionReport, Error> {
        let Some(cp) = self.coprocessor.as_deref_mut() else {
            return Err(Error::NoCoprocessor);
        };
        let engine = &mut self.engine;

        let before = engine.snapshot();
        let setup = engine.start(cp, &mut self.port, params)?;
        engine.edges = 0;
        let mut seg = Segment::new(engine, self.imu_freq, self.cp_freq, None, SimTime::ZERO);
        let (t_done, done_svc) = loop {
            match engine.run_until_yield(&mut seg, cp, &mut self.port) {
                Yield::Parked { .. } => {}
                Yield::Done { at, service } => break (at, service),
                Yield::Failed { error, at } => {
                    self.caller_sleep += at;
                    *elapsed = setup + at;
                    return Err(error);
                }
            }
        };
        // The caller slept from the coprocessor's start, time zero of the
        // segment, to the end of the end-of-operation service.
        self.caller_sleep += t_done + done_svc.total();

        let d = engine.snapshot() - before;
        let report = ExecutionReport {
            wall: setup + t_done + done_svc.total(),
            hw: t_done.saturating_sub(seg.stalls.fault_latency.sum()),
            sw_dp: d.times.sw_dp,
            sw_imu: d.times.sw_imu,
            setup,
            dma_hidden: d.times.dma_hidden,
            dma_transfers: d.counts.dma_transfer,
            faults: d.counts.fault,
            page_loads: d.counts.page_load,
            page_writebacks: d.counts.page_writeback,
            evictions: d.counts.eviction,
            prefetches: d.counts.prefetch,
            tlb_hits: d.imu.tlb_hit,
            tlb_misses: d.imu.tlb_miss,
            cp_cycles: seg.cp_cycles,
            imu_edges: d.imu_edges,
            fault_latency: seg.stalls.fault_latency,
            recovery_time: seg.stalls.recovered,
            ..Default::default()
        };
        *elapsed = report.wall;
        Ok(report)
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
