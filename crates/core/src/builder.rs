//! The one platform builder behind [`SystemBuilder`](crate::SystemBuilder)
//! and [`MultiSystemBuilder`](crate::MultiSystemBuilder).

use vcop_fabric::DeviceProfile;
use vcop_imu::imu::Imu;
use vcop_sim::bus::BurstKind;
use vcop_sim::fault::{FaultInjector, FaultPlan};
use vcop_sim::irq::InterruptController;
use vcop_sim::mem::DualPortRam;
use vcop_sim::time::Frequency;
use vcop_sim::trace::TraceSink;
use vcop_vim::cost::{OsCostModel, OsOverheads};
use vcop_vim::manager::{Scope, Vim, VimConfig};
use vcop_vim::policy::PolicyKind;
use vcop_vim::TransferMode;

use crate::engine::{Engine, Kernel, DEFAULT_EDGE_BUDGET};
use crate::fallback::RecoveryPolicy;

/// Clock-domain-crossing synchroniser depth, in IMU edges, for a
/// coprocessor clocked at `cp` talking to an IMU clocked at `imu`: a
/// two-flop synchroniser into the faster IMU domain, none when both
/// share a clock.
///
/// # Panics
///
/// Panics if `imu` is not an integer multiple of `cp`, the only clock
/// pairs the prototype supports.
pub(crate) fn cdc_sync_edges(cp: Frequency, imu: Frequency) -> u32 {
    assert!(
        imu.hz().is_multiple_of(cp.hz()),
        "IMU clock {imu} must be an integer multiple of the coprocessor clock {cp}"
    );
    if imu == cp {
        0
    } else {
        2
    }
}

/// Builder for either front end of the platform. The knobs both share
/// are defined here; `K` carries the front end's own knobs and decides
/// what `build` returns — see [`SystemBuilder`](crate::SystemBuilder)
/// and [`MultiSystemBuilder`](crate::MultiSystemBuilder).
#[derive(Debug)]
pub struct Builder<K> {
    pub(crate) device: DeviceProfile,
    policy: PolicyKind,
    transfer: TransferMode,
    burst: BurstKind,
    skip_out_page_load: bool,
    dma_channels: usize,
    os_overheads: OsOverheads,
    edge_budget: u64,
    kernel: Kernel,
    faults: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
    pub(crate) mode: K,
}

impl<K> Builder<K> {
    /// The shared defaults on `device`, with the front end's knobs `mode`.
    pub(crate) fn with_mode(device: DeviceProfile, mode: K) -> Self {
        Builder {
            device,
            policy: PolicyKind::Fifo,
            transfer: TransferMode::Double,
            burst: BurstKind::Single,
            skip_out_page_load: false,
            dma_channels: 2,
            os_overheads: OsOverheads::paper_era(),
            edge_budget: DEFAULT_EDGE_BUDGET,
            kernel: Kernel::default(),
            faults: None,
            recovery: None,
            mode,
        }
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

    /// Number of DMA channels used by overlapped paging (clamped to at
    /// least one; ignored while overlapped paging is off).
    pub fn dma_channels(mut self, channels: usize) -> Self {
        self.dma_channels = channels.max(1);
        self
    }

    /// Overrides the fixed OS overhead constants (sensitivity
    /// analysis).
    pub fn os_overheads(mut self, overheads: OsOverheads) -> Self {
        self.os_overheads = overheads;
        self
    }

    /// Overrides the edge budget (hang detection): per hardware attempt
    /// of `FPGA_EXECUTE` on a `System`, over the whole lifetime of a
    /// `MultiSystem`.
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
    /// `recovery` overrides it, the default [`RecoveryPolicy`]. A plan
    /// whose rates are all zero and that schedules no one-shot faults
    /// leaves every run byte-identical to an uninstrumented system (only
    /// the report's recovery bookkeeping differs). Use
    /// [`FaultPlan::target`] to confine faults to one tenant's address
    /// space.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the recovery policy: retries, watchdog and backoff. Implied
    /// with default settings by `faults`; set it explicitly to tune the
    /// knobs or to arm the watchdog without injecting faults. A `System`
    /// resets and retries a failed attempt; a `MultiSystem` aborts and
    /// degrades the offending tenant rather than the run.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Assembles the shared platform around `imu`: a VIM with `paging`
    /// (whose page size, policy, copy-skipping and channel count come
    /// from the shared knobs), the dual-port RAM, the PLD interrupt line
    /// and the fault injector. Returns it with the front end's knobs.
    pub(crate) fn engine(
        self,
        imu: Imu,
        trace: TraceSink,
        paging: VimConfig,
        scope: Scope,
    ) -> (Engine, K) {
        let page_bytes = self.device.page_bytes;
        let cost = OsCostModel::epxa1()
            .with_transfer(self.transfer)
            .with_burst(self.burst)
            .with_overheads(self.os_overheads);
        let config = VimConfig {
            page_bytes,
            policy: self.policy,
            skip_out_page_load: self.skip_out_page_load,
            dma_channels: self.dma_channels,
            ..paging
        };
        let irq = InterruptController::new(1);
        let pld_irq = irq.line(0).expect("one line");
        let recovery = self
            .recovery
            .or_else(|| self.faults.as_ref().map(|_| RecoveryPolicy::default()));
        let mut vim = Vim::new(config, cost);
        if let Some(plan) = self.faults {
            vim.set_fault_injector(FaultInjector::new(plan));
        }
        let engine = Engine {
            dpram: DualPortRam::new(self.device.dpram_bytes, page_bytes)
                .expect("device geometry is valid"),
            imu,
            vim,
            irq,
            pld_irq,
            trace,
            kernel: self.kernel,
            scope,
            edge_budget: self.edge_budget,
            edges: 0,
            recovery,
            arrivals: Vec::new(),
        };
        (engine, self.mode)
    }
}
