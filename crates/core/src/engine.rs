//! The execution engine: the one platform loop behind every front end.
//!
//! [`Engine`] holds the shared platform — dual-port RAM, IMU, VIM (and
//! through it the DMA engine and the fault injector), the PLD interrupt
//! line and the waveform sink — and runs one coprocessor context at a
//! time on its two PLD clock domains with
//! [`Engine::run_until_yield`]. The coprocessor and IMU step on their
//! clock edges (the IMU first on coincident edges); a translation fault
//! stalls the coprocessor domain while the VIM services the interrupt
//! on the ARM. The loop yields when the context parks on a demand page
//! transfer, finishes, or fails.
//!
//! The two front ends differ only in what they do at a yield:
//! [`System`](crate::System) is one tenant at [`Asid::SINGLE`] that
//! waits in place on a park, and [`MultiSystem`](crate::MultiSystem)
//! hands the fabric to another tenant. Everything else — fused TLB hits,
//! the event-driven skip and the stepped reference kernel, the
//! no-progress watchdog and its `SR.fault` poll, and every fault-site
//! roll — is written once, here.
//!
//! [`Asid::SINGLE`]: vcop_imu::tlb::Asid::SINGLE

use vcop_fabric::loader::{ConfigController, LoadedCore};
use vcop_fabric::port::{Coprocessor, CoprocessorPort, ObjectId, PortLink};
use vcop_imu::imu::{Imu, ImuEvent, ImuStats};
use vcop_imu::registers::ControlRegister;
use vcop_sim::clock::{ClockDomain, ClockId, EdgeScheduler};
use vcop_sim::fault::FaultSite;
use vcop_sim::histogram::LatencyHistogram;
use vcop_sim::irq::{InterruptController, IrqLine};
use vcop_sim::mem::DualPortRam;
use vcop_sim::sched::{EventKernel, Wake, WakeSource};
use vcop_sim::time::{Frequency, SimTime};
use vcop_sim::trace::TraceSink;
use vcop_vim::manager::{DemandReady, Scope, ServiceTimes, Vim, VimCounts, VimTimes};
use vcop_vim::VimError;

use crate::error::Error;
use crate::fallback::{FallbackIo, RecoveryPolicy, SoftwareFallback};

/// Default edge budget (hang detection).
pub const DEFAULT_EDGE_BUDGET: u64 = 2_000_000_000;

/// Simulation kernel driving the platform loop.
///
/// Both kernels produce cycle-identical reports; the event-driven one is
/// simply faster because provably idle clock edges are bulk-accounted
/// instead of simulated one by one.
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

/// Why [`Engine::run_until_yield`] returned.
#[derive(Debug)]
pub(crate) enum Yield {
    /// A miss's demand page is on the DMA engine; the segment's
    /// [`Stalls::demand_start`] holds the stall baseline. Calling
    /// `run_until_yield` again waits for the page in place.
    Parked {
        /// Instant the miss was serviced.
        at: SimTime,
    },
    /// End of operation, serviced.
    Done {
        /// Instant the IMU raised end of operation.
        at: SimTime,
        /// The end-of-operation service.
        service: ServiceTimes,
    },
    /// The context failed.
    Failed {
        /// What went wrong.
        error: Error,
        /// Instant of the failure.
        at: SimTime,
    },
}

/// Coprocessor stall bookkeeping of one segment.
#[derive(Debug, Default)]
pub(crate) struct Stalls {
    /// Coprocessor stall of each serviced miss.
    pub(crate) fault_latency: LatencyHistogram,
    /// Overlapped paging: fault time and CPU service time of the demand
    /// transfer the coprocessor is currently stalled on.
    pub(crate) demand_start: Option<(SimTime, SimTime)>,
    /// Stall time charged to recovery: lost-interrupt detection windows,
    /// injected interrupt delays and lost-transfer deadlines.
    pub(crate) recovered: SimTime,
}

/// One context's run on the fabric between a start (or resume) and a
/// yield: its two clock domains and what it consumed.
#[derive(Debug)]
pub(crate) struct Segment {
    clocks: EdgeScheduler,
    imu_clk: ClockId,
    cp_clk: ClockId,
    watchdog: Option<u64>,
    pub(crate) stalls: Stalls,
    /// Coprocessor clock edges consumed.
    pub(crate) cp_cycles: u64,
    /// Translation misses serviced.
    pub(crate) faults: u64,
    /// When the (single) CPU finishes the services issued so far.
    pub(crate) cpu_free_at: SimTime,
    /// When the last translation-fault interrupt was dropped.
    irq_dropped_at: Option<SimTime>,
    /// Watchdog bookkeeping: the progress marker last seen and the edge
    /// count when it changed.
    progress_marker: (u64, u64, u64),
    progress_edges: u64,
}

impl Segment {
    /// A segment on `engine` whose clocks start at time zero, or at the
    /// first edges strictly after `resume_after`.
    pub(crate) fn new(
        engine: &Engine,
        imu_freq: Frequency,
        cp_freq: Frequency,
        resume_after: Option<SimTime>,
        cpu_free_at: SimTime,
    ) -> Self {
        // The IMU is registered first so it wins ties (completions
        // become visible to the coprocessor within the same coincident
        // edge).
        let mut clocks = EdgeScheduler::new();
        let imu_clk = clocks.add_clock(ClockDomain::new(imu_freq));
        let cp_clk = clocks.add_clock(ClockDomain::new(cp_freq));
        if let Some(t) = resume_after {
            clocks.clock_mut(imu_clk).fast_forward_past(t);
            clocks.clock_mut(cp_clk).fast_forward_past(t);
        }
        Segment {
            clocks,
            imu_clk,
            cp_clk,
            watchdog: engine.recovery.and_then(|p| p.watchdog_edges),
            stalls: Stalls::default(),
            cp_cycles: 0,
            faults: 0,
            cpu_free_at,
            irq_dropped_at: None,
            progress_marker: (0, 0, 0),
            progress_edges: engine.edges,
        }
    }

    /// The next IMU edge: the segment's notion of "now".
    fn now(&self) -> SimTime {
        self.clocks.clock(self.imu_clk).next_edge()
    }

    /// Skips both clock domains past `t` (the coprocessor was stalled).
    fn resume_past(&mut self, t: SimTime) {
        self.clocks.clock_mut(self.imu_clk).fast_forward_past(t);
        self.clocks.clock_mut(self.cp_clk).fast_forward_past(t);
    }
}

/// The platform's cumulative statistics at one instant: every report
/// field the VIM, the IMU or the fault injector counts is the growth
/// between two snapshots, `after - before`.
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    pub(crate) counts: VimCounts,
    pub(crate) times: VimTimes,
    pub(crate) imu: ImuStats,
    pub(crate) imu_edges: u64,
    pub(crate) injected: u64,
}

impl core::ops::Sub for Snapshot {
    type Output = Snapshot;
    fn sub(self, o: Snapshot) -> Snapshot {
        Snapshot {
            counts: self.counts - o.counts,
            times: self.times - o.times,
            imu: self.imu - o.imu,
            imu_edges: self.imu_edges - o.imu_edges,
            injected: self.injected - o.injected,
        }
    }
}

/// The shared platform.
#[derive(Debug)]
pub(crate) struct Engine {
    pub(crate) dpram: DualPortRam,
    pub(crate) imu: Imu,
    pub(crate) vim: Vim,
    pub(crate) irq: InterruptController,
    pub(crate) pld_irq: IrqLine,
    pub(crate) trace: TraceSink,
    pub(crate) kernel: Kernel,
    /// What an execution owns of the interface memory.
    pub(crate) scope: Scope,
    pub(crate) edge_budget: u64,
    /// Edges simulated against the budget. `System` restarts it per
    /// hardware attempt; `MultiSystem` keeps it over its lifetime.
    pub(crate) edges: u64,
    pub(crate) recovery: Option<RecoveryPolicy>,
    /// Demand-page arrivals for contexts other than the running one,
    /// left for the front end to route.
    pub(crate) arrivals: Vec<DemandReady>,
}

impl Engine {
    /// The statistics accumulated so far.
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            counts: self.vim.counters().clone(),
            times: self.vim.times().clone(),
            imu: self.imu.counters().clone(),
            imu_edges: self.imu.edges(),
            injected: self.vim.fault_injector().total_fired(),
        }
    }

    /// `FPGA_LOAD` through `ctl`. With fault injection armed each
    /// programming pass rolls [`FaultSite::BitstreamLoad`] and a failed
    /// pass is retried up to the recovery policy's load-attempt budget.
    /// Returns the loaded core and the passes it took.
    pub(crate) fn load(
        &mut self,
        ctl: &mut ConfigController,
        bytes: &[u8],
    ) -> Result<(LoadedCore, u32), Error> {
        Ok(if self.vim.fault_injector().is_enabled() {
            let max = self.recovery.unwrap_or_default().max_load_attempts;
            ctl.load_with_faults(bytes, self.vim.fault_injector_mut(), max)?
        } else {
            (ctl.load(bytes)?, 1)
        })
    }

    /// The setup half of `FPGA_EXECUTE` for the context in the IMU:
    /// resets the datapath, stages parameters and layouts, and starts
    /// the coprocessor. Returns the setup service time.
    pub(crate) fn start(
        &mut self,
        cp: &mut dyn Coprocessor,
        port: &mut CoprocessorPort,
        params: &[u32],
    ) -> Result<SimTime, Error> {
        let reset = ControlRegister {
            reset: true,
            ..Default::default()
        };
        self.imu.write_control(reset, &mut PortLink::new(port));
        let setup = self
            .vim
            .prepare_execute(&mut self.imu, &mut self.dpram, params, self.scope)?;
        cp.reset();
        let start = ControlRegister {
            start: true,
            ..Default::default()
        };
        self.imu.write_control(start, &mut PortLink::new(port));
        Ok(setup)
    }

    /// Runs the context (`cp` on `port`, whose IMU state is loaded) until
    /// it parks on a demand transfer, finishes, or fails.
    pub(crate) fn run_until_yield(
        &mut self,
        seg: &mut Segment,
        cp: &mut dyn Coprocessor,
        port: &mut CoprocessorPort,
    ) -> Yield {
        let (imu_clk, cp_clk) = (seg.imu_clk, seg.cp_clk);
        while self.edges < self.edge_budget {
            if let Some(limit) = seg.watchdog {
                let imu = self.imu.counters();
                let marker = (imu.tlb_hit, imu.tlb_miss, self.vim.progress_epoch());
                if marker != seg.progress_marker {
                    seg.progress_marker = marker;
                    seg.progress_edges = self.edges;
                }
                // A demand transfer whose retry budget is spent can
                // never complete; fail fast instead of sitting out the
                // whole no-progress window.
                let demand_dead =
                    seg.stalls.demand_start.is_some() && self.vim.demand_lost_for(self.vim.asid());
                if demand_dead || self.edges.saturating_sub(seg.progress_edges) > limit {
                    let now = seg.now();
                    // Before giving up, read the status register: a miss
                    // latched in SR.fault lost its interrupt and is
                    // served in place, as if the IRQ had arrived late.
                    if !demand_dead
                        && seg.stalls.demand_start.is_none()
                        && self.vim.poll_lost_fault(&self.imu)
                    {
                        let t_fault = seg.irq_dropped_at.take().unwrap_or(now);
                        match self.service_miss(seg, t_fault, now, SimTime::ZERO, false) {
                            Ok(Some(resume_at)) => seg.resume_past(resume_at),
                            Ok(None) => return Yield::Parked { at: now },
                            Err(error) => return Yield::Failed { error, at: now },
                        }
                        continue;
                    }
                    return Yield::Failed {
                        error: Error::Watchdog {
                            stalled_edges: self.edges.saturating_sub(seg.progress_edges),
                        },
                        at: now,
                    };
                }
            }
            // Lean transaction engine: with a non-pipelined IMU the whole
            // accept→translate→complete span of a hitting access is
            // deterministic, so it runs as one fused transaction instead
            // of five-plus scheduler iterations, and a computing
            // coprocessor burst runs as one skip-plus-step round. Any
            // milestone the span cannot prove idle — a fault, `CP_FIN`,
            // param-done, pipelining, a blocked pair, budget proximity —
            // drops back to the generic event loop below. The span runs
            // the same in every paging mode: `Vim::advance_dma` applies
            // each completion at its own bus-edge time when the next edge
            // is popped; the loop exits on every fault, before the VIM
            // can submit a transfer; and a fused hit needs a valid TLB
            // entry, which no transfer in flight can create or remove,
            // because loading and evicting frames are pinned and
            // unmapped. One completion effect reads what a hit writes: a
            // retried deferred demand picks its victim by usage and dirty
            // bits, so the kernels could differ on a demand deferred
            // while another tenant runs (no known run defers one).
            if self.kernel == Kernel::EventDriven && seg.stalls.demand_start.is_none() {
                let (imu_clock, cp_clock) = seg.clocks.pair_mut(imu_clk, cp_clk);
                loop {
                    if !self.imu.lean_ready() || port.fin_pending() || port.param_done_pending() {
                        break;
                    }
                    if port.outstanding_len() > 0 {
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
                            .next_wake(port)
                            .at(cp_clock.next_edge(), cp_clock.period())
                        {
                            None => true,
                            Some(t) => t >= t_comp,
                        };
                        if !quiescent {
                            break;
                        }
                        let cp_skip = cp_clock.edges_before_short(t_comp);
                        if self.edges + lat + cp_skip >= self.edge_budget {
                            break;
                        }
                        let mut link = PortLink::new(port);
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
                        self.edges += lat;
                        if cp_skip > 0 {
                            cp_clock.consume_edges(cp_skip);
                            cp.skip(cp_skip);
                            seg.cp_cycles += cp_skip;
                            self.edges += cp_skip;
                        }
                        continue;
                    }
                    // Nothing issued: the coprocessor is computing. Skip
                    // straight to its wake edge and step it once.
                    let Wake::In(k) = cp.next_wake(port) else {
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
                    if self.edges + imu_skip + k >= self.edge_budget {
                        break;
                    }
                    if imu_skip > 0 {
                        let last = imu_clock.next_edge()
                            + SimTime::from_ps(imu_clock.period().as_ps() * (imu_skip - 1));
                        imu_clock.consume_edges(imu_skip);
                        self.imu.skip_idle_edges(imu_skip, last);
                        self.edges += imu_skip;
                    }
                    if k > 1 {
                        cp_clock.consume_edges(k - 1);
                        seg.cp_cycles += k - 1;
                        self.edges += k - 1;
                        cp.skip(k - 1);
                    }
                    cp_clock.advance();
                    self.edges += 1;
                    seg.cp_cycles += 1;
                    cp.step(port);
                }
            }

            // Event-driven kernel: fast-forward both domains across
            // spans where neither the IMU nor the coprocessor can act.
            // A demand-stalled span is advanced by the completion path
            // below instead, and an all-blocked state falls back to
            // stepping so DMA progress and the hang budget behave
            // exactly as in stepped mode.
            if self.kernel == Kernel::EventDriven && seg.stalls.demand_start.is_none() {
                let imu_clock = seg.clocks.clock(imu_clk);
                let cp_clock = seg.clocks.clock(cp_clk);
                let horizon = EventKernel::horizon(&[
                    WakeSource {
                        next_edge: imu_clock.next_edge(),
                        period: imu_clock.period(),
                        wake: self.imu.next_wake(port),
                    },
                    WakeSource {
                        next_edge: cp_clock.next_edge(),
                        period: cp_clock.period(),
                        wake: cp.next_wake(port),
                    },
                ]);
                if let Some(h) = horizon {
                    let imu_skip = imu_clock.edges_before(h);
                    let cp_skip = cp_clock.edges_before(h);
                    let total = imu_skip + cp_skip;
                    // Near the budget a skip could cross the timeout
                    // point; degrade to stepping so hangs behave
                    // identically to the reference loop.
                    if total > 0 && self.edges + total < self.edge_budget {
                        self.edges += total;
                        if imu_skip > 0 {
                            let clk = seg.clocks.clock_mut(imu_clk);
                            let last = clk.next_edge()
                                + SimTime::from_ps(clk.period().as_ps() * (imu_skip - 1));
                            clk.fast_forward_to(h);
                            self.imu.skip_idle_edges(imu_skip, last);
                        }
                        if cp_skip > 0 {
                            seg.clocks.clock_mut(cp_clk).fast_forward_to(h);
                            cp.skip(cp_skip);
                            seg.cp_cycles += cp_skip;
                        }
                    }
                }
            }

            self.edges += 1;
            let (t, id) = seg.clocks.pop().expect("two clocks registered");

            // Drain DMA completions that occurred by this edge. The
            // arrival of the page this context is stalled on models the
            // completion interrupt: charge the stall, skip both domains
            // past the resume point, and let the IMU retry the faulted
            // translation. Other contexts' arrivals go to the front end.
            let mut resumed = false;
            for ready in self.vim.advance_dma(&mut self.imu, &mut self.dpram, t) {
                match seg.stalls.demand_start {
                    Some((t_fault, svc_cpu)) if ready.asid == self.vim.asid() => {
                        seg.stalls.demand_start = None;
                        let resume_at = self.demand_arrived(seg, t_fault, svc_cpu, ready);
                        seg.resume_past(resume_at);
                        self.imu.resume();
                        resumed = true;
                    }
                    _ => self.arrivals.push(ready),
                }
                self.check_invariants();
            }
            if resumed {
                continue;
            }

            if id == imu_clk {
                let mut link = PortLink::new(port);
                match self
                    .imu
                    .step(t, &mut link, &mut self.dpram, &mut self.trace)
                {
                    Some(ImuEvent::Fault) => {
                        let tag = self.vim.asid().0;
                        let faults = self.vim.fault_injector_mut();
                        // An injected IRQ drop loses the fault interrupt:
                        // the miss stays latched in SR.fault and the
                        // coprocessor stays stalled until the watchdog
                        // polls the status register.
                        if faults.roll_tagged(FaultSite::IrqDrop, tag) {
                            seg.irq_dropped_at = Some(t);
                            continue;
                        }
                        // A delayed IRQ postpones handler entry by a
                        // fixed number of IMU edges; the coprocessor
                        // stall grows by the same interval.
                        let irq_delay = if faults.roll_tagged(FaultSite::IrqDelay, tag) {
                            let period = seg.clocks.clock(imu_clk).period();
                            SimTime::from_ps(period.as_ps() * faults.irq_delay_edges())
                        } else {
                            SimTime::ZERO
                        };
                        match self.service_miss(seg, t, t, irq_delay, true) {
                            Ok(Some(resume_at)) => seg.resume_past(resume_at),
                            Ok(None) => return Yield::Parked { at: t },
                            Err(error) => return Yield::Failed { error, at: t },
                        }
                    }
                    Some(ImuEvent::Done) => {
                        self.irq.raise(self.pld_irq);
                        let service =
                            self.vim
                                .service_done(&mut self.imu, &mut self.dpram, self.scope);
                        self.irq.acknowledge(self.pld_irq);
                        return match service {
                            Ok(service) => {
                                self.check_invariants();
                                Yield::Done { at: t, service }
                            }
                            Err(e) => Yield::Failed {
                                error: e.into(),
                                at: t,
                            },
                        };
                    }
                    None => {}
                }
            } else {
                cp.step(port);
                seg.cp_cycles += 1;
            }
        }
        Yield::Failed {
            error: Error::Timeout {
                budget: self.edge_budget,
            },
            at: seg.now(),
        }
    }

    /// Services the translation miss latched in the IMU: the *Page
    /// Fault* request, entered at `t_service` for a miss raised at
    /// `t_fault`. The two differ only when the interrupt was lost and
    /// the watchdog's status poll found the miss; that detection window
    /// is recovery time, and so is `irq_delay`, an injected late
    /// delivery. `via_irq` asserts the PLD interrupt line around the
    /// handler.
    ///
    /// Returns the resume instant of a synchronous service, or `None`
    /// when the demand page is on the DMA engine and
    /// `seg.stalls.demand_start` now records the pending stall.
    fn service_miss(
        &mut self,
        seg: &mut Segment,
        t_fault: SimTime,
        t_service: SimTime,
        irq_delay: SimTime,
        via_irq: bool,
    ) -> Result<Option<SimTime>, Error> {
        if via_irq {
            self.irq.raise(self.pld_irq);
        }
        let svc = self.vim.service_fault(&mut self.imu, &mut self.dpram);
        if via_irq {
            self.irq.acknowledge(self.pld_irq);
        }
        let svc = svc?;
        self.check_invariants();
        seg.faults += 1;
        let window = t_service.saturating_sub(t_fault);
        seg.stalls.recovered += window + irq_delay;
        seg.cpu_free_at = seg.cpu_free_at.max(t_service + irq_delay) + svc.times.total();
        if svc.pending {
            // Overlapped paging: the demand movement is on the DMA
            // engine; the coprocessor stays stalled until its completion
            // interrupt.
            seg.stalls.demand_start = Some((t_fault, window + svc.times.total() + irq_delay));
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
            let parity = parity?.times.total();
            self.check_invariants();
            svc_total += parity;
            seg.cpu_free_at += parity;
        }
        let resume_at = t_service + svc_total;
        let stall = resume_at.saturating_sub(t_fault);
        seg.stalls.fault_latency.record(stall);
        Ok(Some(resume_at))
    }

    /// Charges a demand page the running context waited on in place:
    /// the DMA wait not already covered by the synchronous service time
    /// goes to `SW (DP)`, less the deadlines of lost attempts
    /// (recovery), and the completion interrupt plus resume to
    /// `SW (IMU)`. Returns the resume instant.
    fn demand_arrived(
        &mut self,
        seg: &mut Segment,
        t_fault: SimTime,
        svc_cpu: SimTime,
        ready: DemandReady,
    ) -> SimTime {
        let irq = self.vim.cost().dma_completion_time() + self.vim.cost().resume_time();
        let resume_at = ready.at + irq;
        let wait = ready.at.saturating_sub(t_fault + svc_cpu);
        let recovered = ready.recovered.min(wait);
        seg.stalls.recovered += recovered;
        self.vim.charge(ServiceTimes {
            dp: wait - recovered,
            imu: irq,
        });
        let stall = resume_at.saturating_sub(t_fault);
        seg.stalls.fault_latency.record(stall);
        resume_at
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

    /// Debug builds (every test build) check the VIM's structural
    /// invariants after every service call.
    pub(crate) fn check_invariants(&self) {
        #[cfg(debug_assertions)]
        if let Err(violation) = self.vim.check_invariants(&self.imu) {
            panic!("VIM invariant violated: {violation}");
        }
    }
}

/// An error a hardware attempt can end with that recovery may absorb —
/// by reset and retry in `System`, by abort and degrade in
/// `MultiSystem` — as opposed to a coprocessor protocol violation.
pub(crate) fn hardware_fault(e: &Error) -> bool {
    matches!(
        e,
        Error::Watchdog { .. }
            | Error::Vim(VimError::TransferFault { .. } | VimError::ParityLoss { .. })
    )
}

/// Runs `fallback` over the current address space's mapped objects, so
/// it reads and writes the very buffers the application mapped.
/// Returns the modelled CPU time.
pub(crate) fn run_fallback(
    vim: &mut Vim,
    fallback: &dyn SoftwareFallback,
    params: &[u32],
) -> Result<SimTime, Error> {
    fallback
        .run(&mut VimIo { vim }, params)
        .map_err(|reason| Error::FallbackFailed { reason })
}

/// [`FallbackIo`] view over the VIM's mapped objects in its current
/// address space.
struct VimIo<'a> {
    vim: &'a mut Vim,
}

impl FallbackIo for VimIo<'_> {
    fn object(&self, id: ObjectId) -> Option<&[u8]> {
        self.vim.object(id).map(|o| o.data())
    }

    fn object_mut(&mut self, id: ObjectId) -> Option<&mut [u8]> {
        self.vim.object_data_mut(id)
    }
}
