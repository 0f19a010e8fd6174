//! The Interface Management Unit datapath and control FSM.
//!
//! The IMU sits between the portable coprocessor port and the physical
//! dual-port RAM (Fig. 4). Per IMU clock edge it:
//!
//! 1. accepts pending coprocessor accesses (one per edge; a non-pipelined
//!    IMU holds a single access in flight),
//! 2. walks the multi-cycle translation — on the prototype "four cycles
//!    are needed from the moment when the coprocessor generates an access
//!    to the moment when the data is read or written" (Fig. 7), which the
//!    default [`ImuConfig`] reproduces exactly,
//! 3. performs the dual-port RAM access on the final cycle and completes
//!    the port transaction (raising `CP_TLBHIT`), and
//! 4. on a CAM miss, stalls the coprocessor, records the faulting access
//!    as a [`FaultCause`], sets `SR.fault` and raises the interrupt so
//!    the VIM can repair the mapping and [`Imu::resume`] the translation.

use vcop_fabric::port::{AccessKind, AccessRequest, CoprocessorPort, ObjectId, PortLink};
use vcop_sim::mem::{DualPortRam, PageIndex, Port};
use vcop_sim::sched::Wake;
use vcop_sim::time::SimTime;
use vcop_sim::trace::{SignalId, SignalValue, TraceSink};

use crate::registers::{ControlRegister, StatusRegister};
use crate::tlb::{Asid, Tlb, VirtualPage};

/// Element size of a mapped object in bytes (1, 2 or 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemSize {
    /// Byte elements.
    U8,
    /// 16-bit elements.
    U16,
    /// 32-bit elements.
    U32,
}

impl ElemSize {
    /// Size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            ElemSize::U8 => 1,
            ElemSize::U16 => 2,
            ElemSize::U32 => 4,
        }
    }

    /// The element size for a byte width, if supported.
    pub fn from_bytes(bytes: usize) -> Option<Self> {
        match bytes {
            1 => Some(ElemSize::U8),
            2 => Some(ElemSize::U16),
            4 => Some(ElemSize::U32),
            _ => None,
        }
    }
}

/// Static configuration of the IMU datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImuConfig {
    /// IMU edges between accepting an access and completing it. The
    /// default of `3` delivers read data on the **4th rising edge**
    /// counted from the issuing edge, matching Fig. 7.
    pub translation_edges: u32,
    /// Edges (from acceptance) after which a CAM miss is detected and the
    /// fault is raised.
    pub miss_detect_edges: u32,
    /// Maximum translations in flight. `1` is the paper's prototype; a
    /// larger depth models the pipelined IMU the authors announce as
    /// future work ("expected to mask almost completely the translation
    /// overhead").
    pub pipeline_depth: usize,
    /// Number of TLB entries (one per dual-port RAM frame on the
    /// prototype).
    pub tlb_entries: usize,
    /// Interface page size in bytes.
    pub page_bytes: usize,
    /// Extra IMU edges to synchronise a request crossing from a slower
    /// coprocessor clock domain (a two-flop synchroniser costs 2). Zero
    /// when the coprocessor shares the IMU clock, as in the adpcmdecode
    /// experiment; the IDEA experiment (6 MHz core, 24 MHz IMU) pays it,
    /// which is the "around 20%" translation overhead of Section 4.1.
    pub sync_edges: u32,
}

impl ImuConfig {
    /// The prototype configuration for a device with `frames` dual-port
    /// pages of `page_bytes` bytes.
    pub fn prototype(frames: usize, page_bytes: usize) -> Self {
        ImuConfig {
            translation_edges: 3,
            miss_detect_edges: 2,
            pipeline_depth: 1,
            tlb_entries: frames,
            page_bytes,
            sync_edges: 0,
        }
    }

    /// Returns a copy with a clock-domain-crossing synchroniser of
    /// `edges` IMU cycles in front of the translation.
    pub fn with_sync_edges(mut self, edges: u32) -> Self {
        self.sync_edges = edges;
        self
    }

    /// Total IMU edges from acceptance to completion.
    fn total_latency(&self) -> u32 {
        self.translation_edges + self.sync_edges
    }

    /// The pipelined variant: same latency, initiation interval of one
    /// access per edge with `depth` in flight.
    pub fn pipelined(frames: usize, page_bytes: usize, depth: usize) -> Self {
        ImuConfig {
            pipeline_depth: depth.max(1),
            ..ImuConfig::prototype(frames, page_bytes)
        }
    }
}

/// Service conditions the IMU reports towards the interrupt controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImuEvent {
    /// Translation miss: the coprocessor is stalled awaiting OS service.
    Fault,
    /// `CP_FIN` observed: operation complete, write-back required.
    Done,
}

/// Why a fault was raised and, for a miss, at which virtual page. The
/// modeled OS reads this (with `SR.fault`) to repair the mapping; it
/// takes the place of the paper's address register `AR`, which on the
/// board holds the address of the faulting access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// No valid CAM entry matched the access.
    TlbMiss {
        /// The faulting virtual page.
        vpage: VirtualPage,
        /// Whether the stalled access is a write.
        is_write: bool,
    },
    /// Access to an object the OS never described to the IMU.
    UnknownObject {
        /// The offending object id.
        obj: ObjectId,
    },
    /// Parameter access after the parameter page was invalidated.
    ParamPageGone,
    /// A parity upset corrupted a resident CAM entry: the stored
    /// translation can no longer be trusted and the OS must re-validate
    /// the frame (only raised via [`Imu::inject_parity_fault`]).
    Parity {
        /// Index of the corrupted CAM entry.
        entry: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    Param {
        addr: usize,
    },
    Hit {
        entry: usize,
        addr: usize,
        elem: ElemSize,
    },
    Fault(FaultCause),
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    remaining: u32,
    resolution: Resolution,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Running,
    Faulted,
    Done,
}

vcop_sim::stats! {
    /// Datapath event counts, as plain fields: several fire on every
    /// translated access. Read through [`Imu::counters`]; a report over
    /// an interval is the difference of two snapshots.
    pub struct ImuStats: u64 {
        /// Translations that hit the TLB.
        tlb_hit,
        /// Translations that missed the TLB.
        tlb_miss,
        /// Faults raised to the OS (misses and other causes).
        fault,
        /// End-of-operation signals.
        done,
        /// Completed data reads.
        completed_read,
        /// Completed data writes.
        completed_write,
        /// Reads of the parameter page.
        param_read,
        /// Parameter pages the coprocessor invalidated.
        param_page_freed,
    }
}

/// Trace handles for the Fig. 7 signal set.
#[derive(Debug, Clone, Copy)]
struct TraceIds {
    cp_obj: SignalId,
    cp_addr: SignalId,
    cp_access: SignalId,
    cp_wr: SignalId,
    cp_tlbhit: SignalId,
    cp_din: SignalId,
}

/// Per-tenant IMU execution state, detached by [`Imu::save_context`] so
/// the datapath can serve another address space, and reinstalled by
/// [`Imu::restore_context`]. Opaque: the OS treats it as a register-file
/// snapshot.
#[derive(Debug)]
pub struct ImuExecContext {
    state: State,
    inflight: Vec<Inflight>,
    sr: StatusRegister,
    fault_cause: Option<FaultCause>,
    needs_reresolve: bool,
    param_frame: Option<PageIndex>,
    layouts: Vec<Option<ElemSize>>,
    asid: Asid,
}

impl ImuExecContext {
    /// The address space this context belongs to.
    pub fn asid(&self) -> Asid {
        self.asid
    }
}

/// The IMU.
///
/// Drive it with one [`Imu::step`] per IMU clock rising edge; interact
/// from the OS side with the register-style methods
/// ([`Imu::status`], [`Imu::fault_cause`], [`Imu::write_control`],
/// [`Imu::tlb_mut`], …).
#[derive(Debug)]
pub struct Imu {
    config: ImuConfig,
    state: State,
    tlb: Tlb,
    inflight: Vec<Inflight>,
    sr: StatusRegister,
    fault_cause: Option<FaultCause>,
    param_frame: Option<PageIndex>,
    /// Address-space id the CAM matches against. Single-tenant systems
    /// leave this at [`Asid::SINGLE`]; the multi-tenant engine writes it
    /// on every context switch.
    current_asid: Asid,
    /// Element size per object id; `None` = unknown to the IMU.
    layouts: Vec<Option<ElemSize>>,
    /// `log2(page_bytes)` when the page size is a power of two, letting
    /// the per-access page split use shift/mask instead of division.
    page_shift: Option<u32>,
    stats: ImuStats,
    trace_ids: Option<TraceIds>,
    /// Set by [`Imu::resume`]: stalled accesses must be re-translated
    /// against the repaired TLB at the next edge.
    needs_reresolve: bool,
    /// Rising edges stepped since construction (reference-bit stamp).
    edges: u64,
    /// Time of the previous rising edge: the coprocessor drove any newly
    /// visible access signals since then, so waveform records of an
    /// acceptance are stamped there (Fig. 7 alignment).
    prev_edge_time: SimTime,
}

impl Imu {
    /// Creates an IMU in the idle state with an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero TLB entries, zero
    /// page size, zero translation latency).
    pub fn new(config: ImuConfig) -> Self {
        assert!(config.tlb_entries > 0, "IMU needs TLB entries");
        assert!(
            config.page_bytes > 0 && config.page_bytes.is_multiple_of(4),
            "bad page size"
        );
        assert!(
            config.translation_edges >= 1,
            "translation takes at least one edge"
        );
        assert!(
            config.miss_detect_edges <= config.translation_edges,
            "miss must be detected within the translation"
        );
        Imu {
            config,
            state: State::Idle,
            tlb: Tlb::new(config.tlb_entries),
            inflight: Vec::new(),
            sr: StatusRegister::default(),
            fault_cause: None,
            param_frame: None,
            current_asid: Asid::SINGLE,
            layouts: vec![None; 256],
            page_shift: config
                .page_bytes
                .is_power_of_two()
                .then(|| config.page_bytes.trailing_zeros()),
            stats: ImuStats::default(),
            trace_ids: None,
            needs_reresolve: false,
            edges: 0,
            prev_edge_time: SimTime::ZERO,
        }
    }

    /// Rising edges stepped since construction.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// The configuration in use.
    pub fn config(&self) -> &ImuConfig {
        &self.config
    }

    /// The status register as the OS reads it.
    pub fn status(&self) -> StatusRegister {
        self.sr
    }

    /// Typed fault cause, available while `SR.fault` is set.
    pub fn fault_cause(&self) -> Option<FaultCause> {
        self.fault_cause
    }

    /// Read-only TLB view.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Mutable TLB view (the OS updates entries through this; on the real
    /// device these are register writes into the CAM).
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// Datapath event counts since construction: `tlb_hit`, `tlb_miss`,
    /// `fault`, `done`, `completed_read`, `completed_write`, `param_read`
    /// and `param_page_freed`. Subtract two snapshots for an interval;
    /// [`ImuStats::get`] reads a field by name for external readers.
    pub fn counters(&self) -> &ImuStats {
        &self.stats
    }

    /// The address-space id translations currently match against.
    pub fn asid(&self) -> Asid {
        self.current_asid
    }

    /// Selects the address space the CAM matches against. On the real
    /// device this is a register write; the VIM performs it as part of a
    /// context switch, before resuming the incoming tenant.
    pub fn set_asid(&mut self, asid: Asid) {
        self.current_asid = asid;
    }

    /// Retunes the clock-domain-crossing synchroniser depth. Each
    /// tenant's IMU wrapper is synthesised with its own coprocessor
    /// clock, so the multi-tenant engine applies the incoming tenant's
    /// depth on every context switch.
    pub fn set_sync_edges(&mut self, edges: u32) {
        self.config.sync_edges = edges;
    }

    /// Declares the element size of `obj` (done by the OS before start,
    /// from the `FPGA_MAP_OBJECT` arguments).
    pub fn set_object_layout(&mut self, obj: ObjectId, elem: ElemSize) {
        self.layouts[obj.0 as usize] = Some(elem);
    }

    /// Clears all object layouts (new execution).
    pub fn clear_object_layouts(&mut self) {
        self.layouts.fill(None);
    }

    /// Designates `frame` as the parameter-passing page.
    pub fn set_param_frame(&mut self, frame: PageIndex) {
        self.param_frame = Some(frame);
        self.sr.param_freed = false;
    }

    /// The current parameter frame, if still valid.
    pub fn param_frame(&self) -> Option<PageIndex> {
        self.param_frame
    }

    /// Processor write to the control register.
    ///
    /// * `start` asserts `CP_START` at the next edge and marks the IMU
    ///   running;
    /// * `resume` restarts a stalled translation after a fault repair;
    /// * `reset` clears the datapath, status and TLB.
    pub fn write_control(&mut self, cr: ControlRegister, link: &mut PortLink<'_>) {
        if cr.reset {
            self.inflight.clear();
            self.sr = StatusRegister::default();
            self.fault_cause = None;
            self.state = State::Idle;
            // Reset is scoped to the resetting address space: with a
            // single tenant every entry carries `Asid::SINGLE`, so this
            // is the full TLB clear of the prototype; with several, a
            // tenant's datapath reset must leave parked tenants'
            // translations (and dirty bits) intact.
            self.tlb.invalidate_asid(self.current_asid);
            self.param_frame = None;
            self.needs_reresolve = false;
            link.reset();
        }
        if cr.start {
            link.set_start(true);
            self.sr.running = true;
            self.sr.done = false;
            self.state = State::Running;
        }
        if cr.resume {
            self.resume();
        }
    }

    /// Restarts translation after the OS repaired the mapping. All
    /// stalled accesses are re-translated from scratch (full latency), as
    /// on the prototype where the OS "allows the IMU to restart the
    /// translation".
    pub fn resume(&mut self) {
        if self.state != State::Faulted {
            return;
        }
        self.sr.fault = false;
        self.fault_cause = None;
        for fl in &mut self.inflight {
            fl.remaining = self.config.total_latency();
        }
        // Stalled accesses are re-resolved against the repaired TLB at
        // the next edge.
        self.needs_reresolve = true;
        self.state = State::Running;
    }

    /// Models a parity upset in the CAM: corrupts resident `entry` and
    /// raises a fault exactly as the translation datapath would (`SR`
    /// fault bit, typed [`FaultCause::Parity`], pipeline frozen). The
    /// OS repairs the entry and calls [`Imu::resume`] like any other
    /// fault. Returns `false` — no fault raised — unless the IMU is
    /// running and `entry` holds a valid translation.
    pub fn inject_parity_fault(&mut self, entry: usize) -> bool {
        if self.state != State::Running || entry >= self.tlb.len() {
            return false;
        }
        if !self.tlb.entry(entry).valid {
            return false;
        }
        self.sr.fault = true;
        self.fault_cause = Some(FaultCause::Parity { entry });
        self.state = State::Faulted;
        self.stats.fault += 1;
        true
    }

    /// Conservative wake hint for the event-driven kernel: the earliest
    /// upcoming IMU clock edge at which [`Imu::step`] could do anything
    /// observable, given the current port state.
    ///
    /// `Wake::In(1)` whenever a pending port assertion, a pipeline
    /// acceptance, or a re-resolve could act immediately; `Wake::In(k)`
    /// while the only upcoming action is the head translation's fault
    /// detection or completion `k` edges out; `Wake::Never` when the IMU
    /// is stalled, idle, or its pipeline is empty with nothing issued.
    pub fn next_wake(&self, port: &CoprocessorPort) -> Wake {
        // Param-done is consumed in any state, on the next edge.
        if port.param_done_pending() {
            return Wake::In(1);
        }
        // Stalled or not running: every edge is a strict no-op
        // (modulo the edge counter, which the skip credits).
        if !matches!(self.state, State::Running) {
            return Wake::Never;
        }
        if self.needs_reresolve || port.fin_pending() {
            return Wake::In(1);
        }
        // A new access would be accepted at the next edge.
        if self.inflight.len() < self.config.pipeline_depth
            && port.outstanding_len() > self.inflight.len()
        {
            return Wake::In(1);
        }
        match self.inflight.first() {
            // Empty pipeline, nothing issued: blocked on the coprocessor.
            None => Wake::Never,
            Some(head) => {
                // Each edge decrements `remaining` before checking, so
                // the head acts at the k-th upcoming edge.
                let k = match head.resolution {
                    Resolution::Fault(_) => {
                        let detect_at = self
                            .config
                            .translation_edges
                            .saturating_sub(self.config.miss_detect_edges);
                        head.remaining.saturating_sub(detect_at)
                    }
                    Resolution::Hit { .. } | Resolution::Param { .. } => head.remaining,
                };
                Wake::In(u64::from(k.max(1)))
            }
        }
    }

    /// Bulk-applies `n` provably idle edges ending at `last_edge_time`.
    ///
    /// Must be observably identical to `n` calls of [`Imu::step`] in a
    /// span where every call is a pure countdown: the edge counter (the
    /// TLB reference stamp) advances, the waveform issue stamp tracks the
    /// last edge, and running translations tick down without reaching
    /// their fault-detect or completion points — the event kernel
    /// guarantees `n` is below the [`Imu::next_wake`] bound.
    pub fn skip_idle_edges(&mut self, n: u64, last_edge_time: SimTime) {
        if n == 0 {
            return;
        }
        self.edges += n;
        self.prev_edge_time = last_edge_time;
        if self.state == State::Running {
            let dec = u32::try_from(n).unwrap_or(u32::MAX);
            for fl in &mut self.inflight {
                fl.remaining = fl.remaining.saturating_sub(dec);
            }
        }
    }

    /// Acknowledges `SR.done` after end-of-operation service.
    pub fn clear_done(&mut self) {
        self.sr.done = false;
        self.state = State::Idle;
        self.sr.running = false;
    }

    /// Pure resolution of an access against the current CAM and layout
    /// state: no statistics are touched, so the lean translation path can
    /// decide whether an access hits before committing to it.
    fn classify(&self, req: &AccessRequest) -> Resolution {
        if req.obj.is_param() {
            match self.param_frame {
                Some(frame) => Resolution::Param {
                    addr: frame.0 * self.config.page_bytes + (req.index as usize) * 4,
                },
                None => Resolution::Fault(FaultCause::ParamPageGone),
            }
        } else {
            let Some(elem) = self.layouts[req.obj.0 as usize] else {
                return Resolution::Fault(FaultCause::UnknownObject { obj: req.obj });
            };
            let byte_off = req.index as usize * elem.bytes();
            let (page, offset) = match self.page_shift {
                Some(shift) => (byte_off >> shift, byte_off & (self.config.page_bytes - 1)),
                None => (
                    byte_off / self.config.page_bytes,
                    byte_off % self.config.page_bytes,
                ),
            };
            let vpage = VirtualPage {
                obj: req.obj,
                page: page as u32,
            };
            match self.tlb.probe(self.current_asid, vpage) {
                Some(hit) => Resolution::Hit {
                    entry: hit.entry,
                    addr: hit.frame.0 * self.config.page_bytes + offset,
                    elem,
                },
                None => Resolution::Fault(FaultCause::TlbMiss {
                    vpage,
                    is_write: req.kind == AccessKind::Write,
                }),
            }
        }
    }

    /// [`Imu::classify`] plus the datapath lookup statistics, exactly as
    /// the CAM match at acceptance records them.
    fn resolve(&mut self, req: &AccessRequest) -> Resolution {
        let resolution = self.classify(req);
        match resolution {
            Resolution::Hit { .. } => self.stats.tlb_hit += 1,
            Resolution::Fault(FaultCause::TlbMiss { .. }) => self.stats.tlb_miss += 1,
            Resolution::Param { .. } | Resolution::Fault(_) => {}
        }
        resolution
    }

    /// Whether the IMU is in the steady state the lean transaction engine
    /// handles: non-pipelined, running, with an empty translation pipeline
    /// and no pending re-resolve. In that state a hitting access proceeds
    /// deterministically from acceptance to completion.
    pub fn lean_ready(&self) -> bool {
        self.config.pipeline_depth == 1
            && self.state == State::Running
            && self.inflight.is_empty()
            && !self.needs_reresolve
    }

    /// Edges from acceptance to completion for a fused access.
    pub fn fused_latency(&self) -> u64 {
        u64::from(self.config.total_latency())
    }

    /// Runs one pending access as a single fused transaction: acceptance
    /// at `accept_edge`, completion at `complete_edge` (which must be
    /// `fused_latency() - 1` IMU periods later), with the countdown edges
    /// in between bulk-credited. Observably identical to stepping the IMU
    /// through the whole span edge by edge.
    ///
    /// Returns `false` without touching any state when there is nothing
    /// pending or the access would fault — the caller falls back to the
    /// generic event loop, which raises the fault with exactly-once
    /// statistics.
    pub fn fused_access(
        &mut self,
        accept_edge: SimTime,
        complete_edge: SimTime,
        link: &mut PortLink<'_>,
        dpram: &mut DualPortRam,
        sink: &mut TraceSink,
    ) -> bool {
        debug_assert!(self.lean_ready());
        let Some(req) = link.pending_request().copied() else {
            return false;
        };
        let resolution = self.classify(&req);
        if matches!(resolution, Resolution::Fault(_)) {
            return false;
        }
        let issue_stamp = self.prev_edge_time;
        // Same lookup statistics the stepped acceptance records; the
        // classification above is the CAM match.
        if matches!(resolution, Resolution::Hit { .. }) {
            self.stats.tlb_hit += 1;
        }
        self.trace_accept(issue_stamp.min(accept_edge), &req, sink);
        // Acceptance plus countdown plus completion: the same edge count
        // the stepped datapath accrues, applied before `perform_access`
        // so the TLB reference stamp matches the stepped completion edge.
        self.edges += self.fused_latency();
        self.prev_edge_time = complete_edge;
        let data = self.perform_access(&req, resolution, dpram);
        link.complete(data);
        self.trace_complete(complete_edge, &req, data, sink);
        true
    }

    /// Registers the Fig. 7 signal set with a tracer (idempotent per
    /// tracer; call once before stepping if waveforms are wanted).
    pub fn attach_trace(&mut self, sink: &mut TraceSink) {
        if let Some(tr) = sink.tracer_mut() {
            self.trace_ids = Some(TraceIds {
                cp_obj: tr.add_signal("cp_obj", 8),
                cp_addr: tr.add_signal("cp_addr", 24),
                cp_access: tr.add_signal("cp_access", 1),
                cp_wr: tr.add_signal("cp_wr", 1),
                cp_tlbhit: tr.add_signal("cp_tlbhit", 1),
                cp_din: tr.add_signal("cp_din", 32),
            });
        }
    }

    /// One rising edge of the IMU clock.
    ///
    /// `link` is the IMU side of the coprocessor port; `dpram` is the
    /// physical interface memory. Returns a service event when the OS
    /// must be interrupted.
    pub fn step(
        &mut self,
        now: SimTime,
        link: &mut PortLink<'_>,
        dpram: &mut DualPortRam,
        sink: &mut TraceSink,
    ) -> Option<ImuEvent> {
        self.edges += 1;
        let issue_stamp = self.prev_edge_time;
        self.prev_edge_time = now;
        // Param-done is observable in any state.
        if link.take_param_done() {
            self.param_frame = None;
            self.sr.param_freed = true;
            self.stats.param_page_freed += 1;
        }

        match self.state {
            State::Faulted | State::Done | State::Idle => {
                // Stalled or not running: nothing advances. (CP_FIN while
                // idle is a protocol violation and is ignored.)
                return None;
            }
            State::Running => {}
        }

        if self.needs_reresolve {
            self.needs_reresolve = false;
            let reqs: Vec<AccessRequest> = link
                .outstanding()
                .take(self.inflight.len())
                .copied()
                .collect();
            let latency = self.config.total_latency();
            for (i, req) in reqs.iter().enumerate() {
                self.inflight[i].resolution = self.resolve(req);
                self.inflight[i].remaining = latency;
            }
        }

        // Accept new accesses (one per edge).
        if self.inflight.len() < self.config.pipeline_depth
            && link.outstanding_len() > self.inflight.len()
        {
            let req = *link
                .outstanding()
                .nth(self.inflight.len())
                .expect("length checked");
            let resolution = self.resolve(&req);
            self.inflight.push(Inflight {
                remaining: self.config.total_latency(),
                resolution,
            });
            self.trace_accept(issue_stamp.min(now), &req, sink);
        }

        // Advance all in-flight translations.
        for fl in &mut self.inflight {
            if fl.remaining > 0 {
                fl.remaining -= 1;
            }
        }

        // Fault detection on the head access.
        if let Some(head) = self.inflight.first() {
            let detect_at = self
                .config
                .translation_edges
                .saturating_sub(self.config.miss_detect_edges);
            if head.remaining <= detect_at {
                if let Resolution::Fault(cause) = head.resolution {
                    self.sr.fault = true;
                    self.fault_cause = Some(cause);
                    self.state = State::Faulted;
                    self.stats.fault += 1;
                    return Some(ImuEvent::Fault);
                }
            }
        }

        // Complete the head access when its latency has elapsed.
        if let Some(head) = self.inflight.first().copied() {
            if head.remaining == 0 {
                let req = *link.pending_request().expect("head in flight");
                let data = self.perform_access(&req, head.resolution, dpram);
                link.complete(data);
                self.inflight.remove(0);
                self.trace_complete(now, &req, data, sink);
            }
        }

        // End of operation.
        if link.take_fin() {
            self.sr.done = true;
            self.sr.running = false;
            self.state = State::Done;
            self.stats.done += 1;
            return Some(ImuEvent::Done);
        }

        None
    }

    fn perform_access(
        &mut self,
        req: &AccessRequest,
        resolution: Resolution,
        dpram: &mut DualPortRam,
    ) -> u32 {
        match resolution {
            Resolution::Param { addr } => {
                self.stats.param_read += 1;
                dpram
                    .read_word(Port::Pld, addr)
                    .expect("param page address in range")
            }
            Resolution::Hit { entry, addr, elem } => {
                self.tlb.record_access(entry, self.edges);
                match req.kind {
                    AccessKind::Read => {
                        self.stats.completed_read += 1;
                        match elem {
                            ElemSize::U8 => u32::from(
                                dpram
                                    .read_byte(Port::Pld, addr)
                                    .expect("translated address in range"),
                            ),
                            ElemSize::U16 => u32::from(
                                dpram
                                    .read_half(Port::Pld, addr)
                                    .expect("translated address in range"),
                            ),
                            ElemSize::U32 => dpram
                                .read_word(Port::Pld, addr)
                                .expect("translated address in range"),
                        }
                    }
                    AccessKind::Write => {
                        self.stats.completed_write += 1;
                        self.tlb.mark_dirty(entry);
                        match elem {
                            ElemSize::U8 => dpram
                                .write_byte(Port::Pld, addr, req.data as u8)
                                .expect("translated address in range"),
                            ElemSize::U16 => dpram
                                .write_half(Port::Pld, addr, req.data as u16)
                                .expect("translated address in range"),
                            ElemSize::U32 => dpram
                                .write_word(Port::Pld, addr, req.data)
                                .expect("translated address in range"),
                        }
                        req.data
                    }
                }
            }
            Resolution::Fault(_) => unreachable!("faulting access never completes"),
        }
    }

    /// Detaches the per-tenant execution state so another address space
    /// can use the datapath. The TLB stays in place — its entries are
    /// ASID-tagged, so the incoming tenant cannot match them — as do the
    /// global edge counter and waveform stamps, which model hardware
    /// time, not process state.
    ///
    /// The IMU is left idle with an empty pipeline, cleared layouts and
    /// no parameter frame, ready for [`Imu::restore_context`] of the next
    /// tenant.
    pub fn save_context(&mut self) -> ImuExecContext {
        let ctx = ImuExecContext {
            state: self.state,
            inflight: std::mem::take(&mut self.inflight),
            sr: self.sr,
            fault_cause: self.fault_cause.take(),
            needs_reresolve: self.needs_reresolve,
            param_frame: self.param_frame.take(),
            layouts: std::mem::replace(&mut self.layouts, vec![None; 256]),
            asid: self.current_asid,
        };
        self.state = State::Idle;
        self.sr = StatusRegister::default();
        self.needs_reresolve = false;
        ctx
    }

    /// Reinstalls a context captured by [`Imu::save_context`]. Any
    /// stalled or in-flight translations are flagged for re-resolution at
    /// the next edge: frames may have been stolen (and TLB entries
    /// repaired or evicted) while the tenant was parked, so the cached
    /// resolutions cannot be trusted.
    pub fn restore_context(&mut self, ctx: ImuExecContext) {
        self.state = ctx.state;
        self.needs_reresolve = ctx.needs_reresolve || !ctx.inflight.is_empty();
        self.inflight = ctx.inflight;
        self.sr = ctx.sr;
        self.fault_cause = ctx.fault_cause;
        self.param_frame = ctx.param_frame;
        self.layouts = ctx.layouts;
        self.current_asid = ctx.asid;
    }

    fn trace_accept(&self, now: SimTime, req: &AccessRequest, sink: &mut TraceSink) {
        if let (Some(ids), Some(tr)) = (self.trace_ids, sink.tracer_mut()) {
            tr.record(now, ids.cp_obj, SignalValue::Bus(u64::from(req.obj.0)));
            tr.record(now, ids.cp_addr, SignalValue::Bus(u64::from(req.index)));
            tr.record(now, ids.cp_access, SignalValue::Bit(true));
            tr.record(
                now,
                ids.cp_wr,
                SignalValue::Bit(req.kind == AccessKind::Write),
            );
            tr.record(now, ids.cp_tlbhit, SignalValue::Bit(false));
            tr.record(now, ids.cp_din, SignalValue::Undefined);
        }
    }

    fn trace_complete(&self, now: SimTime, req: &AccessRequest, data: u32, sink: &mut TraceSink) {
        if let (Some(ids), Some(tr)) = (self.trace_ids, sink.tracer_mut()) {
            tr.record(now, ids.cp_tlbhit, SignalValue::Bit(true));
            if req.kind == AccessKind::Read {
                tr.record(now, ids.cp_din, SignalValue::Bus(u64::from(data)));
            }
            tr.record(now, ids.cp_access, SignalValue::Bit(false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcop_fabric::port::CoprocessorPort;
    use vcop_imu_test_support::*;

    /// Minimal bench: IMU + port + dual-port RAM, stepped manually.
    pub(crate) mod vcop_imu_test_support {
        use super::*;

        pub struct Bench {
            pub imu: Imu,
            pub port: CoprocessorPort,
            pub dpram: DualPortRam,
            pub sink: TraceSink,
            pub now: SimTime,
            pub events: Vec<(u64, ImuEvent)>,
            pub edges: u64,
        }

        impl Bench {
            pub fn new(config: ImuConfig) -> Self {
                let depth = config.pipeline_depth;
                Bench {
                    imu: Imu::new(config),
                    port: CoprocessorPort::new(depth),
                    dpram: DualPortRam::epxa1(),
                    sink: TraceSink::disabled(),
                    now: SimTime::ZERO,
                    events: Vec::new(),
                    edges: 0,
                }
            }

            pub fn map(&mut self, obj: u8, elem: ElemSize, pages: &[(u32, usize)]) {
                self.imu.set_object_layout(ObjectId(obj), elem);
                for &(vp, frame) in pages {
                    let idx = (0..self.imu.tlb().len())
                        .find(|&i| !self.imu.tlb().entry(i).valid)
                        .expect("free TLB slot");
                    self.imu.tlb_mut().set_entry(
                        idx,
                        crate::tlb::TlbEntry {
                            valid: true,
                            dirty: false,
                            asid: Asid::SINGLE,
                            vpage: VirtualPage {
                                obj: ObjectId(obj),
                                page: vp,
                            },
                            frame: PageIndex(frame),
                        },
                    );
                }
            }

            pub fn start(&mut self) {
                let mut link = PortLink::new(&mut self.port);
                self.imu.write_control(
                    crate::registers::ControlRegister {
                        start: true,
                        ..Default::default()
                    },
                    &mut link,
                );
            }

            pub fn step(&mut self) -> Option<ImuEvent> {
                let mut link = PortLink::new(&mut self.port);
                let ev = self
                    .imu
                    .step(self.now, &mut link, &mut self.dpram, &mut self.sink);
                self.now += SimTime::from_ns(25);
                self.edges += 1;
                if let Some(e) = ev {
                    self.events.push((self.edges, e));
                }
                ev
            }

            /// Steps until the head access completes, returning the data
            /// and the number of edges it took.
            pub fn run_until_complete(&mut self, max_edges: u64) -> (u32, u64) {
                let start = self.edges;
                for _ in 0..max_edges {
                    self.step();
                    if let Some(done) = self.port.take_completed() {
                        return (done.data, self.edges - start);
                    }
                }
                panic!("access did not complete within {max_edges} edges");
            }
        }
    }

    fn proto() -> ImuConfig {
        ImuConfig::prototype(8, 2048)
    }

    #[test]
    fn translated_read_completes_in_three_imu_edges() {
        let mut b = Bench::new(proto());
        b.dpram.write_word(Port::Cpu, 8, 0x1234_5678).unwrap();
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        b.port.issue_read(ObjectId(0), 2);
        let (data, edges) = b.run_until_complete(10);
        assert_eq!(data, 0x1234_5678);
        // 3 IMU edges after the issue edge = data on the 4th rising edge
        // counting the issue edge (Fig. 7).
        assert_eq!(edges, 3);
    }

    #[test]
    fn halfword_and_byte_elements() {
        let mut b = Bench::new(proto());
        b.dpram.write_half(Port::Cpu, 6, 0xBEEF).unwrap();
        b.dpram.write_byte(Port::Cpu, 3, 0x5A).unwrap();
        b.map(0, ElemSize::U16, &[(0, 0)]);
        b.map(1, ElemSize::U8, &[(0, 0)]);
        // Wait: obj 1 vpage 0 also maps frame 0 -> CAM duplicate is fine
        // because the vpage key includes the object id.
        b.start();
        b.port.issue_read(ObjectId(0), 3); // halfword index 3 = byte 6
        let (data, _) = b.run_until_complete(10);
        assert_eq!(data, 0xBEEF);
        b.port.issue_read(ObjectId(1), 3); // byte index 3
        let (data, _) = b.run_until_complete(10);
        assert_eq!(data, 0x5A);
    }

    #[test]
    fn write_sets_dirty_and_stores() {
        let mut b = Bench::new(proto());
        b.map(0, ElemSize::U32, &[(0, 2)]);
        b.start();
        b.port.issue_write(ObjectId(0), 1, 0xA5A5_0001);
        let _ = b.run_until_complete(10);
        // Frame 2, byte offset 4.
        assert_eq!(
            b.dpram.read_word(Port::Cpu, 2 * 2048 + 4).unwrap(),
            0xA5A5_0001
        );
        let dirty = b.imu.tlb().dirty_indices();
        assert_eq!(dirty.len(), 1);
        assert!(b.imu.tlb().entry(dirty[0]).dirty);
        assert_eq!(b.imu.counters().completed_write, 1);
    }

    #[test]
    fn miss_faults_then_resume_completes() {
        let mut b = Bench::new(proto());
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        b.port.issue_read(ObjectId(0), 1024); // byte 4096 -> vpage 2: unmapped
                                              // Fault after accept + miss_detect_edges.
        let mut fault_seen = false;
        for _ in 0..6 {
            if b.step() == Some(ImuEvent::Fault) {
                fault_seen = true;
                break;
            }
        }
        assert!(fault_seen);
        assert!(b.imu.status().fault);
        match b.imu.fault_cause() {
            Some(FaultCause::TlbMiss { vpage, is_write }) => {
                assert_eq!(vpage.obj, ObjectId(0));
                assert_eq!(vpage.page, 2);
                assert!(!is_write);
            }
            other => panic!("unexpected cause {other:?}"),
        }

        // While faulted nothing advances.
        assert_eq!(b.step(), None);
        assert!(b.port.take_completed().is_none());

        // OS repairs the mapping and resumes.
        b.dpram.write_word(Port::Cpu, 3 * 2048, 0x77).unwrap();
        b.imu.tlb_mut().set_entry(
            3,
            crate::tlb::TlbEntry {
                valid: true,
                dirty: false,
                asid: Asid::SINGLE,
                vpage: VirtualPage {
                    obj: ObjectId(0),
                    page: 2,
                },
                frame: PageIndex(3),
            },
        );
        b.imu.resume();
        let (data, edges) = b.run_until_complete(10);
        assert_eq!(data, 0x77);
        assert_eq!(edges, 3, "restart pays the full translation again");
        assert!(!b.imu.status().fault);
    }

    #[test]
    fn unknown_object_faults_with_cause() {
        let mut b = Bench::new(proto());
        b.start();
        b.port.issue_read(ObjectId(9), 0);
        let mut cause = None;
        for _ in 0..6 {
            if b.step() == Some(ImuEvent::Fault) {
                cause = b.imu.fault_cause();
                break;
            }
        }
        assert_eq!(cause, Some(FaultCause::UnknownObject { obj: ObjectId(9) }));
    }

    #[test]
    fn param_read_and_free() {
        let mut b = Bench::new(proto());
        b.imu.set_param_frame(PageIndex(0));
        b.dpram.write_word(Port::Cpu, 4, 42).unwrap();
        b.start();
        b.port.issue_read(ObjectId::PARAM, 1);
        let (data, _) = b.run_until_complete(10);
        assert_eq!(data, 42);
        assert_eq!(b.imu.counters().param_read, 1);

        // Coprocessor invalidates the parameter page.
        b.port.param_done();
        b.step();
        assert!(b.imu.status().param_freed);
        assert_eq!(b.imu.param_frame(), None);

        // A later parameter access is a protocol fault.
        b.port.issue_read(ObjectId::PARAM, 0);
        let mut cause = None;
        for _ in 0..6 {
            if b.step() == Some(ImuEvent::Fault) {
                cause = b.imu.fault_cause();
                break;
            }
        }
        assert_eq!(cause, Some(FaultCause::ParamPageGone));
    }

    #[test]
    fn fin_raises_done() {
        let mut b = Bench::new(proto());
        b.start();
        assert!(b.imu.status().running);
        b.port.finish();
        let ev = b.step();
        assert_eq!(ev, Some(ImuEvent::Done));
        assert!(b.imu.status().done);
        assert!(!b.imu.status().running);
        b.imu.clear_done();
        assert!(!b.imu.status().done);
    }

    #[test]
    fn idle_imu_ignores_everything() {
        let mut b = Bench::new(proto());
        b.map(0, ElemSize::U32, &[(0, 0)]);
        // No start: nothing should happen.
        b.port.issue_read(ObjectId(0), 0);
        for _ in 0..5 {
            assert_eq!(b.step(), None);
        }
        assert!(b.port.take_completed().is_none());
    }

    #[test]
    fn reset_clears_state() {
        let mut b = Bench::new(proto());
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        b.port.issue_read(ObjectId(0), 0);
        b.step();
        {
            let mut link = PortLink::new(&mut b.port);
            b.imu.write_control(
                crate::registers::ControlRegister {
                    reset: true,
                    ..Default::default()
                },
                &mut link,
            );
        }
        assert!(!b.imu.status().running);
        assert!(b.imu.tlb().valid_indices().is_empty());
        assert!(!b.port.busy());
    }

    #[test]
    fn pipelined_streams_one_completion_per_edge() {
        // Depth-4 pipelined IMU: issue 4 reads back to back; after the
        // initial latency, completions arrive every edge.
        let mut b = Bench::new(ImuConfig::pipelined(8, 2048, 4));
        for w in 0..16u32 {
            b.dpram
                .write_word(Port::Cpu, (w as usize) * 4, 100 + w)
                .unwrap();
        }
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        for i in 0..4 {
            b.port.issue_read(ObjectId(0), i);
        }
        let mut completions = Vec::new();
        for edge in 1..=16u64 {
            b.step();
            while let Some(done) = b.port.take_completed() {
                completions.push((edge, done.data));
            }
            if completions.len() == 4 {
                break;
            }
        }
        assert_eq!(
            completions.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            vec![100, 101, 102, 103]
        );
        // First completion after full latency; the rest on consecutive edges.
        let edges: Vec<u64> = completions.iter().map(|&(e, _)| e).collect();
        assert_eq!(edges[0], 3);
        assert_eq!(edges, vec![3, 4, 5, 6]);
    }

    #[test]
    fn nonpipelined_serialises_accesses() {
        let mut b = Bench::new(proto());
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        b.port.issue_read(ObjectId(0), 0);
        let (_, e1) = b.run_until_complete(10);
        b.port.issue_read(ObjectId(0), 1);
        let (_, e2) = b.run_until_complete(10);
        assert_eq!(e1, 3);
        assert_eq!(e2, 3);
    }

    #[test]
    fn every_statistic_reads_back_by_name() {
        let stats = ImuStats {
            tlb_hit: 1,
            tlb_miss: 2,
            fault: 3,
            done: 4,
            completed_read: 5,
            completed_write: 6,
            param_read: 7,
            param_page_freed: 8,
        };
        let names = [
            "tlb_hit",
            "tlb_miss",
            "fault",
            "done",
            "completed_read",
            "completed_write",
            "param_read",
            "param_page_freed",
        ];
        for (value, name) in (1..).zip(names) {
            assert_eq!(stats.get(name), value, "{name}");
        }
        assert_eq!(stats.get("tlb_hits"), 0, "an unknown name reads zero");
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut b = Bench::new(proto());
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        b.port.issue_read(ObjectId(0), 0);
        b.run_until_complete(10);
        assert_eq!(b.imu.counters().tlb_hit, 1);
        assert_eq!(b.imu.counters().tlb_miss, 0);
    }

    #[test]
    fn asid_switch_translates_through_own_entries() {
        // Two address spaces map object 0 vpage 0 to different frames;
        // the active ASID selects which one the datapath reaches.
        let mut b = Bench::new(proto());
        b.dpram.write_word(Port::Cpu, 0, 0xAAAA).unwrap();
        b.dpram.write_word(Port::Cpu, 2048, 0xBBBB).unwrap();
        b.imu.set_object_layout(ObjectId(0), ElemSize::U32);
        for (i, (asid, frame)) in [(Asid(1), 0), (Asid(2), 1)].iter().enumerate() {
            b.imu.tlb_mut().set_entry(
                i,
                crate::tlb::TlbEntry {
                    valid: true,
                    dirty: false,
                    asid: *asid,
                    vpage: VirtualPage {
                        obj: ObjectId(0),
                        page: 0,
                    },
                    frame: PageIndex(*frame),
                },
            );
        }
        b.imu.set_asid(Asid(1));
        b.start();
        b.port.issue_read(ObjectId(0), 0);
        let (data, _) = b.run_until_complete(10);
        assert_eq!(data, 0xAAAA);
        b.imu.set_asid(Asid(2));
        b.port.issue_read(ObjectId(0), 0);
        let (data, _) = b.run_until_complete(10);
        assert_eq!(data, 0xBBBB);
    }

    #[test]
    fn context_round_trip_preserves_fault_state() {
        // Tenant A faults; its context is parked while tenant B runs a
        // clean read; restoring A brings back the stalled access, which
        // completes after the usual repair + resume.
        let mut b = Bench::new(proto());
        b.imu.set_asid(Asid(1));
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        b.port.issue_read(ObjectId(0), 1024); // vpage 2: unmapped
        for _ in 0..6 {
            if b.step() == Some(ImuEvent::Fault) {
                break;
            }
        }
        assert!(b.imu.status().fault);
        let ctx_a = b.imu.save_context();
        assert_eq!(ctx_a.state, State::Faulted);
        assert_eq!(ctx_a.asid(), Asid(1));
        assert!(!b.imu.status().fault, "datapath is clean after save");

        // Tenant B: fresh port, own ASID, disjoint frame.
        let saved_port = std::mem::replace(&mut b.port, CoprocessorPort::new(1));
        b.imu.set_asid(Asid(2));
        b.imu.set_object_layout(ObjectId(0), ElemSize::U32);
        b.imu.tlb_mut().set_entry(
            5,
            crate::tlb::TlbEntry {
                valid: true,
                dirty: false,
                asid: Asid(2),
                vpage: VirtualPage {
                    obj: ObjectId(0),
                    page: 0,
                },
                frame: PageIndex(5),
            },
        );
        b.dpram.write_word(Port::Cpu, 5 * 2048, 0x22).unwrap();
        b.start();
        b.port.issue_read(ObjectId(0), 0);
        let (data, _) = b.run_until_complete(10);
        assert_eq!(data, 0x22);
        let _ctx_b = b.imu.save_context();

        // Back to tenant A: repair the mapping, restore, resume.
        b.port = saved_port;
        b.imu.restore_context(ctx_a);
        assert!(b.imu.status().fault, "stalled fault travels with context");
        assert_eq!(b.imu.asid(), Asid(1));
        b.dpram.write_word(Port::Cpu, 3 * 2048, 0x77).unwrap();
        b.imu.tlb_mut().set_entry(
            3,
            crate::tlb::TlbEntry {
                valid: true,
                dirty: false,
                asid: Asid(1),
                vpage: VirtualPage {
                    obj: ObjectId(0),
                    page: 2,
                },
                frame: PageIndex(3),
            },
        );
        b.imu.resume();
        let (data, _) = b.run_until_complete(10);
        assert_eq!(data, 0x77);
    }

    #[test]
    fn elem_size_helpers() {
        assert_eq!(ElemSize::U8.bytes(), 1);
        assert_eq!(ElemSize::U16.bytes(), 2);
        assert_eq!(ElemSize::U32.bytes(), 4);
        assert_eq!(ElemSize::from_bytes(2), Some(ElemSize::U16));
        assert_eq!(ElemSize::from_bytes(3), None);
    }

    #[test]
    #[should_panic(expected = "TLB entries")]
    fn zero_tlb_rejected() {
        let _ = Imu::new(ImuConfig {
            tlb_entries: 0,
            ..proto()
        });
    }
}

#[cfg(test)]
mod sync_tests {
    use super::tests::vcop_imu_test_support::Bench;
    use super::*;

    #[test]
    fn cdc_synchroniser_extends_latency() {
        let mut b = Bench::new(ImuConfig::prototype(8, 2048).with_sync_edges(2));
        b.dpram.write_word(Port::Cpu, 0, 0x99).unwrap();
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        b.port.issue_read(ObjectId(0), 0);
        let (data, edges) = b.run_until_complete(12);
        assert_eq!(data, 0x99);
        // 3 translation edges + 2 synchroniser edges.
        assert_eq!(edges, 5);
    }

    #[test]
    fn sync_applies_to_restarted_translations_too() {
        let mut b = Bench::new(ImuConfig::prototype(8, 2048).with_sync_edges(2));
        b.map(0, ElemSize::U32, &[(0, 0)]);
        b.start();
        b.port.issue_read(ObjectId(0), 1024); // vpage 2: unmapped
        let mut faulted = false;
        for _ in 0..10 {
            if b.step() == Some(ImuEvent::Fault) {
                faulted = true;
                break;
            }
        }
        assert!(faulted);
        b.dpram.write_word(Port::Cpu, 2048, 0x55).unwrap();
        b.imu.tlb_mut().set_entry(
            1,
            crate::tlb::TlbEntry {
                valid: true,
                dirty: false,
                asid: Asid::SINGLE,
                vpage: VirtualPage {
                    obj: ObjectId(0),
                    page: 2,
                },
                frame: PageIndex(1),
            },
        );
        b.imu.resume();
        let (data, edges) = b.run_until_complete(12);
        assert_eq!(data, 0x55);
        assert_eq!(edges, 5, "full latency incl. synchroniser on restart");
    }

    #[test]
    fn zero_sync_is_prototype_latency() {
        let a = ImuConfig::prototype(8, 2048);
        assert_eq!(a.sync_edges, 0);
        let b = a.with_sync_edges(3);
        assert_eq!(b.sync_edges, 3);
        assert_eq!(b.translation_edges, a.translation_edges);
    }
}
