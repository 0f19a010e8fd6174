//! DMA engine cost model.
//!
//! The paper's VIM copies pages with CPU loads/stores ("two transfers
//! each time a page is loaded or unloaded"). A natural next step beyond
//! the single-transfer fix is to hand page movement to a DMA engine:
//! the CPU pays only descriptor setup and a completion interrupt, while
//! the data streams over the AHB in long bursts without the CPU's
//! per-word loop overhead. This module prices such transfers; the VIM
//! exposes it as a third page-copy strategy for the `abl-xfer` ablation.

use std::collections::VecDeque;

use crate::bus::{AhbBus, BurstKind, SlaveProfile};

/// Static costs of programming the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaConfig {
    /// CPU cycles to build and write one descriptor (source, destination,
    /// length, control).
    pub setup_cycles: u64,
    /// CPU cycles for the completion interrupt (entry, ack, exit).
    pub completion_cycles: u64,
    /// Bus cycles the engine needs to fetch a descriptor.
    pub descriptor_fetch_cycles: u64,
}

impl DmaConfig {
    /// Costs of a 2003-era AHB DMA controller.
    pub const fn paper_era() -> Self {
        DmaConfig {
            setup_cycles: 90,
            completion_cycles: 180,
            descriptor_fetch_cycles: 8,
        }
    }
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig::paper_era()
    }
}

/// Split cost of one DMA transfer: what the CPU pays versus how long the
/// engine occupies the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCost {
    /// CPU cycles (descriptor setup + completion interrupt).
    pub cpu_cycles: u64,
    /// Bus cycles (descriptor fetch + the burst itself).
    pub bus_cycles: u64,
}

impl DmaCost {
    /// Total cycles assuming the CPU blocks for the transfer (the
    /// conservative accounting the VIM uses: fault service is
    /// synchronous).
    pub fn total_cycles(&self) -> u64 {
        self.cpu_cycles + self.bus_cycles
    }
}

/// The engine.
///
/// # Examples
///
/// ```
/// use vcop_sim::bus::{AhbBus, SlaveProfile};
/// use vcop_sim::dma::{DmaConfig, DmaEngine};
/// use vcop_sim::time::Frequency;
///
/// let bus = AhbBus::new(Frequency::from_mhz(133));
/// let dma = DmaEngine::new(DmaConfig::paper_era());
/// let cost = dma.transfer_cost(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
/// assert!(cost.bus_cycles > cost.cpu_cycles);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DmaEngine {
    config: DmaConfig,
}

impl DmaEngine {
    /// Creates an engine with the given programming costs.
    pub fn new(config: DmaConfig) -> Self {
        DmaEngine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DmaConfig {
        &self.config
    }

    /// Cost of moving `bytes` from `from` to `to` in INCR16 bursts.
    ///
    /// Zero-length transfers still pay descriptor setup (the driver
    /// would reject them, but the model charges what the hardware
    /// would).
    pub fn transfer_cost(
        &self,
        bus: &AhbBus,
        bytes: usize,
        from: SlaveProfile,
        to: SlaveProfile,
    ) -> DmaCost {
        let words = bytes.div_ceil(4);
        DmaCost {
            cpu_cycles: self.config.setup_cycles + self.config.completion_cycles,
            bus_cycles: self.config.descriptor_fetch_cycles
                + bus.transfer_cycles(words, from, BurstKind::Incr16)
                + bus.transfer_cycles(words, to, BurstKind::Incr16),
        }
    }
}

/// Identifier of a transfer queued on an [`AsyncDmaEngine`].
pub type TransferId = u64;

/// Completion record emitted by [`AsyncDmaEngine::tick`] when a transfer
/// finishes. Each transfer produces exactly one completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCompletion {
    /// The finished transfer.
    pub id: TransferId,
    /// Total bus cycles the transfer occupied (descriptor fetch plus all
    /// bursts). Matches [`DmaEngine::transfer_cost`]'s `bus_cycles` for
    /// the same geometry.
    pub bus_cycles: u64,
}

/// One bus-atomic unit of a transfer: an INCR16 burst (or the descriptor
/// fetch). The arbiter grants the bus for whole units, so words of two
/// transfers never interleave within a burst.
#[derive(Debug, Clone, Copy)]
struct Unit {
    /// Non-data cycles in this unit (arbitration, address phases, wait
    /// states, descriptor words). Consumed before the beats.
    overhead_left: u64,
    /// Data beats left: one 32-bit word moves per beat cycle.
    beats_left: u64,
}

#[derive(Debug, Clone)]
struct Transfer {
    id: TransferId,
    bus_cycles_total: u64,
    bus_cycles_done: u64,
    units: VecDeque<Unit>,
}

#[derive(Debug, Clone, Default)]
struct Channel {
    queue: VecDeque<Transfer>,
}

impl Channel {
    fn pending_cycles(&self) -> u64 {
        self.queue
            .iter()
            .map(|t| t.bus_cycles_total - t.bus_cycles_done)
            .sum()
    }
}

/// A multi-channel DMA engine that advances cycle-by-cycle on the bus
/// clock instead of pricing a blocking copy.
///
/// Transfers are submitted with a precomputed burst plan (so their total
/// bus occupancy matches [`DmaEngine::transfer_cost`]); channels share
/// the single AHB via round-robin arbitration at burst granularity; a
/// completion is reported exactly once per transfer, on the cycle its
/// last unit retires.
///
/// # Examples
///
/// ```
/// use vcop_sim::bus::{AhbBus, SlaveProfile};
/// use vcop_sim::dma::{AsyncDmaEngine, DmaConfig};
/// use vcop_sim::time::Frequency;
///
/// let bus = AhbBus::new(Frequency::from_mhz(133));
/// let mut dma = AsyncDmaEngine::new(DmaConfig::paper_era(), 2);
/// let id = dma.submit(&bus, 64, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
/// let mut done = None;
/// while done.is_none() {
///     done = dma.tick();
/// }
/// assert_eq!(done.unwrap().id, id);
/// assert!(!dma.busy());
/// ```
#[derive(Debug, Clone)]
pub struct AsyncDmaEngine {
    config: DmaConfig,
    channels: Vec<Channel>,
    /// Channel currently granted the bus, if any.
    grant: Option<usize>,
    /// Round-robin scan start for the next grant.
    rr_next: usize,
    next_id: TransferId,
}

impl AsyncDmaEngine {
    /// Creates an engine with `channels` independent descriptor queues
    /// (clamped to at least one).
    pub fn new(config: DmaConfig, channels: usize) -> Self {
        AsyncDmaEngine {
            config,
            channels: vec![Channel::default(); channels.max(1)],
            grant: None,
            rr_next: 0,
            next_id: 0,
        }
    }

    /// Whether any transfer is queued or in flight.
    pub fn busy(&self) -> bool {
        self.channels.iter().any(|c| !c.queue.is_empty())
    }

    /// Queues a transfer of `bytes` from `from` to `to`, returning its id.
    ///
    /// The plan is one descriptor-fetch unit followed by one unit per
    /// INCR16 burst; total bus cycles equal
    /// [`DmaEngine::transfer_cost`]`.bus_cycles` for the same geometry.
    /// The transfer lands on the channel with the least outstanding work
    /// (ties to the lowest index), which lets an urgent demand transfer
    /// bypass a queue of prefetches when more than one channel exists.
    pub fn submit(
        &mut self,
        bus: &AhbBus,
        bytes: usize,
        from: SlaveProfile,
        to: SlaveProfile,
    ) -> TransferId {
        let words = bytes.div_ceil(4) as u64;
        let mut units = VecDeque::new();
        let mut total = self.config.descriptor_fetch_cycles;
        units.push_back(Unit {
            // A degenerate zero-cost plan would never retire; keep the
            // descriptor fetch at least one cycle long.
            overhead_left: self.config.descriptor_fetch_cycles.max(1),
            beats_left: 0,
        });
        total = total.max(1);
        let mut remaining = words;
        while remaining > 0 {
            let beats = remaining.min(16);
            let cycles = bus.transfer_cycles(beats as usize, from, BurstKind::Incr16)
                + bus.transfer_cycles(beats as usize, to, BurstKind::Incr16);
            units.push_back(Unit {
                overhead_left: cycles - beats,
                beats_left: beats,
            });
            total += cycles;
            remaining -= beats;
        }
        let id = self.next_id;
        self.next_id += 1;
        let transfer = Transfer {
            id,
            bus_cycles_total: total,
            bus_cycles_done: 0,
            units,
        };
        let channel = self
            .channels
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.pending_cycles(), *i))
            .map(|(i, _)| i)
            .expect("at least one channel");
        self.channels[channel].queue.push_back(transfer);
        id
    }

    /// Advances the engine by one bus cycle. Returns the completion if a
    /// transfer retired on this cycle (at most one can: the bus moves at
    /// most one unit's cycle at a time).
    pub fn tick(&mut self) -> Option<DmaCompletion> {
        let n = self.channels.len();
        if self.grant.is_none() {
            for k in 0..n {
                let c = (self.rr_next + k) % n;
                if !self.channels[c].queue.is_empty() {
                    self.grant = Some(c);
                    break;
                }
            }
        }
        let ch = self.grant?;
        let transfer = self.channels[ch]
            .queue
            .front_mut()
            .expect("granted channel has work");
        transfer.bus_cycles_done += 1;
        let unit = transfer.units.front_mut().expect("transfer has units");
        if unit.overhead_left > 0 {
            unit.overhead_left -= 1;
        } else {
            unit.beats_left -= 1;
        }
        if unit.overhead_left == 0 && unit.beats_left == 0 {
            transfer.units.pop_front();
            let finished = transfer.units.is_empty();
            // Burst boundary: release the bus and move the round-robin
            // pointer past this channel.
            self.grant = None;
            self.rr_next = (ch + 1) % n;
            if finished {
                let t = self.channels[ch]
                    .queue
                    .pop_front()
                    .expect("finished transfer at queue head");
                return Some(DmaCompletion {
                    id: t.id,
                    bus_cycles: t.bus_cycles_total,
                });
            }
        }
        None
    }

    /// Silently drops one transfer: it vanishes from its channel and no
    /// completion will ever fire for it. This is how an injected DMA
    /// timeout is modelled — the descriptor is lost and only a watchdog
    /// at a higher layer can notice. Returns `false` if `id` is not
    /// queued or in flight.
    pub fn drop_transfer(&mut self, id: TransferId) -> bool {
        for (ch, channel) in self.channels.iter_mut().enumerate() {
            if let Some(pos) = channel.queue.iter().position(|t| t.id == id) {
                channel.queue.remove(pos);
                // If the victim held the bus, release the grant so the
                // arbiter re-scans on the next cycle.
                if pos == 0 && self.grant == Some(ch) {
                    self.grant = None;
                }
                return true;
            }
        }
        false
    }

    /// Stretches one transfer by `cycles` extra bus cycles of overhead
    /// (an injected bus stall: the arbiter starves the transfer but it
    /// still completes, late). Returns `false` if `id` is not queued or
    /// in flight.
    pub fn stall_transfer(&mut self, id: TransferId, cycles: u64) -> bool {
        for channel in &mut self.channels {
            if let Some(t) = channel.queue.iter_mut().find(|t| t.id == id) {
                let unit = t.units.front_mut().expect("live transfer has units");
                unit.overhead_left += cycles;
                t.bus_cycles_total += cycles;
                return true;
            }
        }
        false
    }

    /// Aborts every queued and in-flight transfer (coprocessor teardown),
    /// returning the ids that were dropped. No completion will ever fire
    /// for them.
    pub fn cancel_all(&mut self) -> Vec<TransferId> {
        let mut dropped = Vec::new();
        for channel in &mut self.channels {
            dropped.extend(channel.queue.drain(..).map(|t| t.id));
        }
        self.grant = None;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Frequency;

    /// Words an in-flight transfer has still to move, or `None` once it
    /// has completed (or never existed).
    fn words_left(dma: &AsyncDmaEngine, id: TransferId) -> Option<u64> {
        dma.channels
            .iter()
            .flat_map(|c| c.queue.iter())
            .find(|t| t.id == id)
            .map(|t| t.units.iter().map(|u| u.beats_left).sum())
    }

    fn rig() -> (AhbBus, DmaEngine) {
        (
            AhbBus::new(Frequency::from_mhz(133)),
            DmaEngine::new(DmaConfig::paper_era()),
        )
    }

    #[test]
    fn large_transfers_amortise_setup() {
        let (bus, dma) = rig();
        let small = dma.transfer_cost(&bus, 64, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let large = dma.transfer_cost(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        assert_eq!(
            small.cpu_cycles, large.cpu_cycles,
            "CPU cost is size-independent"
        );
        assert!(large.bus_cycles > small.bus_cycles * 8);
    }

    #[test]
    fn dma_beats_cpu_copy_loop_for_a_page() {
        let (bus, dma) = rig();
        let dma_cycles = dma
            .transfer_cost(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM)
            .total_cycles();
        let cpu_cycles = bus.copy_cycles(
            512,
            SlaveProfile::SDRAM,
            SlaveProfile::DPRAM,
            BurstKind::Single,
        );
        assert!(
            dma_cycles < cpu_cycles,
            "DMA {dma_cycles} !< CPU loop {cpu_cycles}"
        );
    }

    #[test]
    fn zero_length_charges_setup_only_on_cpu_side() {
        let (bus, dma) = rig();
        let cost = dma.transfer_cost(&bus, 0, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        assert_eq!(cost.cpu_cycles, 90 + 180);
        assert_eq!(cost.bus_cycles, 8);
    }

    fn async_rig(channels: usize) -> (AhbBus, AsyncDmaEngine) {
        (
            AhbBus::new(Frequency::from_mhz(133)),
            AsyncDmaEngine::new(DmaConfig::paper_era(), channels),
        )
    }

    #[test]
    fn async_drop_transfer_never_completes_and_frees_the_bus() {
        let (bus, mut dma) = async_rig(2);
        let victim = dma.submit(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let survivor = dma.submit(&bus, 512, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        // Let the victim take the grant, then lose it mid-flight.
        for _ in 0..4 {
            assert!(dma.tick().is_none());
        }
        assert!(dma.drop_transfer(victim));
        assert!(!dma.drop_transfer(victim), "already gone");
        let mut cycles = 0u64;
        let done = loop {
            cycles += 1;
            if let Some(done) = dma.tick() {
                break done;
            }
            assert!(cycles < 1_000_000, "survivor never completed");
        };
        assert_eq!(done.id, survivor, "only the survivor retires");
        assert!(!dma.busy());
        assert!(words_left(&dma, victim).is_none());
    }

    #[test]
    fn async_stall_transfer_adds_exactly_the_extra_cycles() {
        let (bus, mut dma) = async_rig(1);
        let id = dma.submit(&bus, 1024, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let (_, baseline) = {
            let mut probe = dma.clone();
            let mut cycles = 0u64;
            loop {
                cycles += 1;
                if probe.tick().is_some() {
                    break ((), cycles);
                }
            }
        };
        assert!(dma.stall_transfer(id, 300));
        let mut cycles = 0u64;
        let done = loop {
            cycles += 1;
            if let Some(done) = dma.tick() {
                break done;
            }
            assert!(cycles < 1_000_000, "stalled transfer never completed");
        };
        assert_eq!(cycles, baseline + 300, "stall is additive");
        assert_eq!(done.bus_cycles, baseline + 300);
    }

    #[test]
    fn async_duration_matches_blocking_cost_model() {
        let (bus, mut dma) = async_rig(1);
        let cost = DmaEngine::new(DmaConfig::paper_era()).transfer_cost(
            &bus,
            2048,
            SlaveProfile::SDRAM,
            SlaveProfile::DPRAM,
        );
        let id = dma.submit(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let mut cycles = 0u64;
        let done = loop {
            cycles += 1;
            if let Some(done) = dma.tick() {
                break done;
            }
            assert!(cycles < 1_000_000, "transfer never completed");
        };
        assert_eq!(done.id, id);
        assert_eq!(cycles, cost.bus_cycles, "cycle count equals priced cost");
        assert_eq!(done.bus_cycles, cost.bus_cycles);
    }

    #[test]
    fn per_cycle_progress_matches_bus_width() {
        // One 32-bit word moves per beat cycle, never more; total words
        // equal the byte count over the 4-byte bus width.
        let (bus, mut dma) = async_rig(1);
        let id = dma.submit(&bus, 256, SlaveProfile::DPRAM, SlaveProfile::DPRAM);
        let mut last = 0u64;
        let total = words_left(&dma, id).unwrap();
        assert_eq!(total, 256 / 4);
        while let Some(left) = words_left(&dma, id) {
            let done_words = total - left;
            assert!(
                done_words == last || done_words == last + 1,
                "words advanced by more than one per cycle: {last} -> {done_words}"
            );
            last = done_words;
            if dma.tick().is_some() {
                break;
            }
        }
        assert_eq!(last, total - 1, "last observed count before final beat");
    }

    #[test]
    fn channels_never_interleave_words_within_a_burst() {
        let (bus, mut dma) = async_rig(2);
        let a = dma.submit(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let b = dma.submit(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        // Record which transfer each data word belongs to, in bus order.
        let mut words: Vec<TransferId> = Vec::new();
        let mut prev = [0u64; 2];
        let mut done = 0;
        while done < 2 {
            let fired = dma.tick();
            for (slot, id) in [(0usize, a), (1usize, b)] {
                let now = words_left(&dma, id).map_or(prev[slot], |l| 2048 / 4 - l);
                for _ in prev[slot]..now {
                    words.push(id);
                }
                prev[slot] = now;
            }
            if let Some(c) = fired {
                // The final beat of a transfer retires it before progress
                // can observe it; attribute the remaining words.
                let total = 2048 / 4;
                for _ in prev[if c.id == a { 0 } else { 1 }]..total {
                    words.push(c.id);
                }
                prev[if c.id == a { 0 } else { 1 }] = total;
                done += 1;
            }
        }
        assert_eq!(words.len(), 2 * 2048 / 4);
        // Both channels made progress before either finished (bandwidth is
        // shared), but ownership only changes at 16-word burst boundaries.
        let mut runs: Vec<(TransferId, usize)> = Vec::new();
        for &w in &words {
            match runs.last_mut() {
                Some((id, n)) if *id == w => *n += 1,
                _ => runs.push((w, 1)),
            }
        }
        assert!(runs.len() > 2, "transfers shared the bus");
        for (i, &(_, n)) in runs.iter().enumerate() {
            if i + 1 < runs.len() {
                assert_eq!(n % 16, 0, "ownership changed mid-burst (run of {n})");
            }
        }
    }

    #[test]
    fn completion_fires_exactly_once() {
        let (bus, mut dma) = async_rig(4);
        let ids: Vec<TransferId> = (0..6)
            .map(|_| dma.submit(&bus, 512, SlaveProfile::SDRAM, SlaveProfile::DPRAM))
            .collect();
        let mut fired: Vec<TransferId> = Vec::new();
        for _ in 0..1_000_000 {
            if let Some(c) = dma.tick() {
                fired.push(c.id);
            }
            if !dma.busy() {
                break;
            }
        }
        assert!(!dma.busy(), "engine drained");
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(fired.len(), ids.len(), "one completion per transfer");
        assert_eq!(sorted.len(), ids.len(), "no duplicate completions");
        // Ticking an idle engine fires nothing.
        for _ in 0..32 {
            assert_eq!(dma.tick(), None);
        }
    }

    #[test]
    fn cancel_all_drops_everything_silently() {
        let (bus, mut dma) = async_rig(2);
        let a = dma.submit(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let b = dma.submit(&bus, 2048, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        for _ in 0..100 {
            let _ = dma.tick();
        }
        let mut dropped = dma.cancel_all();
        dropped.sort_unstable();
        assert_eq!(dropped, vec![a, b]);
        assert!(!dma.busy());
        assert_eq!(words_left(&dma, a), None);
        for _ in 0..1000 {
            assert_eq!(dma.tick(), None, "no completion after cancellation");
        }
    }

    #[test]
    fn zero_length_transfer_still_completes() {
        let (bus, mut dma) = async_rig(1);
        let id = dma.submit(&bus, 0, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let mut fired = None;
        for _ in 0..64 {
            if let Some(c) = dma.tick() {
                fired = Some(c);
                break;
            }
        }
        let c = fired.expect("descriptor-only transfer completes");
        assert_eq!(c.id, id);
        assert_eq!(c.bus_cycles, DmaConfig::paper_era().descriptor_fetch_cycles);
    }

    #[test]
    fn least_loaded_channel_takes_new_work() {
        let (bus, mut dma) = async_rig(2);
        // Fill channel 0, then a second submission must land on channel 1
        // and finish far sooner than a queued position would allow.
        let _big = dma.submit(&bus, 8192, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let small = dma.submit(&bus, 64, SlaveProfile::SDRAM, SlaveProfile::DPRAM);
        let mut first_done = None;
        for _ in 0..1_000_000 {
            if let Some(c) = dma.tick() {
                first_done = Some(c.id);
                break;
            }
        }
        assert_eq!(
            first_done,
            Some(small),
            "small transfer on its own channel completes first"
        );
    }
}
