//! Deterministic, seeded fault injection.
//!
//! Reliability studies need misbehaving hardware on demand: a DMA burst
//! that arrives corrupted, a transfer that silently never completes, a
//! bus that stalls, a configuration stream that fails CRC, a parity
//! upset in the translation memory. The [`FaultInjector`] models all of
//! these as *rolls* made by the instrumented layers at well-defined
//! opportunity points (a DMA submission, a transfer completion, a fault
//! service, a bitstream load). Each roll names a [`FaultSite`] and an
//! owner tag (the ASID of the tenant the operation belongs to), and the
//! injector answers "does this opportunity fault?".
//!
//! Three properties make the injector usable for experiments:
//!
//! - **Determinism.** A splitmix64 PRNG seeded from [`FaultPlan::new`]
//!   drives every probabilistic decision; the same seed and workload
//!   replay the same fault pattern bit for bit.
//! - **Zero-rate neutrality.** A roll whose site rate is `0` and which
//!   matches no one-shot schedule returns `false` *without consuming
//!   PRNG state*, so enabling the injector with all rates at zero is
//!   observationally identical to leaving it disabled.
//! - **Targeting.** [`FaultPlan::target`] restricts firing to
//!   opportunities carrying one owner tag, which is how multi-tenant
//!   isolation tests inject faults into tenant A only.
//!
//! One-shot schedules ([`FaultPlan::once`]) fire at the *n*-th
//! opportunity of a site regardless of rate — the tool for aiming a
//! single fault at a precise point (e.g. "the second DMA submission",
//! which is known to be the middle of a prefetch burst).

use std::fmt;

/// Where in the stack a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// A DMA transfer completes but its payload is corrupt (detected by
    /// the completion handler, e.g. via a CRC mismatch) and must be
    /// re-transferred.
    DmaCorrupt,
    /// A DMA transfer is silently lost: its descriptor is dropped, no
    /// data arrives and no completion interrupt fires. The driver's
    /// deadline notices when the transfer would have completed.
    DmaTimeout,
    /// The bus arbiter starves a transfer for a while; the transfer
    /// still completes, late.
    BusStall,
    /// A translation-fault interrupt is dropped on the floor: the miss
    /// stays latched in the IMU status register, but nobody is told.
    IrqDrop,
    /// A completion interrupt is delivered late.
    IrqDelay,
    /// A bitstream configuration pass fails (CRC error in the
    /// configuration stream) and must be restarted from scratch.
    BitstreamLoad,
    /// A parity upset corrupts a resident translation entry in the
    /// interface memory unit.
    TlbParity,
}

const SITE_COUNT: usize = 7;

impl FaultSite {
    /// All sites, in a fixed order (stable across runs).
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::DmaCorrupt,
        FaultSite::DmaTimeout,
        FaultSite::BusStall,
        FaultSite::IrqDrop,
        FaultSite::IrqDelay,
        FaultSite::BitstreamLoad,
        FaultSite::TlbParity,
    ];

    /// Short machine-readable name, used for counters and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DmaCorrupt => "dma_corrupt",
            FaultSite::DmaTimeout => "dma_timeout",
            FaultSite::BusStall => "bus_stall",
            FaultSite::IrqDrop => "irq_drop",
            FaultSite::IrqDelay => "irq_delay",
            FaultSite::BitstreamLoad => "bitstream_load",
            FaultSite::TlbParity => "tlb_parity",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::DmaCorrupt => 0,
            FaultSite::DmaTimeout => 1,
            FaultSite::BusStall => 2,
            FaultSite::IrqDrop => 3,
            FaultSite::IrqDelay => 4,
            FaultSite::BitstreamLoad => 5,
            FaultSite::TlbParity => 6,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative description of which faults to inject, built once and
/// handed to [`FaultInjector::new`].
///
/// ```
/// use vcop_sim::fault::{FaultPlan, FaultSite};
///
/// let plan = FaultPlan::new(7)
///     .rate(FaultSite::DmaCorrupt, 0.05)
///     .once(FaultSite::DmaTimeout, 2); // the 2nd submission is lost
/// assert_ne!(plan, FaultPlan::new(7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; SITE_COUNT],
    one_shots: Vec<(FaultSite, u64)>,
    target: Option<u16>,
    bus_stall_cycles: u64,
    irq_delay_edges: u64,
}

impl FaultPlan {
    /// Starts an empty plan (no faults) driven by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0.0; SITE_COUNT],
            one_shots: Vec::new(),
            target: None,
            bus_stall_cycles: 1024,
            irq_delay_edges: 64,
        }
    }

    /// Sets the probability (clamped to `0.0..=1.0`) that an
    /// opportunity at `site` faults.
    pub fn rate(mut self, site: FaultSite, p: f64) -> Self {
        self.rates[site.index()] = p.clamp(0.0, 1.0);
        self
    }

    /// Schedules a single fault at the `nth` opportunity (1-based) of
    /// `site`, independent of the site's rate.
    pub fn once(mut self, site: FaultSite, nth: u64) -> Self {
        self.one_shots.push((site, nth));
        self
    }

    /// Restricts firing to opportunities tagged with `tag` (an ASID in
    /// the multi-tenant system). Untargeted opportunities still count
    /// toward one-shot indices but never fire.
    pub fn target(mut self, tag: u16) -> Self {
        self.target = Some(tag);
        self
    }

    /// How many bus cycles a [`FaultSite::BusStall`] fault adds to the
    /// afflicted transfer (default 1024).
    pub fn bus_stall_cycles(mut self, cycles: u64) -> Self {
        self.bus_stall_cycles = cycles;
        self
    }

    /// How many edges a [`FaultSite::IrqDelay`] fault postpones a
    /// delivery by (default 64).
    pub fn irq_delay_edges(mut self, edges: u64) -> Self {
        self.irq_delay_edges = edges;
        self
    }
}

/// The runtime side of a [`FaultPlan`]: counts opportunities per site,
/// decides which of them fault, and records what fired.
///
/// The default injector ([`FaultInjector::disabled`]) answers `false`
/// to every roll with a single branch, so the instrumented layers cost
/// nothing when fault injection is off.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    enabled: bool,
    plan: FaultPlan,
    rng: u64,
    opportunities: [u64; SITE_COUNT],
    fired: [u64; SITE_COUNT],
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disabled()
    }
}

impl FaultInjector {
    /// An injector that never fires and keeps no state.
    pub fn disabled() -> Self {
        FaultInjector {
            enabled: false,
            plan: FaultPlan::new(0),
            rng: 0,
            opportunities: [0; SITE_COUNT],
            fired: [0; SITE_COUNT],
        }
    }

    /// Arms an injector with `plan`. The PRNG state is derived from the
    /// plan's seed, so equal plans replay equal fault patterns.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = plan.seed ^ 0x9E37_79B9_7F4A_7C15;
        FaultInjector {
            enabled: true,
            plan,
            rng,
            opportunities: [0; SITE_COUNT],
            fired: [0; SITE_COUNT],
        }
    }

    /// `true` when the injector was armed with a plan (even an all-zero
    /// one). Instrumented layers use this to skip their fault paths
    /// entirely.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Rolls an untagged opportunity at `site` (single-tenant paths use
    /// tag 0, the ASID of the sole process).
    pub fn roll(&mut self, site: FaultSite) -> bool {
        self.roll_tagged(site, 0)
    }

    /// Rolls [`FaultSite::BitstreamLoad`] once per configuration pass,
    /// up to `max_passes` (at least one), and returns the 1-based pass
    /// that programmed cleanly, or `None` when every pass faulted.
    pub fn clean_bitstream_pass(&mut self, max_passes: u32) -> Option<u32> {
        (1..=max_passes.max(1)).find(|_| !self.roll(FaultSite::BitstreamLoad))
    }

    /// Rolls an opportunity at `site` owned by `tag`. Returns `true`
    /// when the opportunity faults. Opportunities are counted per site
    /// whether or not they fire, so one-shot indices are stable; when a
    /// target tag is set, other tags' opportunities still count but
    /// never fire.
    pub fn roll_tagged(&mut self, site: FaultSite, tag: u16) -> bool {
        if !self.enabled {
            return false;
        }
        let i = site.index();
        self.opportunities[i] += 1;
        if self.plan.target.is_some_and(|t| t != tag) {
            return false;
        }
        let nth = self.opportunities[i];
        if self
            .plan
            .one_shots
            .iter()
            .any(|&(s, n)| s == site && n == nth)
        {
            self.fired[i] += 1;
            return true;
        }
        let p = self.plan.rates[i];
        // Zero-rate neutrality: do not touch the PRNG when the site can
        // never fire, so an all-zero plan perturbs nothing.
        if p <= 0.0 {
            return false;
        }
        if self.chance(p) {
            self.fired[i] += 1;
            return true;
        }
        false
    }

    /// Draws a uniform index in `0..n` (used to pick *which* resident
    /// entry a parity upset hits). Panics if `n == 0`.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick from an empty set");
        (self.next_u64() % n as u64) as usize
    }

    /// How many bus cycles a fired [`FaultSite::BusStall`] costs.
    pub fn bus_stall_cycles(&self) -> u64 {
        self.plan.bus_stall_cycles
    }

    /// How many edges a fired [`FaultSite::IrqDelay`] postpones by.
    pub fn irq_delay_edges(&self) -> u64 {
        self.plan.irq_delay_edges
    }

    /// Opportunities seen at `site` so far.
    pub fn opportunities(&self, site: FaultSite) -> u64 {
        self.opportunities[site.index()]
    }

    /// Faults fired at `site` so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site.index()]
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: tiny, well-distributed, trivially reproducible.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires_and_counts_nothing() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..100 {
            assert!(!inj.roll(FaultSite::DmaCorrupt));
        }
        assert_eq!(inj.opportunities(FaultSite::DmaCorrupt), 0);
        assert_eq!(inj.total_fired(), 0);
    }

    #[test]
    fn same_seed_replays_the_same_pattern() {
        let plan = FaultPlan::new(42).rate(FaultSite::DmaCorrupt, 0.3);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let pa: Vec<bool> = (0..256).map(|_| a.roll(FaultSite::DmaCorrupt)).collect();
        let pb: Vec<bool> = (0..256).map(|_| b.roll(FaultSite::DmaCorrupt)).collect();
        assert_eq!(pa, pb);
        assert!(a.total_fired() > 0, "rate 0.3 over 256 rolls fires");
    }

    #[test]
    fn one_shot_fires_exactly_at_the_scheduled_opportunity() {
        let mut inj = FaultInjector::new(FaultPlan::new(1).once(FaultSite::DmaTimeout, 3));
        assert!(!inj.roll(FaultSite::DmaTimeout));
        assert!(!inj.roll(FaultSite::DmaTimeout));
        assert!(inj.roll(FaultSite::DmaTimeout));
        assert!(!inj.roll(FaultSite::DmaTimeout));
        assert_eq!(inj.fired(FaultSite::DmaTimeout), 1);
    }

    #[test]
    fn zero_rate_rolls_do_not_consume_prng_state() {
        // Interleaving zero-rate rolls must not change a live site's
        // outcome sequence: the PRNG is only consulted for sites that
        // can fire.
        let plan = FaultPlan::new(9).rate(FaultSite::DmaCorrupt, 0.5);
        let mut plain = FaultInjector::new(plan.clone());
        let mut interleaved = FaultInjector::new(plan);
        let a: Vec<bool> = (0..64).map(|_| plain.roll(FaultSite::DmaCorrupt)).collect();
        let b: Vec<bool> = (0..64)
            .map(|_| {
                assert!(!interleaved.roll(FaultSite::BusStall));
                interleaved.roll(FaultSite::DmaCorrupt)
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn target_filter_blocks_other_tags_but_still_counts_them() {
        let mut inj =
            FaultInjector::new(FaultPlan::new(3).target(1).rate(FaultSite::DmaCorrupt, 1.0));
        assert!(!inj.roll_tagged(FaultSite::DmaCorrupt, 2), "tag 2 filtered");
        assert!(inj.roll_tagged(FaultSite::DmaCorrupt, 1), "tag 1 fires");
        assert_eq!(inj.opportunities(FaultSite::DmaCorrupt), 2);
        assert_eq!(inj.fired(FaultSite::DmaCorrupt), 1);
    }

    #[test]
    fn rate_one_fires_every_opportunity() {
        let mut inj = FaultInjector::new(FaultPlan::new(5).rate(FaultSite::BitstreamLoad, 1.0));
        for _ in 0..10 {
            assert!(inj.roll(FaultSite::BitstreamLoad));
        }
        assert_eq!(inj.fired(FaultSite::BitstreamLoad), 10);
    }

    #[test]
    fn clean_bitstream_pass_rolls_once_per_pass() {
        let plan = FaultPlan::new(1)
            .once(FaultSite::BitstreamLoad, 1)
            .once(FaultSite::BitstreamLoad, 2);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.clean_bitstream_pass(4), Some(3));
        assert_eq!(inj.opportunities(FaultSite::BitstreamLoad), 3);
        let mut dead = FaultInjector::new(FaultPlan::new(1).rate(FaultSite::BitstreamLoad, 1.0));
        assert_eq!(dead.clean_bitstream_pass(0), None, "at least one pass");
        assert_eq!(dead.opportunities(FaultSite::BitstreamLoad), 1);
        assert_eq!(FaultInjector::disabled().clean_bitstream_pass(3), Some(1));
    }
}
