//! Clock domains and multi-clock edge scheduling.
//!
//! The modelled platform has several clock domains that are *not* phase
//! locked in general: the ARM stripe (133 MHz), the IMU / dual-port memory
//! clock (40 MHz for the adpcmdecode experiment, 24 MHz for IDEA) and the
//! coprocessor core clock (40 MHz and 6 MHz respectively). A
//! [`ClockDomain`] yields the absolute [`SimTime`] of successive rising
//! edges, and [`EdgeScheduler`] merges any number of domains into a single
//! time-ordered stream of edges, which is what the top-level simulation
//! loop consumes.

use crate::time::{Frequency, SimTime};

/// Identifier of a clock domain registered with an [`EdgeScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockId(pub(crate) usize);

impl ClockId {
    /// Index of this clock within its scheduler (registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A free-running clock that produces rising edges at a fixed period.
///
/// # Examples
///
/// ```
/// use vcop_sim::clock::ClockDomain;
/// use vcop_sim::time::{Frequency, SimTime};
///
/// let mut clk = ClockDomain::new(Frequency::from_mhz(40));
/// assert_eq!(clk.next_edge(), SimTime::ZERO);
/// clk.advance();
/// assert_eq!(clk.next_edge(), SimTime::from_ns(25));
/// ```
#[derive(Debug, Clone)]
pub struct ClockDomain {
    freq: Frequency,
    period: SimTime,
    next_edge: SimTime,
    edges_seen: u64,
}

impl ClockDomain {
    /// Creates a clock whose first rising edge is at time zero.
    pub fn new(freq: Frequency) -> Self {
        ClockDomain {
            freq,
            period: freq.period(),
            next_edge: SimTime::ZERO,
            edges_seen: 0,
        }
    }

    /// The clock frequency.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// The clock period.
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Absolute time of the next (not yet consumed) rising edge.
    pub fn next_edge(&self) -> SimTime {
        self.next_edge
    }

    /// Number of edges consumed so far.
    pub fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// Consumes the pending edge, moving to the next one, and returns the
    /// time of the consumed edge.
    pub fn advance(&mut self) -> SimTime {
        let t = self.next_edge;
        self.next_edge += self.period;
        self.edges_seen += 1;
        t
    }

    /// Skips edges until the next edge is strictly after `t`.
    ///
    /// Used when a component was stalled by the OS for a long interval and
    /// intermediate edges carry no observable behaviour.
    pub fn fast_forward_past(&mut self, t: SimTime) {
        if self.next_edge > t {
            return;
        }
        let gap = t.as_ps() - self.next_edge.as_ps();
        let skipped = gap / self.period.as_ps() + 1;
        self.next_edge = SimTime::from_ps(self.next_edge.as_ps() + skipped * self.period.as_ps());
        self.edges_seen += skipped;
    }

    /// Number of pending edges strictly before `t` — what
    /// [`ClockDomain::fast_forward_to`] would skip — without consuming
    /// them.
    pub fn edges_before(&self, t: SimTime) -> u64 {
        if self.next_edge >= t {
            return 0;
        }
        (t.as_ps() - 1 - self.next_edge.as_ps()) / self.period.as_ps() + 1
    }

    /// Skips (and counts as seen) every edge strictly *before* `t`,
    /// leaving the first edge at or after `t` pending. Returns the number
    /// of edges skipped.
    ///
    /// This is the bulk-skip primitive of the event kernel: the skipped
    /// edges are provably idle, and the edge at the skip horizon itself
    /// must still be simulated.
    pub fn fast_forward_to(&mut self, t: SimTime) -> u64 {
        let skipped = self.edges_before(t);
        if skipped > 0 {
            self.next_edge =
                SimTime::from_ps(self.next_edge.as_ps() + skipped * self.period.as_ps());
            self.edges_seen += skipped;
        }
        skipped
    }

    /// Consumes the next `n` edges in bulk — equivalent to `n` calls of
    /// [`ClockDomain::advance`] without per-edge bookkeeping. Used by the
    /// lean transaction engine, which knows the edge count of a fused
    /// span up front.
    pub fn consume_edges(&mut self, n: u64) {
        self.next_edge = SimTime::from_ps(self.next_edge.as_ps() + n * self.period.as_ps());
        self.edges_seen += n;
    }

    /// [`ClockDomain::edges_before`] tuned for spans known to be a
    /// handful of edges: counts by repeated addition (a few adds beat a
    /// 64-bit division on the hot path) and falls back to the dividing
    /// version for anything longer.
    pub fn edges_before_short(&self, t: SimTime) -> u64 {
        let period = self.period.as_ps();
        let t = t.as_ps();
        let mut edge = self.next_edge.as_ps();
        let mut n = 0u64;
        while edge < t {
            n += 1;
            if n == 8 {
                return self.edges_before(SimTime::from_ps(t));
            }
            edge += period;
        }
        n
    }
}

/// A merged, time-ordered stream of rising edges from several clocks.
///
/// Ties (simultaneous edges in different domains) are delivered in
/// registration order, which the platform model uses to give the IMU its
/// edge before the coprocessor on coincident edges — matching the paper's
/// setup where the IMU clock is the same as or an integer multiple of the
/// coprocessor clock.
#[derive(Debug, Clone, Default)]
pub struct EdgeScheduler {
    clocks: Vec<ClockDomain>,
}

impl EdgeScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        EdgeScheduler { clocks: Vec::new() }
    }

    /// Registers a clock and returns its id.
    pub fn add_clock(&mut self, clock: ClockDomain) -> ClockId {
        self.clocks.push(clock);
        ClockId(self.clocks.len() - 1)
    }

    /// Shared access to a registered clock.
    pub fn clock(&self, id: ClockId) -> &ClockDomain {
        &self.clocks[id.0]
    }

    /// Mutable access to a registered clock.
    pub fn clock_mut(&mut self, id: ClockId) -> &mut ClockDomain {
        &mut self.clocks[id.0]
    }

    /// Mutable access to two distinct clocks at once, so a hot loop can
    /// hold both without re-indexing every round.
    ///
    /// # Panics
    ///
    /// Panics if the ids are equal or out of range.
    pub fn pair_mut(&mut self, a: ClockId, b: ClockId) -> (&mut ClockDomain, &mut ClockDomain) {
        assert_ne!(a.0, b.0, "pair_mut needs two distinct clocks");
        if a.0 < b.0 {
            let (lo, hi) = self.clocks.split_at_mut(b.0);
            (&mut lo[a.0], &mut hi[0])
        } else {
            let (lo, hi) = self.clocks.split_at_mut(a.0);
            (&mut hi[0], &mut lo[b.0])
        }
    }

    /// Number of registered clocks.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Whether no clocks are registered.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Time of the earliest pending edge across all clocks, if any.
    pub fn peek(&self) -> Option<(SimTime, ClockId)> {
        self.clocks
            .iter()
            .enumerate()
            .map(|(i, c)| (c.next_edge(), ClockId(i)))
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)))
    }

    /// Consumes and returns the earliest pending edge.
    pub fn pop(&mut self) -> Option<(SimTime, ClockId)> {
        let (_, id) = self.peek()?;
        let t = self.clocks[id.0].advance();
        Some((t, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_periodic() {
        let mut clk = ClockDomain::new(Frequency::from_mhz(40));
        let mut times = Vec::new();
        for _ in 0..4 {
            times.push(clk.advance());
        }
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_ns(25),
                SimTime::from_ns(50),
                SimTime::from_ns(75),
            ]
        );
        assert_eq!(clk.edges_seen(), 4);
    }

    #[test]
    fn fast_forward_skips_edges() {
        let mut clk = ClockDomain::new(Frequency::from_mhz(40));
        clk.advance(); // consume edge at 0; next at 25 ns
        clk.fast_forward_past(SimTime::from_ns(100));
        assert_eq!(clk.next_edge(), SimTime::from_ns(125));
        // 25, 50, 75, 100 were skipped
        assert_eq!(clk.edges_seen(), 5);
    }

    #[test]
    fn fast_forward_to_leaves_horizon_edge_pending() {
        let mut clk = ClockDomain::new(Frequency::from_mhz(40));
        clk.advance(); // next at 25 ns
                       // Horizon exactly on an edge: 25/50/75 skipped, 100 pending.
        assert_eq!(clk.fast_forward_to(SimTime::from_ns(100)), 3);
        assert_eq!(clk.next_edge(), SimTime::from_ns(100));
        assert_eq!(clk.edges_seen(), 4);
        // Horizon between edges: 100 skipped, 125 pending.
        assert_eq!(clk.fast_forward_to(SimTime::from_ns(110)), 1);
        assert_eq!(clk.next_edge(), SimTime::from_ns(125));
        // Horizon at or before the pending edge: no-op.
        assert_eq!(clk.fast_forward_to(SimTime::from_ns(125)), 0);
        assert_eq!(clk.fast_forward_to(SimTime::from_ns(10)), 0);
        assert_eq!(clk.next_edge(), SimTime::from_ns(125));
    }

    #[test]
    fn fast_forward_noop_when_already_past() {
        let mut clk = ClockDomain::new(Frequency::from_mhz(40));
        clk.advance();
        clk.fast_forward_past(SimTime::from_ns(10));
        assert_eq!(clk.next_edge(), SimTime::from_ns(25));
    }

    #[test]
    fn scheduler_merges_in_time_order() {
        let mut sched = EdgeScheduler::new();
        let imu = sched.add_clock(ClockDomain::new(Frequency::from_mhz(24)));
        let cp = sched.add_clock(ClockDomain::new(Frequency::from_mhz(6)));

        // First two edges coincide at t=0: IMU (registered first) wins.
        let (t0, id0) = sched.pop().unwrap();
        let (t1, id1) = sched.pop().unwrap();
        assert_eq!((t0, id0), (SimTime::ZERO, imu));
        assert_eq!((t1, id1), (SimTime::ZERO, cp));

        // Then four IMU edges before the next coprocessor edge (the 4th
        // IMU edge lands 2 ps before the CP edge because periods truncate
        // to whole picoseconds; the long-run 4:1 ratio is exact).
        let mut imu_edges = 0;
        loop {
            let (_, id) = sched.pop().unwrap();
            if id == cp {
                break;
            }
            imu_edges += 1;
        }
        assert_eq!(imu_edges, 4);
    }

    #[test]
    fn scheduler_edge_ratio_over_window() {
        // 24 MHz vs 6 MHz: exactly 4:1 edges over any aligned window.
        let mut sched = EdgeScheduler::new();
        let fast = sched.add_clock(ClockDomain::new(Frequency::from_mhz(24)));
        let _slow = sched.add_clock(ClockDomain::new(Frequency::from_mhz(6)));
        let mut fast_count = 0u32;
        let mut slow_count = 0u32;
        for _ in 0..500 {
            let (_, id) = sched.pop().unwrap();
            if id == fast {
                fast_count += 1;
            } else {
                slow_count += 1;
            }
        }
        assert_eq!(fast_count, 400);
        assert_eq!(slow_count, 100);
    }
}
