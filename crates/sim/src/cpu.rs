//! ARM processor cost model.
//!
//! Pure-software baselines in the paper run on the 133 MHz ARM922T of the
//! EPXA1's ARM-stripe. Rather than emulating the ISA, the model executes
//! the *algorithms* natively (in Rust) while charging each primitive
//! operation a configurable ARM cycle cost through a [`CycleCounter`].
//! Summed cycles convert to wall-clock time through the CPU clock.
//!
//! The per-operation costs live in [`CostTable`]; the values of
//! [`CostTable::arm922`] follow the ARM9TDMI pipeline (single-cycle ALU,
//! interlocked loads, multi-cycle multiply) plus a uniform memory-system
//! penalty reflecting the paper-era board (caches disabled-ish uclinux
//! behaviour is *not* assumed — see `vcop-apps::timing` for how the final
//! calibration against the paper's published software numbers is done).

use core::fmt;

use crate::time::{Frequency, SimTime};

/// Cycle costs of primitive operations on the modelled CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostTable {
    /// Single ALU operation (add, sub, xor, shift).
    pub alu: u64,
    /// 32-bit multiply.
    pub mul: u64,
    /// Integer divide / modulo (software or slow hardware path).
    pub div: u64,
    /// Load from memory (average, including address generation).
    pub load: u64,
    /// Store to memory.
    pub store: u64,
    /// Taken branch / loop back-edge.
    pub branch: u64,
    /// Function call + return overhead.
    pub call: u64,
}

impl CostTable {
    /// ARM9-class costs used for the paper-calibrated software baselines.
    pub const fn arm922() -> Self {
        CostTable {
            alu: 1,
            mul: 4,
            div: 20,
            load: 3,
            store: 2,
            branch: 3,
            call: 8,
        }
    }

    /// A uniformly single-cycle machine, useful for counting operations
    /// rather than time in algorithm tests.
    pub const fn unit() -> Self {
        CostTable {
            alu: 1,
            mul: 1,
            div: 1,
            load: 1,
            store: 1,
            branch: 1,
            call: 1,
        }
    }
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable::arm922()
    }
}

/// Accumulates ARM cycles as an instrumented algorithm runs.
///
/// # Examples
///
/// ```
/// use vcop_sim::cpu::{CostTable, CycleCounter};
///
/// let mut cc = CycleCounter::new(CostTable::arm922());
/// cc.alu(2);
/// cc.load(1);
/// assert_eq!(cc.cycles(), 2 + 3);
/// ```
#[derive(Debug, Clone)]
pub struct CycleCounter {
    costs: CostTable,
    cycles: u64,
    /// Multiplier applied on read-out, in 1/1024 units (1024 = 1.0×).
    scale_millis: u64,
}

impl CycleCounter {
    /// Creates a counter with the given cost table and unit scale.
    pub fn new(costs: CostTable) -> Self {
        CycleCounter {
            costs,
            cycles: 0,
            scale_millis: 1024,
        }
    }

    /// Sets a global calibration multiplier (1024 = 1.0×). Algorithms
    /// count *architectural* operations; the multiplier absorbs compiler
    /// and memory-system slack when matching published absolute numbers.
    pub fn with_scale_1024(mut self, scale: u64) -> Self {
        self.scale_millis = scale;
        self
    }

    /// The cost table in effect.
    pub fn costs(&self) -> &CostTable {
        &self.costs
    }

    /// Raw accumulated (unscaled) cycles.
    pub fn raw_cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulated cycles with the calibration multiplier applied.
    pub fn cycles(&self) -> u64 {
        (self.cycles as u128 * self.scale_millis as u128 / 1024) as u64
    }

    /// Charges `n` ALU operations.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.cycles += n * self.costs.alu;
    }

    /// Charges `n` multiplies.
    #[inline]
    pub fn mul(&mut self, n: u64) {
        self.cycles += n * self.costs.mul;
    }

    /// Charges `n` divisions/modulo operations.
    #[inline]
    pub fn div(&mut self, n: u64) {
        self.cycles += n * self.costs.div;
    }

    /// Charges `n` loads.
    #[inline]
    pub fn load(&mut self, n: u64) {
        self.cycles += n * self.costs.load;
    }

    /// Charges `n` stores.
    #[inline]
    pub fn store(&mut self, n: u64) {
        self.cycles += n * self.costs.store;
    }

    /// Charges `n` taken branches.
    #[inline]
    pub fn branch(&mut self, n: u64) {
        self.cycles += n * self.costs.branch;
    }

    /// Charges `n` call/return pairs.
    #[inline]
    pub fn call(&mut self, n: u64) {
        self.cycles += n * self.costs.call;
    }

    /// Charges a raw cycle amount (e.g. a modelled library routine).
    #[inline]
    pub fn raw(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Resets the accumulator to zero (scale is retained).
    pub fn reset(&mut self) {
        self.cycles = 0;
    }
}

/// The CPU itself: a clock plus a cost table.
#[derive(Debug, Clone, Copy)]
pub struct ArmCpu {
    freq: Frequency,
    costs: CostTable,
}

impl ArmCpu {
    /// Creates a CPU model at `freq` with [`CostTable::arm922`] costs.
    pub fn new(freq: Frequency) -> Self {
        ArmCpu {
            freq,
            costs: CostTable::arm922(),
        }
    }

    /// The 133 MHz EPXA1 configuration.
    pub fn epxa1() -> Self {
        ArmCpu::new(Frequency::from_mhz(133))
    }

    /// The CPU clock.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// The cost table.
    pub fn costs(&self) -> &CostTable {
        &self.costs
    }

    /// Starts a fresh cycle counter bound to this CPU's cost table.
    pub fn counter(&self) -> CycleCounter {
        CycleCounter::new(self.costs)
    }

    /// Converts a cycle count into wall-clock time at this CPU's clock.
    pub fn cycles_to_time(&self, cycles: u64) -> SimTime {
        SimTime::from_ps(cycles.saturating_mul(self.freq.period().as_ps()))
    }
}

impl fmt::Display for ArmCpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ARM @ {}", self.freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_costed_ops() {
        let mut cc = CycleCounter::new(CostTable::arm922());
        cc.alu(10);
        cc.mul(2);
        cc.div(1);
        cc.load(3);
        cc.store(2);
        cc.branch(4);
        cc.call(1);
        cc.raw(7);
        let expect = 10 + 2 * 4 + 20 + 3 * 3 + 2 * 2 + 4 * 3 + 8 + 7;
        assert_eq!(cc.cycles(), expect);
        assert_eq!(cc.raw_cycles(), expect);
    }

    #[test]
    fn scale_applies_on_readout() {
        let mut cc = CycleCounter::new(CostTable::unit()).with_scale_1024(2048);
        cc.alu(100);
        assert_eq!(cc.raw_cycles(), 100);
        assert_eq!(cc.cycles(), 200);
    }

    #[test]
    fn fractional_scale() {
        let mut cc = CycleCounter::new(CostTable::unit()).with_scale_1024(1536); // 1.5×
        cc.alu(100);
        assert_eq!(cc.cycles(), 150); // floor(100 × 1536 / 1024)
    }

    #[test]
    fn reset_keeps_scale() {
        let mut cc = CycleCounter::new(CostTable::unit()).with_scale_1024(2048);
        cc.alu(5);
        cc.reset();
        assert_eq!(cc.cycles(), 0);
        cc.alu(5);
        assert_eq!(cc.cycles(), 10);
    }

    #[test]
    fn cpu_time_conversion() {
        let cpu = ArmCpu::epxa1();
        // 133 MHz period truncates to 7518 ps.
        assert_eq!(
            cpu.cycles_to_time(1_000_000),
            SimTime::from_ps(7_518_000_000)
        );
        assert_eq!(cpu.to_string(), "ARM @ 133 MHz");
    }

    #[test]
    fn cpu_counter_inherits_costs() {
        let mut cc = ArmCpu::epxa1().counter();
        cc.div(3);
        assert_eq!(cc.cycles(), 3 * CostTable::arm922().div);
    }

    #[test]
    fn saturating_time_conversion() {
        let cpu = ArmCpu::epxa1();
        assert_eq!(cpu.cycles_to_time(u64::MAX), SimTime::MAX);
    }
}
