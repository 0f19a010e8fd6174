//! Operation-counting hook for instrumented software references.
//!
//! The pure-software baselines of the paper run on the ARM stripe; the
//! model executes the same algorithms natively while charging each
//! primitive operation through an [`OpCounter`]. Implementing the trait
//! for `()` lets the very same code run uninstrumented (e.g. inside the
//! hardware FSMs, where the cost is carried by clock cycles instead).

use vcop_sim::cpu::CycleCounter;

/// Receives architectural operation counts from an instrumented
/// algorithm.
///
/// All methods default to no-ops so `()` can serve as the zero-cost
/// uninstrumented sink.
pub trait OpCounter {
    /// `n` ALU operations (add, sub, xor, shift, compare).
    #[inline]
    fn alu(&mut self, n: u64) {
        let _ = n;
    }
    /// `n` multiplies.
    #[inline]
    fn mul(&mut self, n: u64) {
        let _ = n;
    }
    /// `n` divisions or modulo operations.
    #[inline]
    fn div(&mut self, n: u64) {
        let _ = n;
    }
    /// `n` memory loads.
    #[inline]
    fn load(&mut self, n: u64) {
        let _ = n;
    }
    /// `n` memory stores.
    #[inline]
    fn store(&mut self, n: u64) {
        let _ = n;
    }
    /// `n` taken branches.
    #[inline]
    fn branch(&mut self, n: u64) {
        let _ = n;
    }
    /// `n` call/return pairs.
    #[inline]
    fn call(&mut self, n: u64) {
        let _ = n;
    }
}

/// The uninstrumented sink: every charge vanishes.
impl OpCounter for () {}

/// Forwards charges to a [`CycleCounter`] with its cost table.
impl OpCounter for CycleCounter {
    #[inline]
    fn alu(&mut self, n: u64) {
        CycleCounter::alu(self, n);
    }
    #[inline]
    fn mul(&mut self, n: u64) {
        CycleCounter::mul(self, n);
    }
    #[inline]
    fn div(&mut self, n: u64) {
        CycleCounter::div(self, n);
    }
    #[inline]
    fn load(&mut self, n: u64) {
        CycleCounter::load(self, n);
    }
    #[inline]
    fn store(&mut self, n: u64) {
        CycleCounter::store(self, n);
    }
    #[inline]
    fn branch(&mut self, n: u64) {
        CycleCounter::branch(self, n);
    }
    #[inline]
    fn call(&mut self, n: u64) {
        CycleCounter::call(self, n);
    }
}

/// Counts each operation category on its own, so tests can check that a
/// rewritten kernel charges exactly what its reference charges — a
/// [`CycleCounter`] sum could hide a charge moved between categories
/// of equal cost.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OpTally {
    pub alu: u64,
    pub mul: u64,
    pub div: u64,
    pub load: u64,
    pub store: u64,
    pub branch: u64,
    pub call: u64,
}

#[cfg(test)]
impl OpCounter for OpTally {
    fn alu(&mut self, n: u64) {
        self.alu += n;
    }
    fn mul(&mut self, n: u64) {
        self.mul += n;
    }
    fn div(&mut self, n: u64) {
        self.div += n;
    }
    fn load(&mut self, n: u64) {
        self.load += n;
    }
    fn store(&mut self, n: u64) {
        self.store += n;
    }
    fn branch(&mut self, n: u64) {
        self.branch += n;
    }
    fn call(&mut self, n: u64) {
        self.call += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcop_sim::cpu::CostTable;

    fn charge<C: OpCounter>(c: &mut C) {
        c.alu(3);
        c.mul(1);
        c.load(2);
        c.store(1);
        c.branch(1);
        c.call(1);
        c.div(1);
    }

    #[test]
    fn unit_sink_compiles_and_costs_nothing() {
        charge(&mut ());
    }

    #[test]
    fn cycle_counter_receives_charges() {
        let mut cc = CycleCounter::new(CostTable::unit());
        charge(&mut cc);
        assert_eq!(cc.cycles(), 3 + 1 + 2 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn tally_counts_each_category() {
        let mut t = OpTally::default();
        charge(&mut t);
        charge(&mut t);
        let expect = OpTally {
            alu: 6,
            mul: 2,
            div: 2,
            load: 4,
            store: 2,
            branch: 2,
            call: 2,
        };
        assert_eq!(t, expect);
    }
}
