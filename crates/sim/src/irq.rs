//! Interrupt lines and a small interrupt controller.
//!
//! The IMU raises `INT_PLD` towards the ARM stripe when OS service is
//! required (translation fault or end of coprocessor operation). The
//! controller model keeps level-sensitive pending state per line, an
//! enable mask, and counts deliveries — the VIM uses it to decide when a
//! fault handler invocation must be charged.

use core::fmt;

/// Identifier of an interrupt line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IrqLine(pub usize);

impl fmt::Display for IrqLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "irq{}", self.0)
    }
}

/// Level-sensitive interrupt controller.
///
/// # Examples
///
/// ```
/// use vcop_sim::irq::InterruptController;
///
/// let mut ic = InterruptController::new(4);
/// let pld = ic.line(0).expect("line 0 exists");
/// ic.enable(pld);
/// ic.raise(pld);
/// assert_eq!(ic.next_pending(), Some(pld));
/// ic.acknowledge(pld);
/// assert_eq!(ic.next_pending(), None);
/// ```
#[derive(Debug, Clone)]
pub struct InterruptController {
    pending: Vec<bool>,
    enabled: Vec<bool>,
    delivered: Vec<u64>,
}

impl InterruptController {
    /// Creates a controller with `lines` lines, all masked and idle.
    pub fn new(lines: usize) -> Self {
        InterruptController {
            pending: vec![false; lines],
            enabled: vec![false; lines],
            delivered: vec![0; lines],
        }
    }

    /// Returns the handle of line `n`, if it exists.
    pub fn line(&self, n: usize) -> Option<IrqLine> {
        (n < self.pending.len()).then_some(IrqLine(n))
    }

    fn check(&self, line: IrqLine) -> usize {
        assert!(line.0 < self.pending.len(), "{line} out of range");
        line.0
    }

    /// Unmasks a line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range (all `IrqLine` handles obtained
    /// from [`InterruptController::line`] are in range).
    pub fn enable(&mut self, line: IrqLine) {
        let i = self.check(line);
        self.enabled[i] = true;
    }

    /// Asserts a line (idempotent while already pending).
    pub fn raise(&mut self, line: IrqLine) {
        let i = self.check(line);
        self.pending[i] = true;
    }

    /// Deasserts a line after the handler serviced the device.
    pub fn acknowledge(&mut self, line: IrqLine) {
        let i = self.check(line);
        if self.pending[i] {
            self.pending[i] = false;
            self.delivered[i] += 1;
        }
    }

    /// Highest-priority (lowest-numbered) pending *and enabled* line.
    pub fn next_pending(&self) -> Option<IrqLine> {
        self.pending
            .iter()
            .zip(&self.enabled)
            .position(|(&p, &e)| p && e)
            .map(IrqLine)
    }

    /// Times the line has been serviced (acknowledged).
    pub fn delivered_count(&self, line: IrqLine) -> u64 {
        self.delivered[self.check(line)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_lines_do_not_deliver() {
        let mut ic = InterruptController::new(2);
        let l0 = ic.line(0).unwrap();
        ic.raise(l0);
        assert_eq!(ic.next_pending(), None);
        ic.enable(l0);
        assert_eq!(ic.next_pending(), Some(l0));
    }

    #[test]
    fn priority_is_lowest_line_first() {
        let mut ic = InterruptController::new(3);
        for n in 0..3 {
            let l = ic.line(n).unwrap();
            ic.enable(l);
        }
        ic.raise(ic.line(2).unwrap());
        ic.raise(ic.line(1).unwrap());
        assert_eq!(ic.next_pending(), Some(IrqLine(1)));
    }

    #[test]
    fn raise_is_level_sensitive() {
        let mut ic = InterruptController::new(1);
        let l = ic.line(0).unwrap();
        ic.enable(l);
        ic.raise(l);
        ic.raise(l);
        ic.raise(l);
        ic.acknowledge(l);
        assert_eq!(ic.next_pending(), None);
        assert_eq!(ic.delivered_count(l), 1);
        ic.raise(l);
        assert_eq!(ic.next_pending(), Some(l));
    }

    #[test]
    fn acknowledge_without_pending_is_noop() {
        let mut ic = InterruptController::new(1);
        let l = ic.line(0).unwrap();
        ic.acknowledge(l);
        assert_eq!(ic.delivered_count(l), 0);
    }

    #[test]
    fn line_lookup_bounds() {
        let ic = InterruptController::new(2);
        assert!(ic.line(1).is_some());
        assert!(ic.line(2).is_none());
    }
}
