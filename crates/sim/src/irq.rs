//! Interrupt lines and a small interrupt controller.
//!
//! The IMU raises `INT_PLD` towards the ARM stripe when OS service is
//! required (translation fault or end of coprocessor operation). The
//! controller model keeps level-sensitive pending state per line and
//! counts deliveries — the VIM uses it to decide when a fault handler
//! invocation must be charged.

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
/// ic.raise(pld);
/// ic.acknowledge(pld);
/// assert_eq!(ic.delivered_count(pld), 1);
/// ```
#[derive(Debug, Clone)]
pub struct InterruptController {
    pending: Vec<bool>,
    delivered: Vec<u64>,
}

impl InterruptController {
    /// Creates a controller with `lines` lines, all idle.
    pub fn new(lines: usize) -> Self {
        InterruptController {
            pending: vec![false; lines],
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

    /// Times the line has been serviced (acknowledged).
    pub fn delivered_count(&self, line: IrqLine) -> u64 {
        self.delivered[self.check(line)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_is_level_sensitive() {
        let mut ic = InterruptController::new(1);
        let l = ic.line(0).unwrap();
        ic.raise(l);
        ic.raise(l);
        ic.raise(l);
        ic.acknowledge(l);
        assert_eq!(ic.delivered_count(l), 1);
        ic.acknowledge(l);
        assert_eq!(ic.delivered_count(l), 1, "one delivery per assertion");
        ic.raise(l);
        ic.acknowledge(l);
        assert_eq!(ic.delivered_count(l), 2);
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
