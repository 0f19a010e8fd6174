//! PLD resource accounting.
//!
//! The paper notes that "exploiting IDEA's parallelism in hardware was
//! limited by the limited PLD resources of the device used". The model
//! tracks the resource classes of Excalibur-era devices — logic elements
//! and embedded system block (ESB) memory bits — so that `FPGA_LOAD` can
//! reject cores that do not fit, and so that device-scaling ablations can
//! reason about what fits where.

use core::fmt;
use core::ops::{Add, AddAssign};

/// A bundle of PLD resources (requirement or capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Resources {
    /// Logic elements (4-input LUT + register).
    pub logic_elements: u32,
    /// Embedded memory bits (ESBs; also host the IMU's CAM).
    pub memory_bits: u32,
}

impl Resources {
    /// No resources.
    pub const ZERO: Resources = Resources {
        logic_elements: 0,
        memory_bits: 0,
    };

    /// Creates a bundle.
    pub const fn new(logic_elements: u32, memory_bits: u32) -> Self {
        Resources {
            logic_elements,
            memory_bits,
        }
    }

    /// Whether `self` (a requirement) fits within `capacity`.
    pub fn fits_in(&self, capacity: &Resources) -> bool {
        self.logic_elements <= capacity.logic_elements && self.memory_bits <= capacity.memory_bits
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            logic_elements: self.logic_elements + rhs.logic_elements,
            memory_bits: self.memory_bits + rhs.memory_bits,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LEs, {} memory bits",
            self.logic_elements, self.memory_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_requires_both_axes() {
        let cap = Resources::new(100, 1000);
        assert!(Resources::new(100, 1000).fits_in(&cap));
        assert!(!Resources::new(101, 0).fits_in(&cap));
        assert!(!Resources::new(0, 1001).fits_in(&cap));
        assert!(Resources::ZERO.fits_in(&cap));
    }

    #[test]
    fn addition() {
        let mut a = Resources::new(10, 20);
        a += Resources::new(1, 2);
        assert_eq!(a + Resources::new(9, 8), Resources::new(20, 30));
    }

    #[test]
    fn display_format() {
        assert_eq!(Resources::new(2, 3).to_string(), "2 LEs, 3 memory bits");
    }
}
