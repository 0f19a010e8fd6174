//! SDRAM timing model.
//!
//! The EPXA1 board carries 64 MB of SDRAM holding the Linux user-space
//! memory that mapped objects live in. When the VIM loads or writes back
//! a page, the data crosses the AHB into this SDRAM; the model below
//! produces a cycle cost for such transfers, accounting for row
//! activation, CAS latency and burst continuation — enough fidelity for
//! the execution-time decomposition in the paper's figures without
//! simulating DRAM state per bit.

use crate::error::SimError;
use crate::time::Frequency;

/// Timing parameters of the SDRAM device and controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdramConfig {
    /// Memory clock.
    pub freq: Frequency,
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Bytes per row (page) of the DRAM array.
    pub row_bytes: usize,
    /// Cycles to activate a row (tRCD).
    pub t_rcd: u32,
    /// Cycles to precharge before activating another row (tRP).
    pub t_rp: u32,
    /// CAS latency in cycles (first datum of a burst).
    pub cas_latency: u32,
    /// Cycles per subsequent word within an open-row burst.
    pub burst_word: u32,
}

impl SdramConfig {
    /// The 64 MB, 133 MHz part of the EPXA1 board with typical PC133-class
    /// timings (CL3, tRCD = tRP = 3).
    pub fn epxa1() -> Self {
        SdramConfig {
            freq: Frequency::from_mhz(133),
            capacity: 64 * 1024 * 1024,
            row_bytes: 1024,
            t_rcd: 3,
            t_rp: 3,
            cas_latency: 3,
            burst_word: 1,
        }
    }
}

/// Open-row tracking SDRAM cost model.
///
/// The model does not store data (user-space contents are held by the VIM
/// as ordinary Rust buffers); it only answers "how many memory-clock
/// cycles does this access stream cost?", which is what the OS-overhead
/// accounting needs.
///
/// # Examples
///
/// ```
/// use vcop_sim::mem::{SdramConfig, SdramModel};
///
/// let mut sdram = SdramModel::new(SdramConfig::epxa1());
/// let first = sdram.access_cycles(0, 1);
/// let next = sdram.access_cycles(4, 1);
/// assert!(first > next, "row hit must be cheaper than row open");
/// ```
#[derive(Debug, Clone)]
pub struct SdramModel {
    config: SdramConfig,
    open_row: Option<usize>,
}

impl SdramModel {
    /// Creates a model with all banks precharged (no open row).
    pub fn new(config: SdramConfig) -> Self {
        SdramModel {
            config,
            open_row: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SdramConfig {
        &self.config
    }

    /// Forgets the open row (e.g. after a refresh or a long idle period).
    pub fn precharge_all(&mut self) {
        self.open_row = None;
    }

    /// Cycle cost of accessing `words` consecutive 32-bit words starting
    /// at byte address `addr`, updating the open-row state.
    ///
    /// Accesses that cross row boundaries pay an activation per row
    /// crossed. `words == 0` costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the configured capacity.
    pub fn access_cycles(&mut self, addr: usize, words: usize) -> u64 {
        if words == 0 {
            return 0;
        }
        let end = addr + words * 4;
        assert!(
            end <= self.config.capacity,
            "SDRAM access [{addr:#x}, {end:#x}) exceeds capacity {:#x}",
            self.config.capacity
        );
        let mut cycles = 0u64;
        let mut a = addr;
        let mut remaining = words;
        while remaining > 0 {
            let row = a / self.config.row_bytes;
            let row_end = (row + 1) * self.config.row_bytes;
            let words_in_row = ((row_end - a) / 4).min(remaining);
            if self.open_row != Some(row) {
                if self.open_row.is_some() {
                    cycles += u64::from(self.config.t_rp);
                }
                cycles += u64::from(self.config.t_rcd);
                self.open_row = Some(row);
            }
            cycles += u64::from(self.config.cas_latency)
                + u64::from(self.config.burst_word) * (words_in_row as u64 - 1);
            a += words_in_row * 4;
            remaining -= words_in_row;
        }
        cycles
    }

    /// Validates that a buffer of `len` bytes fits at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AddressOutOfRange`] if it does not.
    pub fn check_range(&self, addr: usize, len: usize) -> Result<(), SimError> {
        if addr
            .checked_add(len)
            .is_none_or(|end| end > self.config.capacity)
        {
            return Err(SimError::AddressOutOfRange {
                addr: addr as u64,
                size: self.config.capacity as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SdramModel {
        SdramModel::new(SdramConfig::epxa1())
    }

    #[test]
    fn single_word_costs_activation_plus_cas() {
        let mut m = model();
        // No open row: tRCD + CL = 3 + 3.
        assert_eq!(m.access_cycles(0, 1), 6);
    }

    #[test]
    fn row_hit_is_cheaper() {
        let mut m = model();
        m.access_cycles(0, 1);
        // Open row: just CL.
        assert_eq!(m.access_cycles(4, 1), 3);
    }

    #[test]
    fn row_switch_pays_precharge() {
        let mut m = model();
        m.access_cycles(0, 1);
        // Different row: tRP + tRCD + CL = 3 + 3 + 3.
        assert_eq!(m.access_cycles(4096, 1), 9);
    }

    #[test]
    fn burst_within_row() {
        let mut m = model();
        // 16 words in one row: tRCD + CL + 15 × burst_word = 3 + 3 + 15.
        assert_eq!(m.access_cycles(0, 16), 21);
    }

    #[test]
    fn burst_crossing_rows() {
        let mut m = model();
        // Row is 1024 bytes = 256 words; access 512 words from 0:
        // row 0: 3 + 3 + 255 = 261; row 1 (switch, already open row 0):
        // 3 + 3 + 3 + 255 = 264; total 525.
        assert_eq!(m.access_cycles(0, 512), 525);
    }

    #[test]
    fn zero_words_free() {
        let mut m = model();
        assert_eq!(m.access_cycles(0, 0), 0);
    }

    #[test]
    fn precharge_forgets_row() {
        let mut m = model();
        m.access_cycles(0, 1);
        m.precharge_all();
        assert_eq!(m.access_cycles(4, 1), 6); // activation again, no tRP
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn capacity_enforced() {
        let mut m = model();
        let cap = m.config().capacity;
        m.access_cycles(cap - 4, 2);
    }

    #[test]
    fn check_range_overflow_safe() {
        let m = model();
        assert!(m.check_range(0, 64).is_ok());
        assert!(m.check_range(usize::MAX, 1).is_err());
        assert!(m.check_range(64 * 1024 * 1024, 1).is_err());
    }
}
