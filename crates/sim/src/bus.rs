//! AMBA AHB bus cost model.
//!
//! On the EPXA1, the ARM processor reaches the dual-port RAM (and the IMU
//! registers) through an AMBA Advanced High-performance Bus. The VIM's
//! page loads and write-backs are `memcpy`-like loops whose cost is
//! dominated by bus beats; this module turns "move N words between two
//! slaves" into a cycle count in the bus clock domain.
//!
//! The model implements the cost-relevant subset of AHB: single transfers
//! and INCR bursts, per-slave wait states, and one arbitration/address
//! phase per transaction.

use core::fmt;

use crate::time::Frequency;

/// Wait-state profile of an AHB slave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlaveProfile {
    /// Human-readable name (for reports).
    pub name: &'static str,
    /// Extra cycles on the first beat of a transaction.
    pub first_beat_wait: u32,
    /// Extra cycles on each subsequent beat of a burst.
    pub next_beat_wait: u32,
}

impl SlaveProfile {
    /// On-chip dual-port RAM: single-cycle data phase, no burst penalty.
    pub const DPRAM: SlaveProfile = SlaveProfile {
        name: "dpram",
        first_beat_wait: 0,
        next_beat_wait: 0,
    };

    /// SDRAM controller: CAS-latency-like first-beat cost, streaming after.
    pub const SDRAM: SlaveProfile = SlaveProfile {
        name: "sdram",
        first_beat_wait: 5,
        next_beat_wait: 0,
    };
}

impl fmt::Display for SlaveProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Kind of AHB transfer used for a block move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BurstKind {
    /// One address phase per word (`HTRANS = NONSEQ` each beat); this is
    /// what a straightforward kernel `memcpy` of uncached device memory
    /// produces and is the paper-era driver behaviour.
    Single,
    /// Incrementing burst of up to 16 beats (INCR16), one address phase
    /// per burst; models an optimised copy loop or DMA.
    Incr16,
}

/// The AHB cost model.
///
/// # Examples
///
/// ```
/// use vcop_sim::bus::{AhbBus, BurstKind, SlaveProfile};
/// use vcop_sim::time::Frequency;
///
/// let bus = AhbBus::new(Frequency::from_mhz(133));
/// let single = bus.transfer_cycles(64, SlaveProfile::DPRAM, BurstKind::Single);
/// let burst = bus.transfer_cycles(64, SlaveProfile::DPRAM, BurstKind::Incr16);
/// assert!(burst < single);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AhbBus {
    freq: Frequency,
}

impl AhbBus {
    /// Cycles of arbitration + address phase per transaction.
    const ARBITRATION: u64 = 1;

    /// Creates a bus model at the given clock with a one-cycle
    /// arbitration/address phase.
    pub fn new(freq: Frequency) -> Self {
        AhbBus { freq }
    }

    /// The bus clock.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// Cycle cost of moving `words` 32-bit words to or from `slave`.
    ///
    /// A value of `0` words costs nothing.
    pub fn transfer_cycles(&self, words: usize, slave: SlaveProfile, kind: BurstKind) -> u64 {
        if words == 0 {
            return 0;
        }
        let words = words as u64;
        match kind {
            BurstKind::Single => {
                // Per word: arbitration + address phase overlap modelled as
                // `ARBITRATION`, then 1 data cycle + first-beat waits.
                words * (Self::ARBITRATION + 1 + u64::from(slave.first_beat_wait))
            }
            BurstKind::Incr16 => {
                let full = words / 16;
                let tail = words % 16;
                let burst_cost = |beats: u64| -> u64 {
                    if beats == 0 {
                        return 0;
                    }
                    Self::ARBITRATION
                        + (1 + u64::from(slave.first_beat_wait))
                        + (beats - 1) * (1 + u64::from(slave.next_beat_wait))
                };
                full * burst_cost(16) + burst_cost(tail)
            }
        }
    }

    /// Cycle cost of a word-by-word copy between two slaves (read one,
    /// write the other), as the VIM's copy loops do. The CPU pipelines
    /// nothing here: paper-era `memcpy` through uncached mappings.
    pub fn copy_cycles(
        &self,
        words: usize,
        from: SlaveProfile,
        to: SlaveProfile,
        kind: BurstKind,
    ) -> u64 {
        self.transfer_cycles(words, from, kind) + self.transfer_cycles(words, to, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> AhbBus {
        AhbBus::new(Frequency::from_mhz(133))
    }

    #[test]
    fn zero_words_free() {
        assert_eq!(
            bus().transfer_cycles(0, SlaveProfile::DPRAM, BurstKind::Single),
            0
        );
        assert_eq!(
            bus().transfer_cycles(0, SlaveProfile::SDRAM, BurstKind::Incr16),
            0
        );
    }

    #[test]
    fn single_transfers_scale_linearly() {
        let b = bus();
        let one = b.transfer_cycles(1, SlaveProfile::DPRAM, BurstKind::Single);
        let ten = b.transfer_cycles(10, SlaveProfile::DPRAM, BurstKind::Single);
        assert_eq!(ten, one * 10);
        assert_eq!(one, 2); // arbitration 1 + data 1
    }

    #[test]
    fn sdram_first_beat_wait_applies() {
        let b = bus();
        assert_eq!(
            b.transfer_cycles(1, SlaveProfile::SDRAM, BurstKind::Single),
            1 + 1 + 5
        );
    }

    #[test]
    fn burst_amortises_arbitration() {
        let b = bus();
        // 16 words single: 16 × 2 = 32; burst: 1 + 1 + 15 = 17.
        assert_eq!(
            b.transfer_cycles(16, SlaveProfile::DPRAM, BurstKind::Single),
            32
        );
        assert_eq!(
            b.transfer_cycles(16, SlaveProfile::DPRAM, BurstKind::Incr16),
            17
        );
    }

    #[test]
    fn burst_with_tail() {
        let b = bus();
        // 20 words = one INCR16 (17) + tail of 4 (1 + 1 + 3 = 5).
        assert_eq!(
            b.transfer_cycles(20, SlaveProfile::DPRAM, BurstKind::Incr16),
            22
        );
    }

    #[test]
    fn copy_sums_both_sides() {
        let b = bus();
        let r = b.transfer_cycles(8, SlaveProfile::SDRAM, BurstKind::Single);
        let w = b.transfer_cycles(8, SlaveProfile::DPRAM, BurstKind::Single);
        assert_eq!(
            b.copy_cycles(
                8,
                SlaveProfile::SDRAM,
                SlaveProfile::DPRAM,
                BurstKind::Single
            ),
            r + w
        );
    }
}
