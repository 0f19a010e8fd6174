//! Execution reports: the time decomposition of the paper's figures.
//!
//! Figures 8 and 9 stack three components for each VIM-based run —
//! hardware execution time (`HW`), dual-port RAM management (`SW (DP)`),
//! and IMU management (`SW (IMU)`) — next to a pure-software bar. An
//! [`ExecutionReport`] carries exactly those components plus the event
//! counts behind them.

use core::fmt;

use vcop_sim::histogram::LatencyHistogram;
use vcop_sim::time::SimTime;

/// Timing and event summary of one `FPGA_EXECUTE`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Wall-clock duration of the operation (syscalls, coprocessor run
    /// with its stalls, and end-of-operation service). Equal to
    /// `hw + sw_dp + sw_imu + recovery_time` unless overlapped prefetch
    /// hid some CPU work under hardware execution.
    pub wall: SimTime,
    /// Time spent in the coprocessor and the IMU (computation, memory
    /// accesses and address translations) — the figures' `HW` component.
    pub hw: SimTime,
    /// OS time transferring data between user space and the dual-port
    /// memory — the figures' `SW (DP)` component (includes the
    /// `FPGA_EXECUTE` parameter staging).
    pub sw_dp: SimTime,
    /// OS time decoding faults and maintaining the translation table —
    /// the figures' `SW (IMU)` component (includes syscall entry).
    pub sw_imu: SimTime,
    /// Setup portion (syscalls + parameter staging) for reference; its
    /// time is already contained in the two `sw_*` buckets.
    pub setup: SimTime,
    /// Bus time of DMA transfers hidden underneath coprocessor
    /// execution by overlapped paging (prefetches and write-backs the
    /// coprocessor never waited on). Not part of the serial
    /// `hw + sw_dp + sw_imu` sum.
    pub dma_hidden: SimTime,
    /// DMA transfers submitted by overlapped paging.
    pub dma_transfers: u64,
    /// Translation faults serviced.
    pub faults: u64,
    /// Pages copied user → dual-port RAM.
    pub page_loads: u64,
    /// Pages copied dual-port RAM → user.
    pub page_writebacks: u64,
    /// Frames reclaimed by eviction.
    pub evictions: u64,
    /// Pages loaded speculatively.
    pub prefetches: u64,
    /// Successful datapath translations.
    pub tlb_hits: u64,
    /// Datapath translation misses.
    pub tlb_misses: u64,
    /// Coprocessor clock edges consumed.
    pub cp_cycles: u64,
    /// IMU clock edges consumed.
    pub imu_edges: u64,
    /// Distribution of per-fault coprocessor stall times.
    pub fault_latency: LatencyHistogram,
    /// Hardware execution attempts (1 = clean first run; 0 when the
    /// recovery layer is disabled and the counter is not kept).
    pub execute_attempts: u64,
    /// Faults the injector fired during the successful attempt and all
    /// failed ones.
    pub injected_faults: u64,
    /// Page transfers redone after an injected corruption or timeout.
    pub transfer_retries: u64,
    /// Translation misses whose interrupt was lost, found latched in
    /// `SR.fault` by the watchdog's status poll and served in place.
    pub lost_irqs_polled: u64,
    /// DMA transfers re-submitted after their deadline expired (a lost
    /// descriptor), within the transfer retry budget.
    pub lost_transfers_resubmitted: u64,
    /// Times the watchdog reset the fabric before this result.
    pub watchdog_resets: u64,
    /// Wall time spent recovering (already included in `wall`): failed
    /// hardware attempts, fabric resets and retry backoff, plus the
    /// time recovered in place — the detection window of a lost
    /// interrupt and the deadlines of lost transfers the coprocessor
    /// waited on.
    pub recovery_time: SimTime,
    /// The result was computed by the registered software fallback
    /// after hardware recovery was exhausted. The bytes delivered to
    /// the application are still correct.
    pub fallback_taken: bool,
}

impl ExecutionReport {
    /// Total (wall-clock) execution time. Without overlapped prefetch
    /// this equals [`ExecutionReport::cpu_and_hw_time`]; with it, the
    /// difference is [`ExecutionReport::overlap_saved`].
    pub fn total(&self) -> SimTime {
        self.wall
    }

    /// Sum of the three serial components `HW + SW (DP) + SW (IMU)` —
    /// the stacked bar of the paper's figures.
    pub fn cpu_and_hw_time(&self) -> SimTime {
        self.hw + self.sw_dp + self.sw_imu
    }

    /// CPU work hidden under hardware execution by overlapped prefetch.
    pub fn overlap_saved(&self) -> SimTime {
        self.cpu_and_hw_time().saturating_sub(self.wall)
    }

    /// Speedup of this run relative to a baseline duration
    /// (`baseline / self.total()`).
    pub fn speedup_vs(&self, baseline: SimTime) -> f64 {
        baseline.as_ps() as f64 / self.total().as_ps() as f64
    }

    /// Fraction of total time spent in IMU management — the paper
    /// reports "up to 2.5% of the total execution time".
    pub fn imu_overhead_fraction(&self) -> f64 {
        self.sw_imu.as_ps() as f64 / self.total().as_ps() as f64
    }

    /// Fraction of total time spent in dual-port RAM management.
    pub fn dp_overhead_fraction(&self) -> f64 {
        self.sw_dp.as_ps() as f64 / self.total().as_ps() as f64
    }

    /// TLB hit rate of the datapath (1.0 when everything was resident).
    pub fn tlb_hit_rate(&self) -> f64 {
        let lookups = self.tlb_hits + self.tlb_misses;
        if lookups == 0 {
            1.0
        } else {
            self.tlb_hits as f64 / lookups as f64
        }
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total     {}", self.total())?;
        if self.overlap_saved() > SimTime::ZERO {
            writeln!(f, "  (overlap hid {} of CPU work)", self.overlap_saved())?;
        }
        if self.dma_hidden > SimTime::ZERO {
            writeln!(
                f,
                "  (DMA moved pages for {} under execution, {} transfers)",
                self.dma_hidden, self.dma_transfers
            )?;
        }
        writeln!(f, "  HW      {}", self.hw)?;
        writeln!(f, "  SW (DP) {}", self.sw_dp)?;
        writeln!(f, "  SW (IMU){}", self.sw_imu)?;
        writeln!(
            f,
            "faults {}  loads {}  writebacks {}  evictions {}  prefetches {}",
            self.faults, self.page_loads, self.page_writebacks, self.evictions, self.prefetches
        )?;
        writeln!(
            f,
            "tlb {}/{} hits  cp_cycles {}  imu_edges {}",
            self.tlb_hits,
            self.tlb_hits + self.tlb_misses,
            self.cp_cycles,
            self.imu_edges
        )?;
        if self.injected_faults > 0 || self.watchdog_resets > 0 || self.fallback_taken {
            writeln!(
                f,
                "recovery: {} attempt(s), {} injected fault(s), {} retry(ies), \
                 {} polled IRQ(s), {} re-submitted transfer(s), \
                 {} watchdog reset(s), {} lost to recovery{}",
                self.execute_attempts,
                self.injected_faults,
                self.transfer_retries,
                self.lost_irqs_polled,
                self.lost_transfers_resubmitted,
                self.watchdog_resets,
                self.recovery_time,
                if self.fallback_taken {
                    " — served by software fallback"
                } else {
                    ""
                }
            )?;
        }
        write!(f, "fault stall {}", self.fault_latency)
    }
}

/// Report of a baseline run (pure software or typical coprocessor).
#[derive(Debug, Clone, Default)]
pub struct BaselineReport {
    /// Hardware execution time (zero for pure software).
    pub hw: SimTime,
    /// Software / data-management time.
    pub sw: SimTime,
    /// Coprocessor clock edges (zero for pure software).
    pub cp_cycles: u64,
}

impl BaselineReport {
    /// Total execution time.
    pub fn total(&self) -> SimTime {
        self.hw + self.sw
    }
}

impl fmt::Display for BaselineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total {} (HW {}, SW {})", self.total(), self.hw, self.sw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            wall: SimTime::from_us(9250),
            hw: SimTime::from_ms(8),
            sw_dp: SimTime::from_ms(1),
            sw_imu: SimTime::from_us(250),
            faults: 12,
            tlb_hits: 990,
            tlb_misses: 10,
            ..Default::default()
        }
    }

    #[test]
    fn totals_and_fractions() {
        let r = report();
        assert_eq!(r.total(), SimTime::from_us(9250));
        assert_eq!(r.cpu_and_hw_time(), r.total());
        assert_eq!(r.overlap_saved(), SimTime::ZERO);
        assert!((r.imu_overhead_fraction() - 0.25 / 9.25).abs() < 1e-9);
        assert!((r.dp_overhead_fraction() - 1.0 / 9.25).abs() < 1e-9);
        assert!((r.tlb_hit_rate() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn speedup() {
        let r = report();
        let s = r.speedup_vs(SimTime::from_ms(37));
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_hit_rate_is_one() {
        assert_eq!(ExecutionReport::default().tlb_hit_rate(), 1.0);
    }

    #[test]
    fn display_prints_observed_stall_percentiles() {
        let stalls = [41, 37, 142, 38, 52, 39, 40].map(SimTime::from_us);
        let mut r = report();
        for &s in &stalls {
            r.fault_latency.record(s);
        }
        let text = r.to_string();
        for key in ["p50=", "p90=", "p99="] {
            assert!(
                stalls.iter().any(|s| text.contains(&format!("{key}{s} "))),
                "{key} is not a recorded stall in {text:?}"
            );
        }
        assert!(text.contains("p50=40.000 us p90=142.000 us"), "{text}");
    }

    #[test]
    fn displays() {
        let r = report();
        let s = r.to_string();
        assert!(s.contains("SW (DP)"));
        assert!(s.contains("faults 12"));
        let b = BaselineReport {
            hw: SimTime::from_ms(1),
            sw: SimTime::from_ms(2),
            cp_cycles: 5,
        };
        assert_eq!(b.total(), SimTime::from_ms(3));
        assert!(b.to_string().contains("total"));
    }
}
