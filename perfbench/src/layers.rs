//! Modeled per-layer sums: where the simulated platform's time went.

use std::ops::AddAssign;

use vcop::ExecutionReport;

macro_rules! layers {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)*) => {
        /// Per-layer modeled counts and times (picoseconds), summed over
        /// the requests of a pass. Fields a report does not expose for
        /// a mode stay zero.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Layers {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl AddAssign for Layers {
            fn add_assign(&mut self, o: Layers) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

layers! {
    /// Coprocessor + IMU time (the figures' `HW`); fabric busy time for
    /// multi-tenant requests.
    hw_ps: u64,
    /// Coprocessor clock edges.
    cp_cycles: u64,
    /// Datapath translation hits.
    tlb_hits: u64,
    /// Datapath translation misses.
    tlb_misses: u64,
    /// IMU clock edges (single-tenant reports only).
    imu_edges: u64,
    /// OS time in IMU management (`SW (IMU)`).
    sw_imu_ps: u64,
    /// Translation faults serviced.
    faults: u64,
    /// Pages copied into the dual-port RAM.
    page_loads: u64,
    /// Pages copied back to user memory.
    page_writebacks: u64,
    /// Frames reclaimed by eviction.
    evictions: u64,
    /// Speculative page loads.
    prefetches: u64,
    /// OS time moving data (`SW (DP)`).
    sw_dp_ps: u64,
    /// Summed coprocessor stall per fault.
    fault_stall_ps: u64,
    /// Faults behind `fault_stall_ps`.
    fault_stalls: u64,
    /// DMA transfers submitted.
    dma_transfers: u64,
    /// DMA bus time hidden under execution (single-tenant reports only).
    dma_hidden_ps: u64,
    /// CPU work hidden under execution by overlap (single-tenant
    /// reports only).
    overlap_saved_ps: u64,
    /// Fabric context switches.
    ctx_switches: u64,
    /// CPU time in context switches.
    ctx_switch_ps: u64,
    /// Frames stolen across address spaces.
    cross_asid_steals: u64,
    /// Tenant time parked on demand transfers.
    stall_ps: u64,
    /// Hardware execution attempts.
    attempts: u64,
    /// Faults the injector fired.
    injected_faults: u64,
    /// Page transfers redone after corruption.
    transfer_retries: u64,
    /// Watchdog fabric resets.
    watchdog_resets: u64,
    /// Wall time lost to failed attempts, resets and backoff.
    recovery_ps: u64,
    /// Requests served by the software fallback.
    fallbacks: u64,
    /// Fallback requests' wall minus their recovery time.
    fallback_ps: u64,
    /// Hardware-served requests' `wall − (hw + sw_dp + sw_imu +
    /// recovery_time)`; negative when overlap hid CPU work.
    unattributed_ps: i64,
}

impl Layers {
    /// The layers of one single-tenant `FPGA_EXECUTE` report.
    pub fn from_report(r: &ExecutionReport) -> Layers {
        let ps = |t: vcop_sim::time::SimTime| t.as_ps();
        let accounted = r.hw + r.sw_dp + r.sw_imu + r.recovery_time;
        Layers {
            hw_ps: ps(r.hw),
            cp_cycles: r.cp_cycles,
            tlb_hits: r.tlb_hits,
            tlb_misses: r.tlb_misses,
            imu_edges: r.imu_edges,
            sw_imu_ps: ps(r.sw_imu),
            faults: r.faults,
            page_loads: r.page_loads,
            page_writebacks: r.page_writebacks,
            evictions: r.evictions,
            prefetches: r.prefetches,
            sw_dp_ps: ps(r.sw_dp),
            fault_stall_ps: ps(r.fault_latency.sum()),
            fault_stalls: r.fault_latency.count(),
            dma_transfers: r.dma_transfers,
            dma_hidden_ps: ps(r.dma_hidden),
            overlap_saved_ps: ps(r.overlap_saved()),
            attempts: r.execute_attempts,
            injected_faults: r.injected_faults,
            transfer_retries: r.transfer_retries,
            watchdog_resets: r.watchdog_resets,
            recovery_ps: ps(r.recovery_time),
            fallbacks: u64::from(r.fallback_taken),
            fallback_ps: if r.fallback_taken {
                ps(r.wall.saturating_sub(r.recovery_time))
            } else {
                0
            },
            unattributed_ps: if r.fallback_taken {
                0
            } else {
                ps(r.wall) as i64 - ps(accounted) as i64
            },
            ..Layers::default()
        }
    }
}
