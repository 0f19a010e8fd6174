//! The measurement loop and the metrics it yields.

use std::time::{Duration, Instant};

use vcop_sim::time::SimTime;

use crate::layers::Layers;
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{Unit, Workload};

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one timed loop observed.
#[derive(Debug)]
pub struct Measured {
    /// The units of the deterministic first pass.
    pub pass: Vec<Unit>,
    /// Host seconds of the first pass.
    pub pass_seconds: f64,
    /// Host seconds of the whole loop.
    pub seconds: f64,
    /// Units served over the whole loop.
    pub units: u64,
    /// Requests attempted over the whole loop.
    pub attempted: u64,
    /// Requests that failed over the whole loop.
    pub failed: u64,
    /// Requests that reported success with wrong or missing bytes.
    pub wrong: u64,
    /// The unit after which the workload could serve no more, and why.
    pub halted: Option<(u64, String)>,
    /// Requests per unit.
    pub requests_per_unit: u64,
    /// Coprocessor cycles simulated over the whole loop.
    pub cp_cycles: u64,
    /// One-off modeled configuration time.
    pub config: SimTime,
}

impl Measured {
    /// Verified requests per host second over the whole loop. A mean,
    /// not a median of units: on `adpcm_faults` a request's host cost
    /// depends on the faults it draws, so the mean over many requests
    /// is the steadier figure.
    pub fn host_requests_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.seconds
    }

    /// Failed requests over requests attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Serves units of `w` until the first pass is complete and `run`
/// has elapsed.
pub fn measure(w: &mut dyn Workload, run: Duration, tr: &mut Tracer) -> Measured {
    let pass_units = w.units_per_pass();
    let mut m = Measured {
        pass: Vec::with_capacity(pass_units),
        pass_seconds: 0.0,
        seconds: 0.0,
        units: 0,
        attempted: 0,
        failed: 0,
        wrong: 0,
        halted: None,
        requests_per_unit: w.requests_per_unit(),
        cp_cycles: 0,
        config: SimTime::ZERO,
    };
    let start = Instant::now();
    while m.pass.len() < pass_units || start.elapsed() < run {
        let u = w.serve(m.units, tr);
        m.attempted += u.attempted;
        m.failed += u.failed;
        m.wrong += u.wrong;
        m.cp_cycles += u.layers.cp_cycles;
        let halted = u.halted.clone();
        if m.pass.len() < pass_units {
            m.pass.push(u);
            m.pass_seconds = start.elapsed().as_secs_f64();
        }
        m.units += 1;
        if let Some(why) = halted {
            m.halted = Some((m.units - 1, why));
            break;
        }
    }
    m.seconds = start.elapsed().as_secs_f64();
    m.config = w.config_time();
    m
}

fn us(ps: f64) -> f64 {
    ps / 1e6
}

/// Modeled results of the first pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Modeled {
    /// Requests attempted in the pass.
    pub attempted: u64,
    /// Requests that failed in the pass.
    pub failed: u64,
    /// Modeled latency of every correct request.
    pub latencies: Vec<SimTime>,
    /// Requests served by hardware.
    pub hw_served: u64,
    /// Modeled platform time, configuration excluded.
    pub busy: SimTime,
    /// Modeled pure-software time of the same requests.
    pub sw: SimTime,
    /// Per-layer sums.
    pub layers: Layers,
    /// One-off configuration time.
    pub config: SimTime,
    /// First unit's modeled time minus the median of the others, per
    /// request.
    pub cold_warm_delta: f64,
}

impl Modeled {
    /// Summarises the first pass of `m`.
    pub fn of(m: &Measured) -> Modeled {
        let mut out = Modeled {
            attempted: 0,
            failed: 0,
            latencies: Vec::new(),
            hw_served: 0,
            busy: SimTime::ZERO,
            sw: SimTime::ZERO,
            layers: Layers::default(),
            config: m.config,
            cold_warm_delta: 0.0,
        };
        for u in &m.pass {
            out.attempted += u.attempted;
            out.failed += u.failed;
            out.latencies.extend(&u.latencies);
            out.hw_served += u.hw_served;
            out.busy += u.busy;
            out.sw += u.sw;
            out.layers += u.layers;
        }
        let busy: Vec<f64> = m.pass.iter().map(|u| u.busy.as_ps() as f64).collect();
        if let (Some(first), Some(steady)) = (busy.first(), median(busy.get(1..).unwrap_or(&[]))) {
            out.cold_warm_delta = (first - steady) / m.requests_per_unit as f64;
        }
        out
    }

    /// Observed latency percentile in microseconds (0 with no samples).
    pub fn latency_us(&self, q: f64) -> f64 {
        percentile(&self.latencies, q).map_or(0.0, |t| us(t.as_ps() as f64))
    }

    /// Requests per modeled second, configuration excluded.
    pub fn requests_per_s(&self) -> f64 {
        self.attempted as f64 / (self.busy.as_ps() as f64 / 1e12)
    }

    /// Modeled software time over modeled platform time.
    pub fn speedup_vs_sw(&self) -> f64 {
        self.sw.as_ps() as f64 / self.busy.as_ps() as f64
    }

    /// Requests served by hardware over requests attempted.
    pub fn hw_served_fraction(&self) -> f64 {
        self.hw_served as f64 / self.attempted as f64
    }

    /// The modeled per-layer metrics; counts and times are means per
    /// attempted request unless named otherwise.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let l = &self.layers;
        let n = self.attempted as f64;
        let per = |v: u64| v as f64 / n;
        let per_us = |ps: u64| us(ps as f64) / n;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let lat_sum: u64 = self.latencies.iter().map(|t| t.as_ps()).sum();
        let wait = lat_sum as f64 - l.hw_ps as f64 - l.stall_ps as f64;
        vec![
            metric("sim_latency_samples", self.latencies.len() as f64, "count"),
            metric(
                "sim_latency_beyond_p95",
                beyond(self.latencies.len(), 0.95) as f64,
                "count",
            ),
            metric("sim.fabric.hw_us", per_us(l.hw_ps), "us"),
            metric("sim.fabric.cp_cycles", per(l.cp_cycles), "count"),
            metric("sim.fabric.config_us", us(self.config.as_ps() as f64), "us"),
            metric("sim.imu.tlb_hits", per(l.tlb_hits), "count"),
            metric("sim.imu.tlb_misses", per(l.tlb_misses), "count"),
            metric(
                "sim.imu.hit_rate",
                ratio(l.tlb_hits, l.tlb_hits + l.tlb_misses),
                "fraction",
            ),
            metric("sim.imu.edges", per(l.imu_edges), "count"),
            metric("sim.imu.sw_imu_us", per_us(l.sw_imu_ps), "us"),
            metric("sim.vim.faults", per(l.faults), "count"),
            metric("sim.vim.page_loads", per(l.page_loads), "count"),
            metric("sim.vim.page_writebacks", per(l.page_writebacks), "count"),
            metric("sim.vim.evictions", per(l.evictions), "count"),
            metric("sim.vim.prefetches", per(l.prefetches), "count"),
            metric("sim.vim.sw_dp_us", per_us(l.sw_dp_ps), "us"),
            metric(
                "sim.vim.fault_stall_mean_us",
                us(ratio(l.fault_stall_ps, l.fault_stalls)),
                "us",
            ),
            metric("sim.dma.transfers", per(l.dma_transfers), "count"),
            metric("sim.dma.hidden_us", per_us(l.dma_hidden_ps), "us"),
            metric("sim.dma.overlap_saved_us", per_us(l.overlap_saved_ps), "us"),
            metric("sim.multi.ctx_switches", per(l.ctx_switches), "count"),
            metric("sim.multi.ctx_switch_us", per_us(l.ctx_switch_ps), "us"),
            metric(
                "sim.multi.cross_asid_steals",
                per(l.cross_asid_steals),
                "count",
            ),
            metric("sim.multi.stall_us", per_us(l.stall_ps), "us"),
            metric("sim.multi.fabric_busy_us", per_us(l.hw_ps), "us"),
            metric(
                "sim.multi.fabric_utilisation",
                ratio(l.hw_ps, self.busy.as_ps()),
                "fraction",
            ),
            metric("sim.multi.wait_us", us(wait) / n, "us"),
            metric("sim.recovery.attempts", per(l.attempts), "count"),
            metric(
                "sim.recovery.injected_faults",
                per(l.injected_faults),
                "count",
            ),
            metric(
                "sim.recovery.transfer_retries",
                per(l.transfer_retries),
                "count",
            ),
            metric(
                "sim.recovery.watchdog_resets",
                per(l.watchdog_resets),
                "count",
            ),
            metric("sim.recovery.recovery_us", per_us(l.recovery_ps), "us"),
            metric("sim.recovery.fallbacks", per(l.fallbacks), "count"),
            metric(
                "sim.recovery.fallback_us",
                us(ratio(l.fallback_ps, l.fallbacks)),
                "us",
            ),
            metric(
                "sim.unattributed_us",
                us(l.unattributed_ps as f64) / n,
                "us",
            ),
            metric("sim.cold_warm_delta_ns", self.cold_warm_delta / 1e3, "ns"),
        ]
    }
}

/// Host per-layer metrics of a traced loop, set-up spans included.
pub fn host_layer_metrics(
    tr: &Tracer,
    traced: &Measured,
    untraced: &Measured,
    setups: usize,
) -> Vec<Metric> {
    let total = |names: &[&str]| names.iter().map(|n| tr.total_ns(n)).sum::<u64>() as f64;
    let per_setup_ms = |names: &[&str]| total(names) / setups as f64 / 1e6;
    let requests = traced.attempted as f64;
    let per_request_us = |names: &[&str]| total(names) / requests / 1e3;
    let execute = ["System::fpga_execute", "MultiSystem::run"];
    // Both loops serve the same first pass: compare like with like.
    let overhead = traced.pass_seconds / untraced.pass_seconds - 1.0;
    vec![
        metric(
            "host.setup.reference_ms",
            per_setup_ms(&["reference"]),
            "ms",
        ),
        metric(
            "host.setup.build_ms",
            per_setup_ms(&["SystemBuilder::build", "MultiSystemBuilder::build"]),
            "ms",
        ),
        metric(
            "host.setup.load_ms",
            per_setup_ms(&["System::fpga_load", "MultiSystem::add_tenant"]),
            "ms",
        ),
        metric(
            "host.map_us",
            per_request_us(&["System::fpga_map_object", "MultiSystem::submit"]),
            "us",
        ),
        metric("host.execute_us", per_request_us(&execute), "us"),
        metric(
            "host.collect_us",
            per_request_us(&["System::take_object", "MultiSystem::take_completed"]),
            "us",
        ),
        metric("host.verify_us", per_request_us(&["verify"]), "us"),
        metric(
            "host.ns_per_cp_cycle",
            total(&execute) / traced.cp_cycles as f64,
            "ns/cycle",
        ),
        metric("host.trace_overhead_pct", overhead * 100.0, "%"),
    ]
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
