//! End-to-end experiment runners for the paper's figures.

use vcop::{
    run_typical, BaselineReport, Direction, ElemSize, Error, ExecutionReport, Kernel, MapHints,
    PolicyKind, PrefetchMode, System, SystemBuilder, TransferMode, TypicalConfig, TypicalObject,
};
use vcop_apps::vecadd::{VecAddCoprocessor, OBJ_A, OBJ_B, OBJ_C};
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::resources::Resources;
use vcop_fabric::DeviceProfile;
use vcop_sim::bus::BurstKind;
use vcop_sim::time::{Frequency, SimTime};

use crate::app::{AppKind, Job};

/// Knobs shared by all experiments; the default is the paper's
/// prototype configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentOptions {
    /// Target device (default EPXA1).
    pub device: DeviceProfile,
    /// VIM replacement policy.
    pub policy: PolicyKind,
    /// VIM prefetch mode.
    pub prefetch: PrefetchMode,
    /// Single or double page transfers.
    pub transfer: TransferMode,
    /// AHB burst kind for page copies.
    pub burst: BurstKind,
    /// Skip loads of pure-`OUT` pages.
    pub skip_out_page_load: bool,
    /// Overlapped paging: page movements run on the asynchronous DMA
    /// engine underneath coprocessor execution.
    pub overlap: bool,
    /// DMA channel count used by overlapped paging.
    pub dma_channels: usize,
    /// IMU pipeline depth (1 = prototype).
    pub pipeline_depth: usize,
    /// Multiplier (percent) applied to every fixed OS overhead constant
    /// — the sensitivity-analysis knob (100 = the documented defaults).
    pub os_overhead_pct: u32,
    /// Simulation kernel (event-driven by default; stepped is the
    /// reference loop used for cross-checks and speedup measurements).
    pub kernel: Kernel,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            device: DeviceProfile::epxa1(),
            policy: PolicyKind::Fifo,
            prefetch: PrefetchMode::None,
            transfer: TransferMode::Double,
            burst: BurstKind::Single,
            skip_out_page_load: false,
            overlap: false,
            dma_channels: 2,
            pipeline_depth: 1,
            os_overhead_pct: 100,
            kernel: Kernel::default(),
        }
    }
}

impl ExperimentOptions {
    /// The improved VIM the authors describe working towards: single
    /// transfers and no useless loads of output pages.
    pub fn improved() -> Self {
        ExperimentOptions {
            transfer: TransferMode::Single,
            skip_out_page_load: true,
            ..Default::default()
        }
    }

    fn build_system(&self, cp: Frequency, imu: Frequency) -> System {
        let scale = |v: u64| v * u64::from(self.os_overhead_pct) / 100;
        let base = vcop_vim::OsOverheads::paper_era();
        let overheads = vcop_vim::OsOverheads {
            irq_entry_exit: scale(base.irq_entry_exit),
            fault_decode: scale(base.fault_decode),
            tlb_update: scale(base.tlb_update),
            resume: scale(base.resume),
            page_loop: scale(base.page_loop),
            wake_process: scale(base.wake_process),
            syscall: scale(base.syscall),
            param_word: scale(base.param_word),
            ctx_switch: scale(base.ctx_switch),
        };
        SystemBuilder::new(self.device)
            .os_overheads(overheads)
            .clocks(cp, imu)
            .policy(self.policy)
            .prefetch(self.prefetch)
            .transfer(self.transfer)
            .burst(self.burst)
            .skip_out_page_load(self.skip_out_page_load)
            .overlap(self.overlap)
            .dma_channels(self.dma_channels)
            .pipeline_depth(self.pipeline_depth)
            .kernel(self.kernel)
            .build()
    }
}

/// Result of one experiment point.
#[derive(Debug, Clone)]
pub struct Run {
    /// Pure-software execution time.
    pub sw: SimTime,
    /// VIM-based execution decomposition.
    pub report: ExecutionReport,
}

impl Run {
    /// Speedup of the VIM-based version over pure software.
    pub fn speedup(&self) -> f64 {
        self.report.speedup_vs(self.sw)
    }
}

/// A warmed-up system for one paper kernel: bitstream configured,
/// request and software reference computed once. [`Harness::run`] can
/// then be called repeatedly — with [`Harness::reconfigure`] in between
/// to sweep paging configurations — without paying workload generation,
/// the software baseline, or `FPGA_LOAD` per data point.
#[derive(Debug)]
pub struct Harness {
    system: System,
    job: Job,
}

impl Harness {
    /// Builds the system at `kind`'s clocks, loads its core and prepares
    /// the request over `input_kb` KB of the synthetic input.
    ///
    /// # Panics
    ///
    /// Panics if the system rejects the canonical setup (a model bug).
    pub fn new(kind: AppKind, input_kb: usize, opts: &ExperimentOptions) -> Self {
        Harness::try_new(kind, input_kb, opts).expect("the canonical setup")
    }

    /// [`Harness::new`], returning what the system rejects instead of
    /// panicking.
    ///
    /// `FPGA_MAP_OBJECT` checks only the objects' sizes, so the request
    /// is first mapped (and unmapped) with zero-filled objects of those
    /// sizes: a request too large for user SDRAM fails before its input
    /// and software reference are generated.
    ///
    /// # Errors
    ///
    /// What `FPGA_LOAD` or `FPGA_MAP_OBJECT` rejects, such as an input
    /// that does not fit user SDRAM.
    pub fn try_new(
        kind: AppKind,
        input_kb: usize,
        opts: &ExperimentOptions,
    ) -> Result<Self, Error> {
        let mut system = opts.build_system(kind.cp_freq(), kind.imu_freq());
        kind.load(&mut system)?;
        let probe = kind.request(vec![0; input_kb * 1024]).objects;
        let ids: Vec<_> = probe.iter().map(|o| o.id).collect();
        let mapped = probe
            .into_iter()
            .try_for_each(|o| system.fpga_map_object(o.id, o.data, o.elem, o.direction, o.hints));
        for id in ids {
            system.take_object(id);
        }
        mapped?;
        let job = kind.synthetic_job(input_kb * 1024);
        Ok(Harness { system, job })
    }

    /// Re-tunes the paging knobs for the next [`Harness::run`].
    pub fn reconfigure(&mut self, opts: &ExperimentOptions) {
        self.system
            .reconfigure_paging(opts.policy, opts.prefetch, opts.overlap, opts.dma_channels);
    }

    /// Maps the objects, executes, verifies the output bit-exactly and
    /// unmaps.
    ///
    /// # Panics
    ///
    /// Panics if the coprocessor output mismatches the software
    /// reference (a model bug, not an experiment outcome).
    pub fn run(&mut self) -> Run {
        let objects = &self.job.request.objects;
        let (input, output) = (objects[0].id, objects[1].id);
        self.job.map(&mut self.system).expect("map objects");
        let report = self
            .system
            .fpga_execute(&self.job.request.params)
            .expect("execute");
        let out = self.system.take_object(output).expect("output mapped");
        self.system.take_object(input);
        assert_eq!(
            out, self.job.expect,
            "coprocessor output diverged from the software reference"
        );
        Run {
            sw: self.job.sw,
            report,
        }
    }
}

/// Runs the Fig. 8 adpcmdecode point for `input_kb` KB of input through
/// the full system and verifies the decoded output bit-exactly.
///
/// # Panics
///
/// Panics if the system rejects the canonical setup or the coprocessor
/// output mismatches the software reference (either would be a model
/// bug, not an experiment outcome).
pub fn adpcm_vim(input_kb: usize, opts: &ExperimentOptions) -> Run {
    Harness::new(AppKind::Adpcm, input_kb, opts).run()
}

/// Runs the Fig. 9 IDEA point for `input_kb` KB through the full system
/// (core at 6 MHz, IMU + memory at 24 MHz) and verifies the ciphertext.
///
/// # Panics
///
/// Panics on setup failure or ciphertext mismatch (model bugs).
pub fn idea_vim(input_kb: usize, opts: &ExperimentOptions) -> Run {
    Harness::new(AppKind::Idea, input_kb, opts).run()
}

/// The pure-software IDEA baseline for `input_kb` KB.
pub fn idea_sw_baseline(input_kb: usize) -> SimTime {
    AppKind::Idea.synthetic_job(input_kb * 1024).sw
}

/// Runs the "normal coprocessor" (manually managed, no OS) version of
/// `kind` over `input_kb` KB. Fails with [`Error::ExceedsMemory`] when
/// input + output do not fit the dual-port memory — the grey bars of
/// Fig. 9 (adpcmdecode is not shown in Fig. 8: input + 4× output quickly
/// exceeds 16 KB).
///
/// # Errors
///
/// [`Error::ExceedsMemory`] past 8 KB of IDEA input, or past ~3 KB of
/// adpcm input, on the EPXA1; [`Error::Timeout`] on a hung core.
///
/// # Panics
///
/// Panics if the output mismatches the software reference (a model bug).
pub fn typical(kind: AppKind, input_kb: usize) -> Result<BaselineReport, Error> {
    let job = kind.synthetic_job(input_kb * 1024);
    let output = job.request.objects[1].id.0;
    let objects = job
        .request
        .objects
        .into_iter()
        .map(|o| (o.id.0, TypicalObject::new(o.data, o.elem, o.direction)))
        .collect();
    let (out, report) = run_typical(
        kind.core().as_mut(),
        objects,
        &job.request.params,
        TypicalConfig::epxa1(kind.cp_freq()),
    )?;
    assert_eq!(
        out[&output], job.expect,
        "normal coprocessor output diverged"
    );
    Ok(report)
}

/// Runs the extension matrix-multiply workload (`n × n`, wrapping `u32`)
/// through the full system and verifies the product bit-exactly. The
/// column-strided walk over `B` makes this the policy-sensitive workload
/// of the ablation suite.
///
/// # Panics
///
/// Panics on setup failure or product mismatch (model bugs).
pub fn matmul_vim(n: usize, opts: &ExperimentOptions) -> Run {
    use vcop_apps::matmul::{self, MatMulCoprocessor, OBJ_A, OBJ_B, OBJ_C};
    let a = matmul::synthetic_matrix(n, 17);
    let b = matmul::synthetic_matrix(n, 23);
    let expect = {
        let cpu = vcop_sim::cpu::ArmCpu::epxa1();
        let mut cc = cpu.counter();
        let c = matmul::multiply(&a, &b, n, &mut cc);
        (c, cpu.cycles_to_time(cc.cycles()))
    };

    let mut system = opts.build_system(Frequency::from_mhz(40), Frequency::from_mhz(40));
    let bitstream = Bitstream::builder("matmul")
        .device(opts.device.kind)
        .resources(Resources::new(2_000, 8_192))
        .synthetic_payload(64 * 1024)
        .build();
    system
        .fpga_load(&bitstream.to_bytes(), Box::new(MatMulCoprocessor::new()))
        .expect("load matmul core");
    let to_bytes = |m: &[u32]| -> Vec<u8> { m.iter().flat_map(|x| x.to_le_bytes()).collect() };
    system
        .fpga_map_object(
            OBJ_A,
            to_bytes(&a),
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .expect("map A");
    system
        .fpga_map_object(
            OBJ_B,
            to_bytes(&b),
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .expect("map B");
    system
        .fpga_map_object(
            OBJ_C,
            vec![0u8; 4 * n * n],
            ElemSize::U32,
            Direction::Out,
            MapHints::default(),
        )
        .expect("map C");
    let report = system.fpga_execute(&[n as u32]).expect("execute matmul");
    let out = system.take_object(OBJ_C).expect("mapped");
    let got: Vec<u32> = out
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    assert_eq!(got, expect.0, "coprocessor product diverged");

    Run {
        sw: expect.1,
        report,
    }
}

/// Captures the Fig. 7 waveform: a translated coprocessor read access,
/// rendered as an ASCII timing diagram sampled on IMU clock edges, plus
/// the full VCD document.
pub fn fig7_waveform() -> (String, String) {
    let mut system = SystemBuilder::epxa1()
        .clocks(Frequency::from_mhz(40), Frequency::from_mhz(40))
        .trace(true)
        .build();
    let bitstream = Bitstream::builder("vecadd").synthetic_payload(1024).build();
    system
        .fpga_load(&bitstream.to_bytes(), Box::new(VecAddCoprocessor::new()))
        .expect("load vecadd");
    let n = 4u32;
    let word = |x: u32| x.to_le_bytes();
    let a: Vec<u8> = (0..n).flat_map(word).collect();
    let b: Vec<u8> = (0..n).flat_map(|x| word(10 * x)).collect();
    system
        .fpga_map_object(OBJ_A, a, ElemSize::U32, Direction::In, MapHints::default())
        .expect("map A");
    system
        .fpga_map_object(OBJ_B, b, ElemSize::U32, Direction::In, MapHints::default())
        .expect("map B");
    system
        .fpga_map_object(
            OBJ_C,
            vec![0u8; 4 * n as usize],
            ElemSize::U32,
            Direction::Out,
            MapHints::default(),
        )
        .expect("map C");
    system.fpga_execute(&[n]).expect("execute vecadd");
    let c = system.take_object(OBJ_C).expect("mapped");
    assert_eq!(u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")), 11);

    let tracer = system.tracer().expect("tracing enabled");
    let period = system.imu_freq().period();
    let samples: Vec<SimTime> = (0..32).map(|i| period * i).collect();
    (tracer.render_ascii(&samples), tracer.to_vcd("imu"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adpcm_2kb_fits_without_faults() {
        // Paper, Section 4.1: "for an input data size of 2 KB [...] all
        // data can fit the dual-port RAM and the application execution
        // completes without causing page faults."
        let run = adpcm_vim(2, &ExperimentOptions::default());
        assert_eq!(run.report.faults, 0);
        let s = run.speedup();
        assert!((1.3..=1.9).contains(&s), "speedup {s} outside Fig. 8 band");
    }

    #[test]
    fn adpcm_8kb_pages_and_keeps_speedup() {
        let run = adpcm_vim(8, &ExperimentOptions::default());
        assert!(run.report.faults > 0, "8 KB input must page");
        let s = run.speedup();
        assert!((1.3..=1.9).contains(&s), "speedup {s} outside Fig. 8 band");
    }

    #[test]
    fn idea_point_runs_in_band() {
        let run = idea_vim(4, &ExperimentOptions::default());
        let s = run.speedup();
        assert!((8.0..=13.0).contains(&s), "speedup {s} outside Fig. 9 band");
    }

    #[test]
    fn warmed_harness_matches_fresh_system() {
        // The ablation runner reuses one warmed-up system per arm; every
        // data point must still measure exactly what a fresh system
        // would. Sweep a config change (overlap on/off) through one
        // harness and compare each report against a freshly built run.
        let base = ExperimentOptions::default();
        let overlapped = ExperimentOptions {
            overlap: true,
            prefetch: PrefetchMode::NextPage { degree: 1 },
            ..base
        };
        let mut harness = Harness::new(AppKind::Adpcm, 8, &base);
        for opts in [&base, &overlapped, &base] {
            harness.reconfigure(opts);
            let reused = harness.run();
            let fresh = adpcm_vim(8, opts);
            assert_eq!(reused.report, fresh.report);
            assert_eq!(reused.sw, fresh.sw);
        }
    }

    #[test]
    fn idea_typical_fits_then_exceeds() {
        let idea = |kb| typical(AppKind::Idea, kb);
        assert!(idea(4).is_ok());
        assert!(idea(8).is_ok());
        assert!(matches!(idea(16), Err(Error::ExceedsMemory { .. })));
        assert!(matches!(idea(32), Err(Error::ExceedsMemory { .. })));
    }

    #[test]
    fn fig7_has_fourth_edge_data() {
        let (ascii, vcd) = fig7_waveform();
        assert!(ascii.contains("cp_tlbhit"));
        assert!(vcd.contains("$var wire 1"));
    }
}
