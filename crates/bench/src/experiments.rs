//! End-to-end experiment runners for the paper's figures.

use std::collections::BTreeMap;

use vcop::{
    run_typical, BaselineReport, Direction, ElemSize, Error, ExecutionReport, Kernel, MapHints,
    PolicyKind, PrefetchMode, System, SystemBuilder, TransferMode, TypicalConfig, TypicalObject,
};
use vcop_apps::adpcm::codec as adpcm_codec;
use vcop_apps::adpcm::hw as adpcm_hw;
use vcop_apps::idea::cipher as idea_cipher;
use vcop_apps::idea::hw as idea_hw;
use vcop_apps::timing;
use vcop_apps::vecadd::{VecAddCoprocessor, OBJ_A, OBJ_B, OBJ_C};
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::resources::Resources;
use vcop_fabric::DeviceProfile;
use vcop_sim::bus::BurstKind;
use vcop_sim::time::SimTime;

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

    fn build_system(&self, cp_mhz: u64, imu_mhz: u64) -> System {
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
            .clocks(
                vcop_sim::time::Frequency::from_mhz(cp_mhz),
                vcop_sim::time::Frequency::from_mhz(imu_mhz),
            )
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

/// Result of one adpcmdecode experiment point.
#[derive(Debug, Clone)]
pub struct AdpcmRun {
    /// ADPCM input size in bytes.
    pub input_bytes: usize,
    /// Pure-software execution time.
    pub sw: SimTime,
    /// VIM-based execution decomposition.
    pub report: ExecutionReport,
}

impl AdpcmRun {
    /// Speedup of the VIM-based version over pure software.
    pub fn speedup(&self) -> f64 {
        self.report.speedup_vs(self.sw)
    }
}

/// A warmed-up adpcmdecode system: bitstream configured, software
/// reference computed once. [`AdpcmHarness::run`] can then be called
/// repeatedly — with [`AdpcmHarness::reconfigure`] in between to sweep
/// paging configurations — without paying workload generation, the
/// software baseline, or `FPGA_LOAD` per data point.
#[derive(Debug)]
pub struct AdpcmHarness {
    system: System,
    input: Vec<u8>,
    input_bytes: usize,
    sw_samples: Vec<i16>,
    sw: SimTime,
}

impl AdpcmHarness {
    /// Builds the system, loads the adpcmdecode core and computes the
    /// software reference for `input_kb` KB of input.
    ///
    /// # Panics
    ///
    /// Panics if the system rejects the canonical setup (a model bug).
    pub fn new(input_kb: usize, opts: &ExperimentOptions) -> Self {
        let input_bytes = input_kb * 1024;
        let pcm = adpcm_codec::synthetic_pcm(input_bytes * 2);
        let input = adpcm_codec::encode(&pcm, &mut ());
        assert_eq!(input.len(), input_bytes);

        let (sw_samples, sw) = timing::adpcm_sw(&input);

        let mut system = opts.build_system(40, 40);
        let bitstream = Bitstream::builder("adpcmdecode")
            .device(opts.device.kind)
            .resources(Resources::new(1_100, 6_144))
            .core_clock(timing::ADPCM_CORE_FREQ)
            .synthetic_payload(48 * 1024)
            .build();
        system
            .fpga_load(
                &bitstream.to_bytes(),
                Box::new(adpcm_hw::AdpcmCoprocessor::new()),
            )
            .expect("load adpcm core");

        AdpcmHarness {
            system,
            input,
            input_bytes,
            sw_samples,
            sw,
        }
    }

    /// Re-tunes the paging knobs for the next [`AdpcmHarness::run`].
    pub fn reconfigure(&mut self, opts: &ExperimentOptions) {
        self.system
            .reconfigure_paging(opts.policy, opts.prefetch, opts.overlap, opts.dma_channels);
    }

    /// Maps the objects, executes, verifies the decoded output
    /// bit-exactly and unmaps.
    ///
    /// # Panics
    ///
    /// Panics if the coprocessor output mismatches the software
    /// reference (a model bug, not an experiment outcome).
    pub fn run(&mut self) -> AdpcmRun {
        self.system
            .fpga_map_object(
                adpcm_hw::OBJ_INPUT,
                self.input.clone(),
                ElemSize::U8,
                Direction::In,
                MapHints {
                    sequential: true,
                    ..Default::default()
                },
            )
            .expect("map input");
        self.system
            .fpga_map_object(
                adpcm_hw::OBJ_OUTPUT,
                vec![0u8; self.input_bytes * 4],
                ElemSize::U16,
                Direction::Out,
                MapHints {
                    sequential: true,
                    ..Default::default()
                },
            )
            .expect("map output");
        let report = self
            .system
            .fpga_execute(&[self.input_bytes as u32])
            .expect("execute adpcmdecode");

        let out = self
            .system
            .take_object(adpcm_hw::OBJ_OUTPUT)
            .expect("output mapped");
        self.system.take_object(adpcm_hw::OBJ_INPUT);
        assert_eq!(
            adpcm_codec::samples_from_bytes(&out),
            self.sw_samples,
            "coprocessor output diverged from the software reference"
        );

        AdpcmRun {
            input_bytes: self.input_bytes,
            sw: self.sw,
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
pub fn adpcm_vim(input_kb: usize, opts: &ExperimentOptions) -> AdpcmRun {
    AdpcmHarness::new(input_kb, opts).run()
}

/// Result of one IDEA experiment point.
#[derive(Debug, Clone)]
pub struct IdeaRun {
    /// Plaintext size in bytes.
    pub input_bytes: usize,
    /// Pure-software execution time.
    pub sw: SimTime,
    /// VIM-based execution decomposition.
    pub report: ExecutionReport,
}

impl IdeaRun {
    /// Speedup of the VIM-based version over pure software.
    pub fn speedup(&self) -> f64 {
        self.report.speedup_vs(self.sw)
    }
}

fn idea_key() -> idea_cipher::IdeaKey {
    idea_cipher::IdeaKey([1, 2, 3, 4, 5, 6, 7, 8])
}

fn idea_params(blocks: u32) -> Vec<u32> {
    let ek = idea_cipher::expand_key(idea_key());
    let mut params = Vec::with_capacity(1 + idea_cipher::SUBKEYS);
    params.push(blocks);
    params.extend(ek.iter().map(|&k| u32::from(k)));
    params
}

/// The pure-software IDEA baseline for `input_kb` KB.
pub fn idea_sw_baseline(input_kb: usize) -> SimTime {
    let pt = idea_cipher::synthetic_plaintext(input_kb * 1024);
    timing::idea_sw(&pt, idea_key()).1
}

/// A warmed-up IDEA system (core at 6 MHz, IMU + memory at 24 MHz):
/// bitstream configured, software reference computed once. See
/// [`AdpcmHarness`] for the usage pattern.
#[derive(Debug)]
pub struct IdeaHarness {
    system: System,
    packed_pt: Vec<u8>,
    input_bytes: usize,
    sw_ct: Vec<u8>,
    sw: SimTime,
}

impl IdeaHarness {
    /// Builds the system, loads the IDEA core and computes the software
    /// reference for `input_kb` KB of plaintext.
    ///
    /// # Panics
    ///
    /// Panics if the system rejects the canonical setup (a model bug).
    pub fn new(input_kb: usize, opts: &ExperimentOptions) -> Self {
        let input_bytes = input_kb * 1024;
        let pt = idea_cipher::synthetic_plaintext(input_bytes);
        let (sw_ct, sw) = timing::idea_sw(&pt, idea_key());

        let mut system = opts.build_system(6, 24);
        let bitstream = Bitstream::builder("idea")
            .device(opts.device.kind)
            .resources(Resources::new(3_600, 24_576))
            .core_clock(timing::IDEA_CORE_FREQ)
            .synthetic_payload(96 * 1024)
            .build();
        system
            .fpga_load(
                &bitstream.to_bytes(),
                Box::new(idea_hw::IdeaCoprocessor::new()),
            )
            .expect("load idea core");

        IdeaHarness {
            system,
            packed_pt: idea_cipher::pack_words(&pt),
            input_bytes,
            sw_ct,
            sw,
        }
    }

    /// Re-tunes the paging knobs for the next [`IdeaHarness::run`].
    pub fn reconfigure(&mut self, opts: &ExperimentOptions) {
        self.system
            .reconfigure_paging(opts.policy, opts.prefetch, opts.overlap, opts.dma_channels);
    }

    /// Maps the objects, executes, verifies the ciphertext bit-exactly
    /// and unmaps.
    ///
    /// # Panics
    ///
    /// Panics on ciphertext mismatch (a model bug).
    pub fn run(&mut self) -> IdeaRun {
        self.system
            .fpga_map_object(
                idea_hw::OBJ_INPUT,
                self.packed_pt.clone(),
                ElemSize::U16,
                Direction::In,
                MapHints {
                    sequential: true,
                    ..Default::default()
                },
            )
            .expect("map plaintext");
        self.system
            .fpga_map_object(
                idea_hw::OBJ_OUTPUT,
                vec![0u8; self.input_bytes],
                ElemSize::U16,
                Direction::Out,
                MapHints {
                    sequential: true,
                    ..Default::default()
                },
            )
            .expect("map ciphertext");
        let blocks = (self.input_bytes / idea_cipher::BLOCK_BYTES) as u32;
        let report = self
            .system
            .fpga_execute(&idea_params(blocks))
            .expect("execute idea");

        let out = self
            .system
            .take_object(idea_hw::OBJ_OUTPUT)
            .expect("output mapped");
        self.system.take_object(idea_hw::OBJ_INPUT);
        assert_eq!(
            idea_cipher::unpack_words(&out),
            self.sw_ct,
            "coprocessor ciphertext diverged from the software reference"
        );

        IdeaRun {
            input_bytes: self.input_bytes,
            sw: self.sw,
            report,
        }
    }
}

/// Runs the Fig. 9 IDEA point for `input_kb` KB through the full system
/// (core at 6 MHz, IMU + memory at 24 MHz) and verifies the ciphertext.
///
/// # Panics
///
/// Panics on setup failure or ciphertext mismatch (model bugs).
pub fn idea_vim(input_kb: usize, opts: &ExperimentOptions) -> IdeaRun {
    IdeaHarness::new(input_kb, opts).run()
}

/// Runs the "normal coprocessor" (manually managed, no OS) IDEA version.
/// Fails with [`Error::ExceedsMemory`] when plaintext + ciphertext do
/// not fit the dual-port memory — the grey bars of Fig. 9.
///
/// # Errors
///
/// [`Error::ExceedsMemory`] past 8 KB of input on the EPXA1;
/// [`Error::Timeout`] on a hung core.
pub fn idea_typical(input_kb: usize) -> Result<BaselineReport, Error> {
    let input_bytes = input_kb * 1024;
    let pt = idea_cipher::synthetic_plaintext(input_bytes);
    let ek = idea_cipher::expand_key(idea_key());
    let expect = idea_cipher::crypt_buffer(&pt, &ek, &mut ());

    let mut objects = BTreeMap::new();
    objects.insert(
        idea_hw::OBJ_INPUT.0,
        TypicalObject::new(idea_cipher::pack_words(&pt), ElemSize::U16, Direction::In),
    );
    objects.insert(
        idea_hw::OBJ_OUTPUT.0,
        TypicalObject::new(vec![0u8; input_bytes], ElemSize::U16, Direction::Out),
    );
    let mut core = idea_hw::IdeaCoprocessor::new();
    let blocks = (input_bytes / idea_cipher::BLOCK_BYTES) as u32;
    let (out, report) = run_typical(
        &mut core,
        objects,
        &idea_params(blocks),
        TypicalConfig::epxa1(timing::IDEA_CORE_FREQ),
    )?;
    assert_eq!(
        idea_cipher::unpack_words(&out[&idea_hw::OBJ_OUTPUT.0]),
        expect,
        "normal coprocessor ciphertext diverged"
    );
    Ok(report)
}

/// The adpcmdecode counterpart of [`idea_typical`] (not shown in Fig. 8,
/// provided for completeness: input + 4× output quickly exceeds 16 KB).
///
/// # Errors
///
/// [`Error::ExceedsMemory`] past ~3 KB of input on the EPXA1.
pub fn adpcm_typical(input_kb: usize) -> Result<BaselineReport, Error> {
    let input_bytes = input_kb * 1024;
    let pcm = adpcm_codec::synthetic_pcm(input_bytes * 2);
    let input = adpcm_codec::encode(&pcm, &mut ());
    let expect = adpcm_codec::decode(&input, &mut ());

    let mut objects = BTreeMap::new();
    objects.insert(
        adpcm_hw::OBJ_INPUT.0,
        TypicalObject::new(input.clone(), ElemSize::U8, Direction::In),
    );
    objects.insert(
        adpcm_hw::OBJ_OUTPUT.0,
        TypicalObject::new(vec![0u8; input_bytes * 4], ElemSize::U16, Direction::Out),
    );
    let mut core = adpcm_hw::AdpcmCoprocessor::new();
    let (out, report) = run_typical(
        &mut core,
        objects,
        &[input_bytes as u32],
        TypicalConfig::epxa1(timing::ADPCM_CORE_FREQ),
    )?;
    assert_eq!(
        adpcm_codec::samples_from_bytes(&out[&adpcm_hw::OBJ_OUTPUT.0]),
        expect,
        "normal coprocessor output diverged"
    );
    Ok(report)
}

/// Result of one matrix-multiply experiment point (extension workload).
#[derive(Debug, Clone)]
pub struct MatMulRun {
    /// Matrix dimension.
    pub n: usize,
    /// Pure-software execution time.
    pub sw: SimTime,
    /// VIM-based execution decomposition.
    pub report: ExecutionReport,
}

impl MatMulRun {
    /// Speedup of the VIM-based version over pure software.
    pub fn speedup(&self) -> f64 {
        self.report.speedup_vs(self.sw)
    }
}

/// Runs the extension matrix-multiply workload (`n × n`, wrapping `u32`)
/// through the full system and verifies the product bit-exactly. The
/// column-strided walk over `B` makes this the policy-sensitive workload
/// of the ablation suite.
///
/// # Panics
///
/// Panics on setup failure or product mismatch (model bugs).
pub fn matmul_vim(n: usize, opts: &ExperimentOptions) -> MatMulRun {
    use vcop_apps::matmul::{self, MatMulCoprocessor, OBJ_A, OBJ_B, OBJ_C};
    let a = matmul::synthetic_matrix(n, 17);
    let b = matmul::synthetic_matrix(n, 23);
    let expect = {
        let cpu = vcop_sim::cpu::ArmCpu::epxa1();
        let mut cc = cpu.counter();
        let c = matmul::multiply(&a, &b, n, &mut cc);
        (c, cpu.cycles_to_time(cc.cycles()))
    };

    let mut system = opts.build_system(40, 40);
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

    MatMulRun {
        n,
        sw: expect.1,
        report,
    }
}

/// Captures the Fig. 7 waveform: a translated coprocessor read access,
/// rendered as an ASCII timing diagram sampled on IMU clock edges, plus
/// the full VCD document.
pub fn fig7_waveform() -> (String, String) {
    let mut system = SystemBuilder::epxa1()
        .clocks(
            vcop_sim::time::Frequency::from_mhz(40),
            vcop_sim::time::Frequency::from_mhz(40),
        )
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
        let mut harness = AdpcmHarness::new(8, &base);
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
        assert!(idea_typical(4).is_ok());
        assert!(idea_typical(8).is_ok());
        assert!(matches!(idea_typical(16), Err(Error::ExceedsMemory { .. })));
        assert!(matches!(idea_typical(32), Err(Error::ExceedsMemory { .. })));
    }

    #[test]
    fn fig7_has_fourth_edge_data() {
        let (ascii, vcd) = fig7_waveform();
        assert!(ascii.contains("cp_tlbhit"));
        assert!(vcd.contains("$var wire 1"));
    }
}
