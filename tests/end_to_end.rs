//! End-to-end integration tests: full applications through the complete
//! platform (fabric + IMU + VIM + syscalls).

use vcop::{Direction, ElemSize, Error, MapHints, PrefetchMode, SystemBuilder};
use vcop_apps::adpcm::codec as adpcm_codec;
use vcop_apps::adpcm::hw::{AdpcmCoprocessor, OBJ_INPUT as ADPCM_IN, OBJ_OUTPUT as ADPCM_OUT};
use vcop_apps::idea::cipher as idea;
use vcop_apps::idea::hw::{IdeaCoprocessor, OBJ_INPUT as IDEA_IN, OBJ_OUTPUT as IDEA_OUT};
use vcop_apps::timing;
use vcop_apps::vecadd::{VecAddCoprocessor, OBJ_A, OBJ_B, OBJ_C};
use vcop_bench::app::AppKind;
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::port::ObjectId;
use vcop_sim::time::SimTime;
use vcop_vim::VimError;

fn u32s(v: &[u8]) -> Vec<u32> {
    v.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn load_vecadd(system: &mut vcop::System) {
    let bs = Bitstream::builder("vecadd").synthetic_payload(1024).build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(VecAddCoprocessor::new()))
        .expect("load");
}

#[test]
fn vecadd_small_resident_dataset() {
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    let n = 64u32;
    let a: Vec<u32> = (0..n).collect();
    let b: Vec<u32> = (0..n).map(|x| x * x).collect();
    system
        .fpga_map_object(
            OBJ_A,
            bytes(&a),
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_B,
            bytes(&b),
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_C,
            vec![0; 4 * n as usize],
            ElemSize::U32,
            Direction::Out,
            MapHints::default(),
        )
        .unwrap();
    let report = system.fpga_execute(&[n]).unwrap();
    // Everything fits: the initial mapping avoids all faults.
    assert_eq!(report.faults, 0);
    assert!(report.hw > SimTime::ZERO);
    let c = u32s(&system.take_object(OBJ_C).unwrap());
    let expect: Vec<u32> = (0..n).map(|x| x + x * x).collect();
    assert_eq!(c, expect);
}

#[test]
fn vecadd_oversized_dataset_pages_correctly() {
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    let n = 8192u32; // 3 × 32 KB of vectors, 6× the interface memory
    let a: Vec<u32> = (0..n).map(|x| x.wrapping_mul(2_654_435_761)).collect();
    let b: Vec<u32> = (0..n).map(|x| x.rotate_left(7)).collect();
    system
        .fpga_map_object(
            OBJ_A,
            bytes(&a),
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_B,
            bytes(&b),
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_C,
            vec![0; 4 * n as usize],
            ElemSize::U32,
            Direction::Out,
            MapHints::default(),
        )
        .unwrap();
    let report = system.fpga_execute(&[n]).unwrap();
    assert!(report.faults > 0, "dataset exceeds DP-RAM, must fault");
    assert!(
        report.page_writebacks > 0,
        "output pages must be written back"
    );
    let c = u32s(&system.take_object(OBJ_C).unwrap());
    let expect: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
    assert_eq!(c, expect);
}

#[test]
fn adpcm_end_to_end_matches_reference() {
    let pcm = adpcm_codec::synthetic_pcm(6 * 1024);
    let coded = adpcm_codec::encode(&pcm, &mut ());
    let (expected, _) = timing::adpcm_sw(&coded);

    let mut system = SystemBuilder::epxa1()
        .clocks(timing::ADPCM_CORE_FREQ, timing::ADPCM_IMU_FREQ)
        .build();
    let bs = Bitstream::builder("adpcmdecode")
        .synthetic_payload(2048)
        .build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(AdpcmCoprocessor::new()))
        .unwrap();
    system
        .fpga_map_object(
            ADPCM_IN,
            coded.clone(),
            ElemSize::U8,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            ADPCM_OUT,
            vec![0; coded.len() * 4],
            ElemSize::U16,
            Direction::Out,
            MapHints::default(),
        )
        .unwrap();
    system.fpga_execute(&[coded.len() as u32]).unwrap();
    let out = adpcm_codec::samples_from_bytes(&system.take_object(ADPCM_OUT).unwrap());
    assert_eq!(out, expected);
}

/// The statistics the benchmark selects by name. Each reads back its
/// typed field and is nonzero on an overlapped, prefetching run that
/// evicts, so a renamed field cannot silently read zero there.
#[test]
fn by_name_statistics_read_their_fields() {
    let pcm = adpcm_codec::synthetic_pcm(16 * 1024);
    let coded = adpcm_codec::encode(&pcm, &mut ());
    let mut system = SystemBuilder::epxa1()
        .clocks(timing::ADPCM_CORE_FREQ, timing::ADPCM_IMU_FREQ)
        .overlap(true)
        .prefetch(PrefetchMode::NextPage { degree: 1 })
        .build();
    let bs = Bitstream::builder("adpcmdecode").build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(AdpcmCoprocessor::new()))
        .unwrap();
    for (id, data, elem, direction) in [
        (ADPCM_IN, coded.clone(), ElemSize::U8, Direction::In),
        (
            ADPCM_OUT,
            vec![0; coded.len() * 4],
            ElemSize::U16,
            Direction::Out,
        ),
    ] {
        system
            .fpga_map_object(id, data, elem, direction, MapHints::default())
            .unwrap();
    }
    system.fpga_execute(&[coded.len() as u32]).unwrap();

    let (c, t, imu) = (
        system.vim().counters(),
        system.vim().times(),
        system.imu().counters(),
    );
    for (name, field) in [
        ("fault", c.fault),
        ("page_load", c.page_load),
        ("page_writeback", c.page_writeback),
        ("eviction", c.eviction),
        ("prefetch", c.prefetch),
        ("dma_transfer", c.dma_transfer),
    ] {
        assert_eq!(c.get(name), field, "{name}");
        assert!(field > 0, "{name} never counted");
    }
    for (name, field) in [("sw_dp", t.sw_dp), ("sw_imu", t.sw_imu)] {
        assert_eq!(t.get(name), field, "{name}");
        assert!(field > SimTime::ZERO, "{name} never charged");
    }
    for (name, field) in [("tlb_hit", imu.tlb_hit), ("tlb_miss", imu.tlb_miss)] {
        assert_eq!(imu.get(name), field, "{name}");
        assert!(field > 0, "{name} never counted");
    }
    assert_eq!(c.get("faults"), 0, "an unknown name reads zero");
}

#[test]
fn idea_encrypt_then_decrypt_on_same_core() {
    let key = idea::IdeaKey([11, 22, 33, 44, 55, 66, 77, 88]);
    let ek = idea::expand_key(key);
    let dk = idea::invert_subkeys(&ek);
    let pt = idea::synthetic_plaintext(8 * 1024);

    let mut system = SystemBuilder::epxa1()
        .clocks(timing::IDEA_CORE_FREQ, timing::IDEA_IMU_FREQ)
        .build();
    let bs = Bitstream::builder("idea").synthetic_payload(2048).build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(IdeaCoprocessor::new()))
        .unwrap();

    let run = |data: &[u8], keys: &[u16; idea::SUBKEYS], system: &mut vcop::System| {
        system
            .fpga_map_object(
                IDEA_IN,
                idea::pack_words(data),
                ElemSize::U16,
                Direction::In,
                MapHints::default(),
            )
            .unwrap();
        system
            .fpga_map_object(
                IDEA_OUT,
                vec![0; data.len()],
                ElemSize::U16,
                Direction::Out,
                MapHints::default(),
            )
            .unwrap();
        let mut params = vec![(data.len() / idea::BLOCK_BYTES) as u32];
        params.extend(keys.iter().map(|&k| u32::from(k)));
        system.fpga_execute(&params).unwrap();
        let out = idea::unpack_words(&system.take_object(IDEA_OUT).unwrap());
        system.take_object(IDEA_IN);
        out
    };

    let ct = run(&pt, &ek, &mut system);
    assert_eq!(ct, idea::crypt_buffer(&pt, &ek, &mut ()));
    let back = run(&ct, &dk, &mut system);
    assert_eq!(back, pt);
}

#[test]
fn execute_without_coprocessor_fails() {
    let mut system = SystemBuilder::epxa1().build();
    assert!(matches!(
        system.fpga_execute(&[]),
        Err(Error::NoCoprocessor)
    ));
}

#[test]
fn exclusive_fabric_ownership() {
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    let bs = Bitstream::builder("second").build();
    let err = system
        .fpga_load(&bs.to_bytes(), Box::new(VecAddCoprocessor::new()))
        .unwrap_err();
    assert!(matches!(err, Error::Load(_)));
    system.fpga_release();
    load_vecadd(&mut system); // works again after release
}

#[test]
fn unmapped_object_access_is_reported() {
    // The coprocessor expects objects 0/1/2 but the application maps
    // only A and B: the access to C must surface as a protocol error.
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    let n = 16u32;
    system
        .fpga_map_object(
            OBJ_A,
            vec![0; 64],
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_B,
            vec![0; 64],
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    let err = system.fpga_execute(&[n]).unwrap_err();
    assert!(
        matches!(err, Error::Vim(VimError::UnknownObject(ObjectId(2)))),
        "got {err:?}"
    );
}

#[test]
fn out_of_bounds_access_is_reported() {
    // SIZE claims more elements than the mapped buffers hold.
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    system
        .fpga_map_object(
            OBJ_A,
            vec![0; 64],
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_B,
            vec![0; 64],
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_C,
            vec![0; 64],
            ElemSize::U32,
            Direction::Out,
            MapHints::default(),
        )
        .unwrap();
    let err = system.fpga_execute(&[100_000]).unwrap_err();
    assert!(
        matches!(err, Error::Vim(VimError::OutOfBounds { .. })),
        "got {err:?}"
    );
}

#[test]
fn mapping_validation() {
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    // Reserved id.
    assert!(matches!(
        system.fpga_map_object(
            ObjectId::PARAM,
            vec![0; 4],
            ElemSize::U32,
            Direction::In,
            MapHints::default()
        ),
        Err(Error::Vim(VimError::ReservedObject))
    ));
    // Empty buffer.
    assert!(matches!(
        system.fpga_map_object(
            OBJ_A,
            vec![],
            ElemSize::U32,
            Direction::In,
            MapHints::default()
        ),
        Err(Error::Vim(VimError::EmptyObject(_)))
    ));
    // Unaligned length.
    assert!(matches!(
        system.fpga_map_object(
            OBJ_A,
            vec![0; 6],
            ElemSize::U32,
            Direction::In,
            MapHints::default()
        ),
        Err(Error::Vim(VimError::UnalignedObject(_)))
    ));
    // Duplicate id.
    system
        .fpga_map_object(
            OBJ_A,
            vec![0; 8],
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    assert!(matches!(
        system.fpga_map_object(
            OBJ_A,
            vec![0; 8],
            ElemSize::U32,
            Direction::In,
            MapHints::default()
        ),
        Err(Error::Vim(VimError::DuplicateObject(_)))
    ));
}

#[test]
fn interrupts_are_counted() {
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    let n = 4096u32;
    system
        .fpga_map_object(
            OBJ_A,
            vec![1; 4 * n as usize],
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_B,
            vec![2; 4 * n as usize],
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            OBJ_C,
            vec![0; 4 * n as usize],
            ElemSize::U32,
            Direction::Out,
            MapHints::default(),
        )
        .unwrap();
    let report = system.fpga_execute(&[n]).unwrap();
    let line = system.irq().line(0).unwrap();
    // One interrupt per fault plus the end-of-operation interrupt.
    assert_eq!(system.irq().delivered_count(line), report.faults + 1);
}

#[test]
fn caller_sleeps_during_execution() {
    // "FPGA_EXECUTE ... puts the calling process in an interruptible
    // sleep mode" (Section 3.1): the sleep interval covers the hardware
    // run and is CPU time available to other runnable processes.
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    let n = 1024u32;
    for (obj, dir) in [
        (OBJ_A, Direction::In),
        (OBJ_B, Direction::In),
        (OBJ_C, Direction::Out),
    ] {
        system
            .fpga_map_object(
                obj,
                vec![0; 4 * n as usize],
                ElemSize::U32,
                dir,
                MapHints::default(),
            )
            .unwrap();
    }
    assert_eq!(system.caller_sleep_time(), SimTime::ZERO);
    let report = system.fpga_execute(&[n]).unwrap();
    let slept = system.caller_sleep_time();
    assert!(
        slept >= report.hw,
        "caller slept at least the hardware time"
    );
}

#[test]
fn caller_sleep_time_sums_wall_minus_setup() {
    // The caller sleeps from the coprocessor's start to the end of the
    // end-of-operation service: every clean execution's wall time less
    // its setup syscalls, in synchronous and in overlapped paging.
    for overlap in [false, true] {
        let mut system = SystemBuilder::epxa1()
            .overlap(overlap)
            .prefetch(PrefetchMode::NextPage { degree: 1 })
            .build();
        load_vecadd(&mut system);
        let mut expected = SimTime::ZERO;
        for n in [256u32, 1024, 3000] {
            for (obj, dir) in [
                (OBJ_A, Direction::In),
                (OBJ_B, Direction::In),
                (OBJ_C, Direction::Out),
            ] {
                system
                    .fpga_map_object(
                        obj,
                        vec![0; 4 * n as usize],
                        ElemSize::U32,
                        dir,
                        MapHints::default(),
                    )
                    .unwrap();
            }
            let report = system.fpga_execute(&[n]).unwrap();
            expected += report.wall - report.setup;
            assert_eq!(
                system.caller_sleep_time(),
                expected,
                "overlap {overlap}, n = {n}"
            );
            for obj in [OBJ_A, OBJ_B, OBJ_C] {
                system.take_object(obj);
            }
        }
    }
}

#[test]
fn matmul_full_system_bit_exact() {
    use vcop_apps::matmul::{
        multiply, synthetic_matrix, MatMulCoprocessor, OBJ_A as MA, OBJ_B as MB, OBJ_C as MC,
    };
    let n = 24usize; // 3 × 2.25 KB: pages but stays fast in debug builds
    let a = synthetic_matrix(n, 5);
    let b = synthetic_matrix(n, 7);
    let expect = multiply(&a, &b, n, &mut ());

    let mut system = SystemBuilder::epxa1().build();
    let bs = Bitstream::builder("matmul").synthetic_payload(1024).build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(MatMulCoprocessor::new()))
        .unwrap();
    let to_bytes = |m: &[u32]| -> Vec<u8> { m.iter().flat_map(|x| x.to_le_bytes()).collect() };
    system
        .fpga_map_object(
            MA,
            to_bytes(&a),
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            MB,
            to_bytes(&b),
            ElemSize::U32,
            Direction::In,
            MapHints::default(),
        )
        .unwrap();
    system
        .fpga_map_object(
            MC,
            vec![0; 4 * n * n],
            ElemSize::U32,
            Direction::Out,
            MapHints::default(),
        )
        .unwrap();
    system.fpga_execute(&[n as u32]).unwrap();
    let got: Vec<u32> = system
        .take_object(MC)
        .unwrap()
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn repeated_executions_accumulate_cleanly() {
    // Three back-to-back executions on one loaded core: counters grow,
    // results stay correct, no state leaks between runs.
    let mut system = SystemBuilder::epxa1().build();
    load_vecadd(&mut system);
    for round in 1..=3u32 {
        let n = 256 * round;
        let a: Vec<u32> = (0..n).map(|x| x + round).collect();
        let b: Vec<u32> = (0..n).map(|x| x * round).collect();
        system
            .fpga_map_object(
                OBJ_A,
                bytes(&a),
                ElemSize::U32,
                Direction::In,
                MapHints::default(),
            )
            .unwrap();
        system
            .fpga_map_object(
                OBJ_B,
                bytes(&b),
                ElemSize::U32,
                Direction::In,
                MapHints::default(),
            )
            .unwrap();
        system
            .fpga_map_object(
                OBJ_C,
                vec![0; 4 * n as usize],
                ElemSize::U32,
                Direction::Out,
                MapHints::default(),
            )
            .unwrap();
        system.fpga_execute(&[n]).unwrap();
        let c = u32s(&system.take_object(OBJ_C).unwrap());
        let expect: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        assert_eq!(c, expect, "round {round}");
        system.take_object(OBJ_A);
        system.take_object(OBJ_B);
    }
    let line = system.irq().line(0).unwrap();
    assert!(
        system.irq().delivered_count(line) >= 3,
        "one done IRQ per run"
    );
    assert!(system.caller_sleep_time() > SimTime::ZERO);
}

#[test]
fn hung_coprocessor_times_out() {
    /// A core that starts but never finishes and never accesses memory.
    #[derive(Debug)]
    struct Hang;
    impl vcop::Coprocessor for Hang {
        fn name(&self) -> &str {
            "hang"
        }
        fn reset(&mut self) {}
        fn step(&mut self, _port: &mut vcop_fabric::port::CoprocessorPort) {}
    }

    let mut system = SystemBuilder::epxa1().edge_budget(10_000).build();
    let bs = Bitstream::builder("hang").build();
    system.fpga_load(&bs.to_bytes(), Box::new(Hang)).unwrap();
    let err = system.fpga_execute(&[]).unwrap_err();
    assert!(matches!(err, Error::Timeout { budget: 10_000 }));
    // The caller's sleep ends at the failure.
    assert!(system.caller_sleep_time() > SimTime::ZERO);
}

#[test]
fn object_past_user_sdram_is_rejected_without_side_effects() {
    // EPXA1 user SDRAM is 64 MiB: a 65 MiB object cannot be mapped, and
    // the rejected call leaves nothing behind — the next request on the
    // same system behaves exactly as on a fresh one.
    let kind = AppKind::Idea;
    let fresh = || {
        let mut system = SystemBuilder::epxa1()
            .clocks(kind.cp_freq(), kind.imu_freq())
            .build();
        kind.load(&mut system).expect("load");
        system
    };
    let job = kind.synthetic_job(4096);
    let serve = |system: &mut vcop::System| {
        job.map(system).expect("map");
        let report = system.fpga_execute(&job.request.params).expect("run");
        assert_eq!(system.take_object(IDEA_OUT).expect("mapped"), job.expect);
        system.take_object(IDEA_IN);
        report
    };

    let mut system = fresh();
    let err = system
        .fpga_map_object(
            IDEA_IN,
            vec![0; 65 << 20],
            ElemSize::U16,
            Direction::In,
            MapHints::default(),
        )
        .expect_err("65 MiB exceeds user SDRAM");
    assert!(matches!(
        err,
        Error::Vim(VimError::ExceedsUserMemory(IDEA_IN))
    ));
    assert_eq!(serve(&mut system), serve(&mut fresh()));
}
