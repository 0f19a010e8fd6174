//! Figure-level regression tests: each assertion pins one quantitative
//! claim of the paper to the model (see EXPERIMENTS.md for the full
//! paper-vs-measured record).

use vcop::Error;
use vcop_bench::app::AppKind;
use vcop_bench::experiments::{
    adpcm_vim, fig7_waveform, idea_sw_baseline, idea_vim, typical, ExperimentOptions,
};

#[test]
fn fig7_read_data_on_fourth_rising_edge() {
    // The ASCII art samples one column per rising edge; cp_access and
    // cp_tlbhit of the same access must be exactly three columns apart.
    let (ascii, _) = fig7_waveform();
    let row = |name: &str| -> &str {
        ascii
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("row {name} missing"))
    };
    let access = row("cp_access");
    let tlbhit = row("cp_tlbhit");
    let first_high = |row: &str| row.find('#').expect("row has a high phase");
    let d_access = first_high(access);
    let d_tlbhit = first_high(tlbhit);
    // Column width is uniform; 3 edges apart = data on the 4th edge
    // counting the issue edge as the first.
    let col = (access.len() - access.find('|').unwrap() - 1) / 32;
    assert_eq!(
        (d_tlbhit - d_access) / col,
        3,
        "tlbhit must rise 3 edges after access:\n{ascii}"
    );
}

#[test]
fn fig8_speedup_band_and_2kb_no_faults() {
    let opts = ExperimentOptions::default();
    for (kb, expect_faults) in [(2usize, false), (4, true), (8, true)] {
        let run = adpcm_vim(kb, &opts);
        let s = run.speedup();
        // Paper: 1.5x / 1.5x / 1.6x.
        assert!(
            (1.3..=1.9).contains(&s),
            "{kb} KB speedup {s:.2} outside the Fig. 8 band"
        );
        assert_eq!(
            run.report.faults > 0,
            expect_faults,
            "{kb} KB fault behaviour (Section 4.1)"
        );
        // Output is 4× the input size (Section 4.1).
        assert!(run.report.page_loads as usize >= kb * 1024 * 5 / 2048 - 1);
    }
}

#[test]
fn fig9_speedups_and_memory_wall() {
    let opts = ExperimentOptions::default();
    let mut speedups = Vec::new();
    for kb in [4usize, 8, 16, 32] {
        let run = idea_vim(kb, &opts);
        let s = run.speedup();
        // Paper band: 11–12× for the VIM-based version.
        assert!((8.0..=14.0).contains(&s), "{kb} KB speedup {s:.2}");
        speedups.push(s);
    }
    // The speedup is roughly size-independent (paper: "the speedup is
    // only moderately affected" as misses appear).
    let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    assert!(max / min < 1.2, "speedups vary too much: {speedups:?}");

    // The normal coprocessor runs at 4/8 KB and hits the memory wall at
    // 16/32 KB.
    assert!(typical(AppKind::Idea, 4).is_ok());
    assert!(typical(AppKind::Idea, 8).is_ok());
    assert!(matches!(
        typical(AppKind::Idea, 16),
        Err(Error::ExceedsMemory { .. })
    ));
    assert!(matches!(
        typical(AppKind::Idea, 32),
        Err(Error::ExceedsMemory { .. })
    ));
}

#[test]
fn fig9_software_baseline_matches_published_numbers() {
    for (kb, paper_ms) in [(4usize, 26.0), (8, 53.0), (16, 105.0), (32, 211.0)] {
        let t = idea_sw_baseline(kb).as_ms_f64();
        assert!(
            (t - paper_ms).abs() / paper_ms < 0.10,
            "{kb} KB: {t:.1} ms vs paper {paper_ms} ms"
        );
    }
}

#[test]
fn normal_coprocessor_beats_vim_version() {
    // Fig. 9 annotations: ~18x for the normal coprocessor vs ~11x for
    // the VIM-based one; the gap is translation + management overhead.
    let sw = idea_sw_baseline(4);
    let direct = typical(AppKind::Idea, 4).expect("fits");
    let vim = idea_vim(4, &ExperimentOptions::default());
    let s_typ = sw.as_ps() as f64 / direct.total().as_ps() as f64;
    let s_vim = vim.speedup();
    assert!(s_typ > s_vim, "normal {s_typ:.1}x !> VIM {s_vim:.1}x");
    assert!(
        (13.0..=21.0).contains(&s_typ),
        "normal coprocessor speedup {s_typ:.1} outside band"
    );
}

#[test]
fn imu_management_is_a_small_fraction() {
    // Paper: "up to 2.5% of the total execution time".
    let opts = ExperimentOptions::default();
    for kb in [2usize, 8] {
        let run = adpcm_vim(kb, &opts);
        assert!(
            run.report.imu_overhead_fraction() < 0.025,
            "adpcm {kb} KB IMU fraction {:.3}",
            run.report.imu_overhead_fraction()
        );
    }
    for kb in [4usize, 32] {
        let run = idea_vim(kb, &opts);
        assert!(
            run.report.imu_overhead_fraction() < 0.025,
            "idea {kb} KB IMU fraction {:.3}",
            run.report.imu_overhead_fraction()
        );
    }
}

#[test]
fn translation_overhead_band() {
    // Paper: "in the IDEA case around 20%" of hardware time. Measured as
    // the HW-time excess over the direct (manually managed) interface.
    let direct = typical(AppKind::Idea, 4).expect("fits");
    let vim = idea_vim(4, &ExperimentOptions::default());
    let frac =
        (vim.report.hw.as_ps() as f64 - direct.hw.as_ps() as f64) / vim.report.hw.as_ps() as f64;
    assert!(
        (0.10..=0.40).contains(&frac),
        "translation overhead {:.0}% outside the band",
        frac * 100.0
    );
}

#[test]
fn dp_management_dominates_overheads() {
    // Paper: "The largest fraction of overhead is actually due to
    // managing the dual-port memory."
    let run = idea_vim(32, &ExperimentOptions::default());
    assert!(run.report.sw_dp > run.report.sw_imu * 5);
}
