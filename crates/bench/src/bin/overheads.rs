//! Regenerates the prose claims of Section 4.1:
//!
//! * "the software execution time for IMU management [...] is up to 2.5%
//!   of the total execution time";
//! * "the hardware execution time includes address translation, whose
//!   overhead is unfortunately not always negligible (in the IDEA case
//!   around 20%)";
//! * "the largest fraction of overhead is actually due to managing the
//!   dual-port memory".
//!
//! The translation overhead is measured empirically: the same core FSM
//! runs once through the IMU and once on the direct (manually managed)
//! interface; the hardware-time difference is what translation costs.

use vcop::SystemBuilder;
use vcop_bench::app::AppKind;
use vcop_bench::experiments::{adpcm_vim, idea_vim, typical};
use vcop_bench::table::Table;

fn main() {
    let mut table = Table::new(vec![
        "experiment",
        "IMU mgmt %",
        "DP mgmt %",
        "translation % of HW",
    ]);

    println!("Section 4.1 overhead claims\n");

    // Points where the direct version also fits the dual-port memory,
    // so the translation overhead can be measured pairwise.
    let adpcm = adpcm_vim(2, SystemBuilder::epxa1());
    let adpcm_direct = typical(AppKind::Adpcm, 2).expect("2 KB fits the dual-port RAM");
    let idea = idea_vim(4, SystemBuilder::epxa1());
    let idea_direct = typical(AppKind::Idea, 4).expect("4 KB fits the dual-port RAM");

    for (name, run_hw, run, direct_hw) in [
        (
            "adpcmdecode 2KB",
            adpcm.report.hw,
            &adpcm.report,
            adpcm_direct.hw,
        ),
        ("IDEA 4KB", idea.report.hw, &idea.report, idea_direct.hw),
    ] {
        let translation =
            (run_hw.as_ps() as f64 - direct_hw.as_ps() as f64) / run_hw.as_ps() as f64;
        table.row(vec![
            name.to_owned(),
            format!("{:.2}%", run.imu_overhead_fraction() * 100.0),
            format!("{:.2}%", run.dp_overhead_fraction() * 100.0),
            format!("{:.1}%", translation * 100.0),
        ]);
    }

    // Larger points (direct version no longer fits): management shares.
    for (name, report) in [
        (
            "adpcmdecode 8KB",
            adpcm_vim(8, SystemBuilder::epxa1()).report,
        ),
        ("IDEA 32KB", idea_vim(32, SystemBuilder::epxa1()).report),
    ] {
        table.row(vec![
            name.to_owned(),
            format!("{:.2}%", report.imu_overhead_fraction() * 100.0),
            format!("{:.2}%", report.dp_overhead_fraction() * 100.0),
            "n/a (direct version exceeds memory)".to_owned(),
        ]);
    }

    println!("{}", table.render());
    println!("paper: IMU mgmt <= 2.5%; IDEA translation ~= 20%; DP mgmt dominates");
}
