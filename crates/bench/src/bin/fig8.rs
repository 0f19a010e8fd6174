//! Regenerates Figure 8: adpcmdecode execution time, pure software vs
//! the VIM-based coprocessor (HW + SW(DP) + SW(IMU)), for 2/4/8 KB
//! inputs. Points are independent simulations and run one per worker
//! thread. Takes no arguments.

use vcop::SystemBuilder;
use vcop_bench::experiments::adpcm_vim;
use vcop_bench::runner::parallel_map;
use vcop_bench::table::{ms, speedup, BarChart, Table};

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("fig8 takes no arguments");
        std::process::exit(2);
    }
    let mut table = Table::new(vec![
        "input",
        "SW",
        "HW",
        "SW (DP)",
        "SW (IMU)",
        "VIM total",
        "speedup",
        "faults",
    ]);
    println!("Figure 8 — adpcmdecode (coprocessor + IMU @ 40 MHz, ARM @ 133 MHz)");
    println!("paper: speedups 1.5x / 1.5x / 1.6x; SW(IMU) <= 2.5% of total\n");
    let mut chart = BarChart::new(64);

    let points = parallel_map(vec![2usize, 4, 8], |kb| {
        (kb, adpcm_vim(kb, SystemBuilder::epxa1()))
    });
    for (kb, run) in &points {
        let r = &run.report;
        chart.bar(format!("{kb} KB SW"), vec![("pure SW", run.sw)]);
        chart.bar(
            format!("{kb} KB VIM"),
            vec![("HW", r.hw), ("SW (DP)", r.sw_dp), ("SW (IMU)", r.sw_imu)],
        );
        table.row(vec![
            format!("{kb} KB"),
            ms(run.sw),
            ms(r.hw),
            ms(r.sw_dp),
            ms(r.sw_imu),
            ms(r.total()),
            speedup(run.speedup()),
            r.faults.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("{}", chart.render());
}
