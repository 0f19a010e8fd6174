//! Regenerates Figure 9: IDEA execution time — pure software, normal
//! (manually managed) coprocessor, and the VIM-based coprocessor — for
//! 4/8/16/32 KB inputs. Points are independent simulations and run one
//! per worker thread. Takes no arguments.

use vcop::{Error, SystemBuilder};
use vcop_bench::app::AppKind;
use vcop_bench::experiments::{idea_vim, typical};
use vcop_bench::runner::parallel_map;
use vcop_bench::table::{ms, speedup, BarChart, Table};

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("fig9 takes no arguments");
        std::process::exit(2);
    }
    let mut table = Table::new(vec![
        "input",
        "SW",
        "normal cop.",
        "HW",
        "SW (DP)",
        "SW (IMU)",
        "VIM total",
        "speedup",
        "faults",
    ]);
    println!("Figure 9 — IDEA (core @ 6 MHz, IMU+memory @ 24 MHz, ARM @ 133 MHz)");
    println!("paper: SW = 26/53/105/211 ms; speedups 11x/11x(12x)/18x band; normal");
    println!("coprocessor exceeds available memory at 16 and 32 KB\n");
    let mut chart = BarChart::new(64);

    let points = parallel_map(vec![4usize, 8, 16, 32], |kb| {
        (
            kb,
            idea_vim(kb, SystemBuilder::epxa1()),
            typical(AppKind::Idea, kb),
        )
    });
    for (kb, run, typical) in &points {
        let r = &run.report;
        chart.bar(format!("{kb} KB SW"), vec![("pure SW", run.sw)]);
        if let Ok(rep) = typical {
            chart.bar(
                format!("{kb} KB normal"),
                vec![("normal cop.", rep.total())],
            );
        }
        chart.bar(
            format!("{kb} KB VIM"),
            vec![("HW", r.hw), ("SW (DP)", r.sw_dp), ("SW (IMU)", r.sw_imu)],
        );
        let typical = match typical {
            Ok(rep) => ms(rep.total()),
            Err(Error::ExceedsMemory { .. }) => "exceeds mem.".to_owned(),
            Err(e) => format!("error: {e}"),
        };
        table.row(vec![
            format!("{kb} KB"),
            ms(run.sw),
            typical,
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
