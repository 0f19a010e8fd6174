//! Design-space exploration of the VIM: replacement policies, prefetch,
//! transfer strategies and device sizes, on the IDEA workload.
//!
//! Run with: `cargo run --release --example policy_explorer [kb]`

use vcop::{PolicyKind, PrefetchMode, SystemBuilder, TransferMode};
use vcop_bench::experiments::idea_vim;
use vcop_bench::table::{ms, Table};
use vcop_fabric::DeviceProfile;

fn main() {
    let kb: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    println!("VIM design space on IDEA, {kb} KB plaintext\n");

    let mut table = Table::new(vec![
        "device", "policy", "prefetch", "copies", "faults", "loads", "SW (DP)", "total",
    ]);
    for device in [DeviceProfile::epxa1(), DeviceProfile::epxa4()] {
        for policy in [PolicyKind::Fifo, PolicyKind::Lru, PolicyKind::Clock] {
            for (pf_name, prefetch) in [
                ("none", PrefetchMode::None),
                ("next", PrefetchMode::NextPage { degree: 1 }),
            ] {
                for (tx_name, transfer) in [
                    ("double", TransferMode::Double),
                    ("single", TransferMode::Single),
                ] {
                    let builder = SystemBuilder::new(device)
                        .policy(policy)
                        .prefetch(prefetch)
                        .transfer(transfer);
                    let run = idea_vim(kb, builder);
                    table.row(vec![
                        device.kind.to_string(),
                        policy.to_string(),
                        pf_name.to_owned(),
                        tx_name.to_owned(),
                        run.report.faults.to_string(),
                        run.report.page_loads.to_string(),
                        ms(run.report.sw_dp),
                        ms(run.report.total()),
                    ]);
                }
            }
        }
    }
    println!("{}", table.render());
    println!("Every configuration ran the identical application code and coprocessor");
    println!("FSM and produced bit-identical ciphertext — the portability claim.");
}
