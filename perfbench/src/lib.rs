//! # vcop-perfbench — the repository's benchmark
//!
//! Four seeded workloads drive the public `vcop` API end to end and
//! verify every output byte against the `vcop_apps` references:
//!
//! | workload | what it stresses |
//! |---|---|
//! | `idea_sync` | Fig. 9 point: coprocessor FSM, IMU fused hits, event kernel; DMA idle |
//! | `adpcm_overlap` | DMA engine, frame machine, prefetch, edge-stepping fallback |
//! | `serving_mix` | multi-tenant segment loop, context switches, cross-ASID steals |
//! | `adpcm_faults` | recovery layer: retries, watchdog, resets, software fallback |
//!
//! Two kinds of number come out. *Modeled* (`sim*`) numbers are the
//! simulated platform's time and counts over the run's first pass; they
//! repeat exactly for a seed. *Host* (`host*`, `setup_s`) numbers are
//! the simulator's own speed. End-to-end numbers come from an untraced
//! loop; per-layer host numbers from a second, traced loop whose spans
//! are written as Chrome trace-event JSON.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload idea_sync --seed 1 --seconds 10 --trace 0
//! ```

pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
