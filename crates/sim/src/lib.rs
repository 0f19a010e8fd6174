//! # vcop-sim — simulation substrate for the vcop workspace
//!
//! Cycle-level building blocks for the reconfigurable-SoC platform model
//! used to reproduce *Vuletić et al., "Operating System Support for
//! Interface Virtualisation of Reconfigurable Coprocessors" (DATE 2004)*:
//!
//! * [`time`] — picosecond simulation time and exact clock arithmetic;
//! * [`clock`] — clock domains and a multi-clock edge scheduler;
//! * [`mem`] — the dual-port RAM shared by PLD and CPU, and an SDRAM
//!   timing model;
//! * [`bus`] — an AMBA-AHB transfer cost model;
//! * [`dma`] — a descriptor-based DMA engine cost model;
//! * [`irq`] — interrupt lines and a small controller;
//! * [`fault`] — deterministic, seeded fault injection for reliability
//!   experiments;
//! * [`sched`] — wake hints behind the event-driven simulation kernel;
//! * [`histogram`] — observed latency samples and their nearest-rank
//!   percentiles, for reports;
//! * [`cpu`] — the ARM cost model used by pure-software baselines;
//! * [`trace`] — waveform capture with VCD and ASCII rendering;
//! * [`stats`](mod@stats) — typed statistics structs, declared with [`stats!`].
//!
//! # Examples
//!
//! Costing a VIM page copy over the AHB and converting it to time:
//!
//! ```
//! use vcop_sim::bus::{AhbBus, BurstKind, SlaveProfile};
//! use vcop_sim::cpu::ArmCpu;
//! use vcop_sim::time::Frequency;
//!
//! let bus = AhbBus::new(Frequency::from_mhz(133));
//! let words = 2048 / 4; // one 2 KB page
//! let cycles = bus.copy_cycles(words, SlaveProfile::SDRAM, SlaveProfile::DPRAM,
//!                              BurstKind::Single);
//! let cpu = ArmCpu::epxa1();
//! let t = cpu.cycles_to_time(cycles);
//! assert!(t.as_ps() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod clock;
pub mod cpu;
pub mod dma;
pub mod error;
pub mod fault;
pub mod histogram;
pub mod irq;
pub mod mem;
pub mod sched;
pub mod stats;
pub mod time;
pub mod trace;

pub use error::SimError;
pub use time::{Frequency, SimTime};
