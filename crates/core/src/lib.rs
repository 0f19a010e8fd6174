//! # vcop — interface virtualisation for reconfigurable coprocessors
//!
//! A from-scratch reproduction of *Vuletić, Righetti, Pozzi, Ienne:
//! "Operating System Support for Interface Virtualisation of
//! Reconfigurable Coprocessors" (DATE 2004)* as a cycle-level platform
//! simulation.
//!
//! The paper's idea mirrors virtual memory: a portable coprocessor emits
//! *virtual interface addresses* (object id + element index); a hardware
//! **IMU** translates them to a small dual-port RAM and faults to the OS
//! on a miss; the OS's **VIM** demand-pages the data. Applications use
//! three services (Fig. 6):
//!
//! ```text
//! FPGA_LOAD(bitstream);
//! FPGA_MAP_OBJECT(0, A, SIZE, IN);
//! FPGA_MAP_OBJECT(1, B, SIZE, IN);
//! FPGA_MAP_OBJECT(2, C, SIZE, OUT);
//! FPGA_EXECUTE(SIZE);
//! ```
//!
//! # Examples
//!
//! The motivating example, end to end:
//!
//! ```
//! use vcop::{Direction, MapHints, SystemBuilder};
//! use vcop_apps::vecadd::{VecAddCoprocessor, OBJ_A, OBJ_B, OBJ_C};
//! use vcop_fabric::bitstream::Bitstream;
//! use vcop_imu::imu::ElemSize;
//!
//! # fn main() -> Result<(), vcop::Error> {
//! let mut system = SystemBuilder::epxa1().build();
//! let bitstream = Bitstream::builder("vecadd").synthetic_payload(512).build();
//! system.fpga_load(&bitstream.to_bytes(), Box::new(VecAddCoprocessor::new()))?;
//!
//! let n = 2048u32; // 3 × 8 KB of data: does not fit the 16 KB DP-RAM at once
//! let a: Vec<u8> = (0..n).flat_map(|x| x.to_le_bytes()).collect();
//! let b: Vec<u8> = (0..n).flat_map(|x| (2 * x).to_le_bytes()).collect();
//! system.fpga_map_object(OBJ_A, a, ElemSize::U32, Direction::In, MapHints::default())?;
//! system.fpga_map_object(OBJ_B, b, ElemSize::U32, Direction::In, MapHints::default())?;
//! system.fpga_map_object(OBJ_C, vec![0; 4 * n as usize], ElemSize::U32,
//!                        Direction::Out, MapHints::default())?;
//!
//! let report = system.fpga_execute(&[n])?;
//! assert!(report.faults > 0, "dataset exceeds the interface memory, so it pages");
//!
//! let c = system.take_object(OBJ_C).expect("mapped");
//! let c0 = u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"));
//! assert_eq!(c0, 0);
//! let c9 = u32::from_le_bytes(c[36..40].try_into().expect("4 bytes"));
//! assert_eq!(c9, 27);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod builder;
mod engine;
pub mod error;
pub mod fallback;
pub mod multi;
pub mod report;
pub mod system;

pub use baseline::{run_typical, TypicalConfig, TypicalObject};
pub use builder::Builder;
pub use error::Error;
pub use fallback::{FallbackFn, FallbackIo, RecoveryPolicy, SoftwareFallback};
pub use multi::{
    CoprocessorScheduler, DeficitRoundRobin, MultiReport, MultiSystem, MultiSystemBuilder, Request,
    RequestObject, RoundRobin, SchedulerKind,
};
pub use report::{BaselineReport, ExecutionReport};
pub use system::{Kernel, SingleTenant, System, SystemBuilder};

// Re-export the types applications touch at the API boundary so user
// code can depend on `vcop` alone.
pub use vcop_fabric::port::{Coprocessor, ObjectId};
pub use vcop_imu::imu::ElemSize;
pub use vcop_sim::fault::{FaultInjector, FaultPlan, FaultSite};
pub use vcop_vim::object::{Direction, MapHints};
pub use vcop_vim::policy::PolicyKind;
pub use vcop_vim::prefetch::PrefetchMode;
pub use vcop_vim::TransferMode;
