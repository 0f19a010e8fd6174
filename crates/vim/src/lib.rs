//! # vcop-vim — the Virtual Interface Manager
//!
//! The OS half of the paper's virtualisation layer ("implemented as a
//! Linux kernel module" on the prototype): demand paging of the
//! coprocessor interface memory.
//!
//! * [`object`] — mapped interface objects (`FPGA_MAP_OBJECT` semantics);
//! * [`frames`] — the physical frame table of the dual-port RAM;
//! * [`policy`] — replacement policies (FIFO, LRU, Random, Clock);
//! * [`prefetch`] — speculative page loading;
//! * [`cost`] — the ARM/AHB/SDRAM cost model that prices every kernel
//!   action, including the prototype's double-transfer copies;
//! * [`manager`] — [`manager::Vim`]: the page-fault and end-of-operation
//!   services;
//! * [`error`] — [`error::VimError`].
//!
//! The crate is deliberately *mechanism only*: it never advances
//! simulated time itself. The platform harness in the `vcop` crate calls
//! the services when the IMU interrupts and stalls the coprocessor clock
//! domain for the returned [`manager::ServiceTimes`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod error;
pub mod frames;
pub mod manager;
pub mod object;
pub mod policy;
pub mod prefetch;

pub use cost::{OsCostModel, OsOverheads, TransferMode};
pub use error::VimError;
pub use manager::{
    DemandReady, FaultService, Scope, ServiceTimes, Vim, VimConfig, VimCounts, VimTimes,
};
pub use object::{Direction, MapHints, MappedObject};
pub use policy::PolicyKind;
pub use prefetch::PrefetchMode;
