//! # vcop-imu — the Interface Management Unit
//!
//! The hardware half of the paper's virtualisation layer: a unit with
//! "a strong similarity to a classic MMU" that translates the virtual
//! interface addresses generated by a portable coprocessor into physical
//! dual-port RAM addresses, stalls the coprocessor on a miss, and
//! requests OS service through an interrupt.
//!
//! * [`registers`] — the processor-visible `SR`/`CR` registers;
//! * [`tlb`] — the CAM translation table with validity and dirtiness;
//! * [`imu`] — the multi-cycle translation datapath ([`imu::Imu`]),
//!   including the pipelined variant used by the ablation benches, and
//!   the typed [`imu::FaultCause`] through which the OS reads a fault.
//!
//! # Examples
//!
//! Driving a single translated read by hand (the `vcop` crate's
//! [`System`](https://docs.rs/vcop) normally does this):
//!
//! ```
//! use vcop_fabric::port::{CoprocessorPort, ObjectId, PortLink};
//! use vcop_imu::imu::{ElemSize, Imu, ImuConfig};
//! use vcop_imu::tlb::{TlbEntry, VirtualPage};
//! use vcop_sim::mem::{DualPortRam, PageIndex, Port};
//! use vcop_sim::time::SimTime;
//! use vcop_sim::trace::TraceSink;
//!
//! # fn main() -> Result<(), vcop_sim::SimError> {
//! let mut dpram = DualPortRam::epxa1();
//! dpram.write_word(Port::Cpu, 0, 0xCAFE)?;
//!
//! let mut imu = Imu::new(ImuConfig::prototype(8, 2048));
//! imu.set_object_layout(ObjectId(0), ElemSize::U32);
//! imu.tlb_mut().set_entry(0, TlbEntry {
//!     valid: true,
//!     dirty: false,
//!     asid: vcop_imu::tlb::Asid::SINGLE,
//!     vpage: VirtualPage { obj: ObjectId(0), page: 0 },
//!     frame: PageIndex(0),
//! });
//!
//! let mut port = CoprocessorPort::new(1);
//! port.issue_read(ObjectId(0), 0);
//! let mut sink = TraceSink::disabled();
//! let mut t = SimTime::ZERO;
//! // Mark running so the datapath advances.
//! {
//!     let mut link = PortLink::new(&mut port);
//!     imu.write_control(
//!         vcop_imu::registers::ControlRegister { start: true, ..Default::default() },
//!         &mut link,
//!     );
//! }
//! for _ in 0..3 {
//!     let mut link = PortLink::new(&mut port);
//!     imu.step(t, &mut link, &mut dpram, &mut sink);
//!     t += SimTime::from_ns(25);
//! }
//! assert_eq!(port.take_completed().expect("completed").data, 0xCAFE);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod imu;
pub mod registers;
pub mod tlb;

pub use imu::{ElemSize, FaultCause, Imu, ImuConfig, ImuEvent, ImuExecContext};
pub use registers::{ControlRegister, StatusRegister};
pub use tlb::{Asid, Tlb, TlbEntry, TlbHit, VirtualPage};
