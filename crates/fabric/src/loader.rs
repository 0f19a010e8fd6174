//! Configuration controller: checks and "programs" bitstreams.
//!
//! `FPGA_LOAD` must (a) validate the bitstream, (b) verify it targets
//! this device and fits its PLD, (c) ensure *exclusive use* of the
//! reconfigurable resource (Section 3.1), and (d) account for the time
//! the configuration interface needs to shift the frames in.

use core::fmt;

use vcop_sim::time::SimTime;

use crate::bitstream::{Bitstream, ParseBitstreamError};
use crate::device::DeviceProfile;

/// Errors from [`ConfigController::load`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoadError {
    /// The bitstream container failed to decode or verify.
    Parse(ParseBitstreamError),
    /// The bitstream targets a different family member.
    WrongDevice {
        /// Device named in the bitstream.
        wanted: String,
        /// Device actually present.
        have: String,
    },
    /// The core does not fit the PLD.
    InsufficientResources {
        /// What the core needs.
        required: String,
        /// What the device offers.
        available: String,
    },
    /// The fabric is already configured and owned.
    Busy {
        /// Name of the currently loaded core.
        owner: String,
    },
    /// Every configuration pass failed its CRC check (only reachable
    /// with fault injection; see [`ConfigController::load_with_faults`]).
    ConfigurationFault {
        /// How many passes were attempted before giving up.
        attempts: u32,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "bitstream rejected: {e}"),
            LoadError::WrongDevice { wanted, have } => {
                write!(f, "bitstream targets {wanted} but device is {have}")
            }
            LoadError::InsufficientResources {
                required,
                available,
            } => {
                write!(f, "core needs {required}, device offers {available}")
            }
            LoadError::Busy { owner } => {
                write!(f, "fabric already configured with '{owner}'")
            }
            LoadError::ConfigurationFault { attempts } => {
                write!(
                    f,
                    "configuration stream fault persisted across {attempts} attempt(s)"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseBitstreamError> for LoadError {
    fn from(e: ParseBitstreamError) -> Self {
        LoadError::Parse(e)
    }
}

/// Proof of a successful configuration: describes the loaded core and
/// how long programming took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedCore {
    /// Core name from the bitstream.
    pub name: String,
    /// Time the configuration interface spent shifting frames.
    pub load_time: SimTime,
}

/// The device's configuration controller.
///
/// # Examples
///
/// ```
/// use vcop_fabric::bitstream::Bitstream;
/// use vcop_fabric::device::DeviceProfile;
/// use vcop_fabric::loader::ConfigController;
///
/// # fn main() -> Result<(), vcop_fabric::loader::LoadError> {
/// let mut ctl = ConfigController::new(DeviceProfile::epxa1());
/// let bs = Bitstream::builder("vecadd").synthetic_payload(512).build();
/// let loaded = ctl.load(&bs.to_bytes())?;
/// assert_eq!(loaded.name, "vecadd");
/// ctl.release();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConfigController {
    device: DeviceProfile,
    current: Option<Bitstream>,
}

impl ConfigController {
    /// A controller for an unconfigured device.
    pub fn new(device: DeviceProfile) -> Self {
        ConfigController {
            device,
            current: None,
        }
    }

    /// The device this controller programs.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The currently configured core, if any.
    pub fn current(&self) -> Option<&Bitstream> {
        self.current.as_ref()
    }

    /// Validates `bytes`, checks device/resource compatibility and
    /// exclusivity, then programs the fabric.
    ///
    /// # Errors
    ///
    /// See [`LoadError`]; on any error the fabric state is unchanged.
    pub fn load(&mut self, bytes: &[u8]) -> Result<LoadedCore, LoadError> {
        if let Some(cur) = &self.current {
            return Err(LoadError::Busy {
                owner: cur.name().to_owned(),
            });
        }
        let bs = Bitstream::from_bytes(bytes)?;
        if bs.device() != self.device.kind {
            return Err(LoadError::WrongDevice {
                wanted: bs.device().to_string(),
                have: self.device.kind.to_string(),
            });
        }
        if !bs.resources().fits_in(&self.device.pld) {
            return Err(LoadError::InsufficientResources {
                required: bs.resources().to_string(),
                available: self.device.pld.to_string(),
            });
        }
        // `from_bytes` accepts only a container of exactly its encoded
        // length, so the input length is the size to shift in.
        let size_bits = bytes.len() as u64 * 8;
        debug_assert_eq!(size_bits, bs.size_bits());
        let cycles = size_bits.div_ceil(u64::from(self.device.config_width_bits));
        let load_time = self.device.config_freq.cycles(cycles);
        let name = bs.name().to_owned();
        self.current = Some(bs);
        Ok(LoadedCore { name, load_time })
    }

    /// Like [`ConfigController::load`], but each configuration pass
    /// rolls [`FaultSite::BitstreamLoad`](vcop_sim::fault::FaultSite)
    /// on `faults`: a fired roll models a CRC error in the
    /// configuration stream, wasting one full programming pass before
    /// the controller restarts it. On success the returned attempt
    /// count (≥ 1) tells the caller how many passes to charge for.
    ///
    /// # Errors
    ///
    /// [`LoadError::ConfigurationFault`] when all `max_attempts` passes
    /// fault, plus everything [`ConfigController::load`] can return.
    pub fn load_with_faults(
        &mut self,
        bytes: &[u8],
        faults: &mut vcop_sim::fault::FaultInjector,
        max_attempts: u32,
    ) -> Result<(LoadedCore, u32), LoadError> {
        match faults.clean_bitstream_pass(max_attempts) {
            Some(pass) => self.load(bytes).map(|core| (core, pass)),
            None => Err(LoadError::ConfigurationFault {
                attempts: max_attempts.max(1),
            }),
        }
    }

    /// Releases exclusive ownership, returning the fabric to the
    /// unconfigured state.
    pub fn release(&mut self) {
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use crate::resources::Resources;

    fn bs(name: &str) -> Bitstream {
        Bitstream::builder(name)
            .resources(Resources::new(1000, 1024))
            .synthetic_payload(256)
            .build()
    }

    #[test]
    fn load_and_release() {
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        let loaded = ctl.load(&bs("idea").to_bytes()).unwrap();
        assert_eq!(loaded.name, "idea");
        assert!(loaded.load_time > SimTime::ZERO);
        assert!(ctl.current().is_some());
        assert_eq!(ctl.current().unwrap().name(), "idea");
        ctl.release();
        assert!(ctl.current().is_none());
    }

    #[test]
    fn exclusive_ownership() {
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        ctl.load(&bs("first").to_bytes()).unwrap();
        let err = ctl.load(&bs("second").to_bytes()).unwrap_err();
        assert!(matches!(err, LoadError::Busy { ref owner } if owner == "first"));
        // State unchanged.
        assert_eq!(ctl.current().unwrap().name(), "first");
    }

    #[test]
    fn wrong_device_rejected() {
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        let bs = Bitstream::builder("big").device(DeviceKind::Epxa10).build();
        assert!(matches!(
            ctl.load(&bs.to_bytes()),
            Err(LoadError::WrongDevice { .. })
        ));
        assert!(ctl.current().is_none());
    }

    #[test]
    fn oversized_core_rejected() {
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        let bs = Bitstream::builder("huge")
            .resources(Resources::new(1_000_000, 0))
            .build();
        assert!(matches!(
            ctl.load(&bs.to_bytes()),
            Err(LoadError::InsufficientResources { .. })
        ));
    }

    #[test]
    fn corrupt_bitstream_rejected() {
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        let mut bytes = bs("x").to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(ctl.load(&bytes), Err(LoadError::Parse(_))));
    }

    #[test]
    fn load_time_scales_with_payload() {
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        let small = ctl.load(&bs("s").to_bytes()).unwrap();
        ctl.release();
        let big_bs = Bitstream::builder("b")
            .resources(Resources::new(1000, 1024))
            .synthetic_payload(65_536)
            .build();
        let big = ctl.load(&big_bs.to_bytes()).unwrap();
        assert!(big.load_time > small.load_time * 10);
    }

    #[test]
    fn faulty_configuration_retries_then_succeeds_or_gives_up() {
        use vcop_sim::fault::{FaultInjector, FaultPlan, FaultSite};

        // First pass faults, second succeeds: two attempts charged.
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        let mut inj = FaultInjector::new(FaultPlan::new(1).once(FaultSite::BitstreamLoad, 1));
        let (core, attempts) = ctl
            .load_with_faults(&bs("idea").to_bytes(), &mut inj, 3)
            .unwrap();
        assert_eq!((core.name.as_str(), attempts), ("idea", 2));

        // Every pass faults: the load is abandoned and state unchanged.
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        let mut inj = FaultInjector::new(FaultPlan::new(1).rate(FaultSite::BitstreamLoad, 1.0));
        let err = ctl
            .load_with_faults(&bs("idea").to_bytes(), &mut inj, 3)
            .unwrap_err();
        assert_eq!(err, LoadError::ConfigurationFault { attempts: 3 });
        assert!(ctl.current().is_none());

        // A disabled injector is invisible: one attempt, normal load.
        let mut ctl = ConfigController::new(DeviceProfile::epxa1());
        let mut inj = FaultInjector::disabled();
        let (_, attempts) = ctl
            .load_with_faults(&bs("idea").to_bytes(), &mut inj, 3)
            .unwrap();
        assert_eq!(attempts, 1);
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error as _;
        let e = LoadError::from(ParseBitstreamError::BadMagic);
        assert!(e.source().is_some());
        let busy = LoadError::Busy { owner: "x".into() };
        assert!(busy.source().is_none());
        assert!(busy.to_string().contains("already configured"));
    }
}
