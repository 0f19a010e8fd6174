//! Top-level error type of the `vcop` crate.

use core::fmt;

use vcop_fabric::loader::LoadError;
use vcop_vim::VimError;

/// Errors surfaced by the [`crate::System`] programming interface.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// `FPGA_LOAD` failed (bad bitstream, resources, ownership).
    Load(LoadError),
    /// A VIM service failed (bad mapping, coprocessor protocol
    /// violation, …).
    Vim(VimError),
    /// `FPGA_EXECUTE` was called with no coprocessor configured.
    NoCoprocessor,
    /// The coprocessor did not finish within the execution edge budget —
    /// a hung FSM or an unserviceable access pattern.
    Timeout {
        /// Edge budget that was exhausted.
        budget: u64,
    },
    /// A baseline run could not fit its data in the interface memory
    /// (the "exceeds available memory" condition of Fig. 9), or a
    /// partitioned multi-tenant system has too few frames to give every
    /// tenant the 2 it needs.
    ExceedsMemory {
        /// Bytes the workload needs resident.
        required: usize,
        /// Interface memory capacity.
        available: usize,
    },
    /// The recovery watchdog saw the coprocessor make no progress —
    /// no translation, fault, page arrival or completion — for its
    /// whole no-progress window with no miss latched in `SR.fault`, or a
    /// demand page's transfer spent its retry budget. The platform
    /// resets the fabric and retries, or falls back to software.
    Watchdog {
        /// Edges the coprocessor sat without progress before the
        /// watchdog fired.
        stalled_edges: u64,
    },
    /// Hardware recovery was exhausted and the registered software
    /// fallback failed too (or rejected the request).
    FallbackFailed {
        /// The fallback's own failure description.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Load(e) => write!(f, "FPGA_LOAD failed: {e}"),
            Error::Vim(e) => write!(f, "interface management failed: {e}"),
            Error::NoCoprocessor => write!(f, "no coprocessor loaded"),
            Error::Timeout { budget } => {
                write!(f, "coprocessor did not finish within {budget} edges")
            }
            Error::ExceedsMemory {
                required,
                available,
            } => write!(
                f,
                "dataset of {required} bytes exceeds available memory ({available} bytes)"
            ),
            Error::Watchdog { stalled_edges } => write!(
                f,
                "watchdog: coprocessor made no progress for {stalled_edges} edges"
            ),
            Error::FallbackFailed { reason } => {
                write!(f, "software fallback failed: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Load(e) => Some(e),
            Error::Vim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoadError> for Error {
    fn from(e: LoadError) -> Self {
        Error::Load(e)
    }
}

impl From<VimError> for Error {
    fn from(e: VimError) -> Self {
        Error::Vim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        use std::error::Error as _;
        let e = Error::from(VimError::NoFaultPending);
        assert!(e.to_string().contains("interface management"));
        assert!(e.source().is_some());
        let t = Error::Timeout { budget: 5 };
        assert!(t.source().is_none());
        assert!(t.to_string().contains("5 edges"));
        let m = Error::ExceedsMemory {
            required: 32768,
            available: 16384,
        };
        assert!(m.to_string().contains("exceeds available memory"));
    }
}
