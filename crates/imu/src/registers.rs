//! The IMU's processor-visible status and control registers.
//!
//! Fig. 4 of the paper shows three registers accessible by the main
//! processor: the *address register* `AR`, which "holds the address of
//! the coprocessor memory access performed most recently" so the OS can
//! determine which access faulted; a *status register* `SR`; and a
//! *control register* `CR`. `SR` and `CR` are modeled here as the
//! fields the VIM reads and writes. `AR` is not: the modeled OS learns
//! the faulting access from [`crate::imu::Imu::fault_cause`]. No bus
//! encoding is modeled, since the VIM reaches these registers through
//! the typed [`crate::imu::Imu`] API.

use core::fmt;

/// Status register bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusRegister {
    /// A translation miss stalled the coprocessor; OS service required.
    pub fault: bool,
    /// The coprocessor signalled `CP_FIN`.
    pub done: bool,
    /// The coprocessor has read its parameters; the parameter page may be
    /// reused for data mapping.
    pub param_freed: bool,
    /// The coprocessor is running (`CP_START` asserted, `CP_FIN` not yet
    /// seen).
    pub running: bool,
}

impl fmt::Display for StatusRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SR{{fault={} done={} param_freed={} running={}}}",
            u8::from(self.fault),
            u8::from(self.done),
            u8::from(self.param_freed),
            u8::from(self.running)
        )
    }
}

/// Control register commands, as the VIM writes them through
/// [`crate::imu::Imu::write_control`]; each set field is a strobe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControlRegister {
    /// Assert `CP_START` and begin the operation.
    pub start: bool,
    /// Restart a stalled translation after the OS repaired the mapping.
    pub resume: bool,
    /// Clear `done`/`fault` status and reset the datapath.
    pub reset: bool,
}

impl fmt::Display for ControlRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CR{{start={} resume={} reset={}}}",
            u8::from(self.start),
            u8::from(self.resume),
            u8::from(self.reset)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(StatusRegister::default().to_string().starts_with("SR{"));
        assert!(ControlRegister::default().to_string().starts_with("CR{"));
    }
}
