//! VIM error type.

use core::fmt;

use vcop_fabric::port::ObjectId;

/// Errors surfaced by the Virtual Interface Manager.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VimError {
    /// An object id was mapped twice.
    DuplicateObject(ObjectId),
    /// The reserved parameter id was used for a data object.
    ReservedObject,
    /// A mapped object was declared with a zero length.
    EmptyObject(ObjectId),
    /// A mapped object does not fit the rest of user SDRAM.
    ExceedsUserMemory(ObjectId),
    /// An object's byte length is not a multiple of its element size.
    UnalignedObject(ObjectId),
    /// The coprocessor accessed an object the application never mapped.
    UnknownObject(ObjectId),
    /// The coprocessor accessed beyond the mapped length of an object.
    OutOfBounds {
        /// Offending object.
        obj: ObjectId,
        /// Faulting virtual page within the object.
        vpage: u32,
        /// Number of pages the object spans.
        pages: u32,
    },
    /// The coprocessor read parameters after invalidating the parameter
    /// page.
    ParamPageGone,
    /// Fault service was requested but the IMU reports no fault.
    NoFaultPending,
    /// End-of-operation service was requested but the IMU is not done.
    NotDone,
    /// No frame could be allocated (all frames wired — cannot happen with
    /// a sane configuration, but surfaced rather than panicking).
    NoFrameAvailable,
    /// The scalar parameter block does not fit the parameter page.
    TooManyParams {
        /// Parameters requested.
        requested: usize,
        /// Capacity of one page in 32-bit words.
        capacity: usize,
    },
    /// A page transfer kept failing after the bounded retry budget was
    /// spent (only reachable with fault injection). The hardware run
    /// cannot be trusted; the caller should reset and retry, or fall
    /// back to software.
    TransferFault {
        /// Object whose page could not be moved.
        obj: ObjectId,
        /// Virtual page within the object.
        vpage: u32,
    },
    /// A parity upset hit a dirty resident page: the modified data in
    /// the interface memory is lost, so the run cannot be repaired in
    /// place (only reachable with fault injection).
    ParityLoss {
        /// Frame whose contents were lost.
        frame: usize,
    },
}

impl fmt::Display for VimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VimError::DuplicateObject(o) => write!(f, "object {o} mapped twice"),
            VimError::ReservedObject => write!(f, "object id 0xFF is reserved for parameters"),
            VimError::EmptyObject(o) => write!(f, "object {o} has zero length"),
            VimError::ExceedsUserMemory(o) => write!(f, "object {o} does not fit user SDRAM"),
            VimError::UnalignedObject(o) => {
                write!(f, "object {o} length is not a multiple of its element size")
            }
            VimError::UnknownObject(o) => write!(f, "coprocessor accessed unmapped object {o}"),
            VimError::OutOfBounds { obj, vpage, pages } => write!(
                f,
                "coprocessor accessed page {vpage} of {obj}, which spans only {pages} pages"
            ),
            VimError::ParamPageGone => {
                write!(f, "parameter page accessed after invalidation")
            }
            VimError::NoFaultPending => write!(f, "no fault pending in the IMU"),
            VimError::NotDone => write!(f, "coprocessor operation is not complete"),
            VimError::NoFrameAvailable => write!(f, "no interface page frame available"),
            VimError::TooManyParams {
                requested,
                capacity,
            } => {
                write!(
                    f,
                    "{requested} parameters exceed the page capacity of {capacity}"
                )
            }
            VimError::TransferFault { obj, vpage } => write!(
                f,
                "page {vpage} of {obj} failed to transfer after retries were exhausted"
            ),
            VimError::ParityLoss { frame } => write!(
                f,
                "parity upset destroyed dirty data in interface frame {frame}"
            ),
        }
    }
}

impl std::error::Error for VimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(VimError::DuplicateObject(ObjectId(1))
            .to_string()
            .contains("twice"));
        assert!(VimError::OutOfBounds {
            obj: ObjectId(0),
            vpage: 9,
            pages: 4
        }
        .to_string()
        .contains("page 9"));
        assert!(VimError::TooManyParams {
            requested: 600,
            capacity: 512
        }
        .to_string()
        .contains("600"));
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync>(_: E) {}
        check(VimError::NoFaultPending);
    }
}
