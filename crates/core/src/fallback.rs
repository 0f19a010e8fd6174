//! Transparent software fallback and the recovery policy around it.
//!
//! The paper's promise is that `FPGA_EXECUTE` is *transparent*: the
//! application cannot tell how its operation was carried out. This
//! module carries that promise through hardware failure. When the
//! platform's bounded retries and watchdog resets are exhausted, the
//! [`System`](crate::System) runs a registered [`SoftwareFallback`]
//! over the very same mapped objects the coprocessor was working on —
//! reading inputs and writing outputs through [`FallbackIo`] — so the
//! application receives byte-identical results from `take_object` and
//! only the report's `fallback_taken` flag records the detour.
//!
//! [`RecoveryPolicy`] is the knob set: how many hardware attempts to
//! make, how long the watchdog lets the coprocessor sit without
//! progress, and how retry backoff scales.

use core::fmt;

use vcop_fabric::port::ObjectId;
use vcop_sim::time::SimTime;

/// How the platform responds to hardware faults during `FPGA_EXECUTE`.
///
/// The default policy (3 attempts, a 200k-edge watchdog, 5 µs backoff)
/// is only consulted when fault injection or recovery is explicitly
/// enabled on the builder; otherwise the execution path is exactly the
/// fault-oblivious one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total hardware attempts per `FPGA_EXECUTE` (≥ 1). After the
    /// last failed attempt the software fallback takes over.
    pub max_attempts: u32,
    /// Bitstream programming passes per fabric (re)configuration
    /// before the fabric is declared dead.
    pub max_load_attempts: u32,
    /// Edges the coprocessor may sit without progress — no translation,
    /// fault, page arrival or completion — before the watchdog acts: it
    /// serves a miss latched in `SR.fault` (its interrupt was lost) in
    /// place, and otherwise resets the fabric. `None` disarms the
    /// watchdog.
    pub watchdog_edges: Option<u64>,
    /// Base backoff charged between hardware attempts, scaled linearly
    /// with the attempt number.
    pub backoff: SimTime,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            max_load_attempts: 3,
            watchdog_edges: Some(200_000),
            backoff: SimTime::from_us(5),
        }
    }
}

/// The object view a [`SoftwareFallback`] computes over: the same
/// mapped objects the hardware run was using, addressed by the same
/// ids. Inputs are read with [`FallbackIo::object`], outputs written in
/// place with [`FallbackIo::object_mut`].
pub trait FallbackIo {
    /// Read-only bytes of object `id`, if mapped.
    fn object(&self, id: ObjectId) -> Option<&[u8]>;
    /// Mutable bytes of object `id`, if mapped.
    fn object_mut(&mut self, id: ObjectId) -> Option<&mut [u8]>;
}

/// A software implementation of the operation a coprocessor performs,
/// invoked when hardware recovery is exhausted.
///
/// Implementations must be *semantically identical* to the hardware
/// core — the whole point is that the application receives the same
/// bytes either way. The returned [`SimTime`] is the modelled CPU time
/// of the software computation (e.g. from `vcop_apps::timing`), which
/// the platform adds to the report's wall clock.
pub trait SoftwareFallback {
    /// Short name for reports and traces.
    fn name(&self) -> &'static str {
        "software"
    }

    /// Computes the operation over `io` with the scalar `params` the
    /// application passed to `FPGA_EXECUTE`, returning the modelled CPU
    /// time, or a description of why the request cannot be served.
    fn run(&self, io: &mut dyn FallbackIo, params: &[u32]) -> Result<SimTime, String>;
}

impl fmt::Debug for dyn SoftwareFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SoftwareFallback({})", self.name())
    }
}

/// A [`SoftwareFallback`] built from a closure — the convenient form
/// for tests and benches.
///
/// ```
/// use vcop::{FallbackFn, FallbackIo, SoftwareFallback};
/// use vcop_fabric::port::ObjectId;
/// use vcop_sim::time::SimTime;
///
/// let fb = FallbackFn::new("double", |io: &mut dyn FallbackIo, _params: &[u32]| {
///     let input: Vec<u8> = io.object(ObjectId(0)).ok_or("no input")?.to_vec();
///     let out = io.object_mut(ObjectId(1)).ok_or("no output")?;
///     for (o, i) in out.iter_mut().zip(input) {
///         *o = i.wrapping_mul(2);
///     }
///     Ok(SimTime::from_us(10))
/// });
/// assert_eq!(fb.name(), "double");
/// ```
pub struct FallbackFn {
    name: &'static str,
    #[allow(clippy::type_complexity)]
    f: Box<dyn Fn(&mut dyn FallbackIo, &[u32]) -> Result<SimTime, String>>,
}

impl FallbackFn {
    /// Wraps `f` as a named fallback.
    pub fn new(
        name: &'static str,
        f: impl Fn(&mut dyn FallbackIo, &[u32]) -> Result<SimTime, String> + 'static,
    ) -> Self {
        FallbackFn {
            name,
            f: Box::new(f),
        }
    }
}

impl fmt::Debug for FallbackFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FallbackFn({})", self.name)
    }
}

impl SoftwareFallback for FallbackFn {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, io: &mut dyn FallbackIo, params: &[u32]) -> Result<SimTime, String> {
        (self.f)(io, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    struct MapIo(BTreeMap<u8, Vec<u8>>);

    impl FallbackIo for MapIo {
        fn object(&self, id: ObjectId) -> Option<&[u8]> {
            self.0.get(&id.0).map(|v| v.as_slice())
        }
        fn object_mut(&mut self, id: ObjectId) -> Option<&mut [u8]> {
            self.0.get_mut(&id.0).map(|v| v.as_mut_slice())
        }
    }

    #[test]
    fn fallback_fn_runs_over_io() {
        let fb = FallbackFn::new("sum", |io, params| {
            let a = io.object(ObjectId(0)).ok_or("no a")?.to_vec();
            let out = io.object_mut(ObjectId(1)).ok_or("no out")?;
            for (o, x) in out.iter_mut().zip(a) {
                *o = x + params[0] as u8;
            }
            Ok(SimTime::from_us(1))
        });
        let mut io = MapIo(BTreeMap::from([(0, vec![1, 2, 3]), (1, vec![0, 0, 0])]));
        let t = fb.run(&mut io, &[10]).unwrap();
        assert_eq!(t, SimTime::from_us(1));
        assert_eq!(io.0[&1], vec![11, 12, 13]);
        assert!(format!("{fb:?}").contains("sum"));
    }

    #[test]
    fn default_policy_is_armed_sensibly() {
        let p = RecoveryPolicy::default();
        assert!(p.max_attempts >= 2, "retries on by default when enabled");
        assert!(p.watchdog_edges.is_some(), "watchdog armed when enabled");
    }
}
