//! Event-driven simulation kernel: wake hints and the skip horizon.
//!
//! The stepped simulation loop pops every rising edge of every clock
//! domain even when no component can possibly change state (a
//! coprocessor counting down a multi-cycle compute, an IMU with an empty
//! translation pipeline). The event kernel lets each component report a
//! conservative *wake hint* — the earliest upcoming edge of its own
//! clock at which its `step` could do anything observable — and the
//! [`EventKernel`] turns those hints into a global *skip horizon*: the
//! earliest instant any component may act. All edges strictly before the
//! horizon are provably idle and can be bulk-accounted without being
//! simulated.
//!
//! The invariant is **conservative correctness**: a component may always
//! report [`Wake::In`]`(1)` (never skip anything — the stepped
//! behaviour), and must never report a wake later than its first
//! state-changing edge. Under that contract the event-driven run visits
//! exactly the same acting edges as the stepped run and produces
//! identical reports.

use crate::time::SimTime;

/// A component's conservative estimate of when it next needs stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The component may act at its `n`-th upcoming clock edge
    /// (`In(1)` = the very next edge, i.e. "do not skip me").
    ///
    /// Values of zero are treated as `In(1)`.
    In(u64),
    /// The component is blocked on external input and cannot act on its
    /// own at any future edge (e.g. an FSM awaiting a completion that
    /// only another component can deliver).
    Never,
}

impl Wake {
    /// The number of upcoming edges at which the component is guaranteed
    /// idle (`In(n)` ⇒ `n - 1` skippable edges; `Never` ⇒ unbounded).
    pub fn idle_edges(self) -> Option<u64> {
        match self {
            Wake::In(n) => Some(n.max(1) - 1),
            Wake::Never => None,
        }
    }

    /// The earlier (more conservative) of two wake hints, where the two
    /// hints count edges of the *same* clock.
    pub fn sooner(self, other: Wake) -> Wake {
        match (self, other) {
            (Wake::Never, w) | (w, Wake::Never) => w,
            (Wake::In(a), Wake::In(b)) => Wake::In(a.max(1).min(b.max(1))),
        }
    }

    /// Converts the hint into an absolute wake instant, given the time of
    /// the clock's next edge and its period.
    pub fn at(self, next_edge: SimTime, period: SimTime) -> Option<SimTime> {
        match self {
            Wake::In(n) => {
                next_edge.checked_add(SimTime::from_ps(period.as_ps().checked_mul(n.max(1) - 1)?))
            }
            Wake::Never => None,
        }
    }
}

/// One wake source feeding the horizon computation: the absolute time of
/// the component clock's next edge, that clock's period, and the
/// component's wake hint counted in edges of that clock.
#[derive(Debug, Clone, Copy)]
pub struct WakeSource {
    /// Absolute time of the component clock's next (unconsumed) edge.
    pub next_edge: SimTime,
    /// The component clock's period.
    pub period: SimTime,
    /// The component's wake hint.
    pub wake: Wake,
}

/// Computes global skip horizons from per-component wake hints.
///
/// # Examples
///
/// ```
/// use vcop_sim::sched::{EventKernel, Wake, WakeSource};
/// use vcop_sim::time::SimTime;
///
/// // A component idle for 5 edges of a 25 ns clock and one that must
/// // run at its next edge 40 ns out: the horizon is the latter.
/// let horizon = EventKernel::horizon(&[
///     WakeSource { next_edge: SimTime::from_ns(25), period: SimTime::from_ns(25),
///                  wake: Wake::In(5) },
///     WakeSource { next_edge: SimTime::from_ns(40), period: SimTime::from_ns(40),
///                  wake: Wake::In(1) },
/// ]);
/// assert_eq!(horizon, Some(SimTime::from_ns(40)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct EventKernel;

impl EventKernel {
    /// The earliest absolute instant at which *any* source may act, or
    /// `None` when every source reports [`Wake::Never`] (the caller must
    /// then fall back to stepping so external stimuli — or a hang
    /// timeout — still occur).
    pub fn horizon(sources: &[WakeSource]) -> Option<SimTime> {
        sources
            .iter()
            .filter_map(|s| s.wake.at(s.next_edge, s.period))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Frequency;

    #[test]
    fn wake_idle_edges() {
        assert_eq!(Wake::In(1).idle_edges(), Some(0));
        assert_eq!(Wake::In(0).idle_edges(), Some(0));
        assert_eq!(Wake::In(6).idle_edges(), Some(5));
        assert_eq!(Wake::Never.idle_edges(), None);
    }

    #[test]
    fn wake_sooner_is_min() {
        assert_eq!(Wake::In(3).sooner(Wake::In(7)), Wake::In(3));
        assert_eq!(Wake::Never.sooner(Wake::In(7)), Wake::In(7));
        assert_eq!(Wake::In(2).sooner(Wake::Never), Wake::In(2));
        assert_eq!(Wake::Never.sooner(Wake::Never), Wake::Never);
    }

    #[test]
    fn horizon_is_min_over_sources() {
        let p40 = Frequency::from_mhz(40).period();
        let src = |edge_ns: u64, wake| WakeSource {
            next_edge: SimTime::from_ns(edge_ns),
            period: p40,
            wake,
        };
        // In(3) from an edge at 25 ns with 25 ns period ⇒ acts at 75 ns.
        assert_eq!(
            EventKernel::horizon(&[src(25, Wake::In(3)), src(50, Wake::In(2))]),
            Some(SimTime::from_ns(75))
        );
        assert_eq!(
            EventKernel::horizon(&[src(25, Wake::Never), src(50, Wake::In(1))]),
            Some(SimTime::from_ns(50))
        );
        // All blocked: no horizon, caller falls back to stepping.
        assert_eq!(
            EventKernel::horizon(&[src(25, Wake::Never), src(50, Wake::Never)]),
            None
        );
        assert_eq!(EventKernel::horizon(&[]), None);
    }
}
