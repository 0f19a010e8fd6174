//! Simulation time and clock frequencies.
//!
//! All simulation time is kept as an integer number of **picoseconds**
//! ([`SimTime`]), which is exact for every clock frequency used by the
//! modelled platform (133 MHz ARM, 40/24/6 MHz PLD domains) over the
//! multi-second horizons of the paper's experiments without overflowing
//! `u64` (2^64 ps ≈ 213 days).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulation instant or a span, in picoseconds.
///
/// `SimTime` is a transparent newtype over `u64` picoseconds. Arithmetic
/// is checked in debug builds (ordinary `+`/`-` panic on overflow there),
/// and saturating helpers are provided for accumulation code.
///
/// # Examples
///
/// ```
/// use vcop_sim::time::{Frequency, SimTime};
///
/// let clk = Frequency::from_mhz(40);
/// let four_cycles = clk.cycles(4);
/// assert_eq!(four_cycles, SimTime::from_ns(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation reset).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time as fractional milliseconds (the unit of the paper's figures).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition, for statistics accumulators.
    #[inline]
    pub const fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction; returns [`SimTime::ZERO`] on underflow.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |acc, t| acc.saturating_add(t))
    }
}

impl fmt::Display for SimTime {
    /// Renders with an automatically chosen engineering unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0 ps")
        } else if ps < 1_000 {
            write!(f, "{ps} ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3} ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3} us", ps as f64 / 1e6)
        } else {
            write!(f, "{:.3} ms", ps as f64 / 1e9)
        }
    }
}

/// A clock frequency in hertz.
///
/// The period is computed by integer division of 10^12 ps; all platform
/// frequencies used by the model divide 10^12 exactly, and
/// [`Frequency::new`] checks this so that cycle arithmetic stays exact.
///
/// # Examples
///
/// ```
/// use vcop_sim::time::Frequency;
///
/// let arm = Frequency::from_mhz(133);
/// assert_eq!(arm.period().as_ps(), 7_518);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[inline]
    pub const fn new(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be nonzero");
        Frequency { hz }
    }

    /// Creates a frequency from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: u64) -> Self {
        Frequency::new(mhz * 1_000_000)
    }

    /// Frequency in hertz.
    #[inline]
    pub const fn hz(self) -> u64 {
        self.hz
    }

    /// The clock period (truncated to whole picoseconds).
    #[inline]
    pub const fn period(self) -> SimTime {
        SimTime::from_ps(1_000_000_000_000 / self.hz)
    }

    /// The duration of `n` clock cycles.
    #[inline]
    pub const fn cycles(self, n: u64) -> SimTime {
        SimTime::from_ps((1_000_000_000_000 / self.hz) * n)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.hz / 1_000_000)
        } else if self.hz.is_multiple_of(1_000) {
            write!(f, "{} kHz", self.hz / 1_000)
        } else {
            write!(f, "{} Hz", self.hz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_of_platform_clocks() {
        assert_eq!(Frequency::from_mhz(40).period(), SimTime::from_ps(25_000));
        assert_eq!(Frequency::from_mhz(24).period(), SimTime::from_ps(41_666));
        assert_eq!(Frequency::from_mhz(6).period(), SimTime::from_ps(166_666));
        assert_eq!(Frequency::from_mhz(133).period(), SimTime::from_ps(7_518));
    }

    #[test]
    fn cycles_roundtrip() {
        let f = Frequency::from_mhz(40);
        assert_eq!(f.cycles(1), f.period());
        assert_eq!(f.cycles(17).as_ps() / f.period().as_ps(), 17);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_ps(500).to_string(), "500 ps");
        assert_eq!(SimTime::from_ns(1).to_string(), "1.000 ns");
        assert_eq!(SimTime::from_us(2).to_string(), "2.000 us");
        assert_eq!(SimTime::from_ms(3).to_string(), "3.000 ms");
        assert_eq!(SimTime::ZERO.to_string(), "0 ps");
        assert_eq!(Frequency::from_mhz(40).to_string(), "40 MHz");
        assert_eq!(Frequency::new(32_000).to_string(), "32 kHz");
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimTime::from_ps(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimTime::from_ps(1)),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::from_ps(5).saturating_sub(SimTime::from_ps(2)),
            SimTime::from_ps(3)
        );
    }

    #[test]
    fn min_max_sum() {
        let a = SimTime::from_ns(3);
        let b = SimTime::from_ns(5);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: SimTime = [a, b, a].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(11));
    }

    #[test]
    fn ms_conversion_matches_paper_units() {
        // The paper reports 26 ms for IDEA software at 4 KB.
        let t = SimTime::from_ms(26);
        assert!((t.as_ms_f64() - 26.0).abs() < 1e-9);
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ps(1)), None);
        assert_eq!(
            SimTime::from_ps(1).checked_add(SimTime::from_ps(2)),
            Some(SimTime::from_ps(3))
        );
    }
}
