//! Waveform tracing.
//!
//! The paper's Figure 7 is a timing diagram of a coprocessor read access
//! through the IMU (`clk`, `cp_addr`, `cp_access`, `cp_tlbhit`, `cp_din`).
//! To reproduce it, the simulator records signal transitions with a
//! [`WaveTracer`] and renders them either as a Value Change Dump
//! ([`WaveTracer::to_vcd`], loadable in GTKWave) or as an ASCII timing
//! diagram ([`WaveTracer::render_ascii`]) on a chosen clock grid.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::SimTime;

/// Handle for a signal registered with a [`WaveTracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(usize);

/// The recorded value of a signal at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalValue {
    /// Single-bit signal level.
    Bit(bool),
    /// Multi-bit bus value.
    Bus(u64),
    /// Bus with no defined value (rendered `x`, e.g. `cp_din` before the
    /// translation completes).
    Undefined,
}

impl SignalValue {
    fn render(&self, width: u32) -> String {
        match self {
            SignalValue::Bit(b) => {
                if *b {
                    "1".to_owned()
                } else {
                    "0".to_owned()
                }
            }
            SignalValue::Bus(v) => format!("{v:0w$x}", w = (width as usize).div_ceil(4)),
            SignalValue::Undefined => "x".repeat((width as usize).div_ceil(4)),
        }
    }

    fn vcd(&self, width: u32, code: char) -> String {
        match self {
            SignalValue::Bit(b) => format!("{}{}", if *b { '1' } else { '0' }, code),
            SignalValue::Bus(v) => format!("b{:0w$b} {}", v, code, w = width as usize),
            SignalValue::Undefined => format!("b{} {}", "x".repeat(width as usize), code),
        }
    }
}

#[derive(Debug, Clone)]
struct Signal {
    name: String,
    width: u32,
    changes: Vec<(SimTime, SignalValue)>,
}

impl Signal {
    fn value_at(&self, t: SimTime) -> SignalValue {
        match self.changes.partition_point(|(ct, _)| *ct <= t) {
            0 => SignalValue::Undefined,
            n => self.changes[n - 1].1,
        }
    }
}

/// Records signal transitions and renders them as VCD or ASCII waveforms.
///
/// # Examples
///
/// ```
/// use vcop_sim::time::SimTime;
/// use vcop_sim::trace::{SignalValue, WaveTracer};
///
/// let mut tr = WaveTracer::new();
/// let req = tr.add_signal("req", 1);
/// tr.record(SimTime::ZERO, req, SignalValue::Bit(false));
/// tr.record(SimTime::from_ns(25), req, SignalValue::Bit(true));
/// assert_eq!(tr.value_at(req, SimTime::from_ns(30)), SignalValue::Bit(true));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WaveTracer {
    signals: Vec<Signal>,
}

impl WaveTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        WaveTracer::default()
    }

    /// Registers a signal of the given bit `width` and returns its handle.
    pub fn add_signal(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        self.signals.push(Signal {
            name: name.into(),
            width,
            changes: Vec::new(),
        });
        SignalId(self.signals.len() - 1)
    }

    /// Records a value for `signal` at time `t`. Re-recording an identical
    /// value is a no-op; out-of-order timestamps are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded change of the signal.
    pub fn record(&mut self, t: SimTime, signal: SignalId, value: SignalValue) {
        let sig = &mut self.signals[signal.0];
        if let Some(&(last_t, last_v)) = sig.changes.last() {
            assert!(t >= last_t, "out-of-order trace record for {}", sig.name);
            if last_v == value {
                return;
            }
            if last_t == t {
                sig.changes.last_mut().expect("nonempty").1 = value;
                return;
            }
        }
        sig.changes.push((t, value));
    }

    /// The value of `signal` at time `t` ([`SignalValue::Undefined`] before
    /// its first recorded change).
    pub fn value_at(&self, signal: SignalId, t: SimTime) -> SignalValue {
        self.signals[signal.0].value_at(t)
    }

    /// Serialises the trace as a Value Change Dump (VCD) document with a
    /// 1 ps timescale.
    pub fn to_vcd(&self, module: &str) -> String {
        let mut out = String::new();
        out.push_str("$date vcop simulation $end\n");
        out.push_str("$version vcop-sim WaveTracer $end\n");
        out.push_str("$timescale 1ps $end\n");
        let _ = writeln!(out, "$scope module {module} $end");
        for (i, sig) in self.signals.iter().enumerate() {
            let code = Self::code(i);
            let _ = writeln!(out, "$var wire {} {} {} $end", sig.width, code, sig.name);
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");

        // Merge all changes into one time-ordered dump.
        let mut by_time: BTreeMap<SimTime, Vec<(usize, SignalValue)>> = BTreeMap::new();
        for (i, sig) in self.signals.iter().enumerate() {
            for &(t, v) in &sig.changes {
                by_time.entry(t).or_default().push((i, v));
            }
        }
        for (t, changes) in by_time {
            let _ = writeln!(out, "#{}", t.as_ps());
            for (i, v) in changes {
                let _ = writeln!(out, "{}", v.vcd(self.signals[i].width, Self::code(i)));
            }
        }
        out
    }

    fn code(i: usize) -> char {
        char::from(b'!' + (i as u8 % 90))
    }

    /// Renders an ASCII timing diagram sampling every signal at the given
    /// instants (typically successive rising clock edges).
    ///
    /// Single-bit signals render as `_` / `#`; buses render their value in
    /// hexadecimal per sample column.
    pub fn render_ascii(&self, sample_points: &[SimTime]) -> String {
        let name_w = self.signals.iter().map(|s| s.name.len()).max().unwrap_or(0);
        let col_w = self
            .signals
            .iter()
            .map(|s| {
                if s.width <= 1 {
                    1
                } else {
                    (s.width as usize).div_ceil(4)
                }
            })
            .max()
            .unwrap_or(1)
            + 1;
        let mut out = String::new();
        for sig in &self.signals {
            let _ = write!(out, "{:name_w$} |", sig.name);
            for &t in sample_points {
                let v = sig.value_at(t);
                let cell = match v {
                    SignalValue::Bit(true) => "#".repeat(col_w),
                    SignalValue::Bit(false) => "_".repeat(col_w),
                    other => {
                        let s = other.render(sig.width);
                        format!("{s:>col_w$}")
                    }
                };
                out.push_str(&cell);
            }
            out.push('\n');
        }
        let _ = write!(out, "{:name_w$} |", "edge");
        for i in 0..sample_points.len() {
            let _ = write!(out, "{:>col_w$}", i + 1);
        }
        out.push('\n');
        out
    }
}

/// A tracer that may be absent; components take `&mut TraceSink` so that
/// tracing costs nothing when disabled.
#[derive(Debug, Default)]
pub struct TraceSink {
    tracer: Option<WaveTracer>,
}

impl TraceSink {
    /// A sink that discards everything.
    pub fn disabled() -> Self {
        TraceSink { tracer: None }
    }

    /// A sink that records into a fresh [`WaveTracer`].
    pub fn enabled() -> Self {
        TraceSink {
            tracer: Some(WaveTracer::new()),
        }
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The underlying tracer, if enabled.
    #[inline]
    pub fn tracer(&self) -> Option<&WaveTracer> {
        self.tracer.as_ref()
    }

    /// Mutable access to the underlying tracer, if enabled.
    #[inline]
    pub fn tracer_mut(&mut self) -> Option<&mut WaveTracer> {
        self.tracer.as_mut()
    }

    /// Records `value` for `signal` at `t` when enabled; compiles down to
    /// a single predictable branch when disabled, so instrumented hot
    /// paths pay nothing for tracing they are not using.
    #[inline]
    pub fn record(&mut self, t: SimTime, signal: SignalId, value: SignalValue) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(t, signal, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of recorded transitions for `signal`.
    fn change_count(tr: &WaveTracer, signal: SignalId) -> usize {
        tr.signals[signal.0].changes.len()
    }

    fn simple_trace() -> (WaveTracer, SignalId, SignalId) {
        let mut tr = WaveTracer::new();
        let clk = tr.add_signal("clk", 1);
        let bus = tr.add_signal("addr", 8);
        tr.record(SimTime::ZERO, clk, SignalValue::Bit(false));
        tr.record(SimTime::from_ns(10), clk, SignalValue::Bit(true));
        tr.record(SimTime::from_ns(20), clk, SignalValue::Bit(false));
        tr.record(SimTime::from_ns(10), bus, SignalValue::Bus(0xAB));
        (tr, clk, bus)
    }

    #[test]
    fn value_lookup_between_changes() {
        let (tr, clk, bus) = simple_trace();
        assert_eq!(
            tr.value_at(clk, SimTime::from_ns(15)),
            SignalValue::Bit(true)
        );
        assert_eq!(
            tr.value_at(clk, SimTime::from_ns(25)),
            SignalValue::Bit(false)
        );
        assert_eq!(
            tr.value_at(bus, SimTime::from_ns(5)),
            SignalValue::Undefined
        );
        assert_eq!(
            tr.value_at(bus, SimTime::from_ns(99)),
            SignalValue::Bus(0xAB)
        );
    }

    #[test]
    fn duplicate_records_collapse() {
        let mut tr = WaveTracer::new();
        let s = tr.add_signal("s", 1);
        tr.record(SimTime::ZERO, s, SignalValue::Bit(true));
        tr.record(SimTime::from_ns(1), s, SignalValue::Bit(true));
        tr.record(SimTime::from_ns(2), s, SignalValue::Bit(true));
        assert_eq!(change_count(&tr, s), 1);
    }

    #[test]
    fn same_instant_overwrites() {
        let mut tr = WaveTracer::new();
        let s = tr.add_signal("s", 4);
        tr.record(SimTime::ZERO, s, SignalValue::Bus(1));
        tr.record(SimTime::ZERO, s, SignalValue::Bus(2));
        assert_eq!(change_count(&tr, s), 1);
        assert_eq!(tr.value_at(s, SimTime::ZERO), SignalValue::Bus(2));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_record_panics() {
        let mut tr = WaveTracer::new();
        let s = tr.add_signal("s", 1);
        tr.record(SimTime::from_ns(5), s, SignalValue::Bit(true));
        tr.record(SimTime::from_ns(1), s, SignalValue::Bit(false));
    }

    #[test]
    fn vcd_contains_declarations_and_changes() {
        let (tr, _, _) = simple_trace();
        let vcd = tr.to_vcd("imu");
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$var wire 1 ! clk $end"));
        assert!(vcd.contains("$var wire 8 \" addr $end"));
        assert!(vcd.contains("#10000"));
        assert!(vcd.contains("b10101011 \""));
    }

    #[test]
    fn ascii_render_has_row_per_signal() {
        let (tr, _, _) = simple_trace();
        let samples = [SimTime::ZERO, SimTime::from_ns(10), SimTime::from_ns(20)];
        let art = tr.render_ascii(&samples);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // clk, addr, edge ruler
        assert!(lines[0].starts_with("clk"));
        assert!(lines[1].contains("ab"));
    }

    #[test]
    fn sink_record_respects_mode() {
        let mut off = TraceSink::disabled();
        // Recording into a disabled sink is a no-op, not an error.
        off.record(SimTime::ZERO, SignalId(0), SignalValue::Bit(true));
        assert!(off.tracer().is_none());

        let mut on = TraceSink::enabled();
        let id = on.tracer_mut().unwrap().add_signal("x", 1);
        on.record(SimTime::ZERO, id, SignalValue::Bit(true));
        on.record(SimTime::from_ns(1), id, SignalValue::Bit(false));
        assert_eq!(change_count(on.tracer().unwrap(), id), 2);
    }

    #[test]
    fn sink_modes() {
        assert!(!TraceSink::disabled().is_enabled());
        let mut sink = TraceSink::enabled();
        assert!(sink.is_enabled());
        let id = sink.tracer_mut().unwrap().add_signal("x", 1);
        sink.tracer_mut()
            .unwrap()
            .record(SimTime::ZERO, id, SignalValue::Bit(true));
        assert_eq!(change_count(sink.tracer().unwrap(), id), 1);
    }
}
