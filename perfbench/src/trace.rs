//! Host-time spans around the benchmark's calls into `vcop`.
//!
//! A [`Tracer`] keeps every span in memory (name, start, end, parent
//! span, request id) and exports them at the end as Chrome trace-event
//! JSON, which opens in Perfetto or `chrome://tracing`. A disabled
//! tracer records nothing; the benchmark's end-to-end numbers come from
//! runs with tracing disabled.

use std::time::Instant;

use vcop_bench::json::Value;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call (or benchmark phase) the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to (`None` for set-up spans).
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds of all spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Chrome trace-event JSON (complete `"X"` events, microseconds).
    pub fn to_chrome(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Value::object();
                args.set("span", Value::Num(i as f64));
                if let Some(p) = s.parent {
                    args.set("parent", Value::Num(p as f64));
                }
                if let Some(r) = s.request {
                    args.set("request", Value::Num(r as f64));
                }
                let mut e = Value::object();
                e.set("name", Value::Str(s.name.to_owned()));
                e.set("cat", Value::Str("vcop".to_owned()));
                e.set("ph", Value::Str("X".to_owned()));
                e.set("ts", Value::Num(s.start_ns as f64 / 1e3));
                e.set("dur", Value::Num(s.ns() as f64 / 1e3));
                e.set("pid", Value::Num(1.0));
                e.set("tid", Value::Num(1.0));
                e.set("args", args);
                e
            })
            .collect();
        let mut root = Value::object();
        root.set("traceEvents", Value::Array(events));
        root.set("displayTimeUnit", Value::Str("ns".to_owned()));
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut tr = Tracer::on();
        let outer = tr.begin("request", Some(7));
        let x = tr.time("System::fpga_execute", Some(7), || 41 + 1);
        tr.end(outer);
        assert_eq!(x, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = tr.to_chrome().render();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("System::fpga_execute"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.begin("request", None);
        tr.end(s);
        assert!(tr.spans().is_empty());
    }
}
