//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions, and kept in memory until the process
//! ends. A disabled tracer runs the closure and records nothing, so the
//! untraced pass executes exactly the same calls.

use std::time::Instant;

/// One recorded span: a layer call within one operation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, attributed to operation `op`.
    /// The span is recorded once `f` returns; a call that panics leaves
    /// no span.
    pub fn span<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Moves the spans of another tracer (one per client thread) into
    /// this one, on this tracer's clock.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.micros_of(name).iter().sum::<f64>() / 1e3
    }

    /// Serialises every span as JSON: `[name, op, start_ns, end_ns]`.
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| format!("[\"{}\",{},{},{}]", s.name, s.op, s.start_ns, s.end_ns))
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}
