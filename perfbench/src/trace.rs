//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A disabled [`Tracer`] only runs the closure. Spans are kept in memory
//! and summarised when a pass ends; the benchmark's load comes from one
//! thread, so a `RefCell` suffices. No span is opened inside another, so
//! the spans of a pass add up to the time they cover.

use std::cell::RefCell;
use std::time::Instant;

/// One finished span: its layer key and its duration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer key, e.g. `core.strike`.
    pub name: &'static str,
    /// Duration in seconds.
    pub seconds: f64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    spans: Option<RefCell<Vec<SpanRecord>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self { spans: None }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            spans: Some(RefCell::new(Vec::new())),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &self.spans else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        spans.borrow_mut().push(SpanRecord {
            name,
            seconds: start.elapsed().as_secs_f64(),
        });
        out
    }

    /// Takes the spans recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<SpanRecord> {
        self.spans
            .as_ref()
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.borrow_mut()))
    }
}

/// Total seconds of the spans named `name`.
pub fn total_seconds(spans: &[SpanRecord], name: &str) -> f64 {
    durations(spans, name).iter().fold(0.0, |a, b| a + b)
}

/// Durations of the spans named `name`, in recording order.
pub fn durations(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.seconds)
        .collect()
}
