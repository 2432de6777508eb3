//! Spans recorded by the benchmark around its calls into each layer's
//! public API.
//!
//! Every operation (one answer, one scan, one block) is a root span; each
//! call into a layer is a leaf span under it. Leaf durations are always
//! measured, because the end-to-end metrics need some of them. Spans are
//! kept only in a traced run, in memory, and written out when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Largest share of an operation's wall time that may fall outside every
/// layer span (the benchmark's own glue between calls).
pub const UNATTRIBUTED_BOUND: f64 = 0.05;
/// Absolute slack for that check, so a single preemption inside the glue
/// of a very short operation does not fail the run.
pub const UNATTRIBUTED_SLACK: Duration = Duration::from_millis(1);

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    /// Index of the parent span; `None` for an operation's root.
    parent: Option<usize>,
    request: u32,
}

/// Span recorder. With tracing off it only times the calls.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    request: u32,
    wall: Duration,
}

/// The per-layer view of a traced run.
pub struct Attribution {
    /// Self time per layer, summed over all operations. The layer of a span
    /// is its name up to the first `.`; `unattributed` is root self time.
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Total wall time of all operations.
    pub wall: Duration,
    /// Operations whose unattributed time exceeded the bound.
    pub violations: usize,
    /// Largest unattributed share of any one operation.
    pub max_unattributed: f64,
    /// Spans recorded.
    pub spans: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            root: None,
            request: 0,
            wall: Duration::ZERO,
        }
    }

    /// Open the root span of the next operation.
    pub fn begin(&mut self, name: &'static str) -> Instant {
        let now = Instant::now();
        self.request += 1;
        if self.on {
            self.root = Some(self.spans.len());
            let at = now - self.epoch;
            self.spans.push(Span { name, start: at, end: at, parent: None, request: self.request });
        }
        now
    }

    /// Close the current operation's root span; returns its wall time.
    pub fn end(&mut self, started: Instant) -> Duration {
        let now = Instant::now();
        if let Some(i) = self.root.take() {
            self.spans[i].end = now - self.epoch;
        }
        self.wall += now - started;
        now - started
    }

    /// Mean wall time of the operations so far, in ms.
    pub fn op_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3 / f64::from(self.request.max(1))
    }

    /// Time one call into a layer, recording it under the open root.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        if self.on {
            self.spans.push(Span {
                name,
                start: t0 - self.epoch,
                end: t1 - self.epoch,
                parent: self.root,
                request: self.request,
            });
        }
        (out, t1 - t0)
    }

    /// Self time per layer and the check that, for every operation, the
    /// layer self times add up to its wall time within the bound.
    pub fn attribute(&self) -> Attribution {
        let mut self_time: BTreeMap<&'static str, Duration> = BTreeMap::new();
        let mut child_sum: BTreeMap<usize, Duration> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *self_time.entry(layer_of(s.name)).or_default() += s.end - s.start;
                *child_sum.entry(p).or_default() += s.end - s.start;
            }
        }
        let (mut wall, mut violations, mut max_unattributed) = (Duration::ZERO, 0, 0.0f64);
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            let w = s.end - s.start;
            let gap = w.saturating_sub(child_sum.get(&i).copied().unwrap_or_default());
            wall += w;
            *self_time.entry("unattributed").or_default() += gap;
            let share = gap.as_secs_f64() / w.as_secs_f64().max(1e-12);
            max_unattributed = max_unattributed.max(share);
            if share > UNATTRIBUTED_BOUND && gap > UNATTRIBUTED_SLACK {
                violations += 1;
            }
        }
        Attribution { self_time, wall, violations, max_unattributed, spans: self.spans.len() }
    }

    /// The recorded spans as JSON lines: name, start and end (µs since the
    /// run's epoch), parent index and request id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request
            );
        }
        out
    }
}

/// `client.feed` → `client`.
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}
