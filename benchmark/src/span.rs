//! In-memory spans around the calls into each layer.
//!
//! The benchmark measures every layer from outside, so a span is recorded
//! by the harness around a public call: name (the layer's module name),
//! start, end, the span that caused it, and a request id (apply or job
//! index) shared by all spans of one request. Spans stay in memory and are
//! written out as Chrome-trace JSON when the run ends. With tracing off the
//! same calls are only timed.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// Records spans when enabled; always times.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for thread `thread`; tracers that are merged later share
    /// one `epoch`.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between requests (the traced run
    /// alternates to measure the tracing overhead in one process).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "cannot toggle inside an open span");
        self.enabled = enabled;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (started - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                request,
                thread: self.thread,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, started }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must nest");
            self.spans[index].end_ns = (now - self.epoch).as_nanos() as u64;
        }
        (now - open.started).as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, request);
        let value = f();
        (value, self.end(open))
    }

    /// Appends another thread's finished spans.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed tracer has open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `span` that its direct children cover (the union of
/// their intervals, clipped to the span).
pub fn covered_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    spans[index].duration_ns() - covered_ns(spans, index)
}

/// The smallest share of a span named `name` that its children cover;
/// `None` when no such span exists.
pub fn min_coverage(spans: &[Span], name: &str) -> Option<f64> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name && s.duration_ns() > 0)
        .map(|(i, s)| covered_ns(spans, i) as f64 / s.duration_ns() as f64)
        .min_by(f64::total_cmp)
}

/// Per-name totals: `(name, count, total seconds, self seconds)`, sorted by
/// self time, largest first.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = by_name.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += self_ns(spans, i);
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (n, total, own))| (name, n, total as f64 / 1e9, own as f64 / 1e9))
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Chrome `trace_event` JSON (complete events, microsecond timestamps);
/// open in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.thread))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("request", Json::Num(s.request as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_union() {
        let spans = vec![
            span("apply", 0, 100, None),
            span("inject", 0, 10, Some(0)),
            span("run", 10, 90, Some(0)),
            // overlaps `run` and sticks out of the parent: clipped and unioned
            span("collect", 80, 120, Some(0)),
            // a grandchild does not count against the root
            span("inner", 20, 30, Some(2)),
        ];
        assert_eq!(covered_ns(&spans, 0), 100);
        assert_eq!(self_ns(&spans, 0), 0);
        assert_eq!(self_ns(&spans, 2), 70);
        assert_eq!(self_ns(&spans, 1), 10);
    }

    #[test]
    fn gaps_between_children_are_self_time() {
        let spans = vec![
            span("setup", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 80);
        assert_eq!(min_coverage(&spans, "setup"), Some(0.2));
        assert_eq!(min_coverage(&spans, "absent"), None);
        let table = self_time_table(&spans);
        assert_eq!(table[0].0, "setup");
        assert_eq!((table[0].1, table[0].3), (1, 80e-9));
    }

    #[test]
    fn tracer_nests_and_records_parent_and_request() {
        let mut tr = Tracer::new(true, Instant::now(), 3);
        let root = tr.begin("apply", 7);
        let ((), inner_s) = tr.timed("run", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_s = tr.end(root);
        assert!(inner_s >= 0.002 && root_s >= inner_s);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!((spans[1].request, spans[1].thread), (7, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let (v, s) = tr.timed("x", 0, || 5);
        assert_eq!(v, 5);
        assert!(s >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_chrome_trace_lists_every_span() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        a.timed("job", 1, || ());
        let mut b = Tracer::new(true, epoch, 1);
        let root = b.begin("job", 2);
        b.timed("submit", 2, || ());
        b.end(root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let doc = chrome_trace(a.spans());
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }
}
