//! Runtime telemetry for the serving stack.
//!
//! A `std`-only metrics registry in the spirit of the Prometheus client
//! libraries, shaped by the same constraints as the rest of this
//! workspace:
//!
//! * **Lock-free hot path.** Registration (naming a metric, fixing its
//!   label set) happens once, up front, behind a mutex; the returned
//!   [`Counter`]/[`Gauge`]/[`Histogram`] handles are `Arc`'d atomic cells
//!   updated with plain `fetch_add`/`store` — no allocation, no locking,
//!   no formatting on the recording path.
//! * **Zero overhead when off.** Every handle has a [`Counter::Null`]
//!   variant that compiles to a no-op, exactly like the trace sink's
//!   `PeTracer::Null`: code instruments unconditionally and the null hub
//!   erases the cost. The repository benchmark prices a live hub against
//!   it as `wse-metrics.live_apply_ratio`, which CI holds to ≤ 1.25.
//! * **Determinism boundary.** Deterministic quantities (event counts,
//!   stalls, drops, fast-forward hops) are *published into* metrics from
//!   the engines' already-bit-identical aggregates after a run — telemetry
//!   never feeds back into simulation, so the exact counts pinned in
//!   `bench/tests/deterministic_pins.rs` are unaffected. Wall-clock
//!   quantities (latencies, rates) are kept in separately named metrics and
//!   never mixed into deterministic ones. `tests/metrics_equivalence.rs`
//!   pins the split.
//! * **Hand-rolled exposition.** [`MetricsHub::prometheus_text`] and
//!   [`MetricsHub::json_snapshot`] are written by hand like
//!   `wse-prof::report` — the offline build environment has no serde.
//!
//! The crate also hosts the [`FlightRecorder`]: a bounded drop-oldest ring
//! of recent events that the job server attaches to failures, so a typed
//! error arrives with its last-N-events context instead of a bare code.

#![deny(missing_docs)]

pub mod expose;
pub mod flight;
pub mod registry;

pub use flight::FlightRecorder;
pub use registry::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, MetricsHub, Registry, Sample,
    SampleValue, HIST_BUCKETS,
};
