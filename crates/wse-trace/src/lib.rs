//! `wse-trace`: zero-overhead-when-off tracing for the `wse-sim`
//! fabric simulator.
//!
//! The simulator's aggregate [`OpCounters`]-style accounting answers *how
//! much* work happened but not *when* or *where*; this crate restores the
//! time dimension. Each PE records fixed-size (≤ 32-byte, compile-time
//! asserted) [`TraceEvent`]s — task activations/completions, wavelet
//! sends/receives with color and link, DSD vector ops, router config
//! switches, flow stalls, errors — into a bounded drop-oldest
//! [`EventRing`]. With tracing off (the default) every instrumentation site
//! dispatches through [`PeTracer::Null`] and compiles down to a single
//! predictable branch. The repository benchmark prices the ring against
//! it as `wse-trace.ring_apply_ratio`.
//!
//! A finished run is assembled into a [`Trace`] whose event stream is
//! sorted by the deterministic key `(time, pe, seq)`; because the
//! sequential and sharded engines process each PE's events in the same
//! causal order, the sorted stream is **bit-identical across engines** —
//! used as a determinism probe far stronger than residual equality.
//! [`chrome::chrome_trace_json`] renders a trace as Chrome `trace_event`
//! JSON, openable in `chrome://tracing` or Perfetto.
//!
//! That is all this crate does: recording and Chrome export. Everything
//! read *out of* a trace — the per-PE counters, utilization, traffic and
//! load summary, the cycle attribution and the critical path — is one
//! replay in `wse-prof` (`wse_prof::Profile`).
//!
//! This crate is dependency-free and knows nothing about `wse-sim`; the
//! simulator depends on it and re-exports it as `wse_sim::trace`.
//!
//! [`OpCounters`]: https://docs.rs/wse-sim (see `wse-sim::stats`)

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chrome;
pub mod event;
pub mod sink;
pub mod trace;

pub use chrome::{check_json, chrome_trace_json, validate};
pub use event::{
    link_name, TraceEvent, TraceEventKind, TraceOp, TraceRegion, LINK_CONTROL_BIT, NUM_REGIONS,
};
pub use sink::{EventRing, PeTracer, TraceSpec, DEFAULT_RING_CAPACITY};
pub use trace::{PeStreams, Trace};

/// Pseudo-PE index used for host/engine meta events (barriers, host phases,
/// run-level errors).
pub const HOST_PE: u32 = u32::MAX;
