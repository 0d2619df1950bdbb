//! # wse-prof — the one reader of `wse-sim` traces
//!
//! [`wse-trace`](wse_trace) records *what happened* on the simulated fabric;
//! this crate answers *how much, where and why it took that long*:
//!
//! * [`attribution`] — [`Profile::from_trace`], the one replay of a trace:
//!   a single pass over each PE stream that rebuilds the per-PE
//!   [`wse_sim::stats::OpCounters`] (and from them [`Profile::stats`], the
//!   simulator's own `FabricStats`), maps every cycle into a named region
//!   ([`wse_trace::TraceRegion`]: halo-exchange, flux-compute,
//!   residual-accumulate, router-switch) via the kernel driver's region
//!   markers, sums busy time and traffic, and pairs task/region markers.
//!   The pacing PE's region figures feed
//!   `perf_model::Cs2Model::breakdown_from_cycles`, so the paper's Table 3
//!   communication/computation split is *profile-derived* rather than
//!   asserted from aggregate counters.
//! * [`summary`] — the load view of a profile (utilization, per-shard
//!   busy timelines, per-color wavelet counts, hottest PEs) that
//!   quickstart's `--trace` prints.
//! * [`critical_path()`] — recovers the dependency chain (task → wavelet
//!   send → hop latency → wavelet recv → task) whose length *is* the
//!   fabric makespan, reporting the bounding PEs, colors and links plus a
//!   slack histogram for everything off the path.
//! * [`report`] — a hand-rolled JSON profile export combining the
//!   attribution and the critical path (quickstart's `--profile out.json`
//!   writes this).
//!
//! Everything here is a pure function of a [`wse_trace::Trace`]: because
//! per-PE trace streams are bit-identical between the sequential and the
//! sharded engines, so are the profile and the critical path — a property
//! the differential tests pin.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod attribution;
pub mod critical_path;
pub mod report;
pub mod summary;

pub use attribution::{
    bucket_name, Profile, RegionBreakdown, OTHER_REGION, PROFILE_BUCKETS, TIMELINE_BUCKETS,
};
pub use critical_path::{critical_path, CriticalPath, PathStep};
pub use report::profile_json;
pub use summary::Summary;
