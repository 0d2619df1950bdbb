//! # wse-prof — profiling and cycle attribution for `wse-sim` traces
//!
//! [`wse-trace`](wse_trace) records *what happened* on the simulated fabric;
//! this crate answers *why it took that long*:
//!
//! * [`attribution`] — maps trace events into named regions
//!   ([`wse_trace::TraceRegion`]: halo-exchange, flux-compute,
//!   residual-accumulate, router-switch) via the region markers emitted by
//!   the kernel driver, producing per-region compute/fabric cycle
//!   breakdowns. The per-region figures feed
//!   `perf_model::Cs2Model::breakdown_from_cycles`, so the paper's Table 3
//!   communication/computation split can be *profile-derived* rather than
//!   asserted from aggregate counters.
//! * [`critical_path()`] — recovers the dependency chain (task → wavelet
//!   send → hop latency → wavelet recv → task) whose length *is* the
//!   fabric makespan, reporting the bounding PEs, colors and links plus a
//!   slack histogram for everything off the path.
//! * [`report`] — a hand-rolled JSON profile export combining both views
//!   (the quickstart's `--profile out.json` writes this).
//!
//! Everything here is a pure function of a [`wse_trace::Trace`]: because
//! per-PE trace streams are bit-identical between the sequential and the
//! sharded engines, so are the critical path and the attribution — a
//! property the differential tests pin.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod attribution;
pub mod critical_path;
pub mod report;

pub use attribution::{bucket_name, Profile, RegionBreakdown, OTHER_REGION, PROFILE_BUCKETS};
pub use critical_path::{critical_path, CriticalPath, PathStep};
pub use report::profile_json;
