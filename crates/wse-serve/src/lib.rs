//! # wse-serve — checkpoint/restore and a multi-tenant simulation job server
//!
//! Long fabric simulations (the paper applies Algorithm 1 a thousand times
//! per run) need to survive interruption, migrate between engines, and
//! share a machine. This crate adds both halves:
//!
//! * [`checkpoint`] — a versioned binary encoding of the complete driver +
//!   fabric state ([`tpfa_dataflow::DriverSnapshot`]) with an integrity
//!   header: magic, schema version, problem-spec hash, payload length, and
//!   a payload checksum (both digests are the lane-parallel content hash of
//!   [`wse_sim::hash`]). Truncated, bit-flipped, or wrong-problem
//!   checkpoints are rejected with typed errors; accepted ones resume
//!   **bit-identically**, on either engine, with fast-forwarding on or
//!   off.
//! * [`server`] — a `std`-threaded [`JobServer`] with a bounded submission
//!   queue, preempt/resume/cancel at event-chunk granularity, and a
//!   compiled-problem cache keyed by content hash so repeat submissions
//!   skip the expensive host-side setup (`cache_hit` and the measured
//!   setup time are reported per job). The server is instrumented with
//!   `wse-metrics` (`serve_*` series: queue depth, worker utilization,
//!   submit→done latency, cache hit ratio, control-plane counters),
//!   streams per-job [`server::ProgressUpdate`]s to
//!   [`JobServer::subscribe`]rs, and keeps a per-job failure flight
//!   recorder whose last-N-events tail travels with every failure
//!   ([`JobServer::failure_of`]).
//!
//! The crate is re-exported from the umbrella crate as `mdfv::serve`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod checkpoint;
pub mod server;

pub use checkpoint::{Checkpoint, CheckpointError, SCHEMA_VERSION};
pub use server::{
    CompiledProblem, JobFailure, JobId, JobServer, JobSpec, JobState, JobStatus, ProblemSpec,
    ProgressUpdate, ServerConfig, SubmitError, FLIGHT_RECORDER_CAPACITY,
};
