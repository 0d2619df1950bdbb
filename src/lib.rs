//! # mdfv — Massively Distributed Finite-Volume flux computation
//!
//! Umbrella crate re-exporting the whole workspace, reproducing
//! *"Massively Distributed Finite-Volume Flux Computation"* (SC 2023):
//! a TPFA finite-volume flux kernel mapped onto a (simulated) wafer-scale
//! dataflow architecture, with GPU-style reference implementations and the
//! analytic machine models used to regenerate the paper's evaluation.
//!
//! * [`fv`] — physics + serial reference + matrix-free solvers
//! * [`wse`] — the dataflow-architecture simulator
//! * [`stencil`] — the stencil→route compiler: declarative specs to
//!   colors, per-PE route programs and exchange schedules
//! * [`dataflow`] — the paper's contribution: TPFA on the fabric (now a
//!   workload of the generic simulator, alongside Laplacian and wave)
//! * [`gpu`] — RAJA-like and CUDA-like reference implementations
//! * [`perf`] — CS-2 / A100 machine models, rooflines, energy
//! * [`prof`] — critical-path profiling, cycle attribution, JSON profile export
//! * [`serve`] — checkpoint/restore of fabric state + the simulation job
//!   server with compiled-layout caching
//! * [`metrics`] — runtime telemetry: lock-free registry, Prometheus/JSON
//!   exposition, failure flight recorder
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use fv_core as fv;
pub use gpu_ref as gpu;
pub use perf_model as perf;
pub use tpfa_dataflow as dataflow;
pub use wse_metrics as metrics;
pub use wse_prof as prof;
pub use wse_serve as serve;
pub use wse_sim as wse;
pub use wse_stencil as stencil;
