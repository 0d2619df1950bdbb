//! # wse-sim — a deterministic wafer-scale dataflow-architecture simulator
//!
//! This crate is the substrate standing in for the Cerebras CS-2 used by
//! *"Massively Distributed Finite-Volume Flux Computation"* (SC 2023). It
//! simulates the architectural elements the paper's implementation relies on
//! (paper §4–§5):
//!
//! * a **2D fabric** of processing elements (PEs), each with its own
//!   **private local memory** (48 kB on WSE-2 — enforced) and a **router**
//!   with five full-duplex links: North, East, South, West, and the *Ramp*
//!   connecting the router to its PE ([`fabric`], [`route`], [`memory`]);
//! * **32-bit wavelets** tagged with a **color** used for routing
//!   ([`wavelet`]);
//! * per-color router configurations with **two switch positions** that can
//!   be flipped at runtime by control wavelets — the mechanism behind the
//!   paper's Fig. 6 send/receive alternation ([`route`]);
//! * **color-activated tasks**: a PE handler runs when a wavelet of a given
//!   color reaches its ramp (the CSL programming model) ([`pe`]);
//! * **DSD (Data Structure Descriptor) vector operations** — `fmuls`,
//!   `fadds`, `fsubs`, `fmacs`, `fnegs`, `fmovs` — over (address, length,
//!   stride) views of PE memory, with exact instruction / memory-traffic /
//!   fabric-traffic accounting ([`dsd`], [`stats`]) so the paper's Table 4
//!   and roofline (Fig. 8) are *measured*, not asserted.
//!
//! The simulator is functional (bit-exact f32 arithmetic, deterministic
//! event ordering) and carries a simple timing model (unit-latency hops,
//! per-element vector-op cost) whose counters feed the analytic CS-2 model
//! in `perf-model`.
//!
//! It is intentionally *not* tied to the finite-volume application: any
//! stencil-like SPMD program can be written against [`pe::PeProgram`] (the
//! crate's tests include a trivial halo-exchange program).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod dsd;
pub mod fabric;
pub mod fault;
pub mod geometry;
pub mod hash;
pub mod memory;
pub mod pe;
pub mod queue;
pub mod route;
pub mod snapshot;
pub mod stats;
pub mod wavelet;

/// The tracing subsystem (re-export of the `wse-trace` crate): event kinds,
/// per-PE rings, sorted traces and Chrome/Perfetto export.
pub use wse_trace as trace;

/// Commonly used types.
pub mod prelude {
    pub use crate::dsd::{Dsd, OpKind};
    pub use crate::fabric::{Execution, Fabric, FabricConfig, FabricError, PauseReport, RunReport};
    pub use crate::fault::{Fault, FaultClass, FaultEvent, FaultKind, FaultPlan};
    pub use crate::geometry::{Direction, FabricDims, PeCoord};
    pub use crate::memory::{MemRange, PeMemory, WSE2_PE_MEMORY_BYTES};
    pub use crate::pe::{PeContext, PeProgram};
    pub use crate::route::{ColorConfig, DirMask, Router, RouterPosition};
    pub use crate::snapshot::{FabricSnapshot, RestoreError};
    pub use crate::stats::{FabricStats, OpCounters};
    pub use crate::wavelet::{Color, Wavelet, WaveletKind, MAX_COLORS};
    pub use wse_trace::{Trace, TraceSpec};
}

pub use prelude::*;
