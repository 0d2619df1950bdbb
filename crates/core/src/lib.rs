//! # tpfa-dataflow — TPFA finite-volume flux computation on a dataflow fabric
//!
//! This crate is the reproduction of the paper's primary contribution
//! (*"Massively Distributed Finite-Volume Flux Computation"*, SC 2023, §5):
//! the Two-Point Flux Approximation kernel of `fv-core` mapped onto the
//! wafer-scale dataflow architecture simulated by `wse-sim`.
//!
//! ## The mapping (paper §5.1)
//!
//! Cell-based: mesh cell `(x, y, z)` maps to PE `(x, y)`; the whole Z column
//! lives in the PE's private memory ([`layout`]). Each PE holds its own
//! pressure/density/residual columns, the ten per-face transmissibility
//! columns, receive buffers for all eight in-plane neighbors, and three
//! reused temporaries (§5.3.1's hand-crafted buffer reuse).
//!
//! ## Communication (paper §5.2, Figs. 5–6)
//!
//! * **Cardinal** exchange uses one switchable color per direction: switch
//!   position 0 is *Sending* (`ramp → fabric`), position 1 *Receiving*
//!   (`fabric → ramp`). First-senders transmit their column then a control
//!   wavelet that flips its own router and the downstream router, handing
//!   the channel over — two steps and every PE has sent and received,
//!   exactly Fig. 6 ([`wse_stencil::CardinalLane`], [`wse_stencil::ColumnExchange`]).
//! * **Diagonal** exchange routes corner data through an intermediary
//!   router that turns the stream 90° (Fig. 5b/5c). All four corner streams
//!   run concurrently under a rotating schedule; conflicts are avoided with
//!   a 3-phase color assignment keyed on `(x±y) mod 3`, giving each PE
//!   exactly one role (source / intermediary / receiver) per color
//!   ([`wse_stencil::DiagonalLane`]).
//!
//! Both tables are compiled from [`wse_stencil::StencilSpec::tpfa`];
//! [`workload::tpfa_pattern`] is the result.
//!
//! ## The kernel (paper §5.3.3, Table 4)
//!
//! [`kernel::compute_face_flux`] is a 13-instruction DSD vector sequence per
//! face whose measured per-flux instruction mix is exactly the paper's
//! Table 4: 6 FMUL + 4 FSUB + 1 FADD + 1 FMA + 1 FNEG = 14 FLOPs, with the
//! canonical 2/1 (FMUL, FSUB, FADD), 3/1 (FMA), 1/1 (FNEG) loads/stores per
//! element. Receives are FMOVs (1 fabric load + 1 store): 8 in-plane
//! neighbors × 2 quantities = 16 per cell.
//!
//! [`kernel::TpfaKernel`] runs it per PE as a [`wse_stencil::StencilKernel`]
//! on the same generic [`wse_stencil::StencilPeProgram`] as the Laplacian
//! and wave workloads: Z faces at launch, each in-plane face the moment its
//! stream lands.
//!
//! ## Host driver
//!
//! [`driver::DataflowFluxSimulator`] owns the fabric, loads a `fv-core`
//! problem onto it, applies Algorithm 1 repeatedly (the paper applies it
//! 1000 times), extracts residual columns, and validates against the serial
//! reference. Simulators are constructed with the validating
//! [`driver::SimulatorBuilder`] and can carry a seeded
//! [`wse_sim::fault::FaultPlan`] plus a [`driver::RecoveryPolicy`] for
//! fault-injection experiments (see `DESIGN.md`, "Fault model & recovery").

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod driver;
pub mod kernel;
pub mod laplace;
pub mod layout;
pub mod wave;
pub mod workload;

pub use driver::{
    engine_label, BuildError, DataflowFluxSimulator, DriverSnapshot, Recovered, RecoveryPolicy,
    SimulatorBuilder, StepReport, StepTotals,
};
pub use kernel::{compute_face_flux, FaceBuffers, FaceInputs, FluidParams, TpfaKernel};
pub use laplace::{LaplaceParams, LaplaceWorkload};
pub use layout::MemoryPlan;
pub use wave::{WaveParams, WaveSimulator, WaveWorkload};
pub use workload::{TpfaWorkload, Workload};
