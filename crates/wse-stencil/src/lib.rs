//! # wse-stencil — the stencil→route compiler
//!
//! One declarative IR for many workloads: a [`StencilSpec`] names the
//! in-plane neighbor offsets, per-face quantities/weights, diagonal
//! phases, halo radius and reserved reduction colors of a stencil
//! computation, and [`compile`] turns it into everything that used to
//! be hand-derived per workload:
//!
//! * a **color assignment** within the fabric's routable budget
//!   ([`wse_sim::MAX_COLORS`]),
//! * per-PE **[`RouteProgram`]s** — switchable cardinal channels plus
//!   static diagonal source/intermediary/receiver relays,
//! * an **exchange schedule** ([`ColumnExchange`]) running one halo
//!   exchange per step on protocol state kept in PE memory, and
//! * a **generic program** ([`StencilProgram`], built once per fabric)
//!   that pairs the compiled pattern with a stateless [`StencilKernel`];
//!   each PE runs it as a [`StencilPeProgram`] on both fabric engines,
//!   flowing through fault, trace, checkpoint and metrics layers
//!   unchanged.
//!
//! Compilation is pure data→data with typed diagnostics
//! ([`CompileError`]) — no panics on bad specs.
//!
//! ## A minimal spec
//!
//! ```
//! use wse_stencil::{compile, OffsetSpec, StencilSpec};
//!
//! // One quantity exchanged with the east and west neighbors.
//! let spec = StencilSpec::new(
//!     "pair",
//!     1,
//!     vec![OffsetSpec::new(1, 0), OffsetSpec::new(-1, 0)],
//! );
//! let compiled = compile(&spec).expect("a well-formed spec compiles");
//!
//! // Two cardinal lanes on colors 0 and 1, launch color right after.
//! assert_eq!(compiled.pattern.cardinals.len(), 2);
//! assert_eq!(compiled.pattern.start.id(), 2);
//!
//! // Bad specs come back as typed diagnostics, never panics:
//! let bad = StencilSpec::new("far", 1, vec![OffsetSpec::new(2, 0)]);
//! assert!(compile(&bad).is_err());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod compile;
pub mod exchange;
pub mod pattern;
pub mod program;
pub mod spec;

pub use compile::{compile, CompiledStencil};
pub use exchange::{ColumnExchange, ExchangeEvent, PeLanes};
pub use pattern::{CardinalLane, CommPattern, DiagonalLane, RouteProgram};
pub use program::{state_words, KernelLayout, StencilKernel, StencilPeProgram, StencilProgram};
pub use spec::{CompileError, OffsetSpec, StencilSpec};
