//! The declarative stencil IR: [`StencilSpec`] and its validation
//! diagnostics.
//!
//! A spec names *what* a workload exchanges — which in-plane neighbors,
//! how many same-length columns per neighbor, how many diagonal phases —
//! and the compiler ([`crate::compile()`]) decides *how*: which of the
//! fabric's `MAX_COLORS` routable colors carry each stream, what every
//! PE's router does, and in which order streams are injected.

use std::fmt;

/// One in-plane neighbor offset `(dx, dy)` with an optional per-face
/// weight.
///
/// `dx` grows eastward (fabric columns), `dy` grows southward (fabric
/// rows) — the North neighbor is `(0, -1)`. The weight is carried
/// through compilation untouched; kernels that want per-face constants
/// (e.g. a Laplacian) read it back from the compiled spec, and it is
/// covered by [`StencilSpec::content_bytes`] so two workloads differing
/// only in weights hash differently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetSpec {
    /// Eastward offset of the neighbor whose column this stream delivers.
    pub dx: i32,
    /// Southward offset of the neighbor whose column this stream delivers.
    pub dy: i32,
    /// Per-face weight (default 1.0).
    pub weight: f32,
}

impl OffsetSpec {
    /// An offset with the default weight.
    pub fn new(dx: i32, dy: i32) -> Self {
        Self {
            dx,
            dy,
            weight: 1.0,
        }
    }

    /// An offset with an explicit per-face weight.
    pub fn weighted(dx: i32, dy: i32, weight: f32) -> Self {
        Self { dx, dy, weight }
    }

    /// True when the offset is axis-aligned (one of `dx`, `dy` is zero).
    pub fn is_cardinal(&self) -> bool {
        self.dx == 0 || self.dy == 0
    }
}

/// A declarative description of an in-plane halo-exchange stencil.
///
/// The Z direction is deliberately absent: columns live in PE memory, so
/// vertical faces never touch the fabric (the paper's cell-based
/// mapping) — kernels handle them locally.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilSpec {
    /// Workload name (diagnostics, hashing, CLI selection).
    pub name: String,
    /// Same-length columns sent per stream per step (e.g. TPFA sends
    /// pressure and density: 2).
    pub quantities: usize,
    /// In-plane neighbor offsets, one receive stream each. Order is
    /// significant: stream `k` of the compiled pattern is `offsets[k]`.
    pub offsets: Vec<OffsetSpec>,
    /// Chebyshev halo radius the offsets must fit in (only 1 is
    /// routable today).
    pub halo_radius: u32,
    /// Number of phase colors per diagonal family (the paper's rotating
    /// 3-phase coloring; must be ≥ 3 when corner offsets are present).
    pub phases: u32,
    /// Colors reserved after the start color for host-side reduction
    /// trees (dot products); compiled but not yet routed.
    pub reduction_colors: u32,
}

impl StencilSpec {
    /// A minimal spec with the canonical defaults (`halo_radius` 1,
    /// `phases` 3, no reduction colors).
    pub fn new(name: impl Into<String>, quantities: usize, offsets: Vec<OffsetSpec>) -> Self {
        Self {
            name: name.into(),
            quantities,
            offsets,
            halo_radius: 1,
            phases: 3,
            reduction_colors: 0,
        }
    }

    /// The paper's 10-face TPFA stencil: all eight in-plane neighbors in
    /// canonical face order, two quantities (pressure, density).
    pub fn tpfa() -> Self {
        Self::new("tpfa", 2, Self::full_ring(1.0))
    }

    /// A 7-point Laplacian: the four cardinal neighbors, one quantity,
    /// with per-face weights `(wx, wy)` (the two vertical faces are
    /// local to the PE and carry `wz` in the kernel).
    pub fn laplace7(wx: f32, wy: f32) -> Self {
        Self::new(
            "laplace7",
            1,
            vec![
                OffsetSpec::weighted(1, 0, wx),
                OffsetSpec::weighted(-1, 0, wx),
                OffsetSpec::weighted(0, -1, wy),
                OffsetSpec::weighted(0, 1, wy),
            ],
        )
    }

    /// The seismic-wave 10-neighbor stencil: full in-plane ring, one
    /// quantity (the wavefield), per-face weights `(wx, wy, wd)` for
    /// cardinal-x, cardinal-y and diagonal coupling.
    pub fn wave(wx: f32, wy: f32, wd: f32) -> Self {
        let mut offsets = Self::full_ring(wd);
        offsets[0].weight = wx;
        offsets[1].weight = wx;
        offsets[2].weight = wy;
        offsets[3].weight = wy;
        Self::new("wave", 1, offsets)
    }

    /// The eight in-plane offsets in canonical face order (E, W, N, S,
    /// NE, NW, SE, SW), all with weight `w`.
    pub fn full_ring(w: f32) -> Vec<OffsetSpec> {
        vec![
            OffsetSpec::weighted(1, 0, w),
            OffsetSpec::weighted(-1, 0, w),
            OffsetSpec::weighted(0, -1, w),
            OffsetSpec::weighted(0, 1, w),
            OffsetSpec::weighted(1, -1, w),
            OffsetSpec::weighted(-1, -1, w),
            OffsetSpec::weighted(1, 1, w),
            OffsetSpec::weighted(-1, 1, w),
        ]
    }

    /// Canonical byte encoding of the spec for content hashing: name,
    /// quantities, halo radius, phases, reduction colors, then every
    /// offset with its weight bits. Two specs compare equal iff their
    /// bytes compare equal.
    pub fn content_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.name.len() as u64).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.quantities as u64).to_le_bytes());
        out.extend_from_slice(&self.halo_radius.to_le_bytes());
        out.extend_from_slice(&self.phases.to_le_bytes());
        out.extend_from_slice(&self.reduction_colors.to_le_bytes());
        out.extend_from_slice(&(self.offsets.len() as u64).to_le_bytes());
        for o in &self.offsets {
            out.extend_from_slice(&o.dx.to_le_bytes());
            out.extend_from_slice(&o.dy.to_le_bytes());
            out.extend_from_slice(&o.weight.to_bits().to_le_bytes());
        }
        out
    }
}

/// A typed compilation diagnostic. Compilation never panics on a bad
/// spec; every rejection names the offending fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// `quantities` was zero — a stream must carry at least one column.
    ZeroQuantities {
        /// The spec's name.
        name: String,
    },
    /// An offset was `(0, 0)` — a PE cannot exchange with itself.
    ZeroOffset {
        /// Index of the offending offset.
        index: usize,
    },
    /// The same `(dx, dy)` appeared twice; streams would alias one
    /// receive buffer.
    DuplicateOffset {
        /// The repeated offset.
        offset: (i32, i32),
        /// Indices of the two occurrences.
        indices: (usize, usize),
    },
    /// An offset lies outside the spec's halo radius.
    OffsetOutsideHaloRadius {
        /// The offending offset.
        offset: (i32, i32),
        /// The spec's declared radius.
        halo_radius: u32,
    },
    /// Only radius-1 halos are routable today; larger radii need relay
    /// hops the route emitter does not yet generate.
    UnsupportedHaloRadius {
        /// The spec's declared radius.
        halo_radius: u32,
    },
    /// Fewer than three phases with corner offsets present: some PE
    /// would source and forward (or forward and receive) a family on
    /// the same color — a cycle in the role assignment.
    PhaseCycle {
        /// The spec's declared phase count.
        phases: u32,
        /// A corner offset requiring the 3-phase rotation.
        offset: (i32, i32),
    },
    /// The stencil needs more colors than the fabric routes.
    ColorBudgetExceeded {
        /// Colors the spec needs (lanes + start + reduction).
        needed: usize,
        /// The fabric's routable color budget (`MAX_COLORS`).
        budget: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::ZeroQuantities { name } => {
                write!(f, "stencil {name:?}: quantities must be at least 1")
            }
            CompileError::ZeroOffset { index } => {
                write!(
                    f,
                    "offset #{index} is (0, 0): a PE cannot exchange with itself"
                )
            }
            CompileError::DuplicateOffset { offset, indices } => write!(
                f,
                "offset ({}, {}) appears at both #{} and #{}",
                offset.0, offset.1, indices.0, indices.1
            ),
            CompileError::OffsetOutsideHaloRadius {
                offset,
                halo_radius,
            } => write!(
                f,
                "offset ({}, {}) is outside the halo radius {halo_radius}",
                offset.0, offset.1
            ),
            CompileError::UnsupportedHaloRadius { halo_radius } => {
                write!(
                    f,
                    "halo radius {halo_radius} is not routable (only 1 is supported)"
                )
            }
            CompileError::PhaseCycle { phases, offset } => write!(
                f,
                "{phases} phase(s) with corner offset ({}, {}): diagonal roles need \
                 at least 3 phases to stay acyclic",
                offset.0, offset.1
            ),
            CompileError::ColorBudgetExceeded { needed, budget } => {
                write!(
                    f,
                    "stencil needs {needed} colors but the fabric routes {budget}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_specs_have_expected_shapes() {
        let t = StencilSpec::tpfa();
        assert_eq!(t.quantities, 2);
        assert_eq!(t.offsets.len(), 8);
        let l = StencilSpec::laplace7(0.25, 0.0625);
        assert_eq!(l.offsets.len(), 4);
        assert!(l.offsets.iter().all(|o| o.is_cardinal()));
        let w = StencilSpec::wave(1.0, 2.0, 0.5);
        assert_eq!(w.offsets[0].weight, 1.0);
        assert_eq!(w.offsets[3].weight, 2.0);
        assert_eq!(w.offsets[7].weight, 0.5);
    }

    #[test]
    fn content_bytes_distinguish_specs() {
        assert_eq!(
            StencilSpec::tpfa().content_bytes(),
            StencilSpec::tpfa().content_bytes()
        );
        assert_ne!(
            StencilSpec::tpfa().content_bytes(),
            StencilSpec::laplace7(1.0, 1.0).content_bytes()
        );
        // weights are content
        assert_ne!(
            StencilSpec::laplace7(1.0, 1.0).content_bytes(),
            StencilSpec::laplace7(2.0, 1.0).content_bytes()
        );
    }

    #[test]
    fn diagnostics_render() {
        let e = CompileError::OffsetOutsideHaloRadius {
            offset: (2, 0),
            halo_radius: 1,
        };
        assert!(e.to_string().contains("(2, 0)"));
        let e = CompileError::ColorBudgetExceeded {
            needed: 30,
            budget: 24,
        };
        assert!(e.to_string().contains("30"));
    }
}
