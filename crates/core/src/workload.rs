//! The workload abstraction: one simulator, many stencils.
//!
//! A [`Workload`] packages everything the host driver needs to run a
//! compiled stencil on the fabric — the per-PE program factory, the
//! static upload, the host-side inject/collect phases, the memory
//! footprint, and the content that goes into the checkpoint spec hash.
//! [`crate::driver::SimulatorBuilder::workload`] is the generic entry
//! point; the classic `fluid()`/`transmissibilities()` path builds a
//! [`TpfaWorkload`] under the hood, so both roads run the same driver.
//!
//! Cross-workload checkpoint safety: [`Workload::hash_content`] feeds
//! the stencil spec's canonical bytes (plus workload parameters) into
//! `SimSpec::content_hash`, so a checkpoint captured under one workload
//! is refused by a server restoring under another with a typed
//! mismatch error rather than silently misinterpreted PE memory.

use crate::kernel::{FluidParams, TpfaKernel};
use crate::layout::{max_nz_fitting, ColumnLayout, MemoryPlan};
use fv_core::mesh::ALL_NEIGHBORS;
use std::sync::{Arc, OnceLock};
use wse_sim::fabric::Fabric;
use wse_sim::geometry::PeCoord;
use wse_sim::hash::ContentHasher;
use wse_sim::memory::{host_write_f32, MemRange};
use wse_sim::pe::PeProgram;
use wse_sim::wavelet::Color;
use wse_stencil::{CommPattern, CompiledStencil, StencilPeProgram, StencilProgram, StencilSpec};

/// A complete fabric workload: a compiled stencil plus the host-side
/// protocol for driving it.
///
/// Implementations hold their own geometry (`nx × ny` PEs, `nz` cells
/// per column) and all static data, so the driver can rebuild the
/// fabric for fault retries without borrowing the original problem.
pub trait Workload: Send + Sync {
    /// Workload name (diagnostics, metrics labels, CLI selection).
    fn name(&self) -> &str;

    /// The compiled stencil this workload runs.
    fn compiled(&self) -> &CompiledStencil;

    /// The communication pattern actually installed on the routers —
    /// usually `compiled().pattern`, but ablations may strip lanes
    /// (e.g. TPFA's cardinal-only §5.2.2 baseline).
    fn pattern(&self) -> Arc<CommPattern>;

    /// Fabric extent in PEs: `(nx, ny)`.
    fn grid(&self) -> (usize, usize);

    /// Column height (cells per PE).
    fn nz(&self) -> usize;

    /// Per-PE memory footprint in words for a column of `nz` cells.
    fn words_per_pe(&self, nz: usize) -> usize;

    /// Largest `nz` whose footprint fits `capacity_words` (0 if not
    /// even one layer fits).
    fn max_nz(&self, capacity_words: usize) -> usize {
        max_nz_fitting(capacity_words, |nz| self.words_per_pe(nz))
    }

    /// Builds the per-PE program (called once per PE at fabric
    /// construction) — a handle on one program shared by every PE.
    fn make_program(&self) -> Box<dyn PeProgram>;

    /// Uploads static data after `Fabric::load` (e.g. TPFA's ten
    /// transmissibility columns). Default: nothing to upload.
    fn upload_static(&self, fabric: &mut Fabric) {
        let _ = fabric;
    }

    /// Host-phase injection: uploads `input` (mesh linear order) before
    /// a step is launched. Stateful workloads (e.g. the wave stencil)
    /// use this to set initial conditions and then advance without
    /// re-injection.
    fn inject(&self, fabric: &mut Fabric, input: &[f32]);

    /// Host-phase collection: reads the output field (mesh linear
    /// order) after a step completes.
    fn collect(&self, fabric: &Fabric) -> Vec<f32>;

    /// The host-launch color ([`CommPattern::start`] by default).
    fn start_color(&self) -> Color {
        self.pattern().start
    }

    /// Feeds workload-specific content (beyond the stencil spec bytes,
    /// which the driver hashes unconditionally) into the spec hash —
    /// physical parameters, static field bits, ablation flags.
    fn hash_content(&self, h: &mut ContentHasher);
}

/// Host → fabric column transpose: PE `(x, y)` receives cells
/// `(z·ny + y)·nx + x` of `field` (mesh linear order) in `range`. A range
/// two words longer than the column also gets mirror ghosts at both ends
/// (natural Neumann at the Z boundary). Every range in `zeroed` is
/// cleared.
pub(crate) fn inject_columns(
    fabric: &mut Fabric,
    (nx, ny, nz): (usize, usize, usize),
    field: &[f32],
    range: MemRange,
    zeroed: &[MemRange],
) {
    assert_eq!(field.len(), nx * ny * nz, "field covers the mesh");
    let ghost = ghost_words(range, nz);
    for y in 0..ny {
        for x in 0..nx {
            let words = fabric.memory_mut(PeCoord::new(x, y));
            let col = &mut words[range.words()];
            for z in 0..nz {
                col[z + ghost] = field[(z * ny + y) * nx + x].to_bits();
            }
            if ghost == 1 {
                col[0] = col[1];
                col[nz + 1] = col[nz];
            }
            for &r in zeroed {
                words[r.words()].fill(0);
            }
        }
    }
}

/// Fabric → host column transpose, the inverse of [`inject_columns`]: the
/// interior of every PE's `range`, in mesh linear order.
pub(crate) fn collect_columns(
    fabric: &Fabric,
    (nx, ny, nz): (usize, usize, usize),
    range: MemRange,
) -> Vec<f32> {
    let ghost = ghost_words(range, nz);
    let mut out = vec![0.0_f32; nx * ny * nz];
    for y in 0..ny {
        for x in 0..nx {
            let col = &fabric.memory(PeCoord::new(x, y))[range.words()];
            for z in 0..nz {
                out[(z * ny + y) * nx + x] = f32::from_bits(col[z + ghost]);
            }
        }
    }
    out
}

/// Ghost words at each end of a column range: 0 for `nz` words, 1 for
/// `nz + 2`.
fn ghost_words(range: MemRange, nz: usize) -> usize {
    assert!(
        range.len == nz || range.len == nz + 2,
        "a {}-word range is not a column of {nz}",
        range.len
    );
    (range.len - nz) / 2
}

/// The TPFA communication pattern of paper §5.2 (Figs. 5–6):
/// [`StencilSpec::tpfa`] through the stencil compiler, cached for the
/// process lifetime. 17 of the 24 routable colors are used; stream index
/// = [`fv_core::mesh::Neighbor::face_index`].
///
/// | colors | purpose |
/// |---|---|
/// | 0–3 | cardinal exchange (data moving E, W, S, N), switchable |
/// | 4–15 | diagonal exchange, four families × three phases, static |
/// | 16 | host launch / local task activation (no route) |
///
/// A cardinal color delivers the *opposite* face's data (color 0 moves
/// data east, so it hands each PE its west neighbor's column). A diagonal
/// family turns its stream 90° at an intermediary; along the path its key
/// changes by one per hop, so coloring by `key mod 3` gives every PE one
/// role per color and all four corner streams run concurrently:
///
/// | family | legs | delivers | key | key step |
/// |---|---|---|---|---|
/// | D1 | E, S | NorthWest data | x + y | +1 |
/// | D2 | S, W | NorthEast data | x − y | −1 |
/// | D3 | W, N | SouthEast data | x + y | −1 |
/// | D4 | N, E | SouthWest data | x − y | +1 |
pub fn tpfa_pattern() -> Arc<CommPattern> {
    static PATTERN: OnceLock<Arc<CommPattern>> = OnceLock::new();
    PATTERN
        .get_or_init(|| {
            Arc::new(
                wse_stencil::compile(&StencilSpec::tpfa())
                    .expect("the built-in TPFA spec compiles")
                    .pattern,
            )
        })
        .clone()
}

/// The paper's TPFA flux workload: Algorithm 1 on the 10-face stencil,
/// built by the classic `fluid()`/`transmissibilities()` builder path
/// (and by `--stencil tpfa` in the bench CLI).
pub struct TpfaWorkload {
    nx: usize,
    ny: usize,
    nz: usize,
    params: FluidParams,
    compute_enabled: bool,
    diagonals_enabled: bool,
    compiled: CompiledStencil,
    pattern: Arc<CommPattern>,
    layout: Arc<ColumnLayout>,
    program: Arc<StencilProgram>,
    /// Transmissibility columns in upload order: `[y][x][face][z]`,
    /// flattened.
    trans_cols: Vec<f32>,
}

impl TpfaWorkload {
    /// Assembles the workload from pre-validated parts (the builder has
    /// already checked diagonal/transmissibility consistency and memory
    /// fit). The routers get [`tpfa_pattern`], or its
    /// `without_diagonals()` form under the §5.2.2 ablation.
    pub(crate) fn new(
        nx: usize,
        ny: usize,
        nz: usize,
        params: FluidParams,
        compute_enabled: bool,
        diagonals_enabled: bool,
        trans_cols: Vec<f32>,
    ) -> Self {
        let compiled = wse_stencil::compile(&StencilSpec::tpfa()).expect("tpfa spec compiles");
        let pattern = if diagonals_enabled {
            tpfa_pattern()
        } else {
            Arc::new(tpfa_pattern().without_diagonals())
        };
        let layout = Arc::new(ColumnLayout::new(nz));
        let kernel = TpfaKernel::new(layout.clone(), params, compute_enabled);
        let program = Arc::new(StencilProgram::new(nz, pattern.clone(), kernel));
        Self {
            nx,
            ny,
            nz,
            params,
            compute_enabled,
            diagonals_enabled,
            compiled,
            pattern,
            layout,
            program,
            trans_cols,
        }
    }
}

impl Workload for TpfaWorkload {
    fn name(&self) -> &str {
        "tpfa"
    }

    fn compiled(&self) -> &CompiledStencil {
        &self.compiled
    }

    fn pattern(&self) -> Arc<CommPattern> {
        self.pattern.clone()
    }

    fn grid(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    fn nz(&self) -> usize {
        self.nz
    }

    fn words_per_pe(&self, nz: usize) -> usize {
        MemoryPlan::for_nz(nz).total_words()
    }

    fn make_program(&self) -> Box<dyn PeProgram> {
        Box::new(StencilPeProgram::new(self.program.clone()))
    }

    fn upload_static(&self, fabric: &mut Fabric) {
        let layout = &self.layout;
        let mut cols = self.trans_cols.chunks_exact(self.nz);
        for y in 0..self.ny {
            for x in 0..self.nx {
                let pe = PeCoord::new(x, y);
                let words = fabric.memory_mut(pe);
                for nb in ALL_NEIGHBORS {
                    let col = cols.next().expect("trans_cols covers every PE face");
                    host_write_f32(words, layout.trans[nb.face_index()], col);
                }
            }
        }
    }

    fn inject(&self, fabric: &mut Fabric, input: &[f32]) {
        let l = &self.layout;
        let dims = (self.nx, self.ny, self.nz);
        inject_columns(fabric, dims, input, l.p_own, &[l.residual]);
    }

    fn collect(&self, fabric: &Fabric) -> Vec<f32> {
        collect_columns(fabric, (self.nx, self.ny, self.nz), self.layout.residual)
    }

    fn hash_content(&self, h: &mut ContentHasher) {
        h.write_f32s(&[
            self.params.rho_ref,
            self.params.c_f,
            self.params.p_ref,
            self.params.inv_mu,
            self.params.g_dz_up,
            self.params.g_dz_down,
        ]);
        h.write(&[self.compute_enabled as u8, self.diagonals_enabled as u8]);
        h.write_f32s(&self.trans_cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_core::eos::Fluid;

    fn workload(nx: usize, ny: usize, nz: usize) -> TpfaWorkload {
        let params = FluidParams::from_fluid(&Fluid::water_like(), 1.0);
        let trans = vec![0.5_f32; nx * ny * ALL_NEIGHBORS.len() * nz];
        TpfaWorkload::new(nx, ny, nz, params, true, true, trans)
    }

    #[test]
    fn tpfa_workload_exposes_the_compiled_pattern() {
        let w = workload(3, 2, 4);
        assert_eq!(w.name(), "tpfa");
        assert_eq!(w.grid(), (3, 2));
        assert_eq!(w.nz(), 4);
        assert_eq!(w.start_color(), w.compiled().pattern.start);
        assert_eq!(*w.pattern(), w.compiled().pattern);
    }

    #[test]
    fn memory_accounting_matches_the_plan() {
        let w = workload(2, 2, 8);
        assert_eq!(w.words_per_pe(8), MemoryPlan::for_nz(8).total_words());
        let cap = 12_288; // 48 kB / 4
        assert_eq!(w.max_nz(cap), MemoryPlan::max_nz(cap));
    }

    #[test]
    fn hash_content_covers_parameters_and_static_data() {
        let digest = |w: &TpfaWorkload| {
            let mut h = ContentHasher::new();
            w.hash_content(&mut h);
            h.finish()
        };
        let a = digest(&workload(2, 2, 3));
        assert_eq!(a, digest(&workload(2, 2, 3)));
        let mut other = workload(2, 2, 3);
        other.trans_cols[0] = 0.75;
        assert_ne!(a, digest(&other));
        let mut other = workload(2, 2, 3);
        other.params.inv_mu *= 2.0;
        assert_ne!(a, digest(&other));
    }
}
