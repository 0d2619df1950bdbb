//! A 7-point Laplacian workload — the first *new* stencil expressed
//! purely against the stencil compiler, with no hand-derived route
//! tables anywhere: [`wse_stencil::StencilSpec::laplace7`] (four in-plane
//! cardinal offsets, one quantity) compiles to a cardinal-only pattern,
//! the [`LaplaceKernel`] contributes the arithmetic, and the
//! [`LaplaceWorkload`] plugs the pair into the workload-generic driver.
//!
//! The operator is the weighted second difference
//!
//! ```text
//! (L u)_K = Σ_f w_f (u_L − u_K)
//! ```
//!
//! over the six faces: E/W at `wx`, N/S at `wy` on the fabric, Up/Down at
//! `wz` locally from the PE's own column (mirror ghosts ⇒ natural Neumann
//! at the Z boundary, skipped faces ⇒ Neumann at the in-plane boundary).
//! Like TPFA it is stateless per application: inject `u`, run one step,
//! collect `L u`.

use crate::driver::DataflowFluxSimulator;
use crate::workload::{collect_columns, inject_columns, Workload};
use std::sync::Arc;
use wse_sim::dsd::{Dsd, Operand};
use wse_sim::fabric::Fabric;
use wse_sim::hash::ContentHasher;
use wse_sim::memory::MemRange;
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::trace::TraceRegion;
use wse_stencil::{
    state_words, ColumnExchange, CommPattern, CompileError, CompiledStencil, KernelLayout,
    StencilKernel, StencilPeProgram, StencilProgram,
};

/// Face weights of the 7-point Laplacian (typically `1/h²` per axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceParams {
    /// East/West weight.
    pub wx: f32,
    /// North/South weight.
    pub wy: f32,
    /// Up/Down weight (applied locally — Z never touches the fabric).
    pub wz: f32,
}

impl LaplaceParams {
    /// Weights from grid spacings: `w = 1/h²` per axis.
    pub fn from_spacing(dx: f64, dy: f64, dz: f64) -> Self {
        assert!(dx > 0.0 && dy > 0.0 && dz > 0.0);
        Self {
            wx: (1.0 / (dx * dx)) as f32,
            wy: (1.0 / (dy * dy)) as f32,
            wz: (1.0 / (dz * dz)) as f32,
        }
    }
}

/// Word-level memory layout of the Laplacian program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaplaceLayout {
    /// Column height.
    pub nz: usize,
    /// Input field incl. 2 ghost cells.
    pub u: MemRange,
    /// Output accumulator (`nz` words).
    pub out: MemRange,
    /// Receive buffers for the 4 cardinal neighbors (`nz` each).
    pub recv: [MemRange; 4],
    /// Work column.
    pub temp: MemRange,
}

impl LaplaceLayout {
    /// Layout for a column of `nz` cells, starting at word 0.
    pub fn new(nz: usize) -> Self {
        let mut next = 0usize;
        let mut take = |len: usize| {
            let r = MemRange { offset: next, len };
            next += len;
            r
        };
        Self {
            nz,
            u: take(nz + 2),
            out: take(nz),
            recv: std::array::from_fn(|_| take(nz)),
            temp: take(nz),
        }
    }

    /// Total words.
    pub fn total_words(&self) -> usize {
        self.temp.offset + self.temp.len
    }

    /// Interior (non-ghost) view of the input field.
    pub fn u_interior(&self) -> Dsd {
        Dsd::contiguous(self.u.offset + 1, self.nz)
    }
}

/// The Laplacian arithmetic, plugged into the compiler's generic
/// [`StencilPeProgram`].
pub struct LaplaceKernel {
    params: LaplaceParams,
    layout: Arc<LaplaceLayout>,
}

impl LaplaceKernel {
    /// Creates the kernel over a layout shared by every PE.
    pub fn new(layout: Arc<LaplaceLayout>, params: LaplaceParams) -> Self {
        Self { params, layout }
    }

    /// `out += w · (u_L − u_K)` for one face (2 vector ops).
    fn accumulate(&self, ctx: &mut PeContext, weight: f32, u_l: Dsd) {
        let l = &*self.layout;
        let t = Dsd::contiguous(l.temp.offset, l.nz);
        let out = Dsd::contiguous(l.out.offset, l.nz);
        ctx.fsubs(t, Operand::Mem(u_l), Operand::Mem(l.u_interior()));
        ctx.fmacs(out, Operand::Mem(t), Operand::Scalar(weight));
    }
}

impl StencilKernel for LaplaceKernel {
    fn layout(&self, streams: usize) -> KernelLayout {
        assert_eq!(streams, 4, "laplace7 has four in-plane offsets");
        let l = &*self.layout;
        KernelLayout {
            words: l.total_words(),
            recv: vec![l.recv.to_vec()],
            send: vec![l.u_interior()],
        }
    }

    fn on_start(&self, ctx: &mut PeContext) {
        let u = self.layout.u_interior();
        let wz = self.params.wz;
        ctx.region_begin(TraceRegion::FluxCompute);
        self.accumulate(ctx, wz, u.shifted(1));
        self.accumulate(ctx, wz, u.shifted(-1));
        ctx.region_end(TraceRegion::FluxCompute);
    }

    fn on_stream_complete(&self, ctx: &mut PeContext, stream: usize, exchange: &ColumnExchange) {
        // Spec order: (1,0) E, (-1,0) W, (0,-1) N, (0,1) S.
        let w = match stream {
            0 | 1 => self.params.wx,
            _ => self.params.wy,
        };
        let u_l = exchange.recv_view(0, stream);
        ctx.region_begin(TraceRegion::FluxCompute);
        self.accumulate(ctx, w, u_l);
        ctx.region_end(TraceRegion::FluxCompute);
    }

    fn on_step_complete(&self, _ctx: &mut PeContext) {}
}

/// The Laplacian as a fabric [`Workload`] for
/// [`DataflowFluxSimulator::workload_builder`].
pub struct LaplaceWorkload {
    nx: usize,
    ny: usize,
    nz: usize,
    params: LaplaceParams,
    compiled: CompiledStencil,
    pattern: Arc<CommPattern>,
    layout: Arc<LaplaceLayout>,
    program: Arc<StencilProgram>,
}

impl LaplaceWorkload {
    /// Compiles the laplace7 spec for an `nx × ny × nz` domain.
    pub fn new(
        nx: usize,
        ny: usize,
        nz: usize,
        params: LaplaceParams,
    ) -> Result<Self, CompileError> {
        let compiled =
            wse_stencil::compile(&wse_stencil::StencilSpec::laplace7(params.wx, params.wy))?;
        let pattern = Arc::new(compiled.pattern.clone());
        let layout = Arc::new(LaplaceLayout::new(nz));
        let kernel = LaplaceKernel::new(layout.clone(), params);
        let program = Arc::new(StencilProgram::new(nz, pattern.clone(), kernel));
        Ok(Self {
            nx,
            ny,
            nz,
            params,
            compiled,
            pattern,
            layout,
            program,
        })
    }
}

impl Workload for LaplaceWorkload {
    fn name(&self) -> &str {
        "laplace7"
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
        LaplaceLayout::new(nz).total_words() + state_words(self.pattern.streams)
    }

    fn make_program(&self) -> Box<dyn PeProgram> {
        Box::new(StencilPeProgram::new(self.program.clone()))
    }

    fn inject(&self, fabric: &mut Fabric, input: &[f32]) {
        let l = &self.layout;
        inject_columns(fabric, (self.nx, self.ny, self.nz), input, l.u, &[l.out]);
    }

    fn collect(&self, fabric: &Fabric) -> Vec<f32> {
        collect_columns(fabric, (self.nx, self.ny, self.nz), self.layout.out)
    }

    fn hash_content(&self, h: &mut ContentHasher) {
        h.write_f32s(&[self.params.wx, self.params.wy, self.params.wz]);
    }
}

/// Builds a ready-to-run Laplacian simulator (Sequential engine,
/// defaults everywhere) — apply `u`, get `L u`.
pub fn laplace_simulator(
    nx: usize,
    ny: usize,
    nz: usize,
    params: LaplaceParams,
) -> Result<DataflowFluxSimulator, crate::driver::BuildError> {
    let workload = LaplaceWorkload::new(nx, ny, nz, params)?;
    DataflowFluxSimulator::workload_builder()
        .workload(workload)
        .build()
}

/// Serial reference of the same operator (f32, same skip/mirror boundary
/// treatment) for validation.
pub fn serial_laplace(
    nx: usize,
    ny: usize,
    nz: usize,
    params: &LaplaceParams,
    u: &[f32],
) -> Vec<f32> {
    assert_eq!(u.len(), nx * ny * nz);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut out = vec![0.0_f32; u.len()];
    let faces: [(i64, i64, i64, f32); 6] = [
        (1, 0, 0, params.wx),
        (-1, 0, 0, params.wx),
        (0, -1, 0, params.wy),
        (0, 1, 0, params.wy),
        (0, 0, 1, params.wz),
        (0, 0, -1, params.wz),
    ];
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                let mut acc = 0.0_f32;
                for (dx, dy, dz, w) in faces {
                    let xx = x as i64 + dx;
                    let yy = y as i64 + dy;
                    let zz = z as i64 + dz;
                    let u_l = if zz < 0 || zz >= nz as i64 {
                        u[i] // mirror ghost at the Z boundary
                    } else if xx < 0 || yy < 0 || xx >= nx as i64 || yy >= ny as i64 {
                        continue; // skipped face at the in-plane boundary
                    } else {
                        u[idx(xx as usize, yy as usize, zz as usize)]
                    };
                    acc = w.mul_add(u_l - u[i], acc);
                }
                out[i] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_sim::fabric::{Execution, FabricError};

    fn varied_field(nx: usize, ny: usize, nz: usize) -> Vec<f32> {
        (0..nx * ny * nz)
            .map(|i| ((i * 2654435761_usize) % 1000) as f32 / 100.0)
            .collect()
    }

    #[test]
    fn layout_is_contiguous() {
        let l = LaplaceLayout::new(6);
        assert_eq!(l.u.offset, 0);
        assert_eq!(l.total_words(), (6 + 2) + 6 + 4 * 6 + 6);
        assert_eq!(l.u_interior().len, 6);
    }

    #[test]
    fn fabric_matches_serial_reference() {
        let (nx, ny, nz) = (6, 5, 4);
        let params = LaplaceParams::from_spacing(2.0, 3.0, 4.0);
        let u = varied_field(nx, ny, nz);
        let mut sim = laplace_simulator(nx, ny, nz, params).unwrap();
        let fab = sim.apply(&u).unwrap();
        let reference = serial_laplace(nx, ny, nz, &params, &u);
        let scale = reference.iter().map(|v| v.abs()).fold(1e-12_f32, f32::max);
        for i in 0..fab.len() {
            assert!(
                (fab[i] - reference[i]).abs() <= 1e-5 * scale,
                "cell {i}: fabric {} vs serial {}",
                fab[i],
                reference[i]
            );
        }
    }

    #[test]
    fn constant_field_has_zero_laplacian() {
        let (nx, ny, nz) = (5, 5, 3);
        let params = LaplaceParams::from_spacing(1.0, 1.0, 1.0);
        let mut sim = laplace_simulator(nx, ny, nz, params).unwrap();
        let ones = vec![3.25_f32; nx * ny * nz];
        let out = sim.apply(&ones).unwrap();
        assert!(out.iter().all(|&v| v == 0.0), "constant ⇒ L u = 0 exactly");
        assert!(sim.stats().total.fabric_loads > 0, "data still moved");
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        let (nx, ny, nz) = (7, 4, 3);
        let params = LaplaceParams::from_spacing(1.5, 2.5, 3.5);
        let u = varied_field(nx, ny, nz);
        let run = |execution| -> Result<Vec<f32>, FabricError> {
            let mut sim = DataflowFluxSimulator::workload_builder()
                .workload(LaplaceWorkload::new(nx, ny, nz, params).unwrap())
                .execution(execution)
                .build()
                .unwrap();
            sim.apply(&u)
        };
        let seq = run(Execution::Sequential).unwrap();
        let sh = run(Execution::Sharded {
            shards: 9,
            threads: 3,
        })
        .unwrap();
        assert_eq!(seq, sh);
    }

    #[test]
    fn repeated_applications_are_independent() {
        let (nx, ny, nz) = (4, 4, 3);
        let params = LaplaceParams::from_spacing(1.0, 1.0, 1.0);
        let u = varied_field(nx, ny, nz);
        let mut sim = laplace_simulator(nx, ny, nz, params).unwrap();
        let a = sim.apply(&u).unwrap();
        let b = sim.apply(&u).unwrap();
        // Were the accumulator not zeroed, `b` would be ~2×`a`. Arrival
        // order may interleave differently on a warm event queue, so the
        // comparison is to rounding tolerance, not bit-exact.
        let scale = a.iter().map(|v| v.abs()).fold(1e-12_f32, f32::max);
        for i in 0..a.len() {
            assert!(
                (a[i] - b[i]).abs() <= 1e-5 * scale,
                "cell {i}: {} vs {} — accumulator not zeroed?",
                a[i],
                b[i]
            );
        }
        assert_eq!(sim.applications(), 2);
    }

    #[test]
    fn cardinal_only_pattern_has_no_diagonal_lanes() {
        let w = LaplaceWorkload::new(3, 3, 2, LaplaceParams::from_spacing(1.0, 1.0, 1.0)).unwrap();
        let p = w.pattern();
        assert_eq!(p.cardinals.len(), 4);
        assert!(p.diagonals.is_empty());
        assert_eq!(p.streams, 4);
        assert_eq!(p.quantities, 1);
    }
}
