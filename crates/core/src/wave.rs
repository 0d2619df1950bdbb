//! Acoustic wave propagation on the dataflow fabric — the application the
//! paper's §8 singles out as enabled by diagonal communication:
//! "the first to exploit data communication from diagonal PEs, which
//! enables the implementation of other types of applications, such as
//! solving the acoustic wave equation on tiled transversely isotropic
//! media, that also require fetching data from diagonal neighbors."
//!
//! The scheme is a second-order leapfrog on a 10-neighbor Laplacian (four
//! in-plane cardinals, four in-plane diagonals, two vertical):
//!
//! ```text
//! u^{n+1}_K = 2 u^n_K − u^{n−1}_K + (c·Δt)² Σ_f w_f (u^n_L − u^n_K)
//! ```
//!
//! with per-face weights `w` (1/dx², 1/dy², 1/dz² for the cardinals and a
//! tunable `β/(dx²+dy²)` for the diagonals — the anisotropy-coupling term a
//! TTI stencil needs). The whole fabric side now goes through the stencil
//! compiler: [`wse_stencil::StencilSpec::wave`] compiles to the same
//! route/color tables TPFA uses (one quantity instead of two), the per-PE
//! program is a [`WaveKernel`] plugged into the generic
//! [`wse_stencil::StencilPeProgram`], and the host side is a
//! [`WaveWorkload`] driven by the workload-generic
//! [`crate::driver::DataflowFluxSimulator`] — checkpointing, fault
//! injection, tracing and metrics included, for free.

use crate::driver::DataflowFluxSimulator;
use crate::workload::{collect_columns, inject_columns, Workload};
use fv_core::mesh::{Neighbor, ALL_NEIGHBORS, NEIGHBOR_COUNT};
use std::sync::Arc;
use wse_sim::dsd::{Dsd, Operand};
use wse_sim::fabric::{Fabric, FabricError};
use wse_sim::hash::ContentHasher;
use wse_sim::memory::MemRange;
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::trace::TraceRegion;
use wse_stencil::{
    state_words, ColumnExchange, CommPattern, CompileError, CompiledStencil, KernelLayout,
    StencilKernel, StencilPeProgram, StencilProgram, StencilSpec,
};

/// Stencil parameters of the wave kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveParams {
    /// Per-face Laplacian weights in canonical [`Neighbor`] order.
    pub weights: [f32; NEIGHBOR_COUNT],
    /// `(c·Δt)²` — the squared Courant factor.
    pub c_dt_sq: f32,
}

impl WaveParams {
    /// Builds weights from spacings, wave speed and time step;
    /// `diagonal_beta` scales the in-plane diagonal coupling (0 disables).
    pub fn new(dx: f64, dy: f64, dz: f64, c: f64, dt: f64, diagonal_beta: f64) -> Self {
        assert!(dx > 0.0 && dy > 0.0 && dz > 0.0 && c > 0.0 && dt > 0.0);
        assert!(diagonal_beta >= 0.0);
        let wx = (1.0 / (dx * dx)) as f32;
        let wy = (1.0 / (dy * dy)) as f32;
        let wz = (1.0 / (dz * dz)) as f32;
        let wd = (diagonal_beta / (dx * dx + dy * dy)) as f32;
        let mut weights = [0.0_f32; NEIGHBOR_COUNT];
        for nb in ALL_NEIGHBORS {
            weights[nb.face_index()] = match nb {
                Neighbor::East | Neighbor::West => wx,
                Neighbor::North | Neighbor::South => wy,
                Neighbor::Up | Neighbor::Down => wz,
                _ => wd,
            };
        }
        Self {
            weights,
            c_dt_sq: (c * dt * c * dt) as f32,
        }
    }

    /// The CFL number of these parameters (stable for values below ~1).
    pub fn cfl(&self) -> f32 {
        let w_sum: f32 = self.weights.iter().sum();
        self.c_dt_sq * w_sum / 4.0
    }

    /// The declarative stencil spec of these parameters: the full
    /// in-plane ring, one quantity, per-face weights.
    pub fn spec(&self) -> StencilSpec {
        StencilSpec::wave(
            self.weights[Neighbor::East.face_index()],
            self.weights[Neighbor::North.face_index()],
            self.weights[Neighbor::NorthEast.face_index()],
        )
    }
}

/// Word-level memory layout of the wave program (host ↔ PE contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveLayout {
    /// Column height.
    pub nz: usize,
    /// Current wavefield incl. 2 ghost cells.
    pub u: MemRange,
    /// Previous wavefield (`nz` words).
    pub u_prev: MemRange,
    /// Laplacian accumulator (`nz` words).
    pub lap: MemRange,
    /// Receive buffers for the 8 in-plane neighbors (`nz` each).
    pub recv: [MemRange; 8],
    /// Work column.
    pub temp: MemRange,
}

impl WaveLayout {
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
            u_prev: take(nz),
            lap: take(nz),
            recv: std::array::from_fn(|_| take(nz)),
            temp: take(nz),
        }
    }

    /// Total words.
    pub fn total_words(&self) -> usize {
        self.temp.offset + self.temp.len
    }

    /// Interior (non-ghost) view of the current wavefield.
    pub fn u_interior(&self) -> Dsd {
        Dsd::contiguous(self.u.offset + 1, self.nz)
    }
}

/// The leapfrog kernel, plugged into the compiler's generic
/// [`StencilPeProgram`]: it only knows how to accumulate a face and do
/// the time update — routing, switching and protocol state belong to the
/// compiled pattern.
pub struct WaveKernel {
    params: WaveParams,
    layout: Arc<WaveLayout>,
}

impl WaveKernel {
    /// Creates the kernel over a layout shared by every PE.
    pub fn new(layout: Arc<WaveLayout>, params: WaveParams) -> Self {
        Self { params, layout }
    }

    /// `lap += w · (u_L − u_K)` for one face (2 vector ops).
    fn accumulate(&self, ctx: &mut PeContext, weight: f32, u_l: Dsd) {
        let l = &*self.layout;
        let t = Dsd::contiguous(l.temp.offset, l.nz);
        let lap = Dsd::contiguous(l.lap.offset, l.nz);
        ctx.fsubs(t, Operand::Mem(u_l), Operand::Mem(l.u_interior()));
        ctx.fmacs(lap, Operand::Mem(t), Operand::Scalar(weight));
    }

    /// Leapfrog update once every face has been accumulated.
    fn time_update(&self, ctx: &mut PeContext) {
        let l = &*self.layout;
        let nz = l.nz;
        let u = l.u_interior();
        let up = Dsd::contiguous(l.u_prev.offset, nz);
        let lap = Dsd::contiguous(l.lap.offset, nz);
        let t = Dsd::contiguous(l.temp.offset, nz);
        // t = 2u − u_prev + (cΔt)²·lap
        ctx.fmuls(t, Operand::Mem(u), Operand::Scalar(2.0));
        ctx.fsubs(t, Operand::Mem(t), Operand::Mem(up));
        ctx.fmacs(t, Operand::Mem(lap), Operand::Scalar(self.params.c_dt_sq));
        // rotate: u_prev ← u, u ← t, lap ← 0
        ctx.fmuls(up, Operand::Mem(u), Operand::Scalar(1.0));
        ctx.fmuls(u, Operand::Mem(t), Operand::Scalar(1.0));
        ctx.fmuls(lap, Operand::Mem(lap), Operand::Scalar(0.0));
        // refresh the mirror ghosts (natural Neumann at the Z boundary)
        let first = Dsd::contiguous(l.u.offset + 1, 1);
        let last = Dsd::contiguous(l.u.offset + nz, 1);
        ctx.fmuls(
            Dsd::contiguous(l.u.offset, 1),
            Operand::Mem(first),
            Operand::Scalar(1.0),
        );
        ctx.fmuls(
            Dsd::contiguous(l.u.offset + nz + 1, 1),
            Operand::Mem(last),
            Operand::Scalar(1.0),
        );
    }
}

impl StencilKernel for WaveKernel {
    fn layout(&self, streams: usize) -> KernelLayout {
        assert_eq!(streams, 8, "the wave spec is the full in-plane ring");
        let l = &*self.layout;
        KernelLayout {
            words: l.total_words(),
            recv: vec![l.recv.to_vec()],
            send: vec![l.u_interior()],
        }
    }

    fn on_start(&self, ctx: &mut PeContext) {
        // Z faces from local memory; the exchange sends `u` next.
        let u = self.layout.u_interior();
        let wz = self.params.weights[Neighbor::Up.face_index()];
        ctx.region_begin(TraceRegion::FluxCompute);
        self.accumulate(ctx, wz, u.shifted(1));
        self.accumulate(ctx, wz, u.shifted(-1));
        ctx.region_end(TraceRegion::FluxCompute);
    }

    fn on_stream_complete(&self, ctx: &mut PeContext, stream: usize, exchange: &ColumnExchange) {
        // Stream index == in-plane face index (the spec lists offsets in
        // canonical face order).
        let w = self.params.weights[stream];
        let u_l = exchange.recv_view(0, stream);
        ctx.region_begin(TraceRegion::FluxCompute);
        self.accumulate(ctx, w, u_l);
        ctx.region_end(TraceRegion::FluxCompute);
    }

    fn on_step_complete(&self, ctx: &mut PeContext) {
        // The update overwrites `u`, which is also the send buffer; the
        // generic program only fires this once every receive AND every
        // outgoing cardinal send is done (write-after-read hazard).
        ctx.region_begin(TraceRegion::FluxCompute);
        self.time_update(ctx);
        ctx.region_end(TraceRegion::FluxCompute);
    }
}

/// The wave problem as a fabric [`Workload`]: geometry + parameters +
/// compiled stencil, pluggable into
/// [`DataflowFluxSimulator::workload_builder`].
pub struct WaveWorkload {
    nx: usize,
    ny: usize,
    nz: usize,
    params: WaveParams,
    compiled: CompiledStencil,
    pattern: Arc<CommPattern>,
    layout: Arc<WaveLayout>,
    program: Arc<StencilProgram>,
}

impl WaveWorkload {
    /// Compiles the wave spec for an `nx × ny × nz` domain. The typed
    /// diagnostic converts into [`crate::driver::BuildError`] with `?`.
    pub fn new(nx: usize, ny: usize, nz: usize, params: WaveParams) -> Result<Self, CompileError> {
        let compiled = wse_stencil::compile(&params.spec())?;
        let pattern = Arc::new(compiled.pattern.clone());
        let layout = Arc::new(WaveLayout::new(nz));
        let kernel = WaveKernel::new(layout.clone(), params);
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

impl Workload for WaveWorkload {
    fn name(&self) -> &str {
        "wave"
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
        WaveLayout::new(nz).total_words() + state_words(self.pattern.streams)
    }

    fn make_program(&self) -> Box<dyn PeProgram> {
        Box::new(StencilPeProgram::new(self.program.clone()))
    }

    /// Accepts either `u` alone (zero-initial-velocity: `u_prev = u`) or
    /// `u` followed by `u_prev` (2 × cells), both in mesh linear order.
    fn inject(&self, fabric: &mut Fabric, input: &[f32]) {
        let cells = self.nx * self.ny * self.nz;
        assert!(
            input.len() == cells || input.len() == 2 * cells,
            "wave inject takes u (cells) or u,u_prev (2x cells): got {}",
            input.len()
        );
        let (u, u_prev) = if input.len() == cells {
            (input, input)
        } else {
            input.split_at(cells)
        };
        let (l, dims) = (&self.layout, (self.nx, self.ny, self.nz));
        inject_columns(fabric, dims, u, l.u, &[l.lap]);
        inject_columns(fabric, dims, u_prev, l.u_prev, &[]);
    }

    fn collect(&self, fabric: &Fabric) -> Vec<f32> {
        collect_columns(fabric, (self.nx, self.ny, self.nz), self.layout.u)
    }

    fn hash_content(&self, h: &mut ContentHasher) {
        h.write_f32s(&self.params.weights);
        h.write_f32s(&[self.params.c_dt_sq]);
    }
}

/// Host-side driver: a thin convenience wrapper over the workload-generic
/// [`DataflowFluxSimulator`] that keeps the classic step/read API.
pub struct WaveSimulator {
    sim: DataflowFluxSimulator,
    steps: usize,
}

impl WaveSimulator {
    /// Builds an `nx × ny` fabric with columns of `nz` cells.
    pub fn new(nx: usize, ny: usize, nz: usize, params: WaveParams) -> Self {
        let workload = WaveWorkload::new(nx, ny, nz, params).expect("wave spec compiles");
        let sim = DataflowFluxSimulator::workload_builder()
            .workload(workload)
            .build()
            .expect("valid wave problem");
        Self { sim, steps: 0 }
    }

    /// Wraps an externally built simulator (e.g. one with a sharded
    /// engine, tracing or fault injection) carrying a [`WaveWorkload`].
    pub fn from_simulator(sim: DataflowFluxSimulator) -> Self {
        assert_eq!(sim.workload().name(), "wave");
        Self { sim, steps: 0 }
    }

    /// Sets both wavefields (mesh linear order: x innermost, z outermost);
    /// `u_prev = u` gives a zero-initial-velocity start.
    pub fn set_initial(&mut self, u: &[f32], u_prev: &[f32]) {
        assert_eq!(u_prev.len(), u.len());
        let mut both = Vec::with_capacity(2 * u.len());
        both.extend_from_slice(u);
        both.extend_from_slice(u_prev);
        self.sim.inject(&both);
    }

    /// Advances one time step.
    pub fn step(&mut self) -> Result<(), FabricError> {
        self.sim.advance()?;
        self.steps += 1;
        Ok(())
    }

    /// Advances `n` steps.
    pub fn step_n(&mut self, n: usize) -> Result<(), FabricError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Reads the current wavefield (mesh linear order).
    pub fn read_field(&self) -> Vec<f32> {
        self.sim.read_output()
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Fabric statistics.
    pub fn stats(&self) -> wse_sim::stats::FabricStats {
        self.sim.stats()
    }

    /// The underlying workload-generic simulator (checkpointing, traces,
    /// fault log, …).
    pub fn simulator(&mut self) -> &mut DataflowFluxSimulator {
        &mut self.sim
    }
}

/// Serial reference of the same scheme (f32, same operation structure) for
/// validation.
pub fn serial_wave_step(
    nx: usize,
    ny: usize,
    nz: usize,
    params: &WaveParams,
    u: &[f32],
    u_prev: &[f32],
) -> Vec<f32> {
    assert_eq!(u.len(), nx * ny * nz);
    assert_eq!(u_prev.len(), u.len());
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut out = vec![0.0_f32; u.len()];
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                let mut lap = 0.0_f32;
                for nb in ALL_NEIGHBORS {
                    let (dx, dy, dz) = nb.offset();
                    let xx = x as i64 + dx;
                    let yy = y as i64 + dy;
                    let zz = z as i64 + dz;
                    // mirror at the Z boundary (ghost = edge value → 0 term),
                    // skip at the in-plane boundary — matching the fabric
                    let u_l = if zz < 0 || zz >= nz as i64 {
                        if nb.is_vertical() {
                            u[i] // mirror ghost
                        } else {
                            continue;
                        }
                    } else if xx < 0 || yy < 0 || xx >= nx as i64 || yy >= ny as i64 {
                        continue;
                    } else {
                        u[idx(xx as usize, yy as usize, zz as usize)]
                    };
                    lap = params.weights[nb.face_index()].mul_add(u_l - u[i], lap);
                }
                out[i] = params.c_dt_sq.mul_add(lap, 2.0 * u[i] - u_prev[i]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_sim::fabric::Execution;

    fn gaussian_field(nx: usize, ny: usize, nz: usize, sigma: f64) -> Vec<f32> {
        let (cx, cy, cz) = (nx as f64 / 2.0, ny as f64 / 2.0, nz as f64 / 2.0);
        let mut u = vec![0.0_f32; nx * ny * nz];
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let r2 = (x as f64 + 0.5 - cx).powi(2)
                        + (y as f64 + 0.5 - cy).powi(2)
                        + (z as f64 + 0.5 - cz).powi(2);
                    u[(z * ny + y) * nx + x] = (-r2 / (sigma * sigma)).exp() as f32;
                }
            }
        }
        u
    }

    fn stable_params() -> WaveParams {
        // dx=dy=dz=10, c=1500 m/s, dt chosen for CFL ≈ 0.3
        WaveParams::new(10.0, 10.0, 10.0, 1500.0, 2.0e-3, 0.5)
    }

    #[test]
    fn cfl_is_in_stable_range() {
        let p = stable_params();
        assert!(p.cfl() < 1.0, "CFL {}", p.cfl());
        assert!(p.cfl() > 0.01);
    }

    #[test]
    fn weights_follow_spacing() {
        let p = WaveParams::new(2.0, 4.0, 5.0, 1.0, 0.1, 1.0);
        assert_eq!(p.weights[Neighbor::East.face_index()], 0.25);
        assert_eq!(p.weights[Neighbor::North.face_index()], 1.0 / 16.0);
        assert_eq!(p.weights[Neighbor::Up.face_index()], 1.0 / 25.0);
        assert_eq!(p.weights[Neighbor::NorthEast.face_index()], 1.0 / 20.0);
    }

    #[test]
    fn layout_is_contiguous() {
        let l = WaveLayout::new(5);
        assert_eq!(l.u.offset, 0);
        assert_eq!(l.total_words(), (5 + 2) + 5 + 5 + 8 * 5 + 5);
        assert_eq!(l.u_interior().len, 5);
    }

    #[test]
    fn fabric_matches_serial_reference_over_many_steps() {
        let (nx, ny, nz) = (7, 6, 5);
        let params = stable_params();
        let u0 = gaussian_field(nx, ny, nz, 1.5);
        let mut sim = WaveSimulator::new(nx, ny, nz, params);
        sim.set_initial(&u0, &u0);

        let mut u = u0.clone();
        let mut u_prev = u0.clone();
        for step in 0..12 {
            sim.step().unwrap();
            let next = serial_wave_step(nx, ny, nz, &params, &u, &u_prev);
            u_prev = u;
            u = next;
            let fab = sim.read_field();
            let scale = u.iter().map(|v| v.abs()).fold(1e-12_f32, f32::max);
            for i in 0..u.len() {
                assert!(
                    (fab[i] - u[i]).abs() <= 2e-5 * scale,
                    "step {step}, cell {i}: fabric {} vs serial {}",
                    fab[i],
                    u[i]
                );
            }
        }
        assert_eq!(sim.steps(), 12);
    }

    #[test]
    fn pulse_spreads_outward() {
        let (nx, ny, nz) = (11, 11, 3);
        let params = stable_params();
        let u0 = gaussian_field(nx, ny, nz, 1.0);
        let mut sim = WaveSimulator::new(nx, ny, nz, params);
        sim.set_initial(&u0, &u0);
        sim.step_n(8).unwrap();
        let u = sim.read_field();
        let center = u[(ny + 5) * nx + 5];
        let u0_center = u0[(ny + 5) * nx + 5];
        // the center amplitude decays as the wave radiates
        assert!(center < u0_center);
        // and the far field picks up energy
        let idx_far = (ny + 5) * nx + 1;
        assert!(u[idx_far].abs() > u0[idx_far].abs());
    }

    #[test]
    fn symmetric_initial_condition_stays_symmetric() {
        // the comm pattern must not break the x↔y mirror symmetry
        let n = 9;
        let params = WaveParams::new(10.0, 10.0, 10.0, 1500.0, 2.0e-3, 0.5);
        let u0 = gaussian_field(n, n, 3, 1.2);
        let mut sim = WaveSimulator::new(n, n, 3, params);
        sim.set_initial(&u0, &u0);
        sim.step_n(6).unwrap();
        let u = sim.read_field();
        let idx = |x: usize, y: usize| (n + y) * n + x;
        for a in 0..n {
            for b in 0..n {
                let d = (u[idx(a, b)] - u[idx(b, a)]).abs();
                assert!(d <= 1e-6, "asymmetry at ({a},{b}): {d}");
            }
        }
    }

    #[test]
    fn stable_scheme_keeps_bounded_amplitude() {
        let (nx, ny, nz) = (8, 8, 4);
        let params = stable_params();
        let u0 = gaussian_field(nx, ny, nz, 1.5);
        let mut sim = WaveSimulator::new(nx, ny, nz, params);
        sim.set_initial(&u0, &u0);
        sim.step_n(50).unwrap();
        let u = sim.read_field();
        let max = u.iter().map(|v| v.abs()).fold(0.0_f32, f32::max);
        assert!(max.is_finite());
        assert!(max < 4.0, "amplitude blew up: {max}");
    }

    #[test]
    fn zero_field_stays_zero() {
        let mut sim = WaveSimulator::new(4, 4, 3, stable_params());
        let zeros = vec![0.0_f32; 48];
        sim.set_initial(&zeros, &zeros);
        sim.step_n(5).unwrap();
        assert!(sim.read_field().iter().all(|&v| v == 0.0));
        assert!(sim.stats().total.fabric_loads > 0, "still communicates");
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        // The compiled wave workload must be engine-invariant like TPFA.
        let (nx, ny, nz) = (6, 5, 3);
        let params = stable_params();
        let u0 = gaussian_field(nx, ny, nz, 1.3);
        let run = |execution| {
            let workload = WaveWorkload::new(nx, ny, nz, params).unwrap();
            let mut sim = DataflowFluxSimulator::workload_builder()
                .workload(workload)
                .execution(execution)
                .build()
                .unwrap();
            sim.inject(&u0);
            for _ in 0..6 {
                sim.advance().unwrap();
            }
            (sim.read_output(), sim.stats())
        };
        let (seq, seq_stats) = run(Execution::Sequential);
        let (sh, sh_stats) = run(Execution::Sharded {
            shards: 4,
            threads: 2,
        });
        assert_eq!(seq, sh);
        assert_eq!(seq_stats, sh_stats);
    }

    #[test]
    fn checkpoint_round_trips_mid_propagation() {
        // The compiled path inherits driver checkpointing for free: snapshot
        // after 3 steps, restore into a fresh simulator, finish both.
        let (nx, ny, nz) = (5, 5, 3);
        let params = stable_params();
        let u0 = gaussian_field(nx, ny, nz, 1.3);
        let build = || {
            DataflowFluxSimulator::workload_builder()
                .workload(WaveWorkload::new(nx, ny, nz, params).unwrap())
                .build()
                .unwrap()
        };
        let mut a = build();
        a.inject(&u0);
        for _ in 0..3 {
            a.advance().unwrap();
        }
        let snap = a.snapshot();
        let hash = a.spec_hash();
        for _ in 0..3 {
            a.advance().unwrap();
        }

        let mut b = build();
        assert_eq!(b.spec_hash(), hash);
        b.restore_snapshot(&snap).unwrap();
        for _ in 0..3 {
            b.advance().unwrap();
        }
        assert_eq!(a.read_output(), b.read_output());
    }
}
