//! The DSD-vectorized per-face flux kernel (paper §5.3.3, Table 4).
//!
//! One call computes, for all `Nz` cells of a PE's column, the TPFA flux
//! across one of the ten faces and accumulates it into the residual column.
//! The sequence is 13 vector instructions whose per-element mix is exactly
//! the paper's Table 4 accounting — 6 FMUL, 4 FSUB, 1 FADD, 1 FMA, 1 FNEG
//! (14 FLOPs, FMA = 2) — independent of face direction, because the fabric
//! code is uniform across faces (in-plane faces simply run with a zero
//! gravity head).
//!
//! ```text
//!  1. FSUB  t0 ← p_K − p_L                 (Δp)
//!  2. FADD  t1 ← ρ_K + ρ_L
//!  3. FMUL  t1 ← t1 × 0.5                  (ρ_avg)
//!  4. FMA   t0 ← t1 × g·Δz + t0            (ΔΦ, Eq. 3b)
//!  5. FSUB  t2 ← ρ_K − ρ_L
//!  6. FMUL* t2 ← t2 × H(t0 > 0)            (predicated: upwind delta)
//!  7. FNEG  t2 ← −t2
//!  8. FSUB  t2 ← ρ_L − t2                  (ρ_upw, Eq. 4)
//!  9. FMUL  t2 ← t2 × (1/μ)                (λ_upw)
//! 10. FMUL  t2 ← t2 × t0                   (λ·ΔΦ)
//! 11. FMUL  t2 ← t2 × Υ                    (F, Eq. 3a)
//! 12. FMUL  t2 ← t2 × (−1)
//! 13. FSUB  r  ← r − t2                    (accumulate: r += F)
//! ```
//!
//! Step 6 is the predicated multiply [`wse_sim::dsd::fmuls_gate`] modeling
//! SIMD lane masking; it is counted as an ordinary FMUL.
//!
//! [`TpfaKernel`] is Algorithm 1 per PE on the generic
//! [`wse_stencil::StencilPeProgram`]:
//!
//! 1. **Launch** (`on_start`): evaluate the density column from pressure
//!    (Eq. 5) and compute the two Z faces immediately (they live in local
//!    memory — no fabric traffic, paper §7.3); the exchange then sends the
//!    pressure and density columns, the layout's send views.
//! 2. **Receive** (`on_stream_complete`): when a face's stream completes
//!    (`2·Nz` wavelets: pressure then density), that face's flux is
//!    computed *immediately* — "Upon receiving the data, the corresponding
//!    flux computation will occur immediately in an asynchronous fashion"
//!    (§5.2.1) — overlapping with other streams still in flight.
//!
//! The exchange itself (Fig. 6 hand-over included) is the program's.

use crate::layout::ColumnLayout;
use fv_core::eos::Fluid;
use fv_core::mesh::Neighbor;
use std::sync::Arc;
use wse_sim::dsd::{Dsd, Operand};
use wse_sim::memory::PeMemory;
use wse_sim::pe::PeContext;
use wse_sim::stats::OpCounters;
use wse_sim::trace::{PeTracer, TraceRegion};
use wse_stencil::{ColumnExchange, KernelLayout, StencilKernel};

/// The three reused temporary columns (§5.3.1), all of kernel length.
#[derive(Debug, Clone, Copy)]
pub struct FaceBuffers {
    /// Δp, then ΔΦ.
    pub t0: Dsd,
    /// ρ sum, then ρ average.
    pub t1: Dsd,
    /// Upwind/flux work column.
    pub t2: Dsd,
}

/// Inputs of one face's flux computation.
#[derive(Debug, Clone, Copy)]
pub struct FaceInputs {
    /// Own pressure column `p_K`.
    pub p_k: Dsd,
    /// Own density column `ρ_K`.
    pub rho_k: Dsd,
    /// Neighbor pressure column `p_L` (a receive buffer, or a ±1-shifted
    /// view of the own column for the Z faces).
    pub p_l: Dsd,
    /// Neighbor density column `ρ_L`.
    pub rho_l: Dsd,
    /// Face transmissibility column `Υ`.
    pub trans: Dsd,
    /// Gravity head `g (z_K − z_L)` — `∓g·dz` for Up/Down, `0` in-plane.
    pub g_dz: f32,
    /// Reciprocal viscosity `1/μ`.
    pub inv_mu: f32,
}

/// Computes one face's flux for a whole column and accumulates into `r`.
pub fn compute_face_flux(
    mem: &mut PeMemory,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    r: Dsd,
    inp: FaceInputs,
    buf: FaceBuffers,
) {
    use wse_sim::dsd::{fadds, fmacs, fmuls, fmuls_gate, fnegs, fsubs};
    let (t0, t1, t2) = (buf.t0, buf.t1, buf.t2);
    debug_assert_eq!(r.len, inp.p_k.len);

    // Profiling regions: steps 1–12 evaluate the face flux, step 13
    // accumulates it into the residual. Region markers are no-ops (one
    // predicted branch) with tracing off.
    trace.region_begin(ctr.cycles(), TraceRegion::FluxCompute);
    fsubs(
        mem,
        ctr,
        trace,
        t0,
        Operand::Mem(inp.p_k),
        Operand::Mem(inp.p_l),
    ); // 1
    fadds(
        mem,
        ctr,
        trace,
        t1,
        Operand::Mem(inp.rho_k),
        Operand::Mem(inp.rho_l),
    ); // 2
    fmuls(mem, ctr, trace, t1, Operand::Mem(t1), Operand::Scalar(0.5)); // 3
    fmacs(
        mem,
        ctr,
        trace,
        t0,
        Operand::Mem(t1),
        Operand::Scalar(inp.g_dz),
    ); // 4
    fsubs(
        mem,
        ctr,
        trace,
        t2,
        Operand::Mem(inp.rho_k),
        Operand::Mem(inp.rho_l),
    ); // 5
    fmuls_gate(mem, ctr, trace, t2, Operand::Mem(t2), Operand::Mem(t0)); // 6
    fnegs(mem, ctr, trace, t2, Operand::Mem(t2)); // 7
    fsubs(
        mem,
        ctr,
        trace,
        t2,
        Operand::Mem(inp.rho_l),
        Operand::Mem(t2),
    ); // 8
    fmuls(
        mem,
        ctr,
        trace,
        t2,
        Operand::Mem(t2),
        Operand::Scalar(inp.inv_mu),
    ); // 9
    fmuls(mem, ctr, trace, t2, Operand::Mem(t2), Operand::Mem(t0)); // 10
    fmuls(
        mem,
        ctr,
        trace,
        t2,
        Operand::Mem(t2),
        Operand::Mem(inp.trans),
    ); // 11
    fmuls(mem, ctr, trace, t2, Operand::Mem(t2), Operand::Scalar(-1.0)); // 12
    trace.region_end(ctr.cycles(), TraceRegion::FluxCompute);
    trace.region_begin(ctr.cycles(), TraceRegion::ResidualAccumulate);
    fsubs(mem, ctr, trace, r, Operand::Mem(r), Operand::Mem(t2)); // 13
    trace.region_end(ctr.cycles(), TraceRegion::ResidualAccumulate);
}

/// Fluid constants in the `f32` working precision of the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidParams {
    /// Reference density `ρ_ref`.
    pub rho_ref: f32,
    /// Compressibility `c_f`.
    pub c_f: f32,
    /// Reference pressure `p_ref`.
    pub p_ref: f32,
    /// Reciprocal viscosity `1/μ`.
    pub inv_mu: f32,
    /// Gravity head toward the upper Z neighbor: `g (z_K − z_L) = −g·dz`.
    pub g_dz_up: f32,
    /// Gravity head toward the lower Z neighbor: `+g·dz`.
    pub g_dz_down: f32,
}

impl FluidParams {
    /// Converts an `fv-core` fluid plus the vertical spacing.
    pub fn from_fluid(fluid: &Fluid, dz: f64) -> Self {
        Self {
            rho_ref: fluid.rho_ref as f32,
            c_f: fluid.compressibility as f32,
            p_ref: fluid.p_ref as f32,
            // f32 reciprocal, matching the serial reference bit-for-bit
            inv_mu: 1.0_f32 / (fluid.viscosity as f32),
            g_dz_up: (-fluid.gravity * dz) as f32,
            g_dz_down: (fluid.gravity * dz) as f32,
        }
    }
}

/// The TPFA flux arithmetic of one PE, plugged into the generic
/// [`wse_stencil::StencilPeProgram`]. Stateless: one kernel serves every
/// PE, and the residual accumulates in PE memory.
pub struct TpfaKernel {
    layout: Arc<ColumnLayout>,
    fluid: FluidParams,
    /// `false` = communication-only mode (the paper's Table 3 experiment:
    /// "we modified our dataflow implementation to remove all flux
    /// computations and focus solely on data communications").
    compute_enabled: bool,
}

impl TpfaKernel {
    /// Creates the kernel over a layout shared by every PE.
    pub fn new(layout: Arc<ColumnLayout>, fluid: FluidParams, compute_enabled: bool) -> Self {
        Self {
            layout,
            fluid,
            compute_enabled,
        }
    }

    /// Computes one face's flux into the residual column.
    fn compute_face(&self, ctx: &mut PeContext, face: Neighbor) {
        if !self.compute_enabled {
            return;
        }
        let l = &*self.layout;
        let nz = l.nz;
        let (p_l, rho_l, g_dz) = match face {
            Neighbor::Up => (
                l.p_interior().shifted(1),
                l.rho_interior().shifted(1),
                self.fluid.g_dz_up,
            ),
            Neighbor::Down => (
                l.p_interior().shifted(-1),
                l.rho_interior().shifted(-1),
                self.fluid.g_dz_down,
            ),
            nb => {
                let i = nb.face_index();
                (
                    Dsd::contiguous(l.recv_p[i].offset, nz),
                    Dsd::contiguous(l.recv_rho[i].offset, nz),
                    0.0,
                )
            }
        };
        let inputs = FaceInputs {
            p_k: l.p_interior(),
            rho_k: l.rho_interior(),
            p_l,
            rho_l,
            trans: Dsd::contiguous(l.trans[face.face_index()].offset, nz),
            g_dz,
            inv_mu: self.fluid.inv_mu,
        };
        let r = Dsd::contiguous(l.residual.offset, nz);
        let buf = FaceBuffers {
            t0: Dsd::contiguous(l.temps[0].offset, nz),
            t1: Dsd::contiguous(l.temps[1].offset, nz),
            t2: Dsd::contiguous(l.temps[2].offset, nz),
        };
        compute_face_flux(&mut ctx.memory, ctx.counters, ctx.tracer, r, inputs, buf);
    }
}

impl StencilKernel for TpfaKernel {
    fn layout(&self, _streams: usize) -> KernelLayout {
        // The host's column layout, so host and PE agree on offsets.
        let l = &*self.layout;
        KernelLayout {
            words: l.total_words(),
            recv: vec![l.recv_p.to_vec(), l.recv_rho.to_vec()],
            send: vec![l.p_interior(), l.rho_interior()],
        }
    }

    fn on_start(&self, ctx: &mut PeContext) {
        // Densities from pressures (Eq. 5), ghosts included so the shifted
        // Z views read finite values. The EOS pass is attributed to the
        // flux-compute region (it feeds the kernel directly).
        let l = &*self.layout;
        ctx.region_begin(TraceRegion::FluxCompute);
        ctx.eos_density(
            Dsd::contiguous(l.rho_own.offset, l.nz + 2),
            Dsd::contiguous(l.p_own.offset, l.nz + 2),
            self.fluid.rho_ref,
            self.fluid.c_f,
            self.fluid.p_ref,
        );
        ctx.region_end(TraceRegion::FluxCompute);
        // Z faces: local memory only — compute now, overlapping the
        // exchange the program starts next.
        self.compute_face(ctx, Neighbor::Up);
        self.compute_face(ctx, Neighbor::Down);
    }

    fn on_stream_complete(&self, ctx: &mut PeContext, stream: usize, _: &ColumnExchange) {
        // TPFA stream indices are exactly the in-plane face indices.
        self.compute_face(ctx, Neighbor::from_face_index(stream));
    }

    fn on_step_complete(&self, _ctx: &mut PeContext) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_core::flux::face_flux;

    #[test]
    fn fluid_params_conversion() {
        let f = Fluid::water_like();
        let p = FluidParams::from_fluid(&f, 2.0);
        assert_eq!(p.rho_ref, 1000.0);
        assert_eq!(p.inv_mu, 1.0_f32 / (f.viscosity as f32));
        assert_eq!(p.g_dz_up, -(9.81_f32 * 2.0));
        assert_eq!(p.g_dz_down, 9.81_f32 * 2.0);
    }

    /// A PE memory with `n`-element columns for a kernel test.
    struct Rig<'a> {
        mem: PeMemory<'a>,
        ctr: OpCounters,
        tr: PeTracer,
        r: Dsd,
        inp: FaceInputs,
        buf: FaceBuffers,
        n: usize,
    }

    /// The rig's nine columns in `words`.
    fn rig(words: &mut [u32], n: usize, g_dz: f32, inv_mu: f32) -> Rig<'_> {
        assert!(words.len() >= 9 * n);
        let mut columns = (0..9).map(|k| Dsd::contiguous(k * n, n));
        let mut next = || columns.next().unwrap();
        let p_k = next();
        let rho_k = next();
        let p_l = next();
        let rho_l = next();
        let trans = next();
        let r = next();
        let t0 = next();
        let t1 = next();
        let t2 = next();
        Rig {
            mem: PeMemory::new(words),
            ctr: OpCounters::default(),
            tr: PeTracer::Null,
            r,
            inp: FaceInputs {
                p_k,
                rho_k,
                p_l,
                rho_l,
                trans,
                g_dz,
                inv_mu,
            },
            buf: FaceBuffers { t0, t1, t2 },
            n,
        }
    }

    fn fill(rig: &mut Rig<'_>, f: impl Fn(usize) -> (f32, f32, f32, f32, f32)) {
        for i in 0..rig.n {
            let (pk, rk, pl, rl, t) = f(i);
            rig.mem.write_f32(rig.inp.p_k.at(i), pk);
            rig.mem.write_f32(rig.inp.rho_k.at(i), rk);
            rig.mem.write_f32(rig.inp.p_l.at(i), pl);
            rig.mem.write_f32(rig.inp.rho_l.at(i), rl);
            rig.mem.write_f32(rig.inp.trans.at(i), t);
        }
    }

    #[test]
    fn matches_scalar_reference_flux() {
        let g_dz = -9.81_f32 * 2.0;
        let inv_mu = 1.0 / 1.0e-3;
        let mut words = [0; 4096];
        let mut rg = rig(&mut words, 16, g_dz, inv_mu);
        fill(&mut rg, |i| {
            let pk = 1.0e7 + (i as f32) * 3.0e4;
            let pl = 1.05e7 - (i as f32) * 2.0e4;
            let rk = 990.0 + i as f32;
            let rl = 1005.0 - 2.0 * i as f32;
            let t = 1.0e-12 * (1.0 + i as f32 * 0.1);
            (pk, rk, pl, rl, t)
        });
        let (mem, ctr, tr) = (&mut rg.mem, &mut rg.ctr, &mut rg.tr);
        compute_face_flux(mem, ctr, tr, rg.r, rg.inp, rg.buf);
        for i in 0..rg.n {
            let pk = rg.mem.read_f32(rg.inp.p_k.at(i));
            let pl = rg.mem.read_f32(rg.inp.p_l.at(i));
            let rk = rg.mem.read_f32(rg.inp.rho_k.at(i));
            let rl = rg.mem.read_f32(rg.inp.rho_l.at(i));
            let t = rg.mem.read_f32(rg.inp.trans.at(i));
            let expect = face_flux(t, pk, pl, rk, rl, g_dz, inv_mu).flux;
            let got = rg.mem.read_f32(rg.r.at(i));
            let tol = 1e-5_f32 * expect.abs().max(1e-10);
            assert!(
                (got - expect).abs() <= tol,
                "i={i}: kernel {got} vs reference {expect}"
            );
        }
    }

    #[test]
    fn instruction_mix_is_exactly_table_4_per_flux() {
        let n = 246; // the paper's Nz
        let mut words = [0; 4096];
        let mut rg = rig(&mut words, n, 0.0, 1000.0);
        fill(&mut rg, |i| {
            (1.0e7, 1000.0, 1.0e7 + i as f32, 1000.0, 1e-12)
        });
        let (mem, ctr, tr) = (&mut rg.mem, &mut rg.ctr, &mut rg.tr);
        compute_face_flux(mem, ctr, tr, rg.r, rg.inp, rg.buf);
        let n = n as u64;
        assert_eq!(rg.ctr.fmul, 6 * n, "6 FMUL per flux");
        assert_eq!(rg.ctr.fsub, 4 * n, "4 FSUB per flux");
        assert_eq!(rg.ctr.fadd, n, "1 FADD per flux");
        assert_eq!(rg.ctr.fma, n, "1 FMA per flux");
        assert_eq!(rg.ctr.fneg, n, "1 FNEG per flux");
        assert_eq!(rg.ctr.flops(), 14 * n, "14 FLOPs per flux");
        // memory traffic: FMUL/FSUB/FADD 2+1, FMA 3+1, FNEG 1+1
        let loads = 6 * 2 + 4 * 2 + 2 + 3 + 1;
        let stores = 13;
        assert_eq!(rg.ctr.mem_loads, loads * n);
        assert_eq!(rg.ctr.mem_stores, stores * n);
        assert_eq!(rg.ctr.fabric_loads, 0, "pure compute: no fabric traffic");
    }

    #[test]
    fn ten_faces_give_the_papers_per_cell_counts() {
        // Run the kernel ten times (one per face): per *cell* counts must be
        // 60/40/10/10/10 and 390 memory accesses — plus the 16 FMOV receive
        // stores counted by the comm layer, totalling the paper's 406.
        let n = 8;
        let mut words = [0; 4096];
        let mut rg = rig(&mut words, n, 0.0, 1.0);
        fill(&mut rg, |_| (1.0, 1.0, 2.0, 1.0, 1.0));
        for _ in 0..10 {
            let (mem, ctr, tr) = (&mut rg.mem, &mut rg.ctr, &mut rg.tr);
            compute_face_flux(mem, ctr, tr, rg.r, rg.inp, rg.buf);
        }
        let n = n as u64;
        assert_eq!(rg.ctr.fmul, 60 * n);
        assert_eq!(rg.ctr.fsub, 40 * n);
        assert_eq!(rg.ctr.fneg, 10 * n);
        assert_eq!(rg.ctr.fadd, 10 * n);
        assert_eq!(rg.ctr.fma, 10 * n);
        assert_eq!(rg.ctr.flops(), 140 * n);
        let mem_access = rg.ctr.mem_loads + rg.ctr.mem_stores;
        assert_eq!(mem_access, 390 * n, "390 kernel accesses + 16 FMOV = 406");
    }

    #[test]
    fn upwind_selection_respects_potential_sign() {
        let inv_mu = 1.0;
        let mut words = [0; 4096];
        let mut rg = rig(&mut words, 2, 0.0, inv_mu);
        // element 0: p_k > p_l (ΔΦ > 0, upwind K); element 1: reversed.
        fill(&mut rg, |i| {
            if i == 0 {
                (2.0, 10.0, 1.0, 20.0, 1.0)
            } else {
                (1.0, 10.0, 2.0, 20.0, 1.0)
            }
        });
        let (mem, ctr, tr) = (&mut rg.mem, &mut rg.ctr, &mut rg.tr);
        compute_face_flux(mem, ctr, tr, rg.r, rg.inp, rg.buf);
        // elem 0: F = 1 · (10/1) · (2−1) = 10 (ρ_K chosen)
        assert_eq!(rg.mem.read_f32(rg.r.at(0)), 10.0);
        // elem 1: F = 1 · (20/1) · (1−2) = −20 (ρ_L chosen)
        assert_eq!(rg.mem.read_f32(rg.r.at(1)), -20.0);
    }

    #[test]
    fn zero_transmissibility_contributes_nothing() {
        let mut words = [0; 4096];
        let mut rg = rig(&mut words, 4, -19.62, 1.0e3);
        fill(&mut rg, |_| (1.0e7, 1000.0, 5.0e6, 900.0, 0.0));
        // preload residual with sentinels
        for i in 0..4 {
            rg.mem.write_f32(rg.r.at(i), 7.0);
        }
        let (mem, ctr, tr) = (&mut rg.mem, &mut rg.ctr, &mut rg.tr);
        compute_face_flux(mem, ctr, tr, rg.r, rg.inp, rg.buf);
        for i in 0..4 {
            assert_eq!(rg.mem.read_f32(rg.r.at(i)), 7.0);
        }
    }

    #[test]
    fn accumulates_across_faces() {
        let mut words = [0; 4096];
        let mut rg = rig(&mut words, 1, 0.0, 1.0);
        fill(&mut rg, |_| (2.0, 1.0, 1.0, 1.0, 3.0));
        for _ in 0..4 {
            let (mem, ctr, tr) = (&mut rg.mem, &mut rg.ctr, &mut rg.tr);
            compute_face_flux(mem, ctr, tr, rg.r, rg.inp, rg.buf);
        }
        // each face adds F = 3 · 1 · 1 = 3
        assert_eq!(rg.mem.read_f32(rg.r.at(0)), 12.0);
    }
}
