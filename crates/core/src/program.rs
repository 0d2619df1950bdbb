//! The per-PE TPFA program: Algorithm 1 as a color-activated state machine.
//!
//! One iteration (one application of Algorithm 1) proceeds per PE as:
//!
//! 1. **Launch** (host activates the pattern's `start` color): evaluate
//!    the density column from pressure (Eq. 5), compute the two Z faces
//!    immediately (they live in local memory — no fabric traffic, paper
//!    §7.3), then start the in-plane exchange ([`ColumnExchange`]):
//!    diagonal streams plus the cardinal streams of first-senders.
//! 2. **Receive**: each arriving data wavelet is FMOV-stored into the
//!    receive buffer of the face its color identifies. When a face's stream
//!    completes (`2·Nz` wavelets: pressure then density), that face's flux
//!    is computed *immediately* — "Upon receiving the data, the
//!    corresponding flux computation will occur immediately in an
//!    asynchronous fashion" (§5.2.1) — overlapping with other streams still
//!    in flight.
//! 3. **Hand-over** (on a control wavelet, paper Fig. 6): the router has
//!    already flipped from Receiving to Sending; if this PE has not yet
//!    sent on that channel, it sends its columns and its own control.
//!
//! The iteration is complete when all expected faces have been accumulated;
//! the host then reads the residual column.

use crate::kernel::{compute_face_flux, FaceBuffers, FaceInputs};
use crate::layout::ColumnLayout;
use crate::workload::tpfa_pattern;
use fv_core::eos::Fluid;
use fv_core::mesh::Neighbor;
use std::sync::Arc;
use wse_sim::dsd::Dsd;
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::trace::TraceRegion;
use wse_sim::wavelet::Wavelet;
use wse_stencil::{ColumnExchange, CommPattern, ExchangeEvent, StateCursor};

/// Number of in-plane neighbor streams of the TPFA pattern.
const STREAMS: usize = 8;

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

/// The TPFA flux program for one PE.
pub struct TpfaPeProgram {
    nz: usize,
    fluid: FluidParams,
    /// `false` = communication-only mode (the paper's Table 3 experiment:
    /// "we modified our dataflow implementation to remove all flux
    /// computations and focus solely on data communications").
    compute_enabled: bool,
    /// The communication pattern the exchange runs — by default the
    /// compiled TPFA pattern ([`tpfa_pattern`]); the §5.2.2 ablation swaps
    /// in its `without_diagonals()` form (diagonal transmissibilities must
    /// then be zero for correct residuals).
    pattern: Arc<CommPattern>,
    layout: Option<ColumnLayout>,
    exchange: Option<ColumnExchange>,
    /// Faces computed this iteration (diagnostics).
    faces_done: usize,
    /// Completed iterations — the progress counter read by the host-side
    /// fault watchdog ([`wse_sim::pe::PeProgram::progress`]).
    iterations_done: u64,
    /// Whether the current iteration has already been counted. Starts true
    /// (nothing in flight); cleared at the top of each `start_iteration`.
    iter_counted: bool,
}

impl TpfaPeProgram {
    /// Creates the program for a column of `nz` cells.
    pub fn new(nz: usize, fluid: FluidParams, compute_enabled: bool) -> Self {
        Self {
            nz,
            fluid,
            compute_enabled,
            pattern: tpfa_pattern(),
            layout: None,
            exchange: None,
            faces_done: 0,
            iterations_done: 0,
            iter_counted: true,
        }
    }

    /// Disables the diagonal exchange (ablation baseline).
    pub fn without_diagonals(mut self) -> Self {
        self.pattern = Arc::new(self.pattern.without_diagonals());
        self
    }

    /// Substitutes an alternative TPFA-shaped communication pattern (same
    /// streams, same quantities).
    pub fn with_pattern(mut self, pattern: Arc<CommPattern>) -> Self {
        self.pattern = pattern;
        self
    }

    fn layout(&self) -> &ColumnLayout {
        self.layout.as_ref().expect("init not run")
    }

    fn buffers(&self) -> FaceBuffers {
        let l = self.layout();
        FaceBuffers {
            t0: Dsd::contiguous(l.temps[0].offset, self.nz),
            t1: Dsd::contiguous(l.temps[1].offset, self.nz),
            t2: Dsd::contiguous(l.temps[2].offset, self.nz),
        }
    }

    /// Computes one face's flux into the residual column.
    fn compute_face(&mut self, ctx: &mut PeContext, face: Neighbor) {
        if !self.compute_enabled {
            return;
        }
        let l = self.layout();
        let nz = self.nz;
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
        let buf = self.buffers();
        compute_face_flux(ctx.memory, ctx.counters, ctx.tracer, r, inputs, buf);
        self.faces_done += 1;
    }

    fn start_iteration(&mut self, ctx: &mut PeContext) {
        self.faces_done = 0;
        self.iter_counted = false;

        // Densities from pressures (Eq. 5), ghosts included so the shifted
        // Z views read finite values. The EOS pass is attributed to the
        // flux-compute region (it feeds the kernel directly).
        let l = self.layout().clone();
        ctx.region_begin(TraceRegion::FluxCompute);
        ctx.eos_density(
            Dsd::contiguous(l.rho_own.offset, self.nz + 2),
            Dsd::contiguous(l.p_own.offset, self.nz + 2),
            self.fluid.rho_ref,
            self.fluid.c_f,
            self.fluid.p_ref,
        );
        ctx.region_end(TraceRegion::FluxCompute);

        // Z faces: local memory only — compute immediately, overlapping the
        // exchanges below.
        if self.compute_enabled {
            self.compute_face(ctx, Neighbor::Up);
            self.compute_face(ctx, Neighbor::Down);
        }

        // In-plane exchange: two columns per stream (pressure, density).
        let views = [l.p_interior(), l.rho_interior()];
        ctx.region_begin(TraceRegion::HaloExchange);
        self.exchange
            .as_mut()
            .expect("init not run")
            .begin(ctx, &views);
        ctx.region_end(TraceRegion::HaloExchange);
    }

    /// True once every expected in-plane stream has fully arrived.
    pub fn iteration_complete(&self) -> bool {
        self.exchange.as_ref().is_some_and(|e| e.is_complete())
    }

    /// Faces whose flux has been accumulated this iteration.
    pub fn faces_done(&self) -> usize {
        self.faces_done
    }

    /// Bumps the progress counter once per completed iteration. Called at
    /// the end of every handler so the count advances the moment the last
    /// expected stream arrives (including the degenerate 1×1 fabric where
    /// the exchange is complete immediately after `start_iteration`).
    fn note_progress(&mut self) {
        if !self.iter_counted && self.iteration_complete() {
            self.iterations_done += 1;
            self.iter_counted = true;
        }
    }
}

impl PeProgram for TpfaPeProgram {
    fn init(&mut self, ctx: &mut PeContext) {
        // Allocate in the canonical order so host and PE agree on offsets.
        let l = ColumnLayout::new(self.nz);
        let total = l.total_words();
        let r = ctx.alloc(total);
        assert_eq!(r.offset, 0, "TPFA program must own the PE from word 0");

        let mut exchange = ColumnExchange::new(
            self.nz,
            self.pattern.clone(),
            vec![l.recv_p.to_vec(), l.recv_rho.to_vec()],
        );
        exchange.configure(ctx);
        self.exchange = Some(exchange);
        self.layout = Some(l);
    }

    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == self.pattern.start {
            self.start_iteration(ctx);
            self.note_progress();
            return;
        }
        let ex = self.exchange.as_mut().expect("init not run");
        ctx.region_begin(TraceRegion::HaloExchange);
        let event = ex.on_data(ctx, w);
        ctx.region_end(TraceRegion::HaloExchange);
        match event {
            ExchangeEvent::Stored => {}
            // TPFA stream indices are exactly the in-plane face indices.
            ExchangeEvent::StreamComplete(stream) => {
                self.compute_face(ctx, Neighbor::from_face_index(stream))
            }
            ExchangeEvent::NotMine => panic!(
                "PE ({}, {}): wavelet on unexpected color {}",
                ctx.coord.col,
                ctx.coord.row,
                w.color.id()
            ),
        }
        self.note_progress();
    }

    fn on_control(&mut self, ctx: &mut PeContext, w: Wavelet) {
        // Hand-over control traffic (Fig. 6) is halo-exchange work.
        ctx.region_begin(TraceRegion::HaloExchange);
        self.exchange
            .as_mut()
            .expect("init not run")
            .on_control(ctx, w);
        ctx.region_end(TraceRegion::HaloExchange);
        self.note_progress();
    }

    fn progress(&self) -> Option<u64> {
        Some(self.iterations_done)
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.faces_done as u64).to_le_bytes());
        out.extend_from_slice(&self.iterations_done.to_le_bytes());
        out.push(self.iter_counted as u8);
        match &self.exchange {
            None => out.push(0),
            Some(ex) => {
                out.push(1);
                let (recv_count, sent, send_views) = ex.dynamic_state();
                for c in recv_count {
                    out.extend_from_slice(&(c as u64).to_le_bytes());
                }
                for s in sent {
                    out.push(s as u8);
                }
                out.extend_from_slice(&(send_views.len() as u64).to_le_bytes());
                for v in send_views {
                    out.extend_from_slice(&(v.base as u64).to_le_bytes());
                    out.extend_from_slice(&(v.len as u64).to_le_bytes());
                    out.extend_from_slice(&(v.stride as u64).to_le_bytes());
                }
            }
        }
        out
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut cur = StateCursor::new(state);
        self.faces_done = cur.u64()? as usize;
        self.iterations_done = cur.u64()?;
        self.iter_counted = cur.u8()? != 0;
        let has_exchange = cur.u8()? != 0;
        if has_exchange {
            // Fixed TPFA shape: 8 streams, 4 cardinal lanes (the on-disk
            // format predates the pattern-driven exchange and is pinned).
            let mut recv_count = vec![0usize; STREAMS];
            for c in &mut recv_count {
                *c = cur.u64()? as usize;
            }
            let mut sent = vec![false; 4];
            for s in &mut sent {
                *s = cur.u8()? != 0;
            }
            let n_views = cur.u64()? as usize;
            if n_views > 64 {
                return Err(format!("implausible send-view count {n_views}"));
            }
            let mut send_views = Vec::with_capacity(n_views);
            for _ in 0..n_views {
                let base = cur.u64()? as usize;
                let len = cur.u64()? as usize;
                let stride = cur.u64()? as usize;
                if stride == 0 {
                    return Err("send view with zero stride".to_string());
                }
                send_views.push(Dsd::strided(base, len, stride));
            }
            let ex = self
                .exchange
                .as_mut()
                .ok_or("saved state has exchange but program is uninitialized")?;
            ex.restore_dynamic_state(recv_count, sent, send_views)?;
        } else if self.exchange.is_some() {
            return Err("saved state predates init but program is initialized".to_string());
        }
        cur.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_params_conversion() {
        let f = Fluid::water_like();
        let p = FluidParams::from_fluid(&f, 2.0);
        assert_eq!(p.rho_ref, 1000.0);
        assert_eq!(p.inv_mu, 1.0_f32 / (f.viscosity as f32));
        assert_eq!(p.g_dz_up, -(9.81_f32 * 2.0));
        assert_eq!(p.g_dz_down, 9.81_f32 * 2.0);
    }

    #[test]
    fn uninitialized_program_is_not_complete() {
        let f = FluidParams::from_fluid(&Fluid::water_like(), 1.0);
        let p = TpfaPeProgram::new(4, f, true);
        assert!(!p.iteration_complete());
        assert_eq!(p.faces_done(), 0);
    }
}
