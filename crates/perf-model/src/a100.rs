//! NVIDIA A100 timing model for the reference kernels.
//!
//! The paper's Nsight analysis (§7.2) shows the RAJA kernel is
//! **memory-bound**: arithmetic intensity 2.11 FLOP/B, 76 % of the
//! attainable roofline, ~48 % occupancy. A memory-bound kernel's wall-clock
//! is DRAM traffic over sustained bandwidth, which is how this model
//! computes time. The per-cell DRAM traffic parameter defaults to a cache
//! model of the 11-point gather (each cell's own loads are compulsory; the
//! ten neighbor pressure reads mostly hit in L2 except across tile
//! boundaries), calibrated against the paper's measured 16.84 s for 1000
//! applications on 183 M cells.

use serde::{Deserialize, Serialize};

/// A100 hardware + kernel-characterization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct A100Model {
    /// Peak f32 throughput [FLOP/s] (19.5 TFLOP/s).
    pub peak_flops: f64,
    /// HBM2 bandwidth [B/s] (1555 GB/s for the 40 GB SXM part).
    pub mem_bandwidth: f64,
    /// Sustained fraction of peak bandwidth the kernel achieves (the
    /// paper's kernel reaches 76 % of its roofline).
    pub bandwidth_efficiency: f64,
    /// DRAM traffic per cell per application \[bytes\]; see module docs.
    pub bytes_per_cell: f64,
    /// FLOPs per cell per application (Table 4: 140 for the flux kernel;
    /// Nsight additionally counts the EOS/exp expansions, captured by the
    /// reported arithmetic intensity instead).
    pub flops_per_cell: f64,
    /// Arithmetic intensity reported by profiling [FLOP/B] (paper: 2.11).
    pub profiled_intensity: f64,
    /// Board power under load \[W\] ("the A100 runs consume a peak of
    /// 250 W").
    pub power_watts: f64,
}

impl Default for A100Model {
    fn default() -> Self {
        Self {
            peak_flops: 19.5e12,
            mem_bandwidth: 1.555e12,
            bandwidth_efficiency: 0.76,
            // 11-point gather: own pressure + residual + 10 transmissibility
            // values are compulsory (12 words = 48 B); neighbor pressure
            // reads add ~15 words of L2-miss overhead per cell on the
            // paper's tile sizes and mesh aspect → ≈ 108.5 B/cell, which
            // reproduces the measured 16.84 s within 1 %.
            bytes_per_cell: 108.5,
            flops_per_cell: 140.0,
            profiled_intensity: 2.11,
            power_watts: 250.0,
        }
    }
}

impl A100Model {
    /// Sustained DRAM bandwidth [B/s].
    pub fn sustained_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.bandwidth_efficiency
    }

    /// Wall-clock seconds for `iterations` applications on `num_cells`
    /// cells: the max of the bandwidth and compute rooflines (this kernel
    /// is always bandwidth-bound on an A100).
    pub fn time_seconds(&self, num_cells: usize, iterations: usize) -> f64 {
        let n = num_cells as f64 * iterations as f64;
        let t_mem = n * self.bytes_per_cell / self.sustained_bandwidth();
        let t_cmp = n * self.flops_per_cell / self.peak_flops;
        t_mem.max(t_cmp)
    }

    /// True if the kernel is memory-bound under this model.
    pub fn is_memory_bound(&self) -> bool {
        self.bytes_per_cell / self.sustained_bandwidth() > self.flops_per_cell / self.peak_flops
    }

    /// Effective FLOP rate of the flux kernel [FLOP/s].
    pub fn achieved_flops(&self, num_cells: usize, iterations: usize) -> f64 {
        let n = num_cells as f64 * iterations as f64;
        n * self.flops_per_cell / self.time_seconds(num_cells, iterations)
    }

    /// The attainable performance at the profiled arithmetic intensity
    /// (the roofline ceiling the paper reports 76 % of).
    pub fn roofline_ceiling(&self) -> f64 {
        (self.profiled_intensity * self.mem_bandwidth).min(self.peak_flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_CELLS: usize = 750 * 994 * 246;

    #[test]
    fn reproduces_table_1_gpu_time_within_ten_percent() {
        // Paper Table 1: RAJA 16.84 s (avg) for 1000 applications.
        let m = A100Model::default();
        let t = m.time_seconds(PAPER_CELLS, 1000);
        assert!(
            (t - 16.84).abs() / 16.84 < 0.10,
            "modeled A100 time {t} s vs paper 16.84 s"
        );
    }

    #[test]
    fn kernel_is_memory_bound() {
        assert!(A100Model::default().is_memory_bound());
    }

    #[test]
    fn scaling_is_linear_in_cells() {
        // Table 2's A100 column grows linearly with the cell count.
        let m = A100Model::default();
        let t1 = m.time_seconds(200 * 200 * 246, 1000);
        let t2 = m.time_seconds(400 * 400 * 246, 1000);
        assert!((t2 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn table_2_smallest_mesh_time_shape() {
        // Paper: 0.9040 s for 200×200×246 (1000 applications).
        let m = A100Model::default();
        let t = m.time_seconds(200 * 200 * 246, 1000);
        assert!((t - 0.904).abs() / 0.904 < 0.35, "modeled {t}");
    }

    #[test]
    fn roofline_ceiling_is_bandwidth_limited() {
        let m = A100Model::default();
        // at AI 2.11 the ceiling sits well under fp32 peak
        assert!(m.roofline_ceiling() < m.peak_flops);
        assert!((m.roofline_ceiling() - 2.11 * 1.555e12).abs() < 1e9);
    }

    #[test]
    fn achieved_flops_is_effective_rate() {
        let m = A100Model::default();
        let f = m.achieved_flops(PAPER_CELLS, 1000);
        // ≈ 1.5 TFLOP/s effective on the 140-FLOP/cell accounting
        assert!(f > 1.0e12 && f < 3.0e12, "{f}");
    }
}
