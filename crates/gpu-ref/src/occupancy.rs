//! A100 occupancy model — reproduces the paper's §7.2 kernel
//! characterization: "It uses on average 30.79 warps per streaming
//! multiprocessor (SM) out of the theoretical 32 warps upper bound. It
//! achieves a 48.11% occupancy out of theoretical 50% occupancy."
//!
//! The CUDA occupancy calculation for a block shape: how many blocks fit an
//! SM simultaneously given the thread, register and shared-memory limits;
//! occupancy = resident warps / maximum warps.

/// A100 (GA100) streaming-multiprocessor limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmLimits {
    /// Max resident threads per SM.
    pub max_threads: usize,
    /// Max resident warps per SM.
    pub max_warps: usize,
    /// Max resident blocks per SM.
    pub max_blocks: usize,
    /// Registers per SM.
    pub registers: usize,
    /// Shared memory per SM \[bytes\].
    pub shared_memory: usize,
    /// Threads per warp.
    pub warp_size: usize,
}

impl Default for SmLimits {
    fn default() -> Self {
        Self {
            max_threads: 2048,
            max_warps: 64,
            max_blocks: 32,
            registers: 65_536,
            shared_memory: 164 * 1024,
            warp_size: 32,
        }
    }
}

/// Resource usage of one kernel launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Threads per block (the paper's kernels: 1024).
    pub threads_per_block: usize,
    /// Registers per thread (the flux kernel's 11-point gather needs a
    /// register-heavy inner loop; ≥ 33 caps a 1024-thread block at one
    /// block per SM on GA100).
    pub registers_per_thread: usize,
    /// Static shared memory per block \[bytes\].
    pub shared_per_block: usize,
}

impl KernelResources {
    /// The paper's flux-kernel configuration.
    pub fn paper_flux_kernel() -> Self {
        Self {
            threads_per_block: 1024,
            registers_per_thread: 40,
            shared_per_block: 0,
        }
    }
}

/// Occupancy analysis of a launch configuration on an SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: usize,
    /// Warps resident per SM.
    pub resident_warps: usize,
    /// Theoretical occupancy (resident / max warps).
    pub theoretical: f64,
}

/// Computes the occupancy of `kernel` on `sm`.
pub fn occupancy(sm: SmLimits, kernel: KernelResources) -> Occupancy {
    assert!(kernel.threads_per_block >= 1);
    assert!(kernel.threads_per_block <= 1024, "CUDA block limit");
    let warps_per_block = kernel.threads_per_block.div_ceil(sm.warp_size);
    // each limiting resource allows some number of blocks:
    let by_threads = sm.max_threads / kernel.threads_per_block;
    let by_warps = sm.max_warps / warps_per_block;
    let by_blocks = sm.max_blocks;
    let by_registers = sm
        .registers
        .checked_div(kernel.registers_per_thread * kernel.threads_per_block)
        .unwrap_or(usize::MAX);
    let by_shared = sm
        .shared_memory
        .checked_div(kernel.shared_per_block)
        .unwrap_or(usize::MAX);
    let blocks = by_threads
        .min(by_warps)
        .min(by_blocks)
        .min(by_registers)
        .min(by_shared);
    let resident_warps = blocks * warps_per_block;
    Occupancy {
        blocks_per_sm: blocks,
        resident_warps,
        theoretical: resident_warps as f64 / sm.max_warps as f64,
    }
}

/// Achieved (measured-style) warps per SM: theoretical residency × a
/// scheduling efficiency (the paper measures 30.79 of 32).
pub fn achieved_warps(occ: &Occupancy, scheduling_efficiency: f64) -> f64 {
    assert!((0.0..=1.0).contains(&scheduling_efficiency));
    occ.resident_warps as f64 * scheduling_efficiency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_flux_kernel_has_50_percent_theoretical_occupancy() {
        // "48.11% occupancy out of theoretical 50% occupancy"
        let occ = occupancy(SmLimits::default(), KernelResources::paper_flux_kernel());
        assert_eq!(
            occ.blocks_per_sm, 1,
            "registers cap 1024-thread blocks at one per SM"
        );
        assert_eq!(occ.resident_warps, 32, "theoretical 32 warps upper bound");
        assert!((occ.theoretical - 0.5).abs() < 1e-12);
    }

    #[test]
    fn achieved_warps_match_paper_measurement() {
        // 30.79 / 32 = 96.2% scheduling efficiency
        let occ = occupancy(SmLimits::default(), KernelResources::paper_flux_kernel());
        let achieved = achieved_warps(&occ, 30.79 / 32.0);
        assert!((achieved - 30.79).abs() < 1e-9);
        // occupancy: 30.79 / 64 = 48.11%
        assert!((achieved / 64.0 - 0.4811) < 1e-3);
    }

    #[test]
    fn lighter_kernels_reach_full_occupancy() {
        let occ = occupancy(
            SmLimits::default(),
            KernelResources {
                threads_per_block: 256,
                registers_per_thread: 32,
                shared_per_block: 0,
            },
        );
        assert_eq!(occ.blocks_per_sm, 8);
        assert_eq!(occ.resident_warps, 64);
        assert_eq!(occ.theoretical, 1.0);
    }

    #[test]
    fn shared_memory_can_be_the_limiter() {
        let occ = occupancy(
            SmLimits::default(),
            KernelResources {
                threads_per_block: 128,
                registers_per_thread: 16,
                shared_per_block: 96 * 1024,
            },
        );
        assert_eq!(occ.blocks_per_sm, 1, "shared memory limits to one block");
    }

    #[test]
    fn block_count_limit_applies_to_tiny_blocks() {
        let occ = occupancy(
            SmLimits::default(),
            KernelResources {
                threads_per_block: 32,
                registers_per_thread: 8,
                shared_per_block: 0,
            },
        );
        assert_eq!(occ.blocks_per_sm, 32, "capped by max blocks per SM");
        assert_eq!(occ.resident_warps, 32);
    }

    #[test]
    #[should_panic]
    fn oversized_block_rejected() {
        let _ = occupancy(
            SmLimits::default(),
            KernelResources {
                threads_per_block: 2048,
                registers_per_thread: 16,
                shared_per_block: 0,
            },
        );
    }
}
