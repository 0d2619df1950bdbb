//! Instruction, memory-traffic and fabric-traffic accounting.
//!
//! The paper's Table 4 reports, per mesh cell, the exact instruction mix of
//! the flux kernel (FMUL/FSUB/FNEG/FADD/FMA/FMOV), its memory traffic
//! (loads/stores of 32-bit words) and its fabric traffic. These counters are
//! incremented by the DSD engine ([`crate::dsd`]) as the program executes,
//! so the reproduction *measures* the table instead of asserting it.

use serde::{Deserialize, Serialize};
use wse_trace::TraceOp;

/// Per-PE (or aggregated) operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounters {
    /// Vector multiply element-ops (1 FLOP each).
    pub fmul: u64,
    /// Vector subtract element-ops (1 FLOP each).
    pub fsub: u64,
    /// Vector add element-ops (1 FLOP each).
    pub fadd: u64,
    /// Fused multiply-add element-ops (2 FLOPs each).
    pub fma: u64,
    /// Vector negate element-ops (1 FLOP each).
    pub fneg: u64,
    /// Fabric-to-memory moves (a received wavelet stored to memory).
    pub fmov_in: u64,
    /// Memory-to-fabric moves (a memory word sent as a wavelet).
    pub fmov_out: u64,
    /// 32-bit loads from PE memory.
    pub mem_loads: u64,
    /// 32-bit stores to PE memory.
    pub mem_stores: u64,
    /// 32-bit words received from the fabric.
    pub fabric_loads: u64,
    /// 32-bit words sent to the fabric.
    pub fabric_stores: u64,
    /// Equation-of-state evaluations (Eq. 5, exp) — performed once per cell
    /// per iteration, *outside* the Table-4 flux-kernel accounting.
    pub eos_evals: u64,
    /// Cycles spent in vector arithmetic (compute).
    pub compute_cycles: u64,
    /// Cycles spent moving data (fmov in/out).
    pub comm_cycles: u64,
}

impl OpCounters {
    /// Total floating-point operations (FMA counts 2, FMOV counts 0) —
    /// the paper's Table 4 convention.
    pub fn flops(&self) -> u64 {
        self.fmul + self.fsub + self.fadd + self.fneg + 2 * self.fma
    }

    /// Memory traffic in bytes (32-bit loads + stores).
    pub fn mem_bytes(&self) -> u64 {
        4 * (self.mem_loads + self.mem_stores)
    }

    /// Fabric traffic received, in bytes.
    pub fn fabric_in_bytes(&self) -> u64 {
        4 * self.fabric_loads
    }

    /// Fabric traffic sent, in bytes.
    pub fn fabric_out_bytes(&self) -> u64 {
        4 * self.fabric_stores
    }

    /// Arithmetic intensity with respect to memory traffic [FLOP/byte]
    /// (the paper's 0.0862 for the flux kernel).
    pub fn memory_intensity(&self) -> f64 {
        self.flops() as f64 / self.mem_bytes().max(1) as f64
    }

    /// Arithmetic intensity with respect to *received* fabric traffic
    /// [FLOP/byte] (the paper's 2.1875).
    pub fn fabric_intensity(&self) -> f64 {
        self.flops() as f64 / self.fabric_in_bytes().max(1) as f64
    }

    /// Total cycles (compute + communication).
    pub fn cycles(&self) -> u64 {
        self.compute_cycles + self.comm_cycles
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &OpCounters) {
        self.fmul += other.fmul;
        self.fsub += other.fsub;
        self.fadd += other.fadd;
        self.fma += other.fma;
        self.fneg += other.fneg;
        self.fmov_in += other.fmov_in;
        self.fmov_out += other.fmov_out;
        self.mem_loads += other.mem_loads;
        self.mem_stores += other.mem_stores;
        self.fabric_loads += other.fabric_loads;
        self.fabric_stores += other.fabric_stores;
        self.eos_evals += other.eos_evals;
        self.compute_cycles += other.compute_cycles;
        self.comm_cycles += other.comm_cycles;
    }

    /// Difference (`self − baseline`), for measuring a region of a program.
    pub fn delta(&self, baseline: &OpCounters) -> OpCounters {
        OpCounters {
            fmul: self.fmul - baseline.fmul,
            fsub: self.fsub - baseline.fsub,
            fadd: self.fadd - baseline.fadd,
            fma: self.fma - baseline.fma,
            fneg: self.fneg - baseline.fneg,
            fmov_in: self.fmov_in - baseline.fmov_in,
            fmov_out: self.fmov_out - baseline.fmov_out,
            mem_loads: self.mem_loads - baseline.mem_loads,
            mem_stores: self.mem_stores - baseline.mem_stores,
            fabric_loads: self.fabric_loads - baseline.fabric_loads,
            fabric_stores: self.fabric_stores - baseline.fabric_stores,
            eos_evals: self.eos_evals - baseline.eos_evals,
            compute_cycles: self.compute_cycles - baseline.compute_cycles,
            comm_cycles: self.comm_cycles - baseline.comm_cycles,
        }
    }
}

/// Fabric-wide aggregated statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Sum of all PE counters.
    pub total: OpCounters,
    /// Maximum per-PE total cycles (the critical-path PE).
    pub max_pe_cycles: u64,
    /// Maximum per-PE compute cycles.
    pub max_pe_compute_cycles: u64,
    /// Maximum per-PE communication cycles.
    pub max_pe_comm_cycles: u64,
    /// Router-level fabric hops (wavelet-link traversals).
    pub fabric_hops: u64,
    /// Wavelets delivered up ramps.
    pub ramp_deliveries: u64,
    /// Wavelets dropped at the fabric edge.
    pub edge_drops: u64,
    /// Wavelets that were stalled by router flow control at least once
    /// (backpressure events).
    pub flow_stalls: u64,
    /// Wavelets dropped or swallowed by injected faults (failed links,
    /// halted PEs) — see `wse-sim::fault`.
    pub fault_drops: u64,
    /// Corrupted wavelets caught by checksum verification at a ramp.
    pub checksum_drops: u64,
    /// Number of PEs aggregated.
    pub num_pes: usize,
}

impl FabricStats {
    /// Accumulates another partial aggregate (e.g. one shard's PEs) into
    /// `self`: sums are added, maxima are maxed. Merging per-shard partials
    /// in any order yields the same result as aggregating all PEs directly.
    pub fn merge(&mut self, other: &FabricStats) {
        self.total.merge(&other.total);
        self.max_pe_cycles = self.max_pe_cycles.max(other.max_pe_cycles);
        self.max_pe_compute_cycles = self.max_pe_compute_cycles.max(other.max_pe_compute_cycles);
        self.max_pe_comm_cycles = self.max_pe_comm_cycles.max(other.max_pe_comm_cycles);
        self.fabric_hops += other.fabric_hops;
        self.ramp_deliveries += other.ramp_deliveries;
        self.edge_drops += other.edge_drops;
        self.flow_stalls += other.flow_stalls;
        self.fault_drops += other.fault_drops;
        self.checksum_drops += other.checksum_drops;
        self.num_pes += other.num_pes;
    }
}

/// Applies one traced DSD op of `len` elements to a counter set, using the
/// same accounting rules as [`crate::dsd`]. The inverse of the simulator's
/// instrumentation: replaying every `DsdOp` trace event of a PE
/// reconstructs that PE's [`OpCounters`] exactly. Public so the trace
/// replay in `wse-prof` rebuilds per-PE and per-region counters with the
/// same rules.
pub fn apply_traced_op(ctr: &mut OpCounters, op: TraceOp, len: u64) {
    match op {
        TraceOp::Fmul | TraceOp::FmulGate => {
            ctr.fmul += len;
            ctr.mem_loads += 2 * len;
            ctr.mem_stores += len;
            ctr.compute_cycles += len;
        }
        TraceOp::Fsub => {
            ctr.fsub += len;
            ctr.mem_loads += 2 * len;
            ctr.mem_stores += len;
            ctr.compute_cycles += len;
        }
        TraceOp::Fadd => {
            ctr.fadd += len;
            ctr.mem_loads += 2 * len;
            ctr.mem_stores += len;
            ctr.compute_cycles += len;
        }
        TraceOp::Fma => {
            ctr.fma += len;
            ctr.mem_loads += 3 * len;
            ctr.mem_stores += len;
            ctr.compute_cycles += len;
        }
        TraceOp::Fneg => {
            ctr.fneg += len;
            ctr.mem_loads += len;
            ctr.mem_stores += len;
            ctr.compute_cycles += len;
        }
        TraceOp::FmovIn => {
            ctr.fmov_in += len;
            ctr.mem_stores += len;
            ctr.fabric_loads += len;
            ctr.comm_cycles += len;
        }
        TraceOp::FmovOut => {
            // Transmit reads are not PE memory traffic (no `mem_loads`).
            ctr.fmov_out += len;
            ctr.fabric_stores += len;
            ctr.comm_cycles += len;
        }
        TraceOp::Eos => {
            ctr.eos_evals += len;
            ctr.compute_cycles += 4 * len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 4 per-cell counts, as an [`OpCounters`] value.
    fn paper_table4_cell() -> OpCounters {
        OpCounters {
            fmul: 60,
            fsub: 40,
            fneg: 10,
            fadd: 10,
            fma: 10,
            fmov_in: 16,
            // FMUL/FSUB/FADD: 2 loads 1 store; FNEG: 1/1; FMA: 3/1; FMOV: 0/1
            mem_loads: 60 * 2 + 40 * 2 + 10 * 2 + 10 + 10 * 3,
            mem_stores: 60 + 40 + 10 + 10 + 10 + 16,
            fabric_loads: 16,
            ..OpCounters::default()
        }
    }

    #[test]
    fn paper_cell_has_140_flops() {
        // "each flux requires 14 FLOPs, and each cell performs a total of
        // 140 FLOPs" (paper §7.3)
        assert_eq!(paper_table4_cell().flops(), 140);
    }

    #[test]
    fn paper_cell_has_406_memory_accesses() {
        // "a total of 406 loads and stores" (paper §7.3)
        let c = paper_table4_cell();
        assert_eq!(c.mem_loads + c.mem_stores, 406);
    }

    #[test]
    fn paper_cell_arithmetic_intensities() {
        let c = paper_table4_cell();
        // 140 / (406·4) = 0.0862 FLOP/B (paper §7.3)
        assert!((c.memory_intensity() - 0.0862).abs() < 5e-4);
        // 140 / (16·4) = 2.1875 FLOP/B (paper §7.3)
        assert!((c.fabric_intensity() - 2.1875).abs() < 1e-9);
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let a = paper_table4_cell();
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.flops(), 2 * a.flops());
        let d = b.delta(&a);
        assert_eq!(d, a);
    }

    #[test]
    fn fabric_stats_merge_sums_and_maxes() {
        let a = FabricStats {
            total: paper_table4_cell(),
            max_pe_cycles: 10,
            max_pe_compute_cycles: 7,
            max_pe_comm_cycles: 3,
            fabric_hops: 5,
            ramp_deliveries: 2,
            edge_drops: 1,
            flow_stalls: 4,
            fault_drops: 2,
            checksum_drops: 1,
            num_pes: 3,
        };
        let b = FabricStats {
            total: paper_table4_cell(),
            max_pe_cycles: 8,
            max_pe_compute_cycles: 9,
            max_pe_comm_cycles: 1,
            fabric_hops: 2,
            ramp_deliveries: 6,
            edge_drops: 0,
            flow_stalls: 1,
            fault_drops: 1,
            checksum_drops: 0,
            num_pes: 2,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.total.flops(), 280);
        assert_eq!(ab.max_pe_cycles, 10);
        assert_eq!(ab.max_pe_compute_cycles, 9);
        assert_eq!(ab.max_pe_comm_cycles, 3);
        assert_eq!(ab.fabric_hops, 7);
        assert_eq!(ab.ramp_deliveries, 8);
        assert_eq!(ab.edge_drops, 1);
        assert_eq!(ab.flow_stalls, 5);
        assert_eq!(ab.fault_drops, 3);
        assert_eq!(ab.checksum_drops, 1);
        assert_eq!(ab.num_pes, 5);
    }

    #[test]
    fn cycles_sum_compute_and_comm() {
        let c = OpCounters {
            compute_cycles: 30,
            comm_cycles: 12,
            ..OpCounters::default()
        };
        assert_eq!(c.cycles(), 42);
    }

    #[test]
    fn empty_counters_have_safe_intensities() {
        let c = OpCounters::default();
        assert_eq!(c.flops(), 0);
        assert_eq!(c.memory_intensity(), 0.0);
        assert_eq!(c.fabric_intensity(), 0.0);
    }
}
