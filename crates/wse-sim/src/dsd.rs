//! DSD (Data Structure Descriptor) vector operations.
//!
//! "Most hardware architecture offer dedicated mechanisms to process arrays
//! of data ... In the architecture at hand, this is implemented by using
//! special registers holding Data Structure Descriptors, that act as
//! vectors, on which a given instruction can operate ... The DSD contains
//! information about the address, length, and stride of the arrays."
//! (paper §5.3.3)
//!
//! Every operation here processes `len` elements, increments the per-PE
//! instruction counters with the canonical traffic of its kind (the paper's
//! Table 4 convention: FMUL/FSUB/FADD = 2 loads + 1 store per element,
//! FNEG = 1 + 1, FMA = 3 + 1, FMOV = 1 fabric load + 1 store), and costs one
//! cycle per element — "no matter how long the input and output arrays are,
//! the throughput of the instruction will be constant".

use crate::memory::PeMemory;
use crate::stats::OpCounters;
use serde::{Deserialize, Serialize};
use wse_trace::{PeTracer, TraceOp};

/// A vector view of PE memory: base address, length, stride (in words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dsd {
    /// Base word address.
    pub base: usize,
    /// Number of elements.
    pub len: usize,
    /// Stride between elements, in words.
    pub stride: usize,
}

impl Dsd {
    /// A unit-stride vector over `[base, base+len)`.
    pub fn contiguous(base: usize, len: usize) -> Self {
        Self {
            base,
            len,
            stride: 1,
        }
    }

    /// A strided vector.
    pub fn strided(base: usize, len: usize, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be >= 1");
        Self { base, len, stride }
    }

    /// The address of element `i`.
    #[inline]
    pub fn at(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        self.base + i * self.stride
    }

    /// A view of the same vector shifted by `delta` elements of the
    /// underlying storage (used for the ±z neighbor access within a PE's
    /// column).
    pub fn shifted(&self, delta: isize) -> Self {
        let base = self.base as isize + delta * self.stride as isize;
        assert!(base >= 0, "shifted DSD base underflows");
        Self {
            base: base as usize,
            len: self.len,
            stride: self.stride,
        }
    }
}

/// A vector operand: another memory vector or a broadcast scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Element-wise memory operand.
    Mem(Dsd),
    /// Broadcast scalar (a register on real hardware; counted with the same
    /// traffic as a memory operand, following the paper's uniform Table-4
    /// accounting).
    Scalar(f32),
}

impl Operand {
    #[inline]
    fn get(&self, mem: &PeMemory, i: usize) -> f32 {
        match self {
            Operand::Mem(d) => mem.read_f32(d.at(i)),
            Operand::Scalar(s) => *s,
        }
    }
}

/// The operation kinds of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Multiply.
    Fmul,
    /// Subtract.
    Fsub,
    /// Add.
    Fadd,
    /// Fused multiply-add.
    Fma,
    /// Negate.
    Fneg,
    /// Fabric ↔ memory move.
    Fmov,
}

fn check_same_len(dst: Dsd, a: &Operand, b: Option<&Operand>) {
    if let Operand::Mem(d) = a {
        assert_eq!(d.len, dst.len, "operand length mismatch");
    }
    if let Some(Operand::Mem(d)) = b {
        assert_eq!(d.len, dst.len, "operand length mismatch");
    }
}

/// `dst[i] = a[i] * b[i]` — FMUL.
pub fn fmuls(
    mem: &mut PeMemory,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    dst: Dsd,
    a: Operand,
    b: Operand,
) {
    check_same_len(dst, &a, Some(&b));
    trace.dsd(ctr.cycles(), TraceOp::Fmul, dst.len as u32);
    for i in 0..dst.len {
        let v = a.get(mem, i) * b.get(mem, i);
        mem.write_f32(dst.at(i), v);
    }
    let n = dst.len as u64;
    ctr.fmul += n;
    ctr.mem_loads += 2 * n;
    ctr.mem_stores += n;
    ctr.compute_cycles += n;
}

/// `dst[i] = a[i] * H(gate[i])` where `H` is the Heaviside step
/// (`1` if `gate > 0`, else `0`) — a *predicated* multiply.
///
/// Real SIMD hardware performs upwind selection with lane predication at
/// multiply throughput; this op models that, and is counted as a plain FMUL
/// (2 loads, 1 store, 1 FLOP per element). It is the only non-textbook op
/// the TPFA kernel needs to stay branch-free on vectors.
pub fn fmuls_gate(
    mem: &mut PeMemory,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    dst: Dsd,
    a: Operand,
    gate: Operand,
) {
    check_same_len(dst, &a, Some(&gate));
    trace.dsd(ctr.cycles(), TraceOp::FmulGate, dst.len as u32);
    for i in 0..dst.len {
        let g = if gate.get(mem, i) > 0.0 { 1.0 } else { 0.0 };
        let v = a.get(mem, i) * g;
        mem.write_f32(dst.at(i), v);
    }
    let n = dst.len as u64;
    ctr.fmul += n;
    ctr.mem_loads += 2 * n;
    ctr.mem_stores += n;
    ctr.compute_cycles += n;
}

/// `dst[i] = a[i] - b[i]` — FSUB.
pub fn fsubs(
    mem: &mut PeMemory,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    dst: Dsd,
    a: Operand,
    b: Operand,
) {
    check_same_len(dst, &a, Some(&b));
    trace.dsd(ctr.cycles(), TraceOp::Fsub, dst.len as u32);
    for i in 0..dst.len {
        let v = a.get(mem, i) - b.get(mem, i);
        mem.write_f32(dst.at(i), v);
    }
    let n = dst.len as u64;
    ctr.fsub += n;
    ctr.mem_loads += 2 * n;
    ctr.mem_stores += n;
    ctr.compute_cycles += n;
}

/// `dst[i] = a[i] + b[i]` — FADD.
pub fn fadds(
    mem: &mut PeMemory,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    dst: Dsd,
    a: Operand,
    b: Operand,
) {
    check_same_len(dst, &a, Some(&b));
    trace.dsd(ctr.cycles(), TraceOp::Fadd, dst.len as u32);
    for i in 0..dst.len {
        let v = a.get(mem, i) + b.get(mem, i);
        mem.write_f32(dst.at(i), v);
    }
    let n = dst.len as u64;
    ctr.fadd += n;
    ctr.mem_loads += 2 * n;
    ctr.mem_stores += n;
    ctr.compute_cycles += n;
}

/// `dst[i] = a[i] * b[i] + dst[i]` — FMA (accumulating form; 2 FLOPs,
/// 3 loads + 1 store per element).
pub fn fmacs(
    mem: &mut PeMemory,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    dst: Dsd,
    a: Operand,
    b: Operand,
) {
    check_same_len(dst, &a, Some(&b));
    trace.dsd(ctr.cycles(), TraceOp::Fma, dst.len as u32);
    for i in 0..dst.len {
        let v = a
            .get(mem, i)
            .mul_add(b.get(mem, i), mem.read_f32(dst.at(i)));
        mem.write_f32(dst.at(i), v);
    }
    let n = dst.len as u64;
    ctr.fma += n;
    ctr.mem_loads += 3 * n;
    ctr.mem_stores += n;
    ctr.compute_cycles += n;
}

/// `dst[i] = -a[i]` — FNEG (1 load + 1 store per element).
pub fn fnegs(mem: &mut PeMemory, ctr: &mut OpCounters, trace: &mut PeTracer, dst: Dsd, a: Operand) {
    check_same_len(dst, &a, None);
    trace.dsd(ctr.cycles(), TraceOp::Fneg, dst.len as u32);
    for i in 0..dst.len {
        let v = -a.get(mem, i);
        mem.write_f32(dst.at(i), v);
    }
    let n = dst.len as u64;
    ctr.fneg += n;
    ctr.mem_loads += n;
    ctr.mem_stores += n;
    ctr.compute_cycles += n;
}

/// Stores one received wavelet payload to memory — the receive half of
/// FMOV (1 fabric load + 1 memory store).
pub fn fmov_recv(
    mem: &mut PeMemory,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    addr: usize,
    value: f32,
) {
    trace.dsd(ctr.cycles(), TraceOp::FmovIn, 1);
    mem.write_f32(addr, value);
    ctr.fmov_in += 1;
    ctr.mem_stores += 1;
    ctr.fabric_loads += 1;
    ctr.comm_cycles += 1;
}

/// Reads `src` element-wise for sending — the transmit half of FMOV
/// (1 fabric store per element). Yields the values in order; the caller
/// turns them into wavelets. The whole transfer is traced and counted up
/// front, whether or not the iterator is exhausted.
///
/// The send-side memory reads happen in the fabric-output engine and are
/// **not** counted as PE memory traffic: the paper's Table 4 charges FMOV
/// with "1 store, 1 fabric load" on the *receiving* side only, so the
/// per-cell loads+stores total (406) excludes transmit reads.
pub fn fmov_send<'m, 'w>(
    mem: &'m PeMemory<'w>,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    src: Dsd,
) -> impl Iterator<Item = f32> + use<'m, 'w> {
    trace.dsd(ctr.cycles(), TraceOp::FmovOut, src.len as u32);
    let n = src.len as u64;
    ctr.fmov_out += n;
    ctr.fabric_stores += n;
    ctr.comm_cycles += n;
    (0..src.len).map(move |i| mem.read_f32(src.at(i)))
}

/// Scalar density evaluation (Eq. 5, `ρ = ρ_ref·exp(c_f(p − p_ref))`) over
/// a vector — performed once per cell per iteration, *outside* the Table-4
/// flux accounting (tracked via `eos_evals`).
#[allow(clippy::too_many_arguments)]
pub fn eos_density(
    mem: &mut PeMemory,
    ctr: &mut OpCounters,
    trace: &mut PeTracer,
    dst: Dsd,
    p: Dsd,
    rho_ref: f32,
    c_f: f32,
    p_ref: f32,
) {
    assert_eq!(dst.len, p.len);
    trace.dsd(ctr.cycles(), TraceOp::Eos, dst.len as u32);
    for i in 0..dst.len {
        let pv = mem.read_f32(p.at(i));
        mem.write_f32(dst.at(i), rho_ref * (c_f * (pv - p_ref)).exp());
    }
    let n = dst.len as u64;
    ctr.eos_evals += n;
    // exp costs several cycles; model it as 4 per element
    ctr.compute_cycles += 4 * n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemRange;

    /// Three `len`-element vectors `a = 1, 2, …`, `b = 2, 2, …` and `d`
    /// in a PE memory of `3 * len` words.
    fn setup(len: usize) -> (Vec<u32>, OpCounters, PeTracer, Dsd, Dsd, Dsd) {
        let mut words: Vec<u32> = (0..len).map(|i| (i as f32 + 1.0).to_bits()).collect();
        words.extend(std::iter::repeat_n(2.0_f32.to_bits(), len));
        words.resize(3 * len, 0);
        (
            words,
            OpCounters::default(),
            PeTracer::Null,
            Dsd::contiguous(0, len),
            Dsd::contiguous(len, len),
            Dsd::contiguous(2 * len, len),
        )
    }

    #[test]
    fn fmuls_computes_and_counts() {
        let (mut words, mut ctr, mut tr, a, b, d) = setup(5);
        let mut mem = PeMemory::new(&mut words);
        fmuls(
            &mut mem,
            &mut ctr,
            &mut tr,
            d,
            Operand::Mem(a),
            Operand::Mem(b),
        );
        for i in 0..5 {
            assert_eq!(mem.read_f32(d.at(i)), (i as f32 + 1.0) * 2.0);
        }
        assert_eq!(ctr.fmul, 5);
        assert_eq!(ctr.mem_loads, 10);
        assert_eq!(ctr.mem_stores, 5);
        assert_eq!(ctr.compute_cycles, 5);
        assert_eq!(ctr.flops(), 5);
    }

    #[test]
    fn scalar_operand_broadcasts() {
        let (mut words, mut ctr, mut tr, a, _, d) = setup(4);
        let mut mem = PeMemory::new(&mut words);
        fmuls(
            &mut mem,
            &mut ctr,
            &mut tr,
            d,
            Operand::Mem(a),
            Operand::Scalar(0.5),
        );
        for i in 0..4 {
            assert_eq!(mem.read_f32(d.at(i)), (i as f32 + 1.0) * 0.5);
        }
    }

    #[test]
    fn fsubs_fadds_fnegs() {
        let (mut words, mut ctr, mut tr, a, b, d) = setup(3);
        let mut mem = PeMemory::new(&mut words);
        fsubs(
            &mut mem,
            &mut ctr,
            &mut tr,
            d,
            Operand::Mem(a),
            Operand::Mem(b),
        );
        assert_eq!(mem.read_f32(d.at(0)), -1.0);
        fadds(
            &mut mem,
            &mut ctr,
            &mut tr,
            d,
            Operand::Mem(a),
            Operand::Mem(b),
        );
        assert_eq!(mem.read_f32(d.at(2)), 5.0);
        fnegs(&mut mem, &mut ctr, &mut tr, d, Operand::Mem(a));
        assert_eq!(mem.read_f32(d.at(1)), -2.0);
        assert_eq!(ctr.fsub, 3);
        assert_eq!(ctr.fadd, 3);
        assert_eq!(ctr.fneg, 3);
        // FNEG traffic is 1 load + 1 store
        assert_eq!(ctr.mem_loads, 6 + 6 + 3);
        assert_eq!(ctr.mem_stores, 9);
    }

    #[test]
    fn fmacs_accumulates_with_two_flops() {
        let (mut words, mut ctr, mut tr, a, b, d) = setup(3);
        let mut mem = PeMemory::new(&mut words);
        for i in 0..3 {
            mem.write_f32(d.at(i), 10.0);
        }
        fmacs(
            &mut mem,
            &mut ctr,
            &mut tr,
            d,
            Operand::Mem(a),
            Operand::Mem(b),
        );
        assert_eq!(mem.read_f32(d.at(0)), 12.0);
        assert_eq!(mem.read_f32(d.at(2)), 16.0);
        assert_eq!(ctr.fma, 3);
        assert_eq!(ctr.flops(), 6);
        assert_eq!(ctr.mem_loads, 9);
        assert_eq!(ctr.mem_stores, 3);
    }

    #[test]
    fn gate_multiply_implements_upwind_selection() {
        let (mut words, mut ctr, mut tr, a, b, d) = setup(4);
        let mut mem = PeMemory::new(&mut words);
        // gate: alternate signs, zero counts as "not >0"
        mem.write_f32(b.at(0), 1.0);
        mem.write_f32(b.at(1), -1.0);
        mem.write_f32(b.at(2), 0.0);
        mem.write_f32(b.at(3), 5.0);
        fmuls_gate(
            &mut mem,
            &mut ctr,
            &mut tr,
            d,
            Operand::Mem(a),
            Operand::Mem(b),
        );
        assert_eq!(mem.read_f32(d.at(0)), 1.0);
        assert_eq!(mem.read_f32(d.at(1)), 0.0);
        assert_eq!(mem.read_f32(d.at(2)), 0.0);
        assert_eq!(mem.read_f32(d.at(3)), 4.0);
        assert_eq!(ctr.fmul, 4); // counted as FMUL
    }

    #[test]
    fn fmov_pair_counts_fabric_traffic() {
        let (mut words, mut ctr, mut tr, a, _, d) = setup(4);
        let mut mem = PeMemory::new(&mut words);
        let vals: Vec<f32> = fmov_send(&mem, &mut ctr, &mut tr, a).collect();
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ctr.fmov_out, 4);
        assert_eq!(ctr.fabric_stores, 4);
        assert_eq!(ctr.mem_loads, 0, "transmit reads are not PE memory traffic");
        for (i, v) in vals.iter().enumerate() {
            fmov_recv(&mut mem, &mut ctr, &mut tr, d.at(i), *v);
        }
        assert_eq!(ctr.fmov_in, 4);
        assert_eq!(ctr.fabric_loads, 4);
        assert_eq!(ctr.mem_stores, 4);
        assert_eq!(ctr.comm_cycles, 8);
        assert_eq!(mem.read_f32(d.at(3)), 4.0);
    }

    #[test]
    fn shifted_dsd_views_the_z_neighbor() {
        let mut words = [0; 6];
        let mut mem = PeMemory::new(&mut words);
        let col = MemRange { offset: 0, len: 6 };
        for i in 0..6 {
            mem.write_f32(col.at(i), i as f32 * 10.0);
        }
        let center = Dsd::contiguous(col.offset + 1, 4); // elements 1..5
        let up = center.shifted(1); // elements 2..6
        let down = center.shifted(-1); // elements 0..4
        assert_eq!(mem.read_f32(up.at(0)), 20.0);
        assert_eq!(mem.read_f32(down.at(0)), 0.0);
        assert_eq!(mem.read_f32(center.at(0)), 10.0);
    }

    #[test]
    fn strided_dsd() {
        let mut words = [0; 12];
        let mut mem = PeMemory::new(&mut words);
        let r = MemRange { offset: 0, len: 12 };
        for i in 0..12 {
            mem.write_f32(r.at(i), i as f32);
        }
        let every3 = Dsd::strided(r.offset, 4, 3);
        assert_eq!(mem.read_f32(every3.at(0)), 0.0);
        assert_eq!(mem.read_f32(every3.at(3)), 9.0);
    }

    #[test]
    fn eos_density_matches_formula() {
        let mut words = [0; 6];
        let mut mem = PeMemory::new(&mut words);
        let mut ctr = OpCounters::default();
        let p = MemRange { offset: 0, len: 3 };
        let rho = MemRange { offset: 3, len: 3 };
        for i in 0..3 {
            mem.write_f32(p.at(i), 1.0e7 + i as f32 * 1.0e5);
        }
        let mut tr = PeTracer::Null;
        eos_density(
            &mut mem,
            &mut ctr,
            &mut tr,
            Dsd::contiguous(rho.offset, 3),
            Dsd::contiguous(p.offset, 3),
            1000.0,
            4.5e-10,
            1.0e7,
        );
        for i in 0..3 {
            let pv = mem.read_f32(p.at(i));
            let expect = 1000.0 * (4.5e-10 * (pv - 1.0e7)).exp();
            assert_eq!(mem.read_f32(rho.at(i)), expect);
        }
        assert_eq!(ctr.eos_evals, 3);
        assert_eq!(ctr.flops(), 0, "EOS is outside Table-4 accounting");
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let (mut words, mut ctr, mut tr, a, _, d) = setup(4);
        let mut mem = PeMemory::new(&mut words);
        let short = Dsd::contiguous(a.base, 2);
        fmuls(
            &mut mem,
            &mut ctr,
            &mut tr,
            d,
            Operand::Mem(short),
            Operand::Scalar(1.0),
        );
    }
}
