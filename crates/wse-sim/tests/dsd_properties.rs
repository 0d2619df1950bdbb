//! Property-based tests of the DSD vector engine: every vector op must
//! agree element-wise with its scalar f32 semantics, and the counters must
//! be exact linear functions of the vector length.
//!
//! Also home to the **event-ordering properties**: under randomized host
//! injection schedules, wavelet delivery order per (PE, color) — and thus
//! every recorded log — must be identical between the sequential and the
//! sharded execution engines.

use proptest::prelude::*;
use wse_sim::dsd::{self, Dsd, Operand};
use wse_sim::memory::PeMemory;
use wse_sim::stats::OpCounters;
use wse_sim::trace::PeTracer;

/// `a` and `b` holding the values and a result vector `d`, in a PE memory
/// of exactly their words.
fn setup(values_a: &[f32], values_b: &[f32]) -> (Vec<u32>, Dsd, Dsd, Dsd) {
    let n = values_a.len();
    let mut words: Vec<u32> = values_a
        .iter()
        .chain(values_b)
        .map(|v| v.to_bits())
        .collect();
    words.resize(3 * n, 0);
    let [a, b, d] = [0, n, 2 * n].map(|base| Dsd::contiguous(base, n));
    (words, a, b, d)
}

fn finite_vec() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..64).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0e6_f32..1.0e6, n),
            proptest::collection::vec(-1.0e6_f32..1.0e6, n),
        )
    })
}

proptest! {
    #[test]
    fn fmuls_matches_scalar_semantics((va, vb) in finite_vec()) {
        let (mut words, a, b, d) = setup(&va, &vb);
        let mut mem = PeMemory::new(&mut words);
        let mut ctr = OpCounters::default();
        let mut tr = PeTracer::Null;
        dsd::fmuls(&mut mem, &mut ctr, &mut tr, d, Operand::Mem(a), Operand::Mem(b));
        for i in 0..va.len() {
            prop_assert_eq!(mem.read_f32(d.at(i)).to_bits(), (va[i] * vb[i]).to_bits());
        }
        prop_assert_eq!(ctr.fmul, va.len() as u64);
        prop_assert_eq!(ctr.mem_loads, 2 * va.len() as u64);
        prop_assert_eq!(ctr.mem_stores, va.len() as u64);
    }

    #[test]
    fn fsubs_fadds_match_scalar_semantics((va, vb) in finite_vec()) {
        let (mut words, a, b, d) = setup(&va, &vb);
        let mut mem = PeMemory::new(&mut words);
        let mut ctr = OpCounters::default();
        let mut tr = PeTracer::Null;
        dsd::fsubs(&mut mem, &mut ctr, &mut tr, d, Operand::Mem(a), Operand::Mem(b));
        for i in 0..va.len() {
            prop_assert_eq!(mem.read_f32(d.at(i)).to_bits(), (va[i] - vb[i]).to_bits());
        }
        dsd::fadds(&mut mem, &mut ctr, &mut tr, d, Operand::Mem(a), Operand::Mem(b));
        for i in 0..va.len() {
            prop_assert_eq!(mem.read_f32(d.at(i)).to_bits(), (va[i] + vb[i]).to_bits());
        }
    }

    #[test]
    fn fmacs_is_fused_multiply_add((va, vb) in finite_vec()) {
        let (mut words, a, b, d) = setup(&va, &vb);
        let mut mem = PeMemory::new(&mut words);
        // preload the accumulator
        for i in 0..va.len() {
            mem.write_f32(d.at(i), 10.0);
        }
        let mut ctr = OpCounters::default();
        let mut tr = PeTracer::Null;
        dsd::fmacs(&mut mem, &mut ctr, &mut tr, d, Operand::Mem(a), Operand::Mem(b));
        for i in 0..va.len() {
            let expect = va[i].mul_add(vb[i], 10.0);
            prop_assert_eq!(mem.read_f32(d.at(i)).to_bits(), expect.to_bits());
        }
        prop_assert_eq!(ctr.flops(), 2 * va.len() as u64);
    }

    #[test]
    fn fnegs_is_sign_flip((va, vb) in finite_vec()) {
        let (mut words, a, _b, d) = setup(&va, &vb);
        let mut mem = PeMemory::new(&mut words);
        let mut ctr = OpCounters::default();
        let mut tr = PeTracer::Null;
        dsd::fnegs(&mut mem, &mut ctr, &mut tr, d, Operand::Mem(a));
        for (i, v) in va.iter().enumerate() {
            prop_assert_eq!(mem.read_f32(d.at(i)).to_bits(), (-*v).to_bits());
        }
        prop_assert_eq!(ctr.mem_loads, va.len() as u64);
    }

    #[test]
    fn gate_multiply_is_heaviside((va, vb) in finite_vec()) {
        let (mut words, a, b, d) = setup(&va, &vb);
        let mut mem = PeMemory::new(&mut words);
        let mut ctr = OpCounters::default();
        let mut tr = PeTracer::Null;
        dsd::fmuls_gate(&mut mem, &mut ctr, &mut tr, d, Operand::Mem(a), Operand::Mem(b));
        for i in 0..va.len() {
            let expect = if vb[i] > 0.0 { va[i] } else { 0.0 };
            prop_assert_eq!(mem.read_f32(d.at(i)), expect);
        }
        // counted as FMUL, per the Table-4 convention
        prop_assert_eq!(ctr.fmul, va.len() as u64);
    }

    #[test]
    fn fmov_roundtrip_is_bit_exact((va, vb) in finite_vec()) {
        let (mut words, a, _b, d) = setup(&va, &vb);
        let mut mem = PeMemory::new(&mut words);
        let mut ctr = OpCounters::default();
        let mut tr = PeTracer::Null;
        let sent: Vec<f32> = dsd::fmov_send(&mem, &mut ctr, &mut tr, a).collect();
        for (i, v) in sent.iter().enumerate() {
            dsd::fmov_recv(&mut mem, &mut ctr, &mut tr, d.at(i), *v);
        }
        for (i, v) in va.iter().enumerate() {
            prop_assert_eq!(mem.read_f32(d.at(i)).to_bits(), v.to_bits());
        }
        prop_assert_eq!(ctr.fabric_loads, va.len() as u64);
        prop_assert_eq!(ctr.fabric_stores, va.len() as u64);
        prop_assert_eq!(ctr.comm_cycles, 2 * va.len() as u64);
    }

    #[test]
    fn scalar_operands_broadcast(s in -1.0e6_f32..1.0e6, (va, vb) in finite_vec()) {
        let (mut words, a, _b, d) = setup(&va, &vb);
        let mut mem = PeMemory::new(&mut words);
        let mut ctr = OpCounters::default();
        let mut tr = PeTracer::Null;
        dsd::fmuls(&mut mem, &mut ctr, &mut tr, d, Operand::Mem(a), Operand::Scalar(s));
        for (i, v) in va.iter().enumerate() {
            prop_assert_eq!(mem.read_f32(d.at(i)).to_bits(), (v * s).to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Event-ordering properties: sequential vs sharded delivery order
// ---------------------------------------------------------------------------

mod event_ordering {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wse_sim::fabric::{Execution, Fabric, FabricConfig, RunReport};
    use wse_sim::geometry::{Direction, FabricDims, PeCoord};
    use wse_sim::pe::{PeContext, PeProgram};
    use wse_sim::route::{ColorConfig, DirMask, RouterPosition};
    use wse_sim::wavelet::{Color, Wavelet};

    const LAUNCH: Color = Color::new(9);
    /// One streaming color per direction (E, W, N, S).
    const SCATTER: [Color; 4] = [
        Color::new(10),
        Color::new(11),
        Color::new(12),
        Color::new(13),
    ];
    const LOG_CAP: usize = 256;

    /// On LAUNCH, sends the payload down one of four directional streams
    /// (picked from the payload's low bits); every stream wavelet passing
    /// through a PE is both delivered to it and forwarded onward, so one
    /// injection fans out into a whole row/column of ordered deliveries.
    /// Each PE appends every (color, payload) it receives to a memory log —
    /// the per-(PE, color) delivery order made observable.
    struct Recorder;

    impl PeProgram for Recorder {
        fn init(&mut self, ctx: &mut PeContext) {
            use Direction::{East, North, Ramp, South, West};
            let _log = ctx.alloc(1 + 2 * LOG_CAP);
            let streams = [
                (SCATTER[0], West, East),
                (SCATTER[1], East, West),
                (SCATTER[2], South, North),
                (SCATTER[3], North, South),
            ];
            for (color, upstream, downstream) in streams {
                let pos = RouterPosition::new(
                    DirMask::of(&[Ramp, upstream]),
                    DirMask::of(&[Ramp, downstream]),
                );
                ctx.configure_color(color, ColorConfig::fixed(pos));
            }
        }

        fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
            if w.color == LAUNCH {
                let stream = (w.payload % 4) as usize;
                ctx.send_f32(SCATTER[stream], w.payload as f32);
            } else {
                let count = ctx.memory.read_u32(0) as usize;
                if count < LOG_CAP {
                    ctx.memory.write_u32(1 + 2 * count, w.color.id() as u32);
                    ctx.memory.write_u32(2 + 2 * count, w.payload);
                }
                ctx.memory.write_u32(0, count as u32 + 1);
            }
        }
    }

    /// Runs a seeded random injection schedule and returns every PE's
    /// delivery log plus the run report — the full observable state.
    fn run_schedule(
        seed: u64,
        injections: usize,
        execution: Execution,
    ) -> (Vec<Vec<u32>>, RunReport, u64) {
        let dims = FabricDims::new(8, 8);
        let config = FabricConfig {
            execution,
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(dims, config, |_| Box::new(Recorder));
        f.load();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..injections {
            let col = rng.gen_range(0..dims.cols);
            let row = rng.gen_range(0..dims.rows);
            let payload = rng.gen_range(0..100_000u32);
            f.activate(PeCoord::new(col, row), LAUNCH, payload);
        }
        let report = f.run().expect("schedule must run to quiescence");
        let logs = dims
            .iter()
            .map(|c| {
                let mem = f.memory(c);
                let count = (mem[0] as usize).min(LOG_CAP);
                mem[..1 + 2 * count].to_vec()
            })
            .collect();
        (logs, report, f.time())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn random_injection_schedules_deliver_identically(
            seed in 0u64..1_000_000,
            injections in 1usize..48,
        ) {
            let reference = run_schedule(seed, injections, Execution::Sequential);
            prop_assert!(reference.1.events > 0);
            for (shards, threads) in [(4usize, 2usize), (9, 3)] {
                let sharded = run_schedule(
                    seed,
                    injections,
                    Execution::Sharded { shards, threads },
                );
                prop_assert_eq!(&reference, &sharded,
                    "seed {} ({} injections, {} shards)", seed, injections, shards);
            }
        }

        #[test]
        fn injection_order_is_part_of_the_schedule(
            seed in 0u64..1_000_000,
        ) {
            // Sanity check on the harness itself: permuting the schedule
            // (different seed) almost always changes some log, i.e. the
            // test above really observes delivery order, not just totals.
            let a = run_schedule(seed, 24, Execution::Sequential);
            let b = run_schedule(seed.wrapping_add(1), 24, Execution::Sequential);
            // (not asserting inequality — two seeds *can* collide on tiny
            // schedules — but both must at least be internally reproducible)
            let a2 = run_schedule(seed, 24, Execution::Sequential);
            prop_assert_eq!(a, a2);
            let b2 = run_schedule(seed.wrapping_add(1), 24, Execution::Sequential);
            prop_assert_eq!(b, b2);
        }
    }
}
