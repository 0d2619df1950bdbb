//! The SPMD arena representation — struct-of-array PE state, route
//! tables interned per equivalence class, region fast-forwarding — against
//! the two configuration axes a run can select: every observable of a
//! TPFA run (residual bits, [`FabricStats`], the [`RunReport`]) is
//! bit-identical across both engines and both fast-forward settings.
//! Fast-forward off walks every hop through the routers themselves, so it
//! is the independent check of the class-indexed fast-forward table.
//!
//! The proptest wall randomizes fabric geometry so shard boundaries,
//! pattern reach, and edge truncation all vary; the class-count tests pin
//! the headline property that makes paper-scale fabrics affordable:
//! `eq_classes` is *constant* in the fabric size for an SPMD program.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use proptest::prelude::*;
use tpfa_dataflow::workload::tpfa_pattern;
use tpfa_dataflow::DataflowFluxSimulator;
use wse_sim::fabric::{Execution, RunReport};
use wse_sim::geometry::FabricDims;
use wse_sim::stats::FabricStats;

struct Problem {
    mesh: CartesianMesh3,
    fluid: Fluid,
    trans: Transmissibilities,
    pressure: Vec<f32>,
}

fn problem(nx: usize, ny: usize, nz: usize, seed: u64) -> Problem {
    let mesh = CartesianMesh3::new(Extents::new(nx, ny, nz), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, seed);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, seed % 7)
        .pressure()
        .to_vec();
    Problem {
        mesh,
        fluid,
        trans,
        pressure,
    }
}

fn build(p: &Problem, execution: Execution, fast_forward: bool) -> DataflowFluxSimulator {
    DataflowFluxSimulator::builder(&p.mesh)
        .fluid(&p.fluid)
        .transmissibilities(&p.trans)
        .execution(execution)
        .fast_forward(fast_forward)
        .build()
        .expect("build failed")
}

/// Everything observable from one run; bit-exact comparison.
#[derive(Debug, PartialEq)]
struct Observation {
    residual_bits: Vec<u32>,
    stats: FabricStats,
    report: RunReport,
    eq_classes: usize,
}

fn observe(p: &Problem, execution: Execution, fast_forward: bool) -> Observation {
    let mut sim = build(p, execution, fast_forward);
    let residual = sim.apply(&p.pressure).expect("TPFA run failed");
    Observation {
        residual_bits: residual.iter().map(|v| v.to_bits()).collect(),
        stats: sim.stats(),
        report: sim.last_run().unwrap(),
        eq_classes: sim.eq_classes(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random geometry, random engine, both fast-forward settings: four
    /// runs, one answer. The class count of every run must equal the
    /// declarative pattern's equivalence-class count for that geometry.
    #[test]
    fn randomized_geometry_is_representation_invariant(
        nx in 4usize..13,
        ny in 4usize..13,
        nz in 1usize..4,
        seed in 0u64..1000,
        shard_pick in 0usize..3,
        threads in 1usize..4,
    ) {
        let p = problem(nx, ny, nz, seed);
        let shards = [1usize, 4, 9][shard_pick];
        let classes = tpfa_pattern().eq_classes(FabricDims::new(nx, ny));
        let mut reference: Option<Observation> = None;
        for execution in [Execution::Sequential, Execution::Sharded { shards, threads }] {
            for ff in [true, false] {
                let o = observe(&p, execution, ff);
                prop_assert_eq!(
                    o.eq_classes, classes,
                    "{}x{} {:?} ff={}: fabric classes vs pattern classes",
                    nx, ny, execution, ff
                );
                // ff_jumps / region_ff_jumps are engine- and
                // setting-dependent by contract; everything else must
                // be bit-identical.
                match &reference {
                    None => reference = Some(o),
                    Some(r) => prop_assert_eq!(
                        r, &o,
                        "{}x{}x{} seed {} {:?} ff={} diverged",
                        nx, ny, nz, seed, execution, ff
                    ),
                }
            }
        }
    }
}

#[test]
fn eq_classes_are_constant_in_the_fabric_size() {
    // The paper-scale claim: once the grid clears the pattern reach, the
    // class count stops growing — shared route programs (and the
    // class-indexed fast-forward table) cost O(classes), not O(PEs).
    let mut counts = Vec::new();
    for (nx, ny) in [(16, 16), (24, 20), (40, 12)] {
        let p = problem(nx, ny, 2, 9);
        let mut sim = build(&p, Execution::Sequential, true);
        sim.apply(&p.pressure).expect("run failed");
        assert_eq!(
            sim.eq_classes(),
            tpfa_pattern().eq_classes(FabricDims::new(nx, ny)),
            "{nx}x{ny}: route interning must find exactly the pattern's classes"
        );
        counts.push(sim.eq_classes());
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "class count must not grow with the fabric: {counts:?}"
    );
    assert!(
        counts[0] < 16 * 16 / 2,
        "classes ({}) must be far below the PE count",
        counts[0]
    );
}
