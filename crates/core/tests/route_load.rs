//! What `Fabric::load` leaves in the routers, checked against the compiled
//! pattern itself: for every workload's stencil, fabric shape and engine,
//! each PE's static route table is exactly the table its
//! `CommPattern::route_program` describes, PEs with equal tables share one
//! allocation, and the number of allocations is the pattern's
//! equivalence-class count.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::trans::{StencilKind, Transmissibilities};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tpfa_dataflow::{
    DataflowFluxSimulator, LaplaceParams, LaplaceWorkload, WaveParams, WaveWorkload, Workload,
};
use wse_sim::fabric::{Execution, Fabric, FabricConfig};
use wse_sim::geometry::{FabricDims, PeCoord};
use wse_sim::route::RouteTable;
use wse_sim::Router;

const NZ: usize = 2;

/// A workload of an `nx × ny` fabric.
type MakeWorkload = fn(usize, usize) -> Arc<dyn Workload>;

fn tpfa(nx: usize, ny: usize) -> Arc<dyn Workload> {
    let mesh = CartesianMesh3::new(Extents::new(nx, ny, NZ), Spacing::new(10.0, 10.0, 4.0));
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 3);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&Fluid::water_like())
        .transmissibilities(&trans)
        .build()
        .expect("TPFA builds");
    sim.workload().clone()
}

fn laplace7(nx: usize, ny: usize) -> Arc<dyn Workload> {
    let params = LaplaceParams::from_spacing(10.0, 10.0, 4.0);
    Arc::new(LaplaceWorkload::new(nx, ny, NZ, params).expect("laplace7 compiles"))
}

fn wave(nx: usize, ny: usize) -> Arc<dyn Workload> {
    let params = WaveParams::new(10.0, 10.0, 10.0, 1500.0, 2.0e-3, 0.5);
    Arc::new(WaveWorkload::new(nx, ny, NZ, params).expect("wave compiles"))
}

/// The table a router holds after installing `program`'s routes itself.
fn expected_table(workload: &dyn Workload, dims: FabricDims, pe: PeCoord) -> RouteTable {
    let mut router = Router::new();
    for (color, config) in workload.pattern().route_program(dims, pe).0 {
        router.configure(color, config);
    }
    (**router.table()).clone()
}

#[test]
fn loaded_tables_are_the_route_programs_one_allocation_per_class() {
    let workloads: [(&str, MakeWorkload); 3] =
        [("tpfa", tpfa), ("laplace7", laplace7), ("wave", wave)];
    let engines = [
        Execution::Sequential,
        Execution::Sharded {
            shards: 4,
            threads: 2,
        },
    ];
    for (name, make) in workloads {
        for (nx, ny) in [(1, 6), (2, 2), (9, 7), (16, 16)] {
            let dims = FabricDims::new(nx, ny);
            let workload = make(nx, ny);
            let pattern = workload.pattern();
            for execution in engines {
                let label = format!("{name} {nx}x{ny} {execution:?}");
                let config = FabricConfig {
                    execution,
                    ..FabricConfig::default()
                };
                let mut fabric = Fabric::new(dims, config, |_| workload.make_program());
                fabric.load();
                assert!(fabric.load_error().is_none(), "{label}");
                let mut shared: HashMap<RouteTable, &Arc<RouteTable>> = HashMap::new();
                let mut allocations = HashSet::new();
                for pe in dims.iter() {
                    let router = fabric.router(pe);
                    let table = router.table();
                    assert_eq!(
                        **table,
                        expected_table(&*workload, dims, pe),
                        "{label} {pe:?}"
                    );
                    // every color starts in its installed position
                    for (color, config) in pattern.route_program(dims, pe).0 {
                        let position = router.position_index(color);
                        assert_eq!(position, Some(config.current_index()), "{label} {pe:?}");
                    }
                    let first = shared.entry((**table).clone()).or_insert(table);
                    assert!(
                        Arc::ptr_eq(first, table),
                        "{label} {pe:?}: equal tables, one allocation"
                    );
                    allocations.insert(Arc::as_ptr(table));
                }
                assert_eq!(allocations.len(), fabric.eq_classes(), "{label}");
                assert_eq!(allocations.len(), pattern.eq_classes(dims), "{label}");
            }
        }
    }
}
