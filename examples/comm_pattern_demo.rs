//! Communication-pattern walkthrough (the paper's Figures 5 and 6): watch
//! the router switch positions alternate during the cardinal exchange and
//! verify that every PE receives its eight in-plane neighbors' columns —
//! the diagonal ones through intermediary routers.
//!
//! ```text
//! cargo run --example comm_pattern_demo
//! ```

use mdfv::dataflow::workload::tpfa_pattern;
use mdfv::dataflow::DataflowFluxSimulator;
use mdfv::fv::prelude::*;
use mdfv::wse::geometry::{FabricDims, PeCoord};

fn main() {
    let (nx, ny, nz) = (5usize, 4usize, 3usize);
    let dims = FabricDims::new(nx, ny);
    // TPFA stream indices are the in-plane face indices.
    let pattern = tpfa_pattern();

    // --- static picture: roles per channel --------------------------------
    println!("== cardinal channels (Fig. 6): first-sender parity ==\n");
    for ch in &pattern.cardinals {
        println!(
            "color {} moves data {:?}, delivers the {:?} face:",
            ch.color.id(),
            ch.send_dir,
            Neighbor::from_face_index(ch.stream)
        );
        for row in 0..ny {
            let mut line = String::from("   ");
            for col in 0..nx {
                let c = PeCoord::new(col, row);
                let mark = if !ch.has_sender(dims, c) {
                    'F' // fixed Sending (trailing edge)
                } else if ch.is_first_sender(dims, c) {
                    'S' // switchable, starts Sending
                } else {
                    'R' // switchable, starts Receiving
                };
                line.push(mark);
                line.push(' ');
            }
            println!("{line}");
        }
        println!();
    }

    println!("== diagonal families (Fig. 5): 3-phase colors ==\n");
    for fam in &pattern.diagonals {
        let src = PeCoord::new(2, 2);
        println!(
            "family {:?}->{:?} delivers {:?}: PE (2,2) sources color {}, \
             receives color {}",
            fam.leg1,
            fam.leg2,
            Neighbor::from_face_index(fam.stream),
            fam.source_color(src).id(),
            fam.receive_color(src).id()
        );
    }

    // --- dynamic picture: run one exchange and inspect the outcome --------
    let mesh = CartesianMesh3::new(Extents::new(nx, ny, nz), Spacing::uniform(1.0));
    let fluid = Fluid::water_like().without_gravity();
    let perm = PermeabilityField::uniform(&mesh, 1e-12);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .build()
        .unwrap();

    // Encode each cell's identity into its pressure so receives are traceable.
    let p: Vec<f32> = (0..mesh.num_cells()).map(|i| 1.0e7 + i as f32).collect();
    sim.apply(&p).expect("fabric run");

    println!("\n== after one application ==\n");
    let interior = (nx / 2, ny / 2);
    let c = sim.pe_counters(interior.0, interior.1);
    println!(
        "interior PE {:?}: {} wavelets received = 8 neighbors x 2 columns x nz({nz})",
        interior, c.fabric_loads
    );
    assert_eq!(c.fabric_loads, 16 * nz as u64);

    let corner = sim.pe_counters(0, 0);
    println!(
        "corner  PE (0,0): {} wavelets received = 3 neighbors x 2 columns x nz({nz})",
        corner.fabric_loads
    );
    assert_eq!(corner.fabric_loads, 6 * nz as u64);

    // Residuals still match the serial reference, proving the exchange
    // delivered the right columns to the right faces.
    let p64: Vec<f64> = p.iter().map(|&v| v as f64).collect();
    let mut reference = vec![0.0_f64; mesh.num_cells()];
    assemble_flux_residual(&mesh, &fluid, &trans, &p64, &mut reference);
    let got = sim.apply(&p).unwrap();
    let v = mdfv::fv::validate::Validation::compare("exchange", &reference, &got, 1e-3);
    println!("\n{v}");
    assert!(v.passed());
    println!("\nevery PE received exactly its 8 in-plane neighbors' data — Figs. 5/6 verified");
}
