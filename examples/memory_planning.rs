//! PE memory planning and the §5.3.1 buffer-reuse ablation.
//!
//! "Reducing the memory consumption on each PE is crucial to fit the
//! largest possible problem ... by minimizing the amount of memory the
//! implementation requires, larger problems can be solved." This example
//! quantifies that: the largest column height Nz a 48 kB PE can hold with
//! and without the hand-crafted buffer reuse, and the memory map of the
//! paper's production column (Nz = 246).
//!
//! ```text
//! cargo run --example memory_planning
//! ```

use mdfv::dataflow::layout::ColumnLayout;
use mdfv::dataflow::MemoryPlan;
use mdfv::wse::memory::WSE2_PE_MEMORY_BYTES;

fn main() {
    let words = WSE2_PE_MEMORY_BYTES / 4;
    println!("WSE-2 PE scratchpad: {WSE2_PE_MEMORY_BYTES} bytes = {words} f32 words\n");

    // Memory map of the paper's production column.
    let nz = 246;
    let plan = MemoryPlan::for_nz(nz);
    println!("memory map for Nz = {nz} (the paper's production mesh):");
    println!("  own pressure  (ghosted)   {:>6} words", plan.p_own);
    println!("  own density   (ghosted)   {:>6} words", plan.rho_own);
    println!("  residual                  {:>6} words", plan.residual);
    println!("  transmissibility x10      {:>6} words", plan.trans);
    println!("  receive buffers 8x2       {:>6} words", plan.recv);
    println!("  reused temporaries x3     {:>6} words", plan.temps);
    println!("  program state             {:>6} words", plan.state);
    println!(
        "  total                     {:>6} words = {:.1} kB of 48 kB ({:.0}% full)",
        plan.total_words(),
        plan.total_words() as f64 * 4.0 / 1024.0,
        100.0 * plan.total_words() as f64 / words as f64
    );
    assert!(plan.fits(words));

    // The ablation: reuse on vs off.
    let with = MemoryPlan::max_nz(words);
    let without = MemoryPlan::max_nz_without_reuse(words);
    println!("\nbuffer-reuse ablation (§5.3.1):");
    println!("  max Nz with reused temporaries:    {with}");
    println!("  max Nz with per-face scratch:      {without}");
    println!(
        "  -> reuse fits a {:.0}% taller column",
        100.0 * (with as f64 / without as f64 - 1.0)
    );
    let needed = MemoryPlan::for_nz(246).total_words_without_reuse();
    println!(
        "  the paper's Nz = 246 column needs {} words without reuse — {}",
        needed,
        if needed > words {
            "does NOT fit; the optimization is load-bearing"
        } else {
            "fits"
        }
    );

    // The concrete word-level layout host and PE agree on.
    let layout = ColumnLayout::new(8);
    println!("\nword-level layout for a toy Nz = 8 column:");
    println!(
        "  p_own @ {:>4}..{:<4}  rho_own @ {:>4}..{:<4}  residual @ {:>4}..{:<4}",
        layout.p_own.offset,
        layout.p_own.offset + layout.p_own.len,
        layout.rho_own.offset,
        layout.rho_own.offset + layout.rho_own.len,
        layout.residual.offset,
        layout.residual.offset + layout.residual.len,
    );
    println!(
        "  trans[0] @ {}..{}  ...  recv_p[0] @ {}..{}  ...  temps[2] @ {}..{}",
        layout.trans[0].offset,
        layout.trans[0].offset + layout.trans[0].len,
        layout.recv_p[0].offset,
        layout.recv_p[0].offset + layout.recv_p[0].len,
        layout.temps[2].offset,
        layout.temps[2].offset + layout.temps[2].len,
    );
    println!(
        "  total {} words, then {} program state words",
        layout.total_words(),
        MemoryPlan::for_nz(8).state
    );
}
