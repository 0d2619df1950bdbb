//! **paper** — every table and figure of the paper's evaluation: Tables
//! 1–4, Figure 8, the §7.2 energy comparison and the §5.2.2 diagonal
//! ablation.
//!
//! ```text
//! cargo run -p bench --release --bin paper -- [table1|table2|table3|table4|figure8|energy|ablation]
//! ```
//!
//! With no argument it prints all of them, each deterministic fragment
//! between the `<!-- paper:NAME -->` markers `EXPERIMENTS.md` embeds it
//! in, so a changed fragment can be pasted over the old one. Host-timed
//! rows (Table 1) and plot series (Figure 8) follow their fragment,
//! labelled, and are never embedded. `cargo test -p bench` checks every
//! embedded fragment against `EXPERIMENTS.md`. An unknown table name, a
//! flag or a second argument exits 2.

use bench::cli::or_exit;
use bench::paper::{select, Runs};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tables = or_exit(select(&args));
    let runs = Runs::measure();
    for (i, table) in tables.iter().enumerate() {
        let name = table.name;
        if i > 0 {
            println!();
        }
        print!(
            "<!-- paper:{name} -->\n\n{}\n<!-- /paper:{name} -->\n",
            (table.embedded)(&runs)
        );
        if let Some(printed) = table.printed {
            print!("\n{}", printed());
        }
    }
}
