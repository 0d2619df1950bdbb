//! Compares two `BENCH_<rev>.json` reports (see `perf_harness`).
//!
//! ```text
//! cargo run --release --bin perf_diff -- BASELINE.json CANDIDATE.json \
//!     [--threshold pct] [--strict] [--deterministic]
//! ```
//!
//! Prints the per-metric deltas and flags changes beyond the threshold
//! (default 10%) in each metric's worse direction. Report-only by default —
//! exits 0 even with regressions, so CI can surface the diff without
//! blocking merges on noisy shared runners; `--strict` exits 1 instead.
//!
//! `--deterministic` restricts the comparison to the simulated-cycle
//! metrics (everything except the `wall_clock_s/`, `events_per_s/`, and
//! `peak_rss_mb/` families — the last is machine-sized: allocator and
//! page-size dependent). The rest are exact functions of the program —
//! not of the machine — so the threshold drops to 0.00% and *any* change
//! in *any* direction counts as a regression, including `info` entries
//! and metrics missing from the candidate. CI runs this with `--strict`:
//! an engine optimization can never silently change simulated semantics.
//!
//! The `speedup/` family is **deterministic-adjacent**: a ratio of two
//! same-process throughput measurements, so machine noise largely cancels
//! but does not vanish. In `--deterministic` mode it stays in the
//! comparison with a generous worse-direction tolerance
//! ([`RATIO_TOLERANCE_PCT`]) instead of the exact-match rule — the gate
//! that keeps the sharded engine from falling behind sequential, at the
//! level the committed baseline achieved.

use wse_prof::{bench_diff, BenchReport};

/// Worse-direction tolerance for the `speedup/` ratio family in
/// `--deterministic` mode (see the module docs).
const RATIO_TOLERANCE_PCT: f64 = 25.0;

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading bench report {path}: {e}"));
    BenchReport::from_json(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = positional.as_slice() else {
        eprintln!("usage: perf_diff BASELINE.json CANDIDATE.json [--threshold pct] [--strict]");
        std::process::exit(2);
    };
    let threshold = args
        .iter()
        .position(|a| a == "--threshold")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(10.0);
    let strict = args.iter().any(|a| a == "--strict");
    let deterministic = args.iter().any(|a| a == "--deterministic");

    let mut a = load(a_path);
    let mut b = load(b_path);
    if deterministic {
        let is_machine = |name: &str| {
            name.starts_with("wall_clock_s/")
                || name.starts_with("events_per_s/")
                || name.starts_with("peak_rss_mb/")
        };
        a.entries.retain(|e| !is_machine(&e.name));
        b.entries.retain(|e| !is_machine(&e.name));
    }
    println!("baseline:  {} (rev {})", a_path, a.rev);
    println!("candidate: {} (rev {})\n", b_path, b.rev);
    let mut diff = bench_diff(&a, &b, if deterministic { 0.0 } else { threshold });
    if deterministic {
        for line in &mut diff.lines {
            if line.name.starts_with("speedup/") {
                // Deterministic-adjacent ratio: blocking, but only on a
                // substantial move in the worse (lower) direction.
                line.regressed = line.delta_pct < -RATIO_TOLERANCE_PCT;
            } else {
                // Deterministic metrics admit no direction and no tolerance.
                line.regressed = line.delta_pct != 0.0;
            }
        }
    }
    print!("{diff}");

    let failed = diff.has_regressions() || (deterministic && !diff.missing_in_b.is_empty());
    if strict && failed {
        std::process::exit(1);
    }
}
