//! `compare A.json B.json`: two result sets, metric by metric.

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Worse,
    WithinBound,
    /// The run-to-run spread exceeds the bound, so the bound cannot be
    /// tested.
    Unresolved,
    /// An exact count is the same on both sides.
    Equal,
    /// An exact count changed.
    Differs,
    /// A per-layer metric: no bound, shown for attribution.
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "info",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// The verdict on one metric of one workload, from every run of each side.
pub fn verdict(def: &MetricDef, end_to_end: bool, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if def.exact {
        let all_equal = a.iter().chain(b).all(|&v| v == ma);
        return if all_equal {
            Verdict::Equal
        } else {
            Verdict::Differs
        };
    }
    if !end_to_end {
        return Verdict::Info;
    }
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > def.bound));
    if noisy {
        // Resolved all the same when every run of B beats every run of A.
        let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if b_always_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worsening > def.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

fn values(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the comparison; `Ok(true)` when no verdict fails.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("result file has no `workloads` object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    for (label, doc) in [("A", a), ("B", b)] {
        if let Some(h) = doc.get("header") {
            println!("{label}: {}", h.render());
        }
    }
    let mut ok = true;
    for (name, run_a) in &wa {
        let Some((_, run_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("\n{name}: only in A");
            continue;
        };
        println!("\n{name}");
        println!(
            "  {:<38} {:>13} {:>13} {:>9} {:>7} {:>8} {:>8}  verdict",
            "metric", "A (base)", "B", "B/A", "bound", "spreadA", "spreadB"
        );
        let metrics_a = run_a.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (metric, entry_a) in metrics_a {
            let Some(entry_b) = run_b.get("metrics").and_then(|m| m.get(metric)) else {
                continue;
            };
            let Some(def) = metrics::find(metric) else {
                continue;
            };
            let (va, vb) = (values(entry_a), values(entry_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let end_to_end = metrics::END_TO_END.iter().any(|d| d.name == def.name);
            let v = verdict(def, end_to_end, &va, &vb);
            ok &= !v.fails();
            let (ma, mb) = (median(&va), median(&vb));
            let pct = |s: Option<f64>| s.map_or("-".into(), |s| format!("{:.2}%", 100.0 * s));
            println!(
                "  {:<38} {:>13.6e} {:>13.6e} {:>9.4} {:>7} {:>8} {:>8}  {} [{}]",
                metric,
                ma,
                mb,
                if ma != 0.0 { mb / ma } else { f64::NAN },
                if end_to_end {
                    format!("{:.2}", def.bound)
                } else {
                    "-".into()
                },
                pct(spread(&va)),
                pct(spread(&vb)),
                v.as_str(),
                def.unit,
            );
        }
        for (side, run) in [("A", run_a), ("B", run_b)] {
            if run.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("  {side}: output checks FAILED");
                ok = false;
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "no metric is worse"
        } else {
            "FAILED: see the verdicts above"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn within_bound_worse_and_unresolved() {
        let apply = &MetricDef {
            bound: 0.10,
            ..*def("apply_s")
        };
        let a = [1.00, 1.01, 0.99, 1.00, 1.00];
        assert_eq!(
            verdict(apply, true, &a, &[1.05, 1.06, 1.05, 1.04, 1.05]),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(apply, true, &a, &[1.15, 1.16, 1.15, 1.14, 1.15]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(apply, true, &a, &[0.80, 0.81, 0.80, 0.79, 0.80]),
            Verdict::WithinBound
        );
        // B is so noisy that the bound cannot be tested
        assert_eq!(
            verdict(apply, true, &a, &[0.8, 1.4, 1.0, 1.3, 0.7]),
            Verdict::Unresolved
        );
        // noisy, but every run of B beats every run of A
        assert_eq!(
            verdict(apply, true, &a, &[0.5, 0.9, 0.6, 0.8, 0.7]),
            Verdict::WithinBound
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let rate = MetricDef {
            name: "rate",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
            exact: false,
        };
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(&rate, true, &a, &[85.0, 86.0, 85.0, 84.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&rate, true, &a, &[120.0, 121.0, 119.0, 120.0]),
            Verdict::WithinBound
        );
    }

    #[test]
    fn exact_counts_must_be_equal() {
        let events = def("wse-sim.events");
        assert_eq!(
            verdict(events, false, &[5.0, 5.0], &[5.0, 5.0]),
            Verdict::Equal
        );
        assert_eq!(
            verdict(events, false, &[5.0, 5.0], &[5.0, 6.0]),
            Verdict::Differs
        );
        let cycles = def("sim_cycles_per_apply");
        assert_eq!(verdict(cycles, true, &[9.0], &[10.0]), Verdict::Differs);
        assert!(Verdict::Differs.fails() && Verdict::Worse.fails());
        assert!(!Verdict::Unresolved.fails());
        assert_eq!(
            verdict(def("wse-sim.run_s"), false, &[1.0], &[9.0]),
            Verdict::Info
        );
    }
}
