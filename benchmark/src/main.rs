//! The repository benchmark: six workloads, end-to-end and per-layer
//! host-time metrics, measured from outside through the public API. See
//! `benchmark/README.md`.
//!
//! ```text
//! mdfv-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, result on the last line
//! mdfv-benchmark [--out R.json] [--seed N] [--seconds S] [--repeats R] [--traced] [--smoke] [--workload W]
//!                                                               a set: every run in its own child process
//! mdfv-benchmark compare A.json B.json
//! mdfv-benchmark manifest                                        prints BENCHMARK.json from the registry
//! ```

mod compare;
mod direct;
mod env;
mod json;
mod layers;
mod metrics;
mod problem;
mod serve;
mod span;
mod stats;
mod workloads;

use json::Json;
use metrics::{Measured, END_TO_END, PER_LAYER};
use problem::Res;
use span::Tracer;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

/// Options of one workload run.
pub struct Opts {
    pub seed: u64,
    /// How long the steady-operation loop measures.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny problem sizes: checks the harness, measures nothing useful.
    pub smoke: bool,
    /// Test hook: flips one bit of the last output before it is checked.
    pub corrupt: bool,
    pub nproc: usize,
}

/// Operations attempted and failed: applies, builds, round trips, jobs and
/// output checks all count.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// One operation that completed (a failing one aborts the run).
    pub fn op(&mut self) {
        self.attempted += 1;
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        if ok {
            println!("  check ok: {what}");
        }
        self.check_quiet(what, ok);
    }

    /// A check made once per job: only failures are printed.
    pub fn check_quiet(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("  check FAILED: {what}");
        }
    }
}

/// The `--corrupt` hook: flips the top exponent bit of the first value.
pub fn flip_bit(field: &mut [f32]) {
    if let Some(v) = field.first_mut() {
        *v = f32::from_bits(v.to_bits() ^ (1 << 30));
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    corrupt: bool,
    out: Option<String>,
    repeats: usize,
    results_dir: String,
}

impl Args {
    fn run_seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.5 } else { RUN_SECONDS })
    }
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        corrupt: false,
        out: None,
        repeats: 3,
        results_dir: "benchmark/results".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Res<T> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = num(flag, value()?)?,
            "--seconds" => parsed.seconds = Some(num(flag, value()?)?),
            "--trace" => parsed.traced = num::<u8>(flag, value()?)? != 0,
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--corrupt" => parsed.corrupt = true,
            "--out" => parsed.out = Some(value()?),
            "--repeats" => parsed.repeats = num(flag, value()?)?,
            "--results-dir" => parsed.results_dir = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if parsed.repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    Ok(parsed)
}

/// Runs one workload in this process; the last line printed is the result
/// object. `Ok(true)` when every check passed.
fn run_one(w: &Workload, args: &Args) -> Res<bool> {
    let o = Opts {
        seed: args.seed,
        seconds: args.run_seconds(),
        traced: args.traced,
        smoke: args.smoke,
        corrupt: args.corrupt,
        nproc: env::nproc(),
    };
    println!(
        "== {} (seed {}, {} s, {}{}) ==",
        w.name,
        o.seed,
        o.seconds,
        if o.traced { "traced" } else { "untraced" },
        if o.smoke { ", smoke" } else { "" }
    );
    println!("{}", w.why);
    println!("{}", env::header(o.seed).render());
    if w.threads(o.nproc) > o.nproc {
        return Err(format!(
            "{} runs simulator code on {} threads but this machine has {}",
            w.name,
            w.threads(o.nproc),
            o.nproc
        ));
    }
    let started = Instant::now();
    let mut tr = Tracer::new(o.traced, started, 0);
    let mut m = Measured::default();
    let mut ledger = Ledger::default();

    // The direct phases; for `serve-mix` only the traced run needs them,
    // to attribute the served problem's cost to the layers below the server.
    if w.serve.is_none() || o.traced {
        let mut run = direct::run(w, &o, &mut tr, &mut m, &mut ledger)?;
        let (serial_s, mut twin) = direct::check_outputs(w, &run, &mut ledger)?;
        if o.traced {
            layers::measure(
                w,
                &o,
                &mut run,
                serial_s,
                twin.as_mut(),
                &mut tr,
                &mut m,
                &mut ledger,
            )?;
        }
    }
    if let Some(mix) = w.serve {
        serve::run(w, mix, &o, started, &mut tr, &mut m, &mut ledger)?;
    }
    let working_set_mb = env::status_mb("VmRSS:").unwrap_or(0.0);

    let defs = if o.traced { PER_LAYER } else { END_TO_END };
    if o.traced {
        let spans = tr.spans();
        let coverage = ["apply", "setup"]
            .iter()
            .filter_map(|name| span::min_coverage(spans, name))
            .fold(1.0, f64::min);
        m.set("bench.span_coverage_min", coverage, spans.len());
        println!("\n  self time by span ({} spans)", spans.len());
        println!(
            "  {:<32} {:>8} {:>12} {:>12}",
            "span", "count", "total s", "self s"
        );
        for (name, count, total_s, self_s) in span::self_time_table(spans) {
            println!("  {name:<32} {count:>8} {total_s:>12.6} {self_s:>12.6}");
        }
        let path = format!("{}/trace-{}.json", args.results_dir, w.name);
        std::fs::create_dir_all(&args.results_dir)
            .and_then(|()| std::fs::write(&path, span::chrome_trace(spans).render()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  Chrome trace written to {path}");
        ledger.check(
            "child spans cover at least 98% of every apply and setup span",
            coverage >= 0.98,
        );
    }
    m.set(
        "bench.failed_share",
        ledger.failed as f64 / ledger.attempted as f64,
        ledger.attempted as usize,
    );
    if !o.traced {
        for d in END_TO_END {
            if !m.get(d.name).is_some_and(|v| v.is_finite() && v > 0.0) {
                return Err(format!("end-to-end metric {} was not measured", d.name));
            }
        }
    }

    println!("\n  metrics");
    m.print(defs);
    let correct = ledger.failed == 0;
    println!(
        "  {} operations and checks attempted, {} failed",
        ledger.attempted, ledger.failed
    );
    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(o.seed as f64)),
        ("traced", Json::Bool(o.traced)),
        ("working_set_mb", Json::Num(working_set_mb)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("samples", m.samples_object(defs)),
    ]);
    println!("detail: {}", detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ledger.attempted as f64)),
        ("failed", Json::Num(ledger.failed as f64)),
        ("metrics", m.result_object(defs)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// One workload's entry in a result set: every run's values.
#[derive(Default)]
struct SetEntry {
    failed_runs: usize,
    attempted: f64,
    failed: f64,
    working_set_mb: Vec<Json>,
    /// `(name, unit, values, sample counts)` in first-seen order.
    metrics: Vec<(String, Json, Vec<Json>, Vec<Json>)>,
}

impl SetEntry {
    /// Adds one child run from the last two lines it printed: the detail
    /// line and the result line. `Ok(true)` when the run was correct.
    fn absorb(&mut self, stdout: &str) -> Res<bool> {
        let mut lines = stdout.lines().rev();
        let result = Json::parse(lines.next().ok_or("child printed nothing")?)?;
        let detail = lines
            .next()
            .and_then(|l| l.strip_prefix("detail: "))
            .ok_or("child printed no detail line")
            .and_then(|l| Json::parse(l).map_err(|_| "child detail line is not JSON"))?;
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        self.failed_runs += usize::from(!correct);
        let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        self.attempted += number("attempted");
        self.failed += number("failed");
        self.working_set_mb
            .extend(detail.get("working_set_mb").cloned());
        for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let i = match self.metrics.iter().position(|(n, ..)| n == name) {
                Some(i) => i,
                None => {
                    let unit = m.get("unit").cloned().unwrap_or(Json::Null);
                    self.metrics
                        .push((name.clone(), unit, Vec::new(), Vec::new()));
                    self.metrics.len() - 1
                }
            };
            self.metrics[i].2.extend(m.get("value").cloned());
            self.metrics[i]
                .3
                .extend(detail.get("samples").and_then(|s| s.get(name)).cloned());
        }
        Ok(correct)
    }

    fn into_json(self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed_runs == 0)),
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("working_set_mb", Json::Arr(self.working_set_mb)),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .into_iter()
                        .map(|(name, unit, values, samples)| {
                            let entry = Json::obj([
                                ("unit", unit),
                                ("values", Json::Arr(values)),
                                ("samples", Json::Arr(samples)),
                            ]);
                            (name, entry)
                        }),
                ),
            ),
        ])
    }
}

/// A set: every workload `repeats` times untraced (seeds `seed`,
/// `seed + 1`, …) and, with `--traced`, once traced — each run in its own
/// child process, one after the other, so peak memory is per workload.
fn run_set(args: &Args) -> Res<bool> {
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workloads::find(name).ok_or(format!("unknown workload `{name}`"))?],
        None => WORKLOADS.iter().collect(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seconds = args.run_seconds();
    let repeats = if args.smoke { 1 } else { args.repeats };
    let mut all_correct = true;
    let mut entries = Vec::new();
    for w in selected {
        let mut entry = SetEntry::default();
        let runs = (0..repeats)
            .map(|r| (r, false))
            .chain(args.traced.then_some((0, true)));
        for (r, traced) in runs {
            let seed = args.seed + r as u64;
            let started = Instant::now();
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--results-dir", &args.results_dir])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if args.corrupt {
                cmd.arg("--corrupt");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("cannot start a child run: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let ok = entry.absorb(&stdout) == Ok(true) && out.status.success();
            println!(
                "{:<13} seed {seed} {} {:>6.1} s  {}",
                w.name,
                if traced { "traced  " } else { "untraced" },
                started.elapsed().as_secs_f64(),
                if ok { "ok" } else { "FAILED" }
            );
            if !ok {
                all_correct = false;
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
            } else if traced || args.smoke {
                // The traced run's tables are the point of running it.
                print!("{stdout}");
            }
        }
        entries.push((w.name.to_string(), entry.into_json()));
    }
    let doc = Json::obj([
        ("header", env::header(args.seed)),
        ("seconds", Json::Num(seconds)),
        ("repeats", Json::Num(repeats as f64)),
        ("workloads", Json::Obj(entries)),
    ]);
    if let Some(path) = &args.out {
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("result set written to {path}");
    }
    Ok(all_correct)
}

/// Seconds one run measures when `--seconds` is not given; `run_seconds`
/// in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;

/// `BENCHMARK.json`, rendered from the registry.
fn manifest() -> String {
    let metric = |d: &metrics::MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(d.bound)));
        }
        Json::obj(fields).render()
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(WORKLOADS
            .iter()
            .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]).render())
            .collect()),
        list(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        list(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
    )
}

fn real_main() -> Res<bool> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("manifest") {
        print!("{}", manifest());
        return Ok(true);
    }
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return Err("usage: compare A.json B.json".into());
        };
        let read = |path: &String| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("reading {path}: {e}"))
                .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
        };
        return compare::compare(&read(a)?, &read(b)?);
    }
    let args = parse_args(&args)?;
    match (&args.workload, &args.out) {
        (Some(name), None) => {
            let w = workloads::find(name).ok_or_else(|| {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload `{name}`; the workloads are {}",
                    names.join(", ")
                )
            })?;
            run_one(w, &args)
        }
        _ => run_set(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(!name_ok("-x") && !name_ok("a b") && !name_ok(""));
    }

    /// `BENCHMARK.json` at the repository root is the contract the driver
    /// reads; it must list exactly what this program emits.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
        let doc = Json::parse(&on_disk).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(text(j, "name"), d.name);
                assert_eq!(text(j, "unit"), d.unit);
                assert_eq!(text(j, "better"), d.better.as_str());
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    bounded.then_some(d.bound),
                    "{}",
                    d.name
                );
                assert!(
                    !bounded || d.bound <= 0.25,
                    "{}: the driver allows at most 0.25",
                    d.name
                );
            }
        }
        assert_eq!(
            doc.get("paths").map(Json::render).as_deref(),
            Some("[\"benchmark\"]")
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload tpfa-small --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("tpfa-small"), 7, Some(2.5), true)
        );
        assert!(!parse("--trace 0").unwrap().traced);
        for bad in [
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--bogus",
            "--repeats 0",
            "--trace yes",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn child_output_accumulates_into_a_set_entry() {
        let child = |v: f64| {
            format!(
                "noise\ndetail: {{\"working_set_mb\":12.5,\"samples\":{{\"apply_s\":40}}}}\n\
                 {{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{{\"apply_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}"
            )
        };
        let mut entry = SetEntry::default();
        assert_eq!(entry.absorb(&child(0.5)), Ok(true));
        assert_eq!(entry.absorb(&child(0.25)), Ok(true));
        assert!(entry.absorb("no result here").is_err());
        let entry = entry.into_json();
        assert_eq!(entry.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(entry.get("attempted").and_then(Json::as_f64), Some(20.0));
        let apply = entry.get("metrics").and_then(|m| m.get("apply_s")).unwrap();
        assert_eq!(
            apply.get("values").map(Json::render).as_deref(),
            Some("[0.5,0.25]")
        );
        assert_eq!(
            apply.get("samples").map(Json::render).as_deref(),
            Some("[40,40]")
        );
    }
}
