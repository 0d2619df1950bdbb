//! Shared CLI parsing for the harness binaries and the quickstart example.
//!
//! The common flag family, parsed once by [`CommonArgs`] (quickstart
//! accepts all of it; each harness binary only the flags it reads):
//!
//! * `--shards N [--threads M]` — fabric engine selection (`Sequential`,
//!   one strip on the calling thread, when absent or 0; `--threads` needs
//!   `--shards N ≥ 1` and is at least 1);
//! * `--trace out.json [--trace-cap N]` — Chrome-JSON event trace export;
//! * `--profile out.json [--trace-cap N]` — cycle attribution + critical
//!   path export;
//! * `--faults <seed>` — install a randomized seeded
//!   [`wse_sim::fault::FaultPlan`] (fault injection off when absent);
//! * `--recovery fail|retry[:attempts[:backoff]]|degrade` — what the
//!   driver does when a fault is detected (default `fail`);
//! * `--checkpoint <path>` / `--resume <path>` — write a mid-application
//!   fabric checkpoint / restore one and finish the run bit-identically
//!   (see [`crate::run_checkpoint_demo`]);
//! * `--metrics <path>` — collect runtime telemetry into a live
//!   [`wse_metrics::MetricsHub`] and write the Prometheus text exposition
//!   there on exit (see [`crate::metrics_hub`] / [`crate::export_metrics`]).
//!
//! A binary declares every flag it reads, common or its own; any other
//! flag, and any stray positional argument, is an error, never silently
//! ignored.

use std::str::FromStr;

use tpfa_dataflow::RecoveryPolicy;
use wse_sim::fabric::Execution;
use wse_sim::fault::FaultPlan;
use wse_sim::geometry::FabricDims;
use wse_sim::trace::{TraceSpec, DEFAULT_RING_CAPACITY};

/// The flag set shared by all benchmark binaries, parsed once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// Fabric engine (`--shards`/`--threads`; sequential when absent).
    pub execution: Execution,
    /// `--trace <path>`: write the Chrome trace JSON here.
    pub trace: Option<String>,
    /// `--profile <path>`: write the profile JSON here.
    pub profile: Option<String>,
    /// `--trace-cap <events>`: per-PE ring capacity of a traced or
    /// profiled run (default [`DEFAULT_RING_CAPACITY`]).
    pub trace_cap: usize,
    /// `--faults <seed>`: seed for a randomized fault plan, if any.
    pub fault_seed: Option<u64>,
    /// `--recovery <policy>` (default [`RecoveryPolicy::Fail`]).
    pub recovery: RecoveryPolicy,
    /// `--checkpoint <path>`: write a mid-application checkpoint here.
    pub checkpoint: Option<String>,
    /// `--resume <path>`: restore a checkpoint from here and finish it.
    pub resume: Option<String>,
    /// `--metrics <path>`: write the Prometheus text exposition here.
    pub metrics: Option<String>,
}

/// The flags [`CommonArgs`] parses, each followed by a value — the whole
/// family quickstart accepts.
pub const COMMON_FLAGS: [&str; 10] = [
    "--shards",
    "--threads",
    "--trace",
    "--trace-cap",
    "--profile",
    "--faults",
    "--recovery",
    "--checkpoint",
    "--resume",
    "--metrics",
];

impl CommonArgs {
    /// Parses the common flags from an argument slice. `flags` names every
    /// flag the calling binary reads that takes a value — the common ones
    /// it honours and its own, which it reads itself with [`flag`] — and
    /// `switches` those that take none. Missing or malformed values, any
    /// other flag (a common one included) and stray positional arguments
    /// are an error.
    pub fn from_slice(args: &[String], flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            if flags.contains(&arg.as_str()) {
                // Its value, unless that is missing ([`flag`] reports it).
                rest.next_if(|v| !v.starts_with("--"));
            } else if !switches.contains(&arg.as_str()) {
                return Err(if arg.starts_with('-') {
                    format!("unknown flag {arg}")
                } else {
                    format!("unexpected argument {arg:?}")
                });
            }
        }
        let execution = match (flag(args, "--shards")?, flag::<usize>(args, "--threads")?) {
            (None | Some(0), None) => Execution::Sequential,
            (None | Some(0), Some(_)) => {
                return Err("--threads needs --shards N with N >= 1".to_string())
            }
            (Some(_), Some(0)) => return Err("bad value for --threads: \"0\"".to_string()),
            (Some(shards), threads) => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                let threads = threads.unwrap_or_else(|| shards.min(cores));
                Execution::Sharded { shards, threads }
            }
        };
        let recovery = match flag::<String>(args, "--recovery")? {
            None => RecoveryPolicy::Fail,
            Some(v) => RecoveryPolicy::parse(&v)?,
        };
        Ok(Self {
            execution,
            trace: flag(args, "--trace")?,
            profile: flag(args, "--profile")?,
            trace_cap: flag(args, "--trace-cap")?.unwrap_or(DEFAULT_RING_CAPACITY),
            fault_seed: flag(args, "--faults")?,
            recovery,
            checkpoint: flag(args, "--checkpoint")?,
            resume: flag(args, "--resume")?,
            metrics: flag(args, "--metrics")?,
        })
    }

    /// [`CommonArgs::from_slice`] over the process's own CLI arguments with
    /// the whole [`COMMON_FLAGS`] family and nothing else, exiting with the
    /// parse error on bad input.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        or_exit(Self::from_slice(&args, &COMMON_FLAGS, &[]))
    }

    /// The tracing the flags request: a ring of `--trace-cap` events per PE
    /// when `--trace` or `--profile` was given (a profile is replayed from
    /// the trace), off otherwise.
    pub fn trace_spec(&self) -> TraceSpec {
        if self.trace.is_some() || self.profile.is_some() {
            TraceSpec::ring(self.trace_cap)
        } else {
            TraceSpec::OFF
        }
    }

    /// Human-readable engine label for benchmark headers.
    pub fn execution_label(&self) -> String {
        crate::execution_label(self.execution)
    }

    /// The fault plan the flags request for a fabric of `dims`:
    /// `n_faults` randomized faults over `[1, horizon]` when `--faults` was
    /// given, empty otherwise.
    pub fn fault_plan(&self, dims: FabricDims, horizon: u64, n_faults: usize) -> FaultPlan {
        match self.fault_seed {
            Some(seed) => FaultPlan::randomized(seed, dims, horizon, n_faults),
            None => FaultPlan::new(),
        }
    }
}

/// The value after `name` in `args`, parsed as `T`: `Ok(None)` when the
/// flag is absent, an error when its value is missing (the last argument,
/// or another `--flag`) or malformed — a typo in a flag value is never a
/// silent default.
pub fn flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(at + 1)
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("missing value for {name}"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("bad value for {name}: {value:?}"))
}

/// The parsed value, or exit 2 with `error: <why>` on stderr: how every
/// binary reports a bad command line.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|why| {
        eprintln!("error: {why}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Parses `s` the way quickstart does: the whole common family.
    fn parse(s: &str) -> Result<CommonArgs, String> {
        CommonArgs::from_slice(&to_args(s), &COMMON_FLAGS, &[])
    }

    #[test]
    fn defaults_with_no_flags() {
        let args = parse("").unwrap();
        assert_eq!(args.execution, Execution::Sequential);
        assert_eq!(args.trace, None);
        assert_eq!(args.profile, None);
        assert_eq!(args.trace_spec(), TraceSpec::OFF);
        assert_eq!(args.fault_seed, None);
        assert_eq!(args.recovery, RecoveryPolicy::Fail);
        assert_eq!(args.checkpoint, None);
        assert_eq!(args.resume, None);
        assert_eq!(args.metrics, None);
    }

    #[test]
    fn parses_the_full_flag_family() {
        let args = parse(
            "--shards 4 --threads 2 --trace t.json --profile p.json --trace-cap 64 \
             --faults 7 --recovery retry:5:100 --checkpoint c.bin --resume r.bin \
             --metrics m.prom",
        )
        .unwrap();
        assert_eq!(
            args.execution,
            Execution::Sharded {
                shards: 4,
                threads: 2
            }
        );
        assert_eq!(args.trace.as_deref(), Some("t.json"));
        assert_eq!(args.profile.as_deref(), Some("p.json"));
        assert_eq!(args.trace_spec(), TraceSpec::ring(64));
        assert_eq!(args.fault_seed, Some(7));
        assert_eq!(args.checkpoint.as_deref(), Some("c.bin"));
        assert_eq!(args.resume.as_deref(), Some("r.bin"));
        assert_eq!(args.metrics.as_deref(), Some("m.prom"));
        assert_eq!(
            args.recovery,
            RecoveryPolicy::Retry {
                max_attempts: 5,
                backoff: 100
            }
        );
    }

    #[test]
    fn parses_trace_flag_with_and_without_cap() {
        assert_eq!(parse("--shards 4").unwrap().trace, None);
        let plain = parse("--trace out.json").unwrap();
        assert_eq!(plain.trace.as_deref(), Some("out.json"));
        assert_eq!(plain.trace_spec(), TraceSpec::ring(DEFAULT_RING_CAPACITY));
        let capped = parse("--shards 4 --trace t.json --trace-cap 128").unwrap();
        assert_eq!(capped.trace.as_deref(), Some("t.json"));
        assert_eq!(capped.trace_spec(), TraceSpec::ring(128));
        // `--trace` immediately followed by another flag has no path.
        assert_eq!(
            parse("--trace --trace-cap 128").unwrap_err(),
            "missing value for --trace"
        );
    }

    #[test]
    fn parses_profile_flag_with_shared_cap() {
        let plain = parse("--profile p.json").unwrap();
        assert_eq!(plain.profile.as_deref(), Some("p.json"));
        assert_eq!(plain.trace, None);
        // Profiling replays a trace, so it turns the ring on by itself.
        assert_eq!(plain.trace_spec(), TraceSpec::ring(DEFAULT_RING_CAPACITY));
        let both = parse("--trace t.json --profile p.json --trace-cap 64").unwrap();
        assert_eq!(both.profile.as_deref(), Some("p.json"));
        assert_eq!(both.trace_spec(), TraceSpec::ring(64));
        assert_eq!(
            parse("--profile --trace-cap 64").unwrap_err(),
            "missing value for --profile"
        );
    }

    #[test]
    fn shard_count_zero_is_sequential_and_threads_default_within_the_shards() {
        let zero = parse("--shards 0").unwrap();
        assert_eq!(zero.execution, Execution::Sequential);
        match parse("--shards 4").unwrap().execution {
            Execution::Sharded { shards: 4, threads } => assert!((1..=4).contains(&threads)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_values() {
        assert!(parse("--shards four").is_err());
        // `--threads` is never ignored: malformed, without `--shards`, or 0.
        assert!(parse("--threads abc").is_err());
        assert!(parse("--threads 2").is_err());
        assert!(parse("--shards 4 --threads 0").is_err());
        assert!(parse("--faults abc").is_err());
        assert!(parse("--recovery sometimes").is_err());
        assert!(parse("--trace t.json --trace-cap abc").is_err());
        assert!(parse("--trace t.json --trace-cap").is_err());
        assert_eq!(
            parse("--trace --shards 4").unwrap_err(),
            "missing value for --trace"
        );
        assert!(parse("--profile --trace-cap 64").is_err());
        // The extra flags of single binaries go through the same parser.
        assert!(flag::<f64>(&to_args("--max-rss-mb 3l36"), "--max-rss-mb").is_err());
        assert!(flag::<f64>(&to_args("--shards 4 --budget-s"), "--budget-s").is_err());
        assert!(flag::<usize>(&to_args("--schedules -1"), "--schedules").is_err());
        assert_eq!(flag::<f64>(&to_args("--shards 4"), "--budget-s"), Ok(None));
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_refused() {
        assert_eq!(
            parse("--shard 4").unwrap_err(),
            "unknown flag --shard",
            "a misspelt flag never falls back to the default engine"
        );
        assert_eq!(
            parse("--shards 4 table2").unwrap_err(),
            "unexpected argument \"table2\""
        );
        assert_eq!(parse("--apps 3").unwrap_err(), "unknown flag --apps");
        // A binary's declared flags pass, and their values are not strays.
        let top = ["--shards", "--threads", "--metrics", "--jobs", "--apps"];
        let own = CommonArgs::from_slice(
            &to_args("--apps 3 --shards 2 --plain --metrics m.prom"),
            &top,
            &["--plain"],
        )
        .unwrap();
        assert!(matches!(
            own.execution,
            Execution::Sharded { shards: 2, .. }
        ));
        // A common flag the binary does not read is refused like any other
        // (`serve --trace t.json` would otherwise write nothing and exit 0).
        for common in [
            "--trace",
            "--trace-cap",
            "--profile",
            "--faults",
            "--checkpoint",
        ] {
            assert_eq!(
                CommonArgs::from_slice(&to_args(&format!("{common} 1")), &top, &["--plain"])
                    .unwrap_err(),
                format!("unknown flag {common}")
            );
        }
        let paper_mesh = ["--shards", "--threads", "--budget-s", "--max-rss-mb"];
        assert_eq!(
            CommonArgs::from_slice(&to_args("--metrics m.prom"), &paper_mesh, &[]).unwrap_err(),
            "unknown flag --metrics"
        );
        assert!(CommonArgs::from_slice(&to_args("--plain 3"), &[], &["--plain"]).is_err());
        // A common flag's value that looks like a flag is still its value.
        assert!(parse("--checkpoint -c.bin").is_ok());
    }

    #[test]
    fn fault_plan_is_empty_without_the_flag_and_seeded_with_it() {
        let dims = FabricDims::new(4, 4);
        let off = parse("").unwrap();
        assert!(off.fault_plan(dims, 1000, 3).is_empty());
        let on = parse("--faults 42").unwrap();
        let a = on.fault_plan(dims, 1000, 3);
        let b = on.fault_plan(dims, 1000, 3);
        assert!(!a.is_empty());
        assert_eq!(a, b, "seeded plans are deterministic");
    }
}
