//! Shared CLI parsing for the benchmark binaries.
//!
//! Every table/figure generator accepts the same flag family; parsing it
//! used to be copy-pasted per binary. [`CommonArgs`] centralizes it:
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
//!   there on exit (see [`crate::metrics_hub`] / [`crate::export_metrics`]);
//! * `--stencil tpfa|laplace7|wave` — which compiled workload to drive
//!   (default `tpfa`, the paper's kernel; binaries that only make sense for
//!   one workload may ignore it).

use std::str::FromStr;

use tpfa_dataflow::RecoveryPolicy;
use wse_sim::fabric::Execution;
use wse_sim::fault::FaultPlan;
use wse_sim::geometry::FabricDims;
use wse_sim::trace::{
    profile_request_from_arg_slice, trace_request_from_arg_slice, ProfileRequest, TraceRequest,
};

/// Which compiled stencil workload a benchmark binary drives
/// (`--stencil`). All three run through the same `builder.workload(...)`
/// path of the generic simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StencilArg {
    /// The paper's ten-point TPFA flux kernel (the default).
    #[default]
    Tpfa,
    /// The 7-point Laplacian (cardinal-only compiled pattern).
    Laplace7,
    /// The second-order seismic wave stencil (full in-plane ring).
    Wave,
}

impl StencilArg {
    /// Parses a `--stencil` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "tpfa" => Ok(Self::Tpfa),
            "laplace7" => Ok(Self::Laplace7),
            "wave" => Ok(Self::Wave),
            other => Err(format!(
                "bad value for --stencil: {other:?} (expected tpfa, laplace7 or wave)"
            )),
        }
    }

    /// The workload name as the stencil compiler spells it.
    pub fn name(self) -> &'static str {
        match self {
            Self::Tpfa => "tpfa",
            Self::Laplace7 => "laplace7",
            Self::Wave => "wave",
        }
    }
}

/// The flag set shared by all benchmark binaries, parsed once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// Fabric engine (`--shards`/`--threads`; sequential when absent).
    pub execution: Execution,
    /// `--trace` request, if any.
    pub trace: Option<TraceRequest>,
    /// `--profile` request, if any.
    pub profile: Option<ProfileRequest>,
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
    /// `--stencil <workload>` (default [`StencilArg::Tpfa`]).
    pub stencil: StencilArg,
}

impl CommonArgs {
    /// Parses the common flags from an argument slice. Unknown flags are
    /// ignored (binaries may have extras); missing or malformed values of
    /// the known flags are an error.
    pub fn from_slice(args: &[String]) -> Result<Self, String> {
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
        let stencil = match flag::<String>(args, "--stencil")? {
            None => StencilArg::default(),
            Some(v) => StencilArg::parse(&v)?,
        };
        Ok(Self {
            execution,
            trace: trace_request_from_arg_slice(args)?,
            profile: profile_request_from_arg_slice(args)?,
            fault_seed: flag(args, "--faults")?,
            recovery,
            checkpoint: flag(args, "--checkpoint")?,
            resume: flag(args, "--resume")?,
            metrics: flag(args, "--metrics")?,
            stencil,
        })
    }

    /// [`CommonArgs::from_slice`] over the process's own CLI arguments,
    /// exiting with the parse error on bad input.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        or_exit(Self::from_slice(&args))
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
/// flag is absent, an error when its value is missing or malformed — a
/// typo in a flag value is never a silent default.
pub fn flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(at + 1)
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

    #[test]
    fn defaults_with_no_flags() {
        let args = CommonArgs::from_slice(&to_args("")).unwrap();
        assert_eq!(args.execution, Execution::Sequential);
        assert_eq!(args.trace, None);
        assert_eq!(args.profile, None);
        assert_eq!(args.fault_seed, None);
        assert_eq!(args.recovery, RecoveryPolicy::Fail);
        assert_eq!(args.checkpoint, None);
        assert_eq!(args.resume, None);
        assert_eq!(args.metrics, None);
        assert_eq!(args.stencil, StencilArg::Tpfa);
    }

    #[test]
    fn parses_the_full_flag_family() {
        let args = CommonArgs::from_slice(&to_args(
            "--shards 4 --threads 2 --trace t.json --profile p.json --trace-cap 64 \
             --faults 7 --recovery retry:5:100 --checkpoint c.bin --resume r.bin \
             --metrics m.prom --stencil wave",
        ))
        .unwrap();
        assert_eq!(
            args.execution,
            Execution::Sharded {
                shards: 4,
                threads: 2
            }
        );
        assert_eq!(args.trace.as_ref().unwrap().path, "t.json");
        assert_eq!(args.trace.as_ref().unwrap().capacity, 64);
        assert_eq!(args.profile.as_ref().unwrap().path, "p.json");
        assert_eq!(args.fault_seed, Some(7));
        assert_eq!(args.checkpoint.as_deref(), Some("c.bin"));
        assert_eq!(args.resume.as_deref(), Some("r.bin"));
        assert_eq!(args.metrics.as_deref(), Some("m.prom"));
        assert_eq!(args.stencil, StencilArg::Wave);
        assert_eq!(
            args.recovery,
            RecoveryPolicy::Retry {
                max_attempts: 5,
                backoff: 100
            }
        );
    }

    #[test]
    fn shard_count_zero_is_sequential_and_threads_default_within_the_shards() {
        let zero = CommonArgs::from_slice(&to_args("--shards 0")).unwrap();
        assert_eq!(zero.execution, Execution::Sequential);
        match CommonArgs::from_slice(&to_args("--shards 4"))
            .unwrap()
            .execution
        {
            Execution::Sharded { shards: 4, threads } => assert!((1..=4).contains(&threads)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_values() {
        assert!(CommonArgs::from_slice(&to_args("--shards four")).is_err());
        // `--threads` is never ignored: malformed, without `--shards`, or 0.
        assert!(CommonArgs::from_slice(&to_args("--threads abc")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--threads 2")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--shards 4 --threads 0")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--faults abc")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--recovery sometimes")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--stencil biharmonic")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--trace t.json --trace-cap abc")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--trace t.json --trace-cap")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--trace --shards 4")).is_err());
        assert!(CommonArgs::from_slice(&to_args("--profile --trace-cap 64")).is_err());
        // The extra flags of single binaries go through the same parser.
        assert!(flag::<f64>(&to_args("--max-rss-mb 3l36"), "--max-rss-mb").is_err());
        assert!(flag::<f64>(&to_args("--shards 4 --budget-s"), "--budget-s").is_err());
        assert!(flag::<usize>(&to_args("--schedules -1"), "--schedules").is_err());
        assert_eq!(flag::<f64>(&to_args("--shards 4"), "--budget-s"), Ok(None));
    }

    #[test]
    fn stencil_flag_selects_each_workload() {
        for (value, want) in [
            ("tpfa", StencilArg::Tpfa),
            ("laplace7", StencilArg::Laplace7),
            ("wave", StencilArg::Wave),
        ] {
            let args = CommonArgs::from_slice(&to_args(&format!("--stencil {value}"))).unwrap();
            assert_eq!(args.stencil, want);
            assert_eq!(args.stencil.name(), value);
        }
    }

    #[test]
    fn fault_plan_is_empty_without_the_flag_and_seeded_with_it() {
        let dims = FabricDims::new(4, 4);
        let off = CommonArgs::from_slice(&to_args("")).unwrap();
        assert!(off.fault_plan(dims, 1000, 3).is_empty());
        let on = CommonArgs::from_slice(&to_args("--faults 42")).unwrap();
        let a = on.fault_plan(dims, 1000, 3);
        let b = on.fault_plan(dims, 1000, 3);
        assert!(!a.is_empty());
        assert_eq!(a, b, "seeded plans are deterministic");
    }
}
