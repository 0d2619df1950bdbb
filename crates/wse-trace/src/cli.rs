//! Shared parsing for the `--trace out.json [--trace-cap N]` and
//! `--profile out.json` flags used by the benchmark binaries and the
//! quickstart example.

use crate::sink::{TraceSpec, DEFAULT_RING_CAPACITY};

/// A parsed `--trace` request: where to write the Chrome JSON and how big
/// each per-PE ring should be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRequest {
    /// Output path for the Chrome `trace_event` JSON.
    pub path: String,
    /// Per-PE ring capacity in events.
    pub capacity: usize,
}

impl TraceRequest {
    /// The [`TraceSpec`] to put in `FabricConfig` / the simulator builder.
    pub fn spec(&self) -> TraceSpec {
        TraceSpec::ring(self.capacity)
    }
}

/// The value after `flag`: `Ok(None)` when the flag is absent, an error
/// when it is the last argument or is followed by another flag.
fn value_of<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("missing value for {flag}")),
    }
}

/// The per-PE ring capacity from `--trace-cap` (default
/// [`DEFAULT_RING_CAPACITY`]).
fn ring_capacity(args: &[String]) -> Result<usize, String> {
    match value_of(args, "--trace-cap")? {
        None => Ok(DEFAULT_RING_CAPACITY),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --trace-cap: {v:?}")),
    }
}

/// Parse `--trace <path> [--trace-cap <events>]` from an argument slice.
/// Returns `Ok(None)` when `--trace` is absent, and an error when it has no
/// path or `--trace-cap` is not a count.
pub fn trace_request_from_arg_slice(args: &[String]) -> Result<Option<TraceRequest>, String> {
    let Some(path) = value_of(args, "--trace")? else {
        return Ok(None);
    };
    Ok(Some(TraceRequest {
        path: path.clone(),
        capacity: ring_capacity(args)?,
    }))
}

/// A parsed `--profile` request: where to write the profile JSON and how
/// big each per-PE ring should be. Profiling implies tracing (the profile is
/// derived from the event trace), so the ring capacity is shared with
/// `--trace-cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRequest {
    /// Output path for the profile JSON.
    pub path: String,
    /// Per-PE ring capacity in events.
    pub capacity: usize,
}

impl ProfileRequest {
    /// The [`TraceSpec`] to put in `FabricConfig` / the simulator builder.
    pub fn spec(&self) -> TraceSpec {
        TraceSpec::ring(self.capacity)
    }
}

/// Parse `--profile <path> [--trace-cap <events>]` from an argument slice.
/// Returns `Ok(None)` when `--profile` is absent, and an error when it has
/// no path or `--trace-cap` is not a count.
pub fn profile_request_from_arg_slice(args: &[String]) -> Result<Option<ProfileRequest>, String> {
    let Some(path) = value_of(args, "--profile")? else {
        return Ok(None);
    };
    Ok(Some(ProfileRequest {
        path: path.clone(),
        capacity: ring_capacity(args)?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_trace_flag_with_and_without_cap() {
        assert_eq!(trace_request_from_arg_slice(&to_args("")), Ok(None));
        assert_eq!(
            trace_request_from_arg_slice(&to_args("--shards 4")),
            Ok(None)
        );
        assert_eq!(
            trace_request_from_arg_slice(&to_args("--trace out.json")),
            Ok(Some(TraceRequest {
                path: "out.json".into(),
                capacity: DEFAULT_RING_CAPACITY
            }))
        );
        assert_eq!(
            trace_request_from_arg_slice(&to_args("--shards 4 --trace t.json --trace-cap 128")),
            Ok(Some(TraceRequest {
                path: "t.json".into(),
                capacity: 128
            }))
        );
        // `--trace` immediately followed by another flag has no path.
        assert_eq!(
            trace_request_from_arg_slice(&to_args("--trace --trace-cap 128")),
            Err("missing value for --trace".into())
        );
    }

    #[test]
    fn parses_profile_flag_with_shared_cap() {
        assert_eq!(profile_request_from_arg_slice(&to_args("")), Ok(None));
        assert_eq!(
            profile_request_from_arg_slice(&to_args("--profile p.json")),
            Ok(Some(ProfileRequest {
                path: "p.json".into(),
                capacity: DEFAULT_RING_CAPACITY
            }))
        );
        assert_eq!(
            profile_request_from_arg_slice(&to_args(
                "--trace t.json --profile p.json --trace-cap 64"
            )),
            Ok(Some(ProfileRequest {
                path: "p.json".into(),
                capacity: 64
            }))
        );
        assert_eq!(
            profile_request_from_arg_slice(&to_args("--profile --trace-cap 64")),
            Err("missing value for --profile".into())
        );
    }
}
