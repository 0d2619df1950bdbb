//! The machine a result was measured on: recorded in every result so two
//! sets are only compared knowingly.

use crate::json::Json;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Trimmed standard output of `program args…`, or "unknown" when it cannot
/// run or fails (a checkout that is not a git repository, for one).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache as the kernel states it (e.g. "32768K").
fn llc_size() -> String {
    (0..=4)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// A field of `/proc/self/status` in MiB (`VmHWM`: peak resident set,
/// `VmRSS`: current resident set).
pub fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn header(seed: u64) -> Json {
    Json::obj([
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("llc_size", Json::Str(llc_size())),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
    ])
}
