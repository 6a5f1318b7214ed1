//! Host facts recorded with every result: core count, toolchain, commit,
//! and the process's peak resident set.

use serde_json::{json, Value};
use std::process::Command;

/// Worker threads, shards and evaluators: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unreadable VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// The first line a command prints, or `unknown` when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, `rustc -V` and `git describe` of the checkout the benchmark
/// runs in. Git is asked only when the working directory is itself a
/// repository root, so the benchmark never reads above its checkout.
pub fn provenance() -> Value {
    let git = if std::path::Path::new(".git").exists() {
        first_line("git", &["describe", "--always", "--dirty", "--tags"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    json!({
        "nproc": nproc(),
        "rustc": first_line("rustc", &["-V"]),
        "git_describe": git,
    })
}
