//! End-to-end and per-layer benchmark of the TASM storage manager served
//! over loopback by an in-process `TasmServer`.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it spends the first half of the window untraced and the second half
//! timing the benchmark's own calls into each crate, then prints the
//! per-layer metrics, an attribution table and the tracing overhead. On
//! success the last line of standard output is one JSON object; a failed
//! check exits non-zero without it. README.md next to this package explains
//! the workloads and their sizes.

mod ingest;
mod layers;
mod serve;
mod setup;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// What one run measured: operations attempted and failed in the timed
/// window, and `(name, value, unit)` metrics.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Settings shared by every workload.
pub struct RunCfg {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub nproc: usize,
    /// Scratch directory for this run's stores, inside the working tree.
    pub dir: PathBuf,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WarmServe,
    ColdSelect,
    IngestRetile,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "warm-serve" => Some(Workload::WarmServe),
            "cold-select" => Some(Workload::ColdSelect),
            "ingest-retile" => Some(Workload::IngestRetile),
            _ => None,
        }
    }
}

fn usage() -> String {
    "usage: perfbench --workload <warm-serve|cold-select|ingest-retile> --seed <n> \
     --seconds <n> --trace <0|1>"
        .to_string()
}

fn parse_args() -> Result<(Workload, u64, u64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return Err(usage()),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) => Ok((w, s, secs, t)),
        _ => Err(usage()),
    }
}

/// `git describe` of the tree the benchmark runs in, or `unknown` outside a
/// git checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`). Server and
/// client share the process, so this covers both.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunCfg {
        seed,
        window: Duration::from_secs(seconds),
        trace,
        nproc,
        dir: dir.clone(),
    };
    println!(
        "perfbench workload={workload:?} seed={seed} seconds={seconds} trace={} nproc={nproc} git={}",
        trace as u8,
        git_describe()
    );
    let outcome = match workload {
        Workload::WarmServe | Workload::ColdSelect => serve::run(workload, &cfg),
        Workload::IngestRetile => ingest::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    match outcome {
        Ok(report) if report.attempted == 0 => {
            eprintln!("perfbench: no operation was attempted in the timed window");
            ExitCode::FAILURE
        }
        Ok(report) if report.metrics.iter().any(|m| !m.1.is_finite()) => {
            eprintln!("perfbench: a metric has no value: {:?}", report.metrics);
            ExitCode::FAILURE
        }
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                println!("  {name:<28} {value:>14.4} {unit}");
            }
            println!("{}", json_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
