//! `lbbench`: one run of one benchmark workload, in its own process.
//!
//! ```text
//! lbbench run   --workload NAME --seed N [--span-ms MS]
//! lbbench trace --workload NAME --seed N [--span-ms MS] [--spans-out PATH]
//! ```
//!
//! `run` is the timed run behind the end-to-end metrics; `trace` is the
//! separate traced run behind the per-layer metrics. Each prints one
//! JSON line: the run's exact simulated counts (`sim`), its host
//! measurements (`host`) and the accounting identities that failed.
//! `run.py` starts these processes one at a time, checks their outputs
//! and reduces them to the benchmark's metrics.

mod collect;
mod measure;
mod out;
mod replay;
mod runs;
mod workloads;

use std::process::ExitCode;

use netsim::Duration;

use crate::runs::{timed, traced, TraceOpts};
use crate::workloads::{Workload, WORKLOADS};

/// Set-ups per timed run. One takes about 50 µs, so a single reading is
/// mostly timer and cache noise; the median of many is not.
const SETUPS: usize = 101;

/// The traced run's slicing and capture bound: 10 ms slices resolve the
/// injection and crash phases, and 2^19 packet events (about 50 MB held)
/// cover the first quarter of a KV run.
const TRACE: TraceOpts = TraceOpts {
    slice: Duration::from_millis(10),
    capture_events: 1 << 19,
};

fn arg<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{key} needs a value")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mode = args.first().map(String::as_str).unwrap_or("");
    let name: String = arg(args, "--workload")?.ok_or("--workload is required")?;
    let w = Workload::parse(&name)
        .ok_or_else(|| format!("unknown workload '{name}'; known: {WORKLOADS:?}"))?;
    let seed: u64 = arg(args, "--seed")?.ok_or("--seed is required")?;
    let span = arg::<u64>(args, "--span-ms")?.map_or(w.span(), Duration::from_millis);
    match mode {
        "run" => {
            let r = timed(w, seed, span, SETUPS);
            Ok(out::line(w.name(), seed, &r.sim, &r.host, &r.failed_checks))
        }
        "trace" => {
            let (r, spans) = traced(w, seed, span, &TRACE);
            if let Some(path) = arg::<String>(args, "--spans-out")? {
                std::fs::write(&path, spans.to_ndjson())
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
            Ok(out::line(w.name(), seed, &r.sim, &r.host, &r.failed_checks))
        }
        other => Err(format!("unknown mode '{other}'; use run or trace")),
    }
}
