//! Validates a Chrome trace-event profile produced by `--profile-out`.
//!
//! ```text
//! validate_profile <prof.json> [--jobs N]
//! ```
//!
//! Exits 0 when the document parses, every event is well-formed for its
//! phase, every tid that carries events has a `thread_name`, worker
//! tracks are named contiguously from `verify-worker-0`, and the
//! memo/checkpoint byte counter tracks are present. With `--jobs N` it
//! additionally requires the summed worker utilization to stay within
//! the physical bound of `N` busy workers. CI's `profile-smoke` gate
//! runs this against a fresh `locate --profile-out` trace.

use omislice_obs::json::parse;
use omislice_obs::profile::{check_chrome_trace, GAUGES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("validate_profile: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut path = None;
    let mut jobs: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = Some(v.parse().map_err(|_| format!("bad --jobs `{v}`"))?);
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or("usage: validate_profile <prof.json> [--jobs N]")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let check = check_chrome_trace(&doc).map_err(|e| format!("{path}: {e}"))?;

    for required in GAUGES {
        if !check.counter_tracks.iter().any(|c| c == required) {
            return Err(format!("{path}: missing counter track `{required}`"));
        }
    }
    if let Some(jobs) = jobs {
        if check.worker_tracks.is_empty() {
            return Err(format!("{path}: no verify-worker tracks"));
        }
        if check.worker_tracks.len() > jobs {
            return Err(format!(
                "{path}: {} worker tracks exceed --jobs {jobs}",
                check.worker_tracks.len()
            ));
        }
        // A schedule can never pack more than `jobs` workers' worth of
        // busy time into the wall window it spans.
        if check.utilization_sum > jobs as f64 + 1e-6 {
            return Err(format!(
                "{path}: utilization sum {:.3} exceeds --jobs {jobs}",
                check.utilization_sum
            ));
        }
    }

    Ok(format!(
        "{path}: OK ({} slices, {} worker tracks, {} counter tracks, utilization sum {:.3})",
        check.slices,
        check.worker_tracks.len(),
        check.counter_tracks.len(),
        check.utilization_sum
    ))
}
