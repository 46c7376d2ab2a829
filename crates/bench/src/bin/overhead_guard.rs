//! Overhead guard for the observability layer.
//!
//! ```text
//! overhead_guard [--tolerance 0.05] [--reps 21]
//! overhead_guard --against <old.json> <new.json> [--tolerance 0.10]
//! ```
//!
//! Default mode runs the sweep's reference pass (sed trace → index →
//! graph → slice → verify) back-to-back with the recorder disabled and
//! enabled, N interleaved pairs, and fails if the median of the per-pair
//! enabled/disabled ratios exceeds 1 by more than the tolerance. A pair
//! shares whatever the host is doing at that moment, so its ratio cancels
//! most of the noise that separate per-mode minimums each pick up. Enabled records everything
//! `--obs-out`, `--metrics` and `--profile-out` read — spans, tasks,
//! scheduler markers, gauges, counters — so the one contract covers all
//! three. Because the disabled path costs one relaxed atomic load per
//! guarded site, *enabled* staying within tolerance of *disabled* bounds
//! the disabled path's drift from the pre-obs code far tighter than the
//! 5% budget.
//!
//! `--against` compares two `BENCH_sweep.json` files row by row:
//! deterministic columns must match exactly; timing columns of the new
//! file must not regress past the tolerance (with a small absolute
//! floor so microsecond-scale cells don't trip on noise). Run it when
//! regenerating the committed sweep so no column regresses >10%.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::RunConfig;
use omislice::omislice_lang::compile;
use omislice_bench::sweep::{reference_pass, SWEEP_SEED};
use omislice_corpus::{all_benchmarks, WorkloadGen};
use omislice_obs::json::{parse, Json};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("overhead_guard: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut tolerance: Option<f64> = None;
    let mut reps = 21usize;
    let mut against: Option<(String, String)> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                tolerance = Some(v.parse().map_err(|_| format!("bad --tolerance `{v}`"))?);
            }
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                reps = v.parse().map_err(|_| format!("bad --reps `{v}`"))?;
            }
            "--against" => {
                let old = it.next().ok_or("--against needs two files")?.clone();
                let new = it.next().ok_or("--against needs two files")?.clone();
                against = Some((old, new));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    match against {
        Some((old, new)) => compare_sweeps(&old, &new, tolerance.unwrap_or(0.10)),
        None => in_process_guard(tolerance.unwrap_or(0.05), reps.max(1)),
    }
}

/// One reference pass over the sed scale-50 workload; returns elapsed
/// nanoseconds.
fn pass_ns(
    program: &omislice::omislice_lang::Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
) -> u128 {
    let t = Instant::now();
    reference_pass(program, analysis, config, 1);
    t.elapsed().as_nanos()
}

fn in_process_guard(tolerance: f64, reps: usize) -> Result<String, String> {
    let benchmarks = all_benchmarks();
    let b = benchmarks
        .iter()
        .find(|b| b.name == "sed")
        .ok_or("no sed benchmark in the corpus")?;
    let program = compile(b.fixed_src).map_err(|e| format!("corpus compile: {e}"))?;
    let analysis = ProgramAnalysis::build(&program);
    let inputs = WorkloadGen::new(SWEEP_SEED).sized_for_benchmark(b.name, 50);
    let config = RunConfig::with_inputs(inputs);

    // Three attempts damp scheduler noise: one flaky spike must not
    // fail CI, a systematic regression fails all three.
    let mut last = (0.0, 0u128, 0u128);
    for attempt in 1..=3 {
        let mut ratios = Vec::with_capacity(reps);
        let mut disabled = Vec::with_capacity(reps);
        let mut enabled = Vec::with_capacity(reps);
        // Interleave the two modes so drift (thermal, cache warmup) hits
        // both halves of a pair equally. Each enabled pass starts from an
        // empty recorder and is drained outside the timed region, as a
        // CLI run is.
        for _ in 0..reps {
            omislice_obs::set_enabled(false);
            let off = pass_ns(&program, &analysis, &config);
            omislice_obs::reset();
            omislice_obs::set_enabled(true);
            let on = pass_ns(&program, &analysis, &config);
            omislice_obs::set_enabled(false);
            ratios.push(on as f64 / off.max(1) as f64);
            disabled.push(off);
            enabled.push(on);
        }
        omislice_obs::reset();
        let ratio = median(&mut ratios);
        last = (ratio, median(&mut disabled), median(&mut enabled));
        if ratio <= 1.0 + tolerance {
            return Ok(format!(
                "overhead OK (attempt {attempt}): median of {reps} paired ratios {:.3} <= {:.2} (medians: disabled {:.1}us, enabled {:.1}us)",
                ratio,
                1.0 + tolerance,
                last.1 as f64 / 1e3,
                last.2 as f64 / 1e3,
            ));
        }
    }
    Err(format!(
        "recorder overhead out of budget: median of {reps} paired ratios {:.3} > {:.2} (medians: disabled {:.1}us, enabled {:.1}us)",
        last.0,
        1.0 + tolerance,
        last.1 as f64 / 1e3,
        last.2 as f64 / 1e3,
    ))
}

/// The middle element of `xs` (the upper one of an even count).
fn median<T: Copy + PartialOrd>(xs: &mut [T]) -> T {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    xs[xs.len() / 2]
}

// --- sweep-file comparison ----------------------------------------------

/// Timing columns (microseconds) checked with relative tolerance plus
/// a 250us absolute floor; everything else numeric must match exactly.
const TIMING_COLS: [&str; 3] = ["plain_us", "graph_us", "rs_us"];
const VERIFY_TIMING_COLS: [&str; 3] = ["scratch_us", "resumed_us", "memo_us"];
const FLOOR_US: f64 = 250.0;

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn load_rows(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("rows")
        .and_then(Json::as_array)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{path}: no `rows` array"))
}

fn row_key(r: &Json) -> Option<(String, i64)> {
    Some((
        r.get("benchmark")?.as_str()?.to_string(),
        r.get("scale")?.as_int()?,
    ))
}

fn check_timing(
    key: &(String, i64),
    col: &str,
    old: &Json,
    new: &Json,
    tolerance: f64,
    failures: &mut Vec<String>,
) {
    let (Some(o), Some(n)) = (old.get(col).and_then(as_f64), new.get(col).and_then(as_f64)) else {
        return;
    };
    if n > o * (1.0 + tolerance) + FLOOR_US {
        failures.push(format!(
            "{}/x{} {col}: {o:.1}us -> {n:.1}us (> {:.0}% + {FLOOR_US:.0}us floor)",
            key.0,
            key.1,
            tolerance * 100.0
        ));
    }
}

fn compare_sweeps(old_path: &str, new_path: &str, tolerance: f64) -> Result<String, String> {
    let old_rows = load_rows(old_path)?;
    let new_rows = load_rows(new_path)?;
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for old in &old_rows {
        let Some(key) = row_key(old) else { continue };
        let Some(new) = new_rows.iter().find(|r| row_key(r).as_ref() == Some(&key)) else {
            failures.push(format!("{}/x{}: row missing from {new_path}", key.0, key.1));
            continue;
        };
        compared += 1;
        for col in ["trace_len", "ds_dyn", "rs_dyn", "input_len"] {
            if old.get(col) != new.get(col) {
                failures.push(format!(
                    "{}/x{} {col}: deterministic column changed ({:?} -> {:?})",
                    key.0,
                    key.1,
                    old.get(col),
                    new.get(col)
                ));
            }
        }
        for col in TIMING_COLS {
            check_timing(&key, col, old, new, tolerance, &mut failures);
        }
        if let (Some(ov), Some(nv)) = (old.get("verify"), new.get("verify")) {
            for col in VERIFY_TIMING_COLS {
                check_timing(&key, col, ov, nv, tolerance, &mut failures);
            }
        }
    }
    if compared == 0 {
        return Err(format!(
            "no comparable rows between {old_path} and {new_path}"
        ));
    }
    if failures.is_empty() {
        Ok(format!(
            "sweep comparison OK: {compared} rows, no column regressed past {:.0}%",
            tolerance * 100.0
        ))
    } else {
        Err(format!("sweep regression:\n  {}", failures.join("\n  ")))
    }
}
