//! `omibench` — end-to-end fault-localization latency for `omislice`, on
//! four workloads, closed against per-layer stages.
//!
//! ```text
//! bash omibench/run.sh [--workload NAME|all] [--seed N] [--seconds S]
//!                      [--trace 0|1] [--out PATH]
//! bash omibench/run.sh compare --parent A.json... --change B.json...
//!                      [--bench BENCHMARK.json]
//! cargo test --release --manifest-path omibench/Cargo.toml
//! ```
//!
//! `run.sh` builds `omislice` and `omibench` from source (release) into one
//! target directory and runs the latter from the repository root.
//! Defaults: all workloads, seed 1, 20 s of measurement per workload,
//! traced, results in `target/omibench/results.json` and the traced
//! passes' spans in `target/omibench/results.json.spans.json`. Every
//! metric prints as one `workload metric value unit` line; the last
//! stdout line is a JSON summary (`correct`, `attempted`, `failed`, and
//! the end-to-end metrics with `--trace 0` or the per-layer ones with
//! `--trace 1`). Any correctness failure exits 1.
//!
//! # Measurement
//!
//! End-to-end numbers drive the real product from outside with all
//! tracing off: one `omislice locate` process per CLI localization, timed
//! from spawn to exit, or `POST /locate` against a spawned `omislice
//! serve`, timed from request write to response read. Each workload
//! measures for `--seconds`. The load comes from this one process: one
//! CLI child at a time, or two client threads.
//!
//! Per-layer numbers come from an in-process **traced pass** per pool
//! version, run during set-up; it also produces the version's reference
//! report. It makes `cmd_locate`'s calls in order (`compile` ×2,
//! `ProgramAnalysis::build` ×2, `run_traced`, `Trace::build_index(1)`,
//! `ValueProfile::add_trace`, `try_seeded_roots` +
//! `GroundTruthOracle::new`, `locate_fault` with the CLI's
//! `LocateConfig` and a fresh `VerifyMemo::shared()`, then
//! `render_report` plus the seeded-root footer), each inside a span this
//! benchmark records. The stage spans must sum to the pass's wall time
//! within max(1 ms, 2 %), or the run is incorrect. The verify split comes
//! from the `VerificationStats` that `locate_fault` returns. No product
//! crate is instrumented.
//!
//! Every CLI stdout must equal its version's reference byte-for-byte;
//! every served report must equal it once the `re-executions` line (which
//! a warm shared memo changes) is dropped from both. A mismatch, non-zero
//! exit, non-200 status or timeout is a failure, and so is a report that
//! misses the seeded root.
//!
//! # Workloads
//!
//! Each workload pins its fault and draws a pool of versions from the
//! seed (see `workload.rs`). A CLI run cycles through its pool, in a
//! freshly shuffled order each cycle; a served run repeats one seeded
//! cycle of 40 requests. Medians therefore describe the
//! workload rather than one input. Inputs are redrawn (at most 64 draws
//! per version) until the pinned fault is exposed and the reference
//! localization finds the seeded root within a counted deadline (sed
//! draws with `from == to` never do, so no localization could succeed on
//! them). Set-up fails, naming the version, if a CLI `--input` reaches
//! 128 KiB, the Linux limit on one argument.
//!
//! | name | traffic | pool | why |
//! |---|---|---|---|
//! | `sed-trace` | CLI `locate`, sed V3-F2 ×1000 (~220k events) | 8 | About three quarters of a ~0.45 s localization goes to four full-length traced executions (failing trace, oracle reference run, two from-scratch switched runs), so gains in recording and interpretation (`interp`, `trace`) show here. The ROADMAP's ×1000 headline row. |
//! | `sed-storm` | CLI `locate`, sed V3-F3 ×50, at most 16,384 steps | 16 | One iteration issues 51 verifications, each needing its own switched run (50 resumed); most of the wall is `verify_exec`. The workload for the checkpoint-trie scheduler, resume and memo (`omission::verify`). Pruning barely runs. The step limit is the product's first switched-run budget rung (`BudgetSchedule::default().initial`): a longer version retries every switched run and costs about twice as much. |
//! | `gzip-prune` | CLI `locate`, gzip V2-F3 ×50 (~850 events) | 16 | One re-execution against ~250 simulated-user prunings, each re-running `prune_slice`. Gains in `slicing` and the locate loop show here; trace and verify gains should show nothing, and process start is its largest relative cost. |
//! | `serve-mix` | `omislice serve --workers 2`, 2 closed-loop clients | 8 | A seeded cycle of 40 requests, repeated in the same order, over gzip V2-F3 ×50, flex V1-F9 ×1000, sed V3-F2 ×250 and sed V3-F2 ×1000, two versions each, weighted exactly 0.30/0.30/0.25/0.15. The mix is synthetic: no request log exists to derive one from. Two clients and two server workers keep at most two localizations running at once; a closed-loop client sends its next request only after its report arrives. First-touch misses build and insert beside cache hits, and the sed ×1000 versions press on the 64 MiB artifact cache and the 64 MiB shared memo, so `serve`, its caches and their eviction matter only here. |
//!
//! # Metrics
//!
//! End-to-end (every workload; nearest-rank percentiles), each bounded in
//! `BENCHMARK.json`:
//!
//! - `locate_p50_ms`: median over every measured localization.
//! - `peak_rss_mb`: the largest `ru_maxrss` among the CLI children, from a
//!   raw `wait4` in the small helper that starts them (see `spawner.rs`),
//!   or the server's `VmHWM`. Where unavailable it is `null` with a note
//!   on stderr, never 0.
//! - `setup_s`: the pool's set-up time (draws, source files, reference
//!   pass; not the slicing probes, so `--trace` does not change it), as
//!   each version kind's median per-version time times its count, so a
//!   rare redraw does not move it. The whole set-up, with
//!   warm-up and server start, prints as `setup_total_s`.
//!
//! Printed beside them, unbounded: `locate_p90_ms` and `locates_per_s`
//! (completed localizations over the measured phase), with the sample
//! count. On `serve-mix` both follow the cost of the drawn flex and sed
//! ×1000 inputs, which varies several times over from seed to seed, so no
//! bound could hold them (recorded runs in `CALIBRATION.md`).
//! `found_rate` and `failed_frac` print too; anything but 1 and 0 makes
//! the run incorrect.
//!
//! Per-layer (traced runs; medians over the pool's traced passes), with
//! the end-to-end metric each should move and where:
//!
//! | layer metrics | should move | on |
//! |---|---|---|
//! | `interp.trace_ms`, `omission.oracle_ms`, `trace.index_ms`, `trace.events`, `trace.columnar_bytes` | `locate_p50_ms`, `peak_rss_mb` | `sed-trace`; `serve-mix` misses and RSS; ≈0 on `gzip-prune` |
//! | `omission.verify_exec_ms`, `omission.verify_capture_ms`, `omission.reexecutions`, `omission.resumed_runs`, `omission.scratch_runs`, `omission.inline_captures`, `omission.steps_saved`, `omission.checkpoint_bytes`, `omission.resume_ratio`, `omission.exec_ms_per_reexec` | `locate_p50_ms`, `locates_per_s` | `sed-storm`; `sed-trace` (two scratch runs) |
//! | `omission.verify_verdict_ms` (alignment plus judging), `omission.verifications`, `omission.cache_hits` | `locate_p50_ms` | `sed-trace` (~1,000 verifications) |
//! | `omission.locate_other_ms` (`locate_ms` − exec − capture − verdict), `omission.user_prunings`, `omission.iterations`, and the probes outside the closure `slicing.prune_ms` (one `prune_slice`) and `slicing.graph_ms` (`DepGraph::with_jobs`) | `locate_p50_ms` | `gzip-prune`; `serve-mix` p50 |
//! | `omission.memo_hits`, `omission.memo_hit_ratio` | `locates_per_s` | `serve-mix` warm hits; `sed-trace` |
//! | `lang.compile_ms`, `analysis.build_ms`, `slicing.profile_ms`, `omission.locate_ms`, `omission.render_ms` | none predicted | all; recorded so a regression shows |
//! | `pipeline.wall_ms`, `pipeline.unattributed_ms` (wall − Σ stages), `cli.overhead_ms` (`locate_p50_ms` − `pipeline.wall_ms`; negative on `serve-mix`, whose hits skip stages, and wherever the reference passes, run once each while the benchmark's own heap grows, were slower than the children) | `locate_p50_ms` | `gzip-prune` (largest process-start share) |
//! | `serve.hit_p50_ms`, `serve.hit_p90_ms`, `serve.miss_p50_ms` (split on the response's `cache` field); deltas of `GET /metrics?format=json`: `serve.cache_hit_ratio`, `serve.cache_misses`, `serve.cache_evictions`, `serve.cache_bytes`, `serve.memo_run_bytes`, `serve.memo_checkpoint_bytes`, `serve.memo_evictions`, `serve.overloaded`, `serve.errors` | `peak_rss_mb`; `locates_per_s`, `locate_p90_ms` | `serve-mix` (measured phase). The traced summary line gives every per-layer metric a number, so on CLI workloads a served probe after the measured phase (one miss and two hits per version) measures the same pool cold and warm |
//!
//! The results JSON also lists each version with its reference-pass wall,
//! sample count, median latency and, for CLI workloads, peak RSS.
//!
//! # Spans in Perfetto
//!
//! Open <https://ui.perfetto.dev>, choose "Open trace file" and pick
//! `results.json.spans.json` (or load it in `chrome://tracing`). Each
//! traced pass is one thread named after its workload and version; its
//! `pipeline` span holds the stage spans, followed by the two slicing
//! probes. Passes whose draw was rejected are marked `(redrawn)`.
//!
//! # Comparing runs
//!
//! `compare` reads the bounds from `BENCHMARK.json` and prints, per
//! workload and end-to-end metric, each side's median and quartiles and
//! a verdict: `better`, `same`, `worse`, or `unresolved` when the
//! parent's interquartile spread exceeds the bound. It exits 1 on any
//! `worse`, on a change run marked incorrect, and when a change run lacks
//! a workload the parent runs have or a declared metric on it. The bounds
//! come from the recorded runs in `omibench/CALIBRATION.md`.

mod compare;
mod drive;
mod metrics;
mod pipeline;
mod spawner;
mod stats;
mod sys;
mod workload;

use drive::{Prepared, Sample, Server};
use metrics::{ServeCounters, WorkloadResult};
use omislice_obs::Json;
use pipeline::{closes, traced_pass, Input, Pass, Recorder};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Drawer, Front, Pinned, Workload, MAX_ARG_BYTES, WORKLOADS};

/// Untimed CLI localizations before the measured phase.
const WARMUP: usize = 2;
/// Worker threads of the spawned server.
const SERVE_WORKERS: usize = 2;
/// Closed-loop client threads on `serve-mix`.
const CLIENTS: usize = 2;
/// Served probe of a CLI workload: requests per version (one miss, then
/// hits). The probe exists because the traced summary line must give every
/// per-layer metric a number on every workload, `serve.*` included; it
/// runs after the measured phase and feeds no end-to-end metric.
const PROBE_REQUESTS: usize = 3;

const USAGE: &str = "usage:
  omibench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
  omibench compare --parent A.json... --change B.json... [--bench BENCHMARK.json]
workloads: sed-trace, sed-storm, gzip-prune, serve-mix";

struct Opts {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("omibench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare_main(&args[1..]),
        Some(spawner::HELPER_ARG) => return spawner::helper_main(&args[1..]),
        _ => {}
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => return usage(&msg),
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("omibench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 20,
        trace: true,
        out: PathBuf::from("target/omibench/results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads = if name == "all" {
                    WORKLOADS.iter().collect()
                } else {
                    vec![workload::find(name).ok_or_else(|| format!("no workload `{name}`"))?]
                };
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("bad --seconds `{v}` (need a positive integer)")),
                };
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn compare_main(args: &[String]) -> ExitCode {
    let (mut parents, mut changes) = (Vec::new(), Vec::new());
    let mut bench = "BENCHMARK.json".to_string();
    let mut target: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => target = Some(&mut parents),
            "--change" => target = Some(&mut changes),
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => return usage("--bench needs a value"),
            },
            path => match target.as_deref_mut() {
                Some(list) => list.push(path.to_string()),
                None => return usage(&format!("unexpected argument `{path}`")),
            },
        }
    }
    if parents.is_empty() || changes.is_empty() {
        return usage("compare needs --parent and --change files");
    }
    match compare::run(&bench, &parents, &changes) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("omibench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Removes the work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the selected workloads; `Ok(false)` when any is incorrect.
fn run(opts: &Opts) -> Result<bool, String> {
    let bin = std::env::current_exe()
        .map_err(|e| format!("cannot locate own executable: {e}"))?
        .with_file_name(format!("omislice{}", std::env::consts::EXE_SUFFIX));
    if !bin.is_file() {
        return Err(format!(
            "no `{}`; build it with `cargo build --release -p omislice-cli` into the same target directory",
            bin.display()
        ));
    }
    let out_dir = opts
        .out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create `{}`: {e}", work.0.display()))?;

    let mut rec = Recorder::new();
    let mut results = Vec::new();
    for w in &opts.workloads {
        let r = run_workload(w, opts, &bin, &work.0, &mut rec)?;
        print_result(&r);
        results.push(r);
    }

    let doc = metrics::results_json(opts.seed, opts.seconds, &results);
    write(&opts.out, &format!("{doc}\n"))?;
    let spans = PathBuf::from(format!("{}.spans.json", opts.out.display()));
    write(&spans, &format!("{}\n", rec.chrome_trace()))?;
    eprintln!(
        "omibench: wrote {} and {}",
        opts.out.display(),
        spans.display()
    );
    println!("{}", metrics::summary_json(&results, opts.trace));
    Ok(results.iter().all(|r| r.correct))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

fn print_result(r: &WorkloadResult) {
    let fmt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |x| format!("{x}"));
    for m in r.end_to_end.iter().chain(&r.per_layer).chain(&r.context) {
        println!("{} {} {} {}", r.name, m.name, fmt(m.value), m.unit);
    }
}

/// The set-up product of one workload run.
struct Pool {
    versions: Vec<Prepared>,
    passes: Vec<Pass>,
    /// Per-version set-up wall: draws, source files, reference pass.
    setup_s: Vec<f64>,
    /// Index into the workload's specs, per version.
    spec_of: Vec<usize>,
}

/// Draws the workload's pool: for each version, inputs until the fault
/// is exposed and the reference pass converges, then its files.
fn build_pool(w: &Workload, opts: &Opts, work: &Path, rec: &mut Recorder) -> Result<Pool, String> {
    let pinned = w
        .specs
        .iter()
        .map(Pinned::new)
        .collect::<Result<Vec<_>, _>>()?;
    let mut drawer = Drawer::new(opts.seed);
    let mut pool = Pool {
        versions: Vec::new(),
        passes: Vec::new(),
        setup_s: Vec::new(),
        spec_of: Vec::new(),
    };
    for (spec, p) in pinned.iter().enumerate() {
        for nth in 0..p.spec.versions {
            let t = Instant::now();
            // Probe time is left out of set-up, which then measures the
            // same work whether or not the run is traced.
            let mut probes_s = 0.0;
            let label = format!("{} #{nth}", p.label());
            let mut used = 0;
            let (inputs, pass) = loop {
                let inputs = drawer.exposed(p, &mut used)?;
                let id = rec.passes.len();
                rec.passes.push(format!("{}: {label}", w.name));
                let input = Input {
                    faulty_src: &p.faulty_src,
                    fixed_src: p.fixed_src,
                    inputs: &inputs,
                };
                let pass = traced_pass(&input, p.spec.screen_checks, opts.trace, rec, id)
                    .map_err(|e| format!("{label}: {e}"))?;
                probes_s += pass.probes_s;
                if p.spec.admits(&pass) {
                    break (inputs, pass);
                }
                eprintln!(
                    "omibench: {label}: redrawing (reference localization {})",
                    if pass.expired {
                        "did not converge"
                    } else {
                        "missed the root"
                    }
                );
                rec.passes[id].push_str(" (redrawn)");
            };
            let csv = workload::csv(&inputs);
            if w.front == Front::Cli && csv.len() >= MAX_ARG_BYTES {
                return Err(format!(
                    "input too large: {label}: the --input CSV is {} bytes, but one argument must stay under 128 KiB (Linux MAX_ARG_STRLEN)",
                    csv.len()
                ));
            }
            let dir = work.join(format!("{}-{}", w.name, pool.versions.len()));
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
            let (faulty_path, fixed_path) = (dir.join("faulty.oml"), dir.join("fixed.oml"));
            write(&faulty_path, &p.faulty_src)?;
            write(&fixed_path, p.fixed_src)?;
            let body = Json::object([
                ("faulty", Json::str(p.faulty_src.as_str())),
                ("fixed", Json::str(p.fixed_src)),
                (
                    "input",
                    Json::Array(inputs.iter().map(|&v| Json::Int(v)).collect()),
                ),
            ])
            .to_string();
            pool.versions.push(Prepared {
                label,
                faulty_path,
                fixed_path,
                csv,
                body,
                reference: pass.report.clone(),
            });
            pool.passes.push(pass);
            pool.setup_s.push(t.elapsed().as_secs_f64() - probes_s);
            pool.spec_of.push(spec);
        }
    }
    Ok(pool)
}

/// Requests in one cycle of the served schedule. Each spec's weight times
/// this is a whole number of requests for each of its versions.
const SERVED_CYCLE: usize = 40;

/// The served schedule: a cycle of [`SERVED_CYCLE`] version indices in a
/// seeded order, in which the versions of a spec take the spec's weight
/// of the requests in equal parts. Request `i` targets entry
/// `i % SERVED_CYCLE`. Every cycle repeats the same order, so every run
/// replays one access pattern against the server's artifact cache and
/// memo. Independent picks per request would give each version a random
/// distance between reuses, and with it a random share of hits that find
/// their switched runs evicted from the memo. The pool lists each spec's
/// versions together, in spec order.
fn served_cycle(w: &Workload, seed: u64) -> Vec<usize> {
    let mut slots = Vec::with_capacity(SERVED_CYCLE);
    let mut first = 0;
    for s in w.specs {
        let per_version = (s.weight * SERVED_CYCLE as f64 / s.versions as f64).round() as usize;
        for v in first..first + s.versions {
            slots.extend(std::iter::repeat_n(v, per_version));
        }
        first += s.versions;
    }
    shuffle(&mut slots, seed ^ 0x5E_57E0, 0);
    slots
}

/// SplitMix64 of `(seed, i)`: a stateless, reproducible stream.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which CLI cycle `cycle` visits a pool of `k` versions: a
/// seeded shuffle per cycle, so that host noise with a period near one
/// cycle does not land on the same versions every time.
fn cycle_order(seed: u64, cycle: usize, k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..k).collect();
    shuffle(&mut order, seed ^ 0xC1C1E, cycle * k);
    order
}

/// A Fisher-Yates shuffle driven by SplitMix64 of `(seed, offset + i)`.
fn shuffle(items: &mut [usize], seed: u64, offset: usize) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(seed, (offset + i) as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn run_workload(
    w: &'static Workload,
    opts: &Opts,
    bin: &Path,
    work: &Path,
    rec: &mut Recorder,
) -> Result<WorkloadResult, String> {
    eprintln!(
        "omibench: {} (seed {}): setting up {} versions. {}",
        w.name,
        opts.seed,
        w.pool_size(),
        w.why
    );
    let setup = Instant::now();
    let pool = build_pool(w, opts, work, rec)?;
    let Measured {
        samples,
        wall_s,
        peak_rss_kib,
        probe,
        counters,
        setup_total_s,
    } = match w.front {
        Front::Cli => measure_cli(w, opts, bin, work, &pool, setup)?,
        Front::Served => measure_served(w, opts, bin, work, &pool, setup)?,
    };
    if peak_rss_kib.is_none() {
        eprintln!(
            "omibench: {}: peak memory is unavailable on this platform; publishing null",
            w.name
        );
    }

    let checked: Vec<&Sample> = samples.iter().chain(&probe).collect();
    for s in checked.iter().filter(|s| s.error.is_some()).take(5) {
        eprintln!(
            "omibench: {}: FAIL on {}: {}",
            w.name,
            pool.versions[s.version].label,
            s.error.as_deref().unwrap_or_default()
        );
    }
    let attempted = checked.len();
    let failed = checked.iter().filter(|s| s.error.is_some()).count();
    let found = checked.iter().filter(|s| s.found).count();
    let open: Vec<&Pass> = pool
        .passes
        .iter()
        .filter(|p| !closes(p.wall_ms, p.unattributed_ms()))
        .collect();
    for p in &open {
        eprintln!(
            "omibench: {}: traced pass does not close: wall {:.3} ms, unattributed {:.3} ms",
            w.name,
            p.wall_ms,
            p.unattributed_ms()
        );
    }
    let labels: Vec<&str> = pool.versions.iter().map(|v| v.label.as_str()).collect();
    let versions = metrics::version_summaries(&labels, &pool.passes, &samples);
    let setup_s = metrics::pool_setup_s(&pool.setup_s, &pool.spec_of);
    let end_to_end = metrics::end_to_end(&samples, peak_rss_kib, setup_s);
    let per_layer = if opts.trace {
        let served = match w.front {
            Front::Cli => &probe,
            Front::Served => &samples,
        };
        metrics::per_layer(&pool.passes, end_to_end[0].value, served, &counters)
    } else {
        Vec::new()
    };
    let server_errors = per_layer
        .iter()
        .filter(|m| m.name == "serve.errors" || m.name == "serve.overloaded")
        .filter_map(|m| m.value)
        .sum::<f64>();
    Ok(WorkloadResult {
        name: w.name,
        correct: failed == 0 && found == attempted && open.is_empty() && server_errors == 0.0,
        attempted,
        failed,
        versions,
        end_to_end,
        per_layer,
        context: metrics::context(&samples, wall_s, attempted, failed, found, setup_total_s),
    })
}

/// What a workload's measured phase produced.
struct Measured {
    samples: Vec<Sample>,
    wall_s: f64,
    peak_rss_kib: Option<u64>,
    /// A CLI workload's served probe (traced runs only).
    probe: Vec<Sample>,
    counters: ServeCounters,
    setup_total_s: f64,
}

/// CLI workloads: warm-up, then one `omislice locate` at a time, cycling
/// through the pool for `--seconds`; traced runs add the served probe.
fn measure_cli(
    w: &Workload,
    opts: &Opts,
    bin: &Path,
    work: &Path,
    pool: &Pool,
    setup: Instant,
) -> Result<Measured, String> {
    let k = pool.versions.len();
    let mut spawner = spawner::Spawner::start(bin, &work.join("child.stderr"))?;
    for i in 0..WARMUP {
        let s = drive::locate_cli(&mut spawner, &pool.versions[i % k], i % k);
        if let Some(e) = s.error {
            return Err(format!("warm-up on {}: {e}", pool.versions[i % k].label));
        }
    }
    let setup_total_s = setup.elapsed().as_secs_f64();
    eprintln!("omibench: {}: measuring for {}s", w.name, opts.seconds);
    let seconds = Duration::from_secs(opts.seconds);
    let t = Instant::now();
    let mut samples = Vec::new();
    let mut order = Vec::new();
    while t.elapsed() < seconds {
        if samples.len() % k == 0 {
            order = cycle_order(opts.seed, samples.len() / k, k);
        }
        let v = order[samples.len() % k];
        samples.push(drive::locate_cli(&mut spawner, &pool.versions[v], v));
    }
    let wall_s = t.elapsed().as_secs_f64();
    drop(spawner);
    let (probe, counters) = if opts.trace {
        served_probe(bin, &pool.versions, work)?
    } else {
        (Vec::new(), ServeCounters::default())
    };
    Ok(Measured {
        peak_rss_kib: samples.iter().filter_map(|s| s.max_rss_kib).max(),
        samples,
        wall_s,
        probe,
        counters,
        setup_total_s,
    })
}

/// The served workload: a fresh server and two closed-loop clients on the
/// seeded cycle for `--seconds`.
fn measure_served(
    w: &Workload,
    opts: &Opts,
    bin: &Path,
    work: &Path,
    pool: &Pool,
    setup: Instant,
) -> Result<Measured, String> {
    let server = Server::start(bin, SERVE_WORKERS, &work.join("serve.stderr"))?;
    let client = server.client();
    let before = server.metrics()?;
    let setup_total_s = setup.elapsed().as_secs_f64();
    eprintln!("omibench: {}: measuring for {}s", w.name, opts.seconds);
    let seconds = Duration::from_secs(opts.seconds);
    let cycle = served_cycle(w, opts.seed);
    let t = Instant::now();
    let samples = drive::closed_loop(
        &client,
        &pool.versions,
        CLIENTS,
        &|i| cycle[i % cycle.len()],
        &|_| t.elapsed() >= seconds,
    );
    let wall_s = t.elapsed().as_secs_f64();
    let counters = ServeCounters {
        before,
        after: server.metrics()?,
    };
    Ok(Measured {
        peak_rss_kib: server.vm_hwm_kib(),
        probe: Vec::new(),
        samples,
        wall_s,
        counters,
        setup_total_s,
    })
}

/// The served probe of a CLI workload: a fresh server, then for each
/// version one cold request (a cache miss) and warm repeats (hits).
fn served_probe(
    bin: &Path,
    versions: &[Prepared],
    work: &Path,
) -> Result<(Vec<Sample>, ServeCounters), String> {
    let server = Server::start(bin, SERVE_WORKERS, &work.join("serve.stderr"))?;
    let client = server.client();
    let before = server.metrics()?;
    let n = versions.len() * PROBE_REQUESTS;
    let samples = drive::closed_loop(&client, versions, 1, &|i| i / PROBE_REQUESTS, &|i| i >= n);
    let counters = ServeCounters {
        before,
        after: server.metrics()?,
    };
    Ok((samples, counters))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_cycle_is_seeded_and_holds_the_weights_exactly() {
        let w = workload::find("serve-mix").unwrap();
        let cycle = served_cycle(w, 1);
        assert_eq!(cycle.len(), SERVED_CYCLE);
        assert_eq!(cycle, served_cycle(w, 1));
        assert_ne!(cycle, served_cycle(w, 2));
        let mut first = 0;
        for spec in w.specs {
            let exact = spec.weight * SERVED_CYCLE as f64 / spec.versions as f64;
            assert_eq!(exact, exact.round(), "{}: not whole", spec.bench);
            for v in first..first + spec.versions {
                let n = cycle.iter().filter(|&&x| x == v).count();
                assert_eq!(n as f64, exact, "version {v}");
            }
            first += spec.versions;
        }
        assert_eq!(first, w.pool_size());
    }

    #[test]
    fn cycles_visit_every_version_in_a_seeded_order() {
        let a: Vec<Vec<usize>> = (0..4).map(|c| cycle_order(7, c, 16)).collect();
        for order in &a {
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..16).collect::<Vec<_>>());
        }
        assert_ne!(a[0], a[1]);
        assert_eq!(a[2], cycle_order(7, 2, 16));
        assert_ne!(a[2], cycle_order(8, 2, 16));
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload gzip-prune --seed 9 --seconds 3 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workloads.len(), 1);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 3, false));
        assert_eq!(parse(&[]).unwrap().workloads.len(), 4);
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--trace 2",
            "--seed x",
            "--bogus",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
