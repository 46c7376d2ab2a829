//! Parameter sweep: how trace size, slice sizes, and analysis costs
//! scale with workload size — the data-series companion to the paper's
//! tables (its evaluation has no scaling figure; this harness provides
//! the series a replication would plot).
//!
//! For each corpus benchmark, generated workloads of increasing size run
//! through the tracing interpreter; the series reports trace length, DS
//! and RS sizes for the last output, wall-clock for Plain, Graph, and RS
//! computation, and the verification engine's cost for a LEFS-style
//! batch of `VerifyDep` queries executed from scratch, resumed from
//! checkpoints, and re-submitted against the warm verdict memo.
//!
//! The library entry point is [`run_sweep`]; the `sweep` binary wraps it
//! with flag parsing, prints [`render_table`], and writes [`to_json`] so
//! plots and regression checks can consume the series without
//! screen-scraping.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{run_plain, run_plain_indexed, run_traced, ResumeMode, RunConfig};
use omislice::omislice_lang::compile;
use omislice::omislice_slicing::{relevant_slice_on, DepGraph};
use omislice::omislice_trace::{load_trace, save_trace, Trace, VerificationStats};
use omislice::{Verifier, VerifierMode, VerifyRequest};
use omislice_corpus::{all_benchmarks, Benchmark, WorkloadGen};
use omislice_obs::Json;
use std::collections::HashSet;
use std::time::Instant;

/// The seed every sweep run uses, recorded in the JSON header.
pub const SWEEP_SEED: u64 = 0x5EED;

/// What to sweep: workload scales (per benchmark), repetitions, and an
/// optional server to time served localizations against.
pub struct SweepOptions {
    /// Workload payload sizes, one series point per scale.
    pub scales: Vec<usize>,
    /// Repetitions of each timed section; the minimum is reported (the
    /// Table 4 "best of N" methodology — every section is deterministic,
    /// so the minimum is the least-perturbed measurement). Verification
    /// passes run once: they take seconds and self-average.
    pub reps: usize,
    /// Address of a running `omislice serve` instance. When set, each
    /// sample additionally measures served locate latency (cold cache,
    /// warm cache) against the cold process-start CLI baseline.
    pub via: Option<String>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scales: vec![10, 50, 250, 1000, 10000],
            reps: 5,
            via: None,
        }
    }
}

/// Runs `f` `reps` times (at least once), returning the last value and
/// the minimum elapsed time. `f` must be deterministic.
fn timed_min<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, u128) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_nanos());
        out = Some(v);
    }
    (out.expect("at least one rep"), best)
}

/// One measured point of the sweep.
pub struct Sample {
    pub benchmark: String,
    pub scale: usize,
    pub input_len: usize,
    pub trace_len: usize,
    pub ds_dyn: Option<usize>,
    pub rs_dyn: Option<usize>,
    pub plain_ns: u128,
    pub graph_ns: u128,
    pub rs_ns: u128,
    pub verify: Option<VerifySample>,
    pub phases: PhaseSample,
    pub sched: SchedSample,
    pub io: IoSample,
    pub serve: Option<ServeSample>,
}

/// Served-locate latency for the sample's workload, measured when
/// [`SweepOptions::via`] names a running server: the cold process-start
/// CLI baseline (spawn + parse + trace + locate), the first served
/// request (cold `ArtifactCache`), and the best warm repeat, all for the
/// first benchmark fault the scaled workload exposes.
#[derive(Debug, Clone)]
pub struct ServeSample {
    /// The fault id the workload exposes.
    pub fault: String,
    /// Cold CLI baseline: best-of-reps wall time of one full `omislice
    /// locate` process.
    pub cli_cold_ns: u128,
    /// First served request, artifact cache cold for this version.
    pub served_cold_ns: u128,
    /// Best-of-reps served repeat, artifact cache warm.
    pub served_warm_ns: u128,
    /// The `cache` field of the first served response (`miss` proves the
    /// cold measurement really built artifacts).
    pub cold_cache: String,
    /// `cli_cold_ns / served_warm_ns`.
    pub warm_speedup: f64,
}

/// On-disk `omitrace/v1` round-trip cost for the sample's trace:
/// encode-and-write (`save_ns`), map-and-decode (`load_ns`), the
/// resulting file size, and the resident columnar footprint the
/// encoder starts from.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoSample {
    pub save_ns: u128,
    pub load_ns: u128,
    pub file_bytes: u64,
    pub columnar_bytes: usize,
}

/// Per-phase wall time from the recorder's span histogram, measured in
/// one dedicated instrumented pass so the timed sections above it run
/// with the recorder off and stay comparable across PRs. Future perf
/// work reads these columns to attribute a win to a phase instead of
/// re-deriving the split.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSample {
    pub trace_ns: u64,
    pub graph_ns: u64,
    pub slice_ns: u64,
    pub verify_ns: u64,
    /// Self time per phase: wall time exclusive of child spans, so the
    /// four columns attribute each nanosecond to exactly one phase.
    pub trace_self_ns: u64,
    pub graph_self_ns: u64,
    pub slice_self_ns: u64,
    pub verify_self_ns: u64,
}

/// Scheduler-level counters from the same recording as [`PhaseSample`].
#[derive(Debug, Clone, Default)]
pub struct SchedSample {
    /// Per-worker busy fraction of the profiled window (verify workers
    /// only; the coordinating thread is excluded).
    pub utilization: Vec<f64>,
    /// Verification tasks completed across all workers.
    pub tasks: u64,
    /// Recorder events lost to ring overflow or drain contention.
    pub drops: u64,
}

/// Verification-engine cost for the sample's batch: from scratch, resumed
/// from checkpoints, and a re-submission of the identical batch to the
/// same verifier (`memo_ns`) that must be answered entirely from the
/// verdict cache. `stats` are the shared verifier's counters after the
/// memo pass, so `cache_hits == batch` proves the memo is alive.
/// `batches` is the batch-size scaling series: one cold trie-scheduled
/// `verify_all` per requested batch size, the data behind the
/// "verify_us grows sublinearly in batch size" acceptance check
/// (shared-prefix checkpoints amortize the replay cost across leaves).
pub struct VerifySample {
    pub batch: usize,
    pub scratch_ns: u128,
    pub resumed_ns: u128,
    pub memo_ns: u128,
    pub stats: VerificationStats,
    pub batches: Vec<BatchPoint>,
}

/// One point of the batch-size scaling series.
#[derive(Debug, Clone, Copy)]
pub struct BatchPoint {
    /// Batch size asked of [`verify_batch`].
    pub requested: usize,
    /// Requests actually available at this scale (the trace may not have
    /// `requested` distinct predicate instances).
    pub batch: usize,
    /// Cold-verifier `verify_all` wall time for the batch.
    pub wall_ns: u128,
}

/// The batch sizes of the scaling series.
pub const BATCH_SIZES: [usize; 4] = [4, 16, 64, 256];

/// The last `n` predicate instances before the final output, each paired
/// with that output as the use under test — the same batch shape the
/// `resume` Criterion bench runs, deduplicated by `(p, u, var)`. Empty
/// when the trace has no output or the output statement uses no variable.
pub fn verify_batch(trace: &Trace, analysis: &ProgramAnalysis, n: usize) -> Vec<VerifyRequest> {
    let Some(last) = trace.outputs().last() else {
        return Vec::new();
    };
    let u = last.inst;
    let Some(&var) = analysis.index().stmt(trace.event(u).stmt).uses.first() else {
        return Vec::new();
    };
    let preds: Vec<_> = trace
        .insts()
        .filter(|&i| i < u && trace.event(i).is_predicate())
        .collect();
    let mut seen = HashSet::new();
    let mut reqs: Vec<VerifyRequest> = preds
        .iter()
        .rev()
        .take(n)
        .filter(|&&p| seen.insert((p, u, var)))
        .map(|&p| VerifyRequest {
            p,
            u,
            var,
            wrong_output: u,
            expected: None,
        })
        .collect();
    // Ascending trace position: each verification wave's spine then
    // resumes from the previous wave's deepest checkpoint instead of
    // replaying the whole prefix from scratch.
    reqs.reverse();
    reqs
}

/// Locates the sibling `omislice` binary next to the current executable
/// (`target/{debug,release}` directly, or one level up from `deps/`).
fn sibling_omislice() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("omislice{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent()?;
    for _ in 0..2 {
        let candidate = dir.join(&name);
        if candidate.exists() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

/// The run configuration of one sweep tier. The default step budget
/// guards *switched* runs against infinite loops; the sweep's base runs
/// are known-terminating and the ×10000 tier legitimately exceeds it, so
/// the ceiling grows with the tier. The timed columns and the serve
/// sample's exposure check both run under it.
fn tier_config(inputs: &[i64], scale: usize) -> RunConfig {
    let mut config = RunConfig::with_inputs(inputs.to_vec());
    config.step_budget = config.step_budget.max(scale as u64 * 1024);
    config
}

/// The first fault of `b` whose faulty run, under `config`, terminates
/// normally with outputs that differ from the fixed run's: its id and
/// faulty source, or why there is none.
fn exposed_fault(b: &Benchmark, config: &RunConfig) -> Result<(String, String), String> {
    let fixed = compile(b.fixed_src).map_err(|e| e.to_string())?;
    let want = run_plain(&fixed, config);
    if !want.is_normal() {
        return Err("fixed run not normal at this scale".to_string());
    }
    for f in &b.faults {
        let faulty_src = f.apply(b.fixed_src);
        let Ok(faulty) = compile(&faulty_src) else {
            continue;
        };
        let got = run_plain(&faulty, config);
        if got.is_normal() && got.outputs != want.outputs {
            return Ok((f.id.to_string(), faulty_src));
        }
    }
    Err("no fault exposed by this workload".to_string())
}

/// Measures served locate latency for one benchmark × workload against
/// a server at `via`, using the first fault the workload exposes under
/// the tier's budget ([`tier_config`]). Returns `None` (with a note on
/// stderr, so the dropped column is never silent) when no fault is
/// exposed or a leg of the measurement fails.
fn serve_sample(
    via: &str,
    b: &Benchmark,
    inputs: &[i64],
    scale: usize,
    reps: usize,
) -> Option<ServeSample> {
    let skip = |why: String| {
        eprintln!("sweep: no serve columns for {} ({why})", b.name);
    };
    let (fault, faulty_src) = match exposed_fault(b, &tier_config(inputs, scale)) {
        Ok(found) => found,
        Err(why) => {
            skip(why);
            return None;
        }
    };

    // Cold CLI baseline: a fresh process per run, parsing and tracing
    // from scratch — what a one-shot invocation actually costs.
    let cli = match sibling_omislice() {
        Some(p) => p,
        None => {
            skip("no sibling omislice binary".to_string());
            return None;
        }
    };
    let dir = std::env::temp_dir();
    let tag = format!("omislice-sweep-serve-{}-{}", std::process::id(), b.name);
    let faulty_path = dir.join(format!("{tag}-faulty.oml"));
    let fixed_path = dir.join(format!("{tag}-fixed.oml"));
    if std::fs::write(&faulty_path, &faulty_src).is_err()
        || std::fs::write(&fixed_path, b.fixed_src).is_err()
    {
        skip("cannot write temp sources".to_string());
        return None;
    }
    let csv = inputs
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut cli_cold_ns = u128::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = std::process::Command::new(&cli)
            .args(["locate", "--faulty"])
            .arg(&faulty_path)
            .arg("--fixed")
            .arg(&fixed_path)
            .args(["--input", &csv])
            .output();
        let elapsed = t.elapsed().as_nanos();
        match out {
            Ok(o) if o.status.success() => cli_cold_ns = cli_cold_ns.min(elapsed),
            Ok(o) => {
                skip(format!("cli locate failed with {:?}", o.status.code()));
                return None;
            }
            Err(e) => {
                skip(format!("cannot spawn cli: {e}"));
                return None;
            }
        }
    }
    std::fs::remove_file(&faulty_path).ok();
    std::fs::remove_file(&fixed_path).ok();

    // Served legs: the first request for this (sources, input) version
    // misses the artifact cache and builds; the repeats hit it.
    let client = crate::client::ServeClient::new(via);
    let body = Json::object([
        ("faulty", Json::str(&faulty_src)),
        ("fixed", Json::str(b.fixed_src)),
        (
            "input",
            Json::Array(inputs.iter().map(|&v| Json::Int(v)).collect()),
        ),
    ]);
    let cache_of = |r: &crate::client::ServeResponse| {
        r.json()
            .ok()
            .and_then(|v| v.get("cache").and_then(|c| c.as_str().map(str::to_string)))
            .unwrap_or_default()
    };
    let t = Instant::now();
    let cold = match client.post("/locate", &body) {
        Ok(r) if r.status == 200 => r,
        Ok(r) => {
            skip(format!("served cold request failed with {}", r.status));
            return None;
        }
        Err(e) => {
            skip(e);
            return None;
        }
    };
    let served_cold_ns = t.elapsed().as_nanos();
    let cold_cache = cache_of(&cold);
    let mut served_warm_ns = u128::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        match client.post("/locate", &body) {
            Ok(r) if r.status == 200 && cache_of(&r) == "hit" => {
                served_warm_ns = served_warm_ns.min(t.elapsed().as_nanos());
            }
            Ok(r) => {
                skip(format!(
                    "served warm request was not a 200 cache hit (status {})",
                    r.status
                ));
                return None;
            }
            Err(e) => {
                skip(e);
                return None;
            }
        }
    }
    Some(ServeSample {
        fault,
        cli_cold_ns,
        served_cold_ns,
        served_warm_ns,
        cold_cache,
        warm_speedup: cli_cold_ns as f64 / served_warm_ns.max(1) as f64,
    })
}

/// Runs the sweep and returns one sample per benchmark × scale.
pub fn run_sweep(opts: &SweepOptions) -> Vec<Sample> {
    let mut samples = Vec::new();
    for b in all_benchmarks() {
        let program = compile(b.fixed_src).expect("corpus compiles");
        let analysis = ProgramAnalysis::build(&program);
        let mut gen = WorkloadGen::new(SWEEP_SEED);
        for &scale in &opts.scales {
            let inputs = gen.sized_for_benchmark(b.name, scale);
            let config = tier_config(&inputs, scale);

            let (plain, plain_ns) = timed_min(opts.reps, || {
                run_plain_indexed(&program, analysis.index(), &config)
            });
            assert!(plain.is_normal(), "{}: {:?}", b.name, plain.termination);

            let (run, graph_ns) = timed_min(opts.reps, || run_traced(&program, &analysis, &config));

            // The trace index and CSR dependence graph are built once per
            // trace and amortized over every slice/locate query on it (the
            // locator builds both up front the same way), so their
            // construction is charged to neither slice timing.
            run.trace.index();
            let graph = DepGraph::new(&run.trace);

            let (ds_dyn, rs_dyn, rs_ns) = match run.trace.outputs().last() {
                Some(last) => {
                    let ds = graph.backward_slice(last.inst);
                    let (rs, rs_ns) = timed_min(opts.reps, || {
                        relevant_slice_on(&graph, &analysis, last.inst)
                    });
                    (Some(ds.dynamic_size()), Some(rs.dynamic_size()), rs_ns)
                }
                None => (None, None, 0),
            };

            let requests = verify_batch(&run.trace, &analysis, 16);
            let verify = (!requests.is_empty()).then(|| {
                let scratch_ns = {
                    let mut v =
                        Verifier::new(&program, &analysis, &config, &run.trace, VerifierMode::Edge)
                            .with_resume(ResumeMode::Disabled);
                    let t = Instant::now();
                    v.verify_all(&requests);
                    t.elapsed().as_nanos()
                };
                // One verifier shared across the resumed pass and a
                // re-submission of the identical batch: the second pass
                // must be answered entirely from the verdict memo, which
                // is what `cache_hits == batch` asserts downstream.
                let mut v =
                    Verifier::new(&program, &analysis, &config, &run.trace, VerifierMode::Edge)
                        .with_resume(ResumeMode::Auto);
                let t = Instant::now();
                v.verify_all(&requests);
                let resumed_ns = t.elapsed().as_nanos();
                let t = Instant::now();
                v.verify_all(&requests);
                let memo_ns = t.elapsed().as_nanos();
                let batches = BATCH_SIZES
                    .iter()
                    .map(|&n| {
                        let reqs = verify_batch(&run.trace, &analysis, n);
                        let mut v = Verifier::new(
                            &program,
                            &analysis,
                            &config,
                            &run.trace,
                            VerifierMode::Edge,
                        )
                        .with_resume(ResumeMode::Auto);
                        let t = Instant::now();
                        v.verify_all(&reqs);
                        BatchPoint {
                            requested: n,
                            batch: reqs.len(),
                            wall_ns: t.elapsed().as_nanos(),
                        }
                    })
                    .collect();
                VerifySample {
                    batch: requests.len(),
                    scratch_ns,
                    resumed_ns,
                    memo_ns,
                    stats: v.stats().clone(),
                    batches,
                }
            });

            let (phases, sched) = instrumented_pass(&program, &analysis, &config);

            let io = {
                let path = std::env::temp_dir().join(format!(
                    "omislice-sweep-{}-{}-{scale}.omitrace",
                    std::process::id(),
                    b.name,
                ));
                let (_, save_ns) = timed_min(opts.reps, || {
                    save_trace(&run.trace, &path).expect("saves the sweep trace")
                });
                let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let (reloaded, load_ns) = timed_min(opts.reps, || {
                    load_trace(&path).expect("reloads the sweep trace")
                });
                assert_eq!(reloaded.len(), run.trace.len(), "{}: reload drift", b.name);
                std::fs::remove_file(&path).ok();
                IoSample {
                    save_ns,
                    load_ns,
                    file_bytes,
                    columnar_bytes: run.trace.columns().bytes(),
                }
            };

            let serve = opts
                .via
                .as_deref()
                .and_then(|via| serve_sample(via, &b, &inputs, scale, opts.reps));

            samples.push(Sample {
                benchmark: b.name.to_string(),
                scale,
                input_len: inputs.len(),
                trace_len: run.trace.len(),
                ds_dyn,
                rs_dyn,
                plain_ns,
                graph_ns,
                rs_ns,
                verify,
                phases,
                sched,
                io,
                serve,
            });
        }
    }
    samples
}

/// The reference pass the sweep's phase columns and the overhead guard
/// both measure: trace, index build, dependence graph, the relevant
/// slice of the last output, and a resumed 16-request verify batch.
pub fn reference_pass(
    program: &omislice::omislice_lang::Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
) {
    let run = run_traced(program, analysis, config);
    run.trace.index();
    let graph = DepGraph::new(&run.trace);
    if let Some(last) = run.trace.outputs().last() {
        let _ = relevant_slice_on(&graph, analysis, last.inst);
    }
    let requests = verify_batch(&run.trace, analysis, 16);
    if !requests.is_empty() {
        let mut v = Verifier::new(program, analysis, config, &run.trace, VerifierMode::Edge)
            .with_resume(ResumeMode::Auto);
        v.verify_all(&requests);
    }
}

/// Re-runs the [`reference_pass`] once with the recorder on and folds
/// the drained recording into a [`PhaseSample`] and a [`SchedSample`].
/// Kept separate from the `timed_min` sections: those measure the
/// recorder-off product path.
fn instrumented_pass(
    program: &omislice::omislice_lang::Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
) -> (PhaseSample, SchedSample) {
    omislice_obs::reset();
    omislice_obs::set_enabled(true);
    reference_pass(program, analysis, config);
    omislice_obs::set_enabled(false);
    let rec = omislice_obs::drain();
    let self_times = rec.self_times();
    let self_of = |name: &str| self_times.get(name).copied().unwrap_or(0);
    let summary = rec.summarize();
    let sched = SchedSample {
        utilization: summary
            .workers
            .iter()
            .filter(|w| w.worker != omislice_obs::profile::WORKER_MAIN)
            .map(|w| summary.utilization(w))
            .collect(),
        tasks: summary.workers.iter().map(|w| w.tasks).sum(),
        drops: summary.drops,
    };
    // The trace phase is record plus index build: the index is built on
    // demand, in its own `index` span outside the `trace` span.
    let phases = PhaseSample {
        trace_ns: rec.total_ns("trace") + rec.total_ns("index"),
        graph_ns: rec.total_ns("graph"),
        slice_ns: rec.total_ns("slice"),
        verify_ns: rec.total_ns("verify"),
        trace_self_ns: self_of("trace") + self_of("index"),
        graph_self_ns: self_of("graph"),
        slice_self_ns: self_of("slice"),
        verify_self_ns: self_of("verify"),
    };
    (phases, sched)
}

fn micros(ns: u128) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

fn json_opt(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn json_us(ns: u128) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

fn sample_json(s: &Sample) -> String {
    let verify = match &s.verify {
        None => "null".to_string(),
        Some(v) => {
            let scaling: Vec<String> = v
                .batches
                .iter()
                .map(|b| {
                    format!(
                        "{{\"requested\":{},\"batch\":{},\"verify_us\":{}}}",
                        b.requested,
                        b.batch,
                        json_us(b.wall_ns),
                    )
                })
                .collect();
            format!(
                concat!(
                    "{{\"batch\":{},\"scratch_us\":{},\"resumed_us\":{},\"memo_us\":{},",
                    "\"inline_captures\":{},\"captures_skipped\":{},",
                    "\"resumed_runs\":{},\"scratch_runs\":{},",
                    "\"steps_saved\":{},\"cache_hits\":{},\"reexecutions\":{},",
                    "\"resume_ratio\":{:.3},\"batch_scaling\":[{}]}}"
                ),
                v.batch,
                json_us(v.scratch_ns),
                json_us(v.resumed_ns),
                json_us(v.memo_ns),
                v.stats.inline_captures,
                v.stats.captures_skipped,
                v.stats.resumed_runs,
                v.stats.scratch_runs,
                v.stats.steps_saved,
                v.stats.cache_hits,
                v.stats.reexecutions,
                v.stats.resume_ratio(),
                scaling.join(","),
            )
        }
    };
    // `trace_us` stays the first phases key: `bench_smoke` greps for the
    // literal prefix `"phases":{"trace_us":`.
    let phases = format!(
        concat!(
            "{{\"trace_us\":{},\"graph_us\":{},\"slice_us\":{},\"verify_us\":{},",
            "\"trace_self_us\":{},\"graph_self_us\":{},\"slice_self_us\":{},",
            "\"verify_self_us\":{}}}"
        ),
        json_us(s.phases.trace_ns as u128),
        json_us(s.phases.graph_ns as u128),
        json_us(s.phases.slice_ns as u128),
        json_us(s.phases.verify_ns as u128),
        json_us(s.phases.trace_self_ns as u128),
        json_us(s.phases.graph_self_ns as u128),
        json_us(s.phases.slice_self_ns as u128),
        json_us(s.phases.verify_self_ns as u128),
    );
    let sched = format!(
        concat!(
            "{{\"sched_utilization\":[{}],\"tasks\":{},",
            "\"profile_drops\":{}}}"
        ),
        s.sched
            .utilization
            .iter()
            .map(|u| format!("{u:.3}"))
            .collect::<Vec<_>>()
            .join(","),
        s.sched.tasks,
        s.sched.drops,
    );
    let trace_io = format!(
        "{{\"save_us\":{},\"load_us\":{},\"file_bytes\":{},\"columnar_bytes\":{}}}",
        json_us(s.io.save_ns),
        json_us(s.io.load_ns),
        s.io.file_bytes,
        s.io.columnar_bytes,
    );
    let serve = match &s.serve {
        None => "null".to_string(),
        Some(v) => format!(
            concat!(
                "{{\"fault\":\"{}\",\"cli_cold_us\":{},\"served_cold_us\":{},",
                "\"served_warm_us\":{},\"cold_cache\":\"{}\",\"warm_speedup\":{:.1}}}"
            ),
            v.fault,
            json_us(v.cli_cold_ns),
            json_us(v.served_cold_ns),
            json_us(v.served_warm_ns),
            v.cold_cache,
            v.warm_speedup,
        ),
    };
    format!(
        concat!(
            "{{\"benchmark\":\"{}\",\"scale\":{},\"input_len\":{},",
            "\"trace_len\":{},\"ds_dyn\":{},\"rs_dyn\":{},",
            "\"plain_us\":{},\"graph_us\":{},\"rs_us\":{},",
            "\"phases\":{},\"sched\":{},\"trace_io\":{},\"serve\":{},\"verify\":{}}}"
        ),
        s.benchmark,
        s.scale,
        s.input_len,
        s.trace_len,
        json_opt(s.ds_dyn),
        json_opt(s.rs_dyn),
        json_us(s.plain_ns),
        json_us(s.graph_ns),
        json_us(s.rs_ns),
        phases,
        sched,
        trace_io,
        serve,
        verify,
    )
}

/// Renders the sweep as the harness's aligned text table.
pub fn render_table(samples: &[Sample]) -> String {
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            let (scratch, resumed, memo, scaling) = match &s.verify {
                Some(v) => (
                    micros(v.scratch_ns),
                    micros(v.resumed_ns),
                    micros(v.memo_ns),
                    v.batches
                        .iter()
                        .map(|b| micros(b.wall_ns))
                        .collect::<Vec<_>>()
                        .join("/"),
                ),
                None => (
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ),
            };
            vec![
                s.benchmark.clone(),
                format!("x{}", s.scale),
                s.input_len.to_string(),
                s.trace_len.to_string(),
                s.ds_dyn.map_or_else(|| "-".to_string(), |n| n.to_string()),
                s.rs_dyn.map_or_else(|| "-".to_string(), |n| n.to_string()),
                micros(s.plain_ns),
                micros(s.graph_ns),
                micros(s.rs_ns),
                if s.sched.utilization.is_empty() {
                    "-".to_string()
                } else {
                    s.sched
                        .utilization
                        .iter()
                        .map(|u| format!("{:.0}%", u * 100.0))
                        .collect::<Vec<_>>()
                        .join("/")
                },
                micros(s.io.save_ns),
                micros(s.io.load_ns),
                format!("{:.1}", s.io.file_bytes as f64 / 1024.0),
                scratch,
                resumed,
                memo,
                scaling,
                match &s.serve {
                    Some(v) => format!(
                        "{}/{}/{} ({:.1}x)",
                        micros(v.cli_cold_ns),
                        micros(v.served_cold_ns),
                        micros(v.served_warm_ns),
                        v.warm_speedup,
                    ),
                    None => "-".to_string(),
                },
            ]
        })
        .collect();
    crate::table::render(
        &[
            "Benchmark",
            "scale",
            "input len",
            "trace len",
            "DS(dyn)",
            "RS(dyn)",
            "Plain (us)",
            "Graph (us)",
            "RS (us)",
            "Sched util",
            "Save (us)",
            "Load (us)",
            "File (KB)",
            "Verif scratch (us)",
            "Verif resumed (us)",
            "Verif memo (us)",
            "Verif batch 4/16/64/256 (us)",
            "Serve cli/cold/warm (us)",
        ],
        &rows,
    )
}

/// Serializes the sweep in the `BENCH_sweep.json` format.
pub fn to_json(samples: &[Sample]) -> String {
    let body: Vec<String> = samples.iter().map(sample_json).collect();
    format!(
        "{{\n  \"seed\": \"0x5EED\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
        body.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_interp::DEFAULT_STEP_BUDGET;

    /// sed ×10000 runs past the default step budget, so a serve sample
    /// checked under it found no exposed fault and the tier lost its
    /// serve columns; under the budget the timed columns run with, the
    /// fault is exposed.
    #[test]
    fn serve_sample_takes_the_timed_columns_budget() {
        let sed = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "sed")
            .expect("the corpus has sed");
        let inputs = WorkloadGen::new(SWEEP_SEED).sized_for_benchmark("sed", 10_000);
        let config = tier_config(&inputs, 10_000);
        assert_eq!(config.step_budget, 10_000 * 1024);
        assert!(config.step_budget > DEFAULT_STEP_BUDGET);
        assert_eq!(tier_config(&inputs, 10).step_budget, DEFAULT_STEP_BUDGET);
        assert!(exposed_fault(&sed, &RunConfig::with_inputs(inputs.clone())).is_err());
        assert!(exposed_fault(&sed, &config).is_ok());
    }
}
