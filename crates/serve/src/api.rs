//! Request handlers: JSON body in, JSON value out.
//!
//! Every handler is a pure function from a parsed body to either a
//! response document or an [`ApiError`] carrying the HTTP status — the
//! transport, worker pool, and panic isolation live in
//! [`server`](crate::server). `POST /locate` is a thin adapter over
//! [`DebugSession`], the pipeline the CLI's `locate` runs too: request
//! fields become a session builder (built under the request's
//! [`Supervisor`] on a cache miss) and a [`LocateConfig`] carrying the
//! server's persistent [`VerifyMemo`](omislice::VerifyMemo), so a served
//! report is the CLI's byte for byte.

use crate::cache::{fnv64, key_hex, parse_key_hex, SliceArtifacts};
use crate::server::ServerState;
use omislice::omislice_interp::{run_traced, BudgetSchedule, FaultPlan, ResumeMode, RunConfig};
use omislice::omislice_lang::{compile, FrontendError, Program};
use omislice::omislice_slicing::{relevant_slice_jobs, DepGraph, Slice};
use omislice::omislice_trace::supervisor::chaos_hit;
use omislice::omislice_trace::{take_recovery, ChaosAction, ChaosPlan, ChaosSite, Supervisor};
use omislice::{
    build_journal, describe_inst, DebugSession, JournalMeta, LocateConfig, SchedulerMode,
    SessionError, VerifierMode,
};
use omislice_analysis::ProgramAnalysis;
use omislice_bench::diffcheck::{run_diffcheck, DiffcheckOptions};
use omislice_obs::{Json, MetricSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A handler failure: the HTTP status, a stable machine-readable code,
/// and a human-readable message.
#[derive(Debug)]
pub struct ApiError {
    pub status: u16,
    pub code: &'static str,
    pub message: String,
}

impl ApiError {
    pub fn bad(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code,
            message: message.into(),
        }
    }
}

/// The `{"error":{...}}` envelope every failure response uses.
pub fn error_body(code: &str, message: &str) -> Json {
    Json::object([(
        "error",
        Json::object([("code", Json::str(code)), ("message", Json::str(message))]),
    )])
}

// --- request field helpers -------------------------------------------

fn opt_str<'a>(body: &'a Json, key: &str) -> Result<Option<&'a str>, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ApiError::bad("bad-field", format!("`{key}` must be a string"))),
    }
}

fn req_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    opt_str(body, key)?
        .ok_or_else(|| ApiError::bad("missing-field", format!("`{key}` is required")))
}

fn opt_bool(body: &Json, key: &str) -> Result<bool, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ApiError::bad("bad-field", format!("`{key}` must be a boolean"))),
    }
}

fn opt_u64(body: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_int() {
            Some(n) if n >= 0 => Ok(Some(n as u64)),
            _ => Err(ApiError::bad(
                "bad-field",
                format!("`{key}` must be a non-negative integer"),
            )),
        },
    }
}

/// Parses an input stream field: a JSON array of integers or the CLI's
/// comma-separated string form. Absent means no inputs.
fn inputs_field(body: &Json, key: &str) -> Result<Vec<i64>, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_int().ok_or_else(|| {
                    ApiError::bad("bad-field", format!("`{key}` must hold integers"))
                })
            })
            .collect(),
        Some(Json::Str(t)) => parse_input_text(t)
            .map_err(|s| ApiError::bad("bad-field", format!("bad value `{s}` in `{key}`"))),
        Some(_) => Err(ApiError::bad(
            "bad-field",
            format!("`{key}` must be an array of integers or a comma-separated string"),
        )),
    }
}

fn parse_input_text(text: &str) -> Result<Vec<i64>, String> {
    if text.trim().is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|s| s.trim().parse::<i64>().map_err(|_| s.to_string()))
        .collect()
}

/// Parses the profile-input field: an array of input streams or the
/// CLI's `;`-separated string form.
fn profiles_field(body: &Json) -> Result<Vec<Vec<i64>>, ApiError> {
    match body.get("profile") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Array(items)) => items
            .iter()
            .map(|part| match part {
                Json::Array(vals) => vals
                    .iter()
                    .map(|v| {
                        v.as_int().ok_or_else(|| {
                            ApiError::bad("bad-field", "`profile` must hold integer arrays")
                        })
                    })
                    .collect(),
                _ => Err(ApiError::bad(
                    "bad-field",
                    "`profile` must be an array of integer arrays",
                )),
            })
            .collect(),
        Some(Json::Str(t)) => t
            .split(';')
            .map(|part| {
                parse_input_text(part).map_err(|s| {
                    ApiError::bad("bad-field", format!("bad value `{s}` in `profile`"))
                })
            })
            .collect(),
        Some(_) => Err(ApiError::bad(
            "bad-field",
            "`profile` must be an array of integer arrays or a `;`-separated string",
        )),
    }
}

fn mode_field(body: &Json) -> Result<VerifierMode, ApiError> {
    Ok(match opt_str(body, "mode")? {
        None | Some("edge") => VerifierMode::Edge,
        Some("path") => VerifierMode::Path,
        Some("value") => VerifierMode::ValueChange,
        Some(other) => {
            return Err(ApiError::bad(
                "bad-field",
                format!("unknown mode `{other}` (edge|path|value)"),
            ))
        }
    })
}

fn jobs_field(body: &Json) -> Result<usize, ApiError> {
    match opt_u64(body, "jobs")? {
        None => Ok(1),
        Some(n) if (1..=256).contains(&n) => Ok(n as usize),
        Some(n) => Err(ApiError::bad(
            "bad-field",
            format!("`jobs` must be between 1 and 256, got {n}"),
        )),
    }
}

/// Builds the supervisor for one request from `chaos`/`deadline_ms`.
fn supervisor_fields(body: &Json) -> Result<Supervisor, ApiError> {
    let chaos = opt_str(body, "chaos")?
        .map(ChaosPlan::parse)
        .transpose()
        .map_err(|e| ApiError::bad("bad-field", e))?;
    let mut sup = Supervisor::new().with_chaos(chaos);
    if let Some(ms) = opt_u64(body, "deadline_ms")? {
        sup = sup.with_deadline_ms(ms);
    }
    Ok(sup)
}

/// A compile error rendered against its source, under the program's role.
fn compile_error(which: &str, source: &str, e: &FrontendError) -> ApiError {
    ApiError::bad(
        "compile-error",
        format!(
            "{which} program:\n{}",
            omislice::omislice_lang::render_frontend_error(source, e)
        ),
    )
}

fn compile_src(source: &str, which: &str) -> Result<Program, ApiError> {
    compile(source).map_err(|e| compile_error(which, source, &e))
}

/// Canonical text forms used for cache keying, so `[1,2]` and `"1,2"`
/// resolve to the same artifacts.
fn canonical_inputs(inputs: &[i64]) -> String {
    inputs
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn canonical_profiles(profiles: &[Vec<i64>]) -> String {
    profiles
        .iter()
        .map(|p| canonical_inputs(p))
        .collect::<Vec<_>>()
        .join(";")
}

// --- POST /locate ----------------------------------------------------

/// Resolves the session for a locate request, with its cache key: by
/// `program` hash (hit required), or by sources (a cache hit, or a fresh
/// build whose failing trace records under the request's supervisor).
fn resolve_session(
    state: &ServerState,
    body: &Json,
    sup: &Supervisor,
) -> Result<(u64, Arc<DebugSession>, &'static str), ApiError> {
    if let Some(hex) = opt_str(body, "program")? {
        let key = parse_key_hex(hex)
            .ok_or_else(|| ApiError::bad("bad-field", format!("bad program hash `{hex}`")))?;
        return match state.cache.get_session(key) {
            Some(session) => Ok((key, session, "hit")),
            None => Err(ApiError {
                status: 404,
                code: "unknown-program",
                message: format!("no cached program {hex}; send sources to (re)build it"),
            }),
        };
    }
    let faulty_src = req_str(body, "faulty")?;
    let fixed_src = req_str(body, "fixed")?;
    let inputs = inputs_field(body, "input")?;
    let profiles = profiles_field(body)?;
    let key = fnv64(&[
        b"locate",
        faulty_src.as_bytes(),
        fixed_src.as_bytes(),
        canonical_inputs(&inputs).as_bytes(),
        canonical_profiles(&profiles).as_bytes(),
    ]);
    if let Some(session) = state.cache.get_session(key) {
        return Ok((key, session, "hit"));
    }

    let session = DebugSession::builder(faulty_src)
        .reference(fixed_src)
        .failing_input(inputs)
        .profile_inputs(profiles)
        .supervisor(sup.clone())
        .build()
        .map_err(|e| match e {
            SessionError::Faulty(e) => compile_error("faulty", faulty_src, &e),
            SessionError::Reference(e) => compile_error("fixed", fixed_src, &e),
            SessionError::StructuralMismatch(m) => ApiError::bad("structural-mismatch", m),
            e @ SessionError::IdenticalPrograms => {
                ApiError::bad("identical-programs", e.to_string())
            }
            e @ SessionError::MissingReference => ApiError::bad("missing-field", e.to_string()),
        })?;
    let bytes = faulty_src.len()
        + fixed_src.len()
        + session.trace().columns().bytes()
        + session.oracle().reference().columns().bytes()
        + 4096;
    let session = Arc::new(session);
    // A deadline that expired during the build leaves a partial trace:
    // serve the partial result but never cache it.
    if !sup.deadline_expired() {
        state.cache.insert_session(key, Arc::clone(&session), bytes);
    }
    Ok((key, session, "miss"))
}

/// The request's [`LocateConfig`]: the tuning fields the CLI takes as
/// flags, the deadline of the request's supervisor, and the server's
/// shared verification memo.
fn locate_config(
    state: &ServerState,
    body: &Json,
    sup: &Supervisor,
) -> Result<LocateConfig, ApiError> {
    let budget = match opt_str(body, "budget")? {
        Some(t) => BudgetSchedule::parse(t).map_err(|e| ApiError::bad("bad-field", e))?,
        None => BudgetSchedule::default(),
    };
    let fault = opt_str(body, "fault_plan")?
        .map(FaultPlan::parse)
        .transpose()
        .map_err(|e| ApiError::bad("bad-field", e))?;
    let scheduler = match opt_str(body, "scheduler")? {
        Some(t) => SchedulerMode::parse(t).map_err(|e| ApiError::bad("bad-field", e))?,
        None => SchedulerMode::default(),
    };
    Ok(LocateConfig {
        mode: mode_field(body)?,
        jobs: jobs_field(body)?,
        resume: if opt_bool(body, "no_resume")? {
            ResumeMode::Disabled
        } else {
            ResumeMode::Auto
        },
        scheduler,
        capture_threshold: opt_u64(body, "capture_threshold")?.map(|n| n as usize),
        early_exit: opt_bool(body, "early_exit")?,
        memo: Some(Arc::clone(&state.memo)),
        budget,
        fault,
        deadline: sup.deadline(),
        ..LocateConfig::default()
    })
}

/// `POST /locate`: run (or replay) fault localization for one program
/// version, sharing sessions and the verification memo across requests.
pub fn handle_locate(state: &ServerState, body: &Json) -> Result<Json, ApiError> {
    state.locates.fetch_add(1, Ordering::Relaxed);
    let sup = supervisor_fields(body)?;
    // The handler chaos site fires inside the supervised scope so the
    // server's catch_unwind fault isolation is exercised end-to-end.
    sup.run(|| {
        if chaos_hit(ChaosSite::Handler) == Some(ChaosAction::Panic) {
            panic!("injected handler panic");
        }
    });
    let lc = locate_config(state, body, &sup)?;
    let explain = opt_bool(body, "explain")?;
    let journal = opt_bool(body, "journal")?;
    let label = opt_str(body, "label")?;
    let (key, session, cache_state) = resolve_session(state, body, &sup)?;
    let outcome = session.locate(&lc).map_err(|e| ApiError {
        status: 422,
        code: "no-wrong-output",
        message: e.to_string(),
    })?;
    let recovery = take_recovery();

    let mut pairs: Vec<(&'static str, Json)> = vec![
        (
            "status",
            Json::str(if outcome.deadline_expired {
                "partial"
            } else {
                "ok"
            }),
        ),
        ("program", Json::str(key_hex(key))),
        ("cache", Json::str(cache_state)),
        ("found", Json::Bool(outcome.found)),
        ("iterations", Json::Int(outcome.iterations as i64)),
        ("verifications", Json::Int(outcome.verifications as i64)),
        ("recoveries", Json::Int(recovery.total() as i64)),
        ("report", Json::str(session.report(&outcome, explain))),
        (
            "roots",
            Json::Array(
                session
                    .roots()
                    .iter()
                    .map(|r| Json::str(r.to_string()))
                    .collect(),
            ),
        ),
    ];
    if journal {
        let meta = JournalMeta {
            program: label.map_or_else(|| key_hex(key), str::to_string),
        };
        // Per-request journals never carry spans or profiles: the span
        // recorder is process-global and worker threads would interleave.
        let records = build_journal(
            &meta,
            &lc,
            &outcome,
            session.trace(),
            Some(&recovery),
            None,
            None,
        );
        pairs.push(("journal", Json::Array(records)));
    }
    Ok(Json::Object(
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    ))
}

// --- POST /slice -----------------------------------------------------

/// `POST /slice`: dynamic backward (or relevant) slice of one program
/// run, with the parsed program and trace cached per version.
pub fn handle_slice(state: &ServerState, body: &Json) -> Result<Json, ApiError> {
    state.slices.fetch_add(1, Ordering::Relaxed);
    let source = req_str(body, "source")?;
    let inputs = inputs_field(body, "input")?;
    let key = fnv64(&[
        b"slice",
        source.as_bytes(),
        canonical_inputs(&inputs).as_bytes(),
    ]);
    let (arts, cache_state) = match state.cache.get_slice(key) {
        Some(a) => (a, "hit"),
        None => {
            let program = compile_src(source, "sliced")?;
            let analysis = ProgramAnalysis::build(&program);
            let config = RunConfig::with_inputs(inputs);
            let trace = run_traced(&program, &analysis, &config).trace;
            let bytes = source.len() + trace.columns().bytes() + 4096;
            let arts = Arc::new(SliceArtifacts {
                key,
                program,
                analysis,
                trace,
            });
            state.cache.insert_slice(key, Arc::clone(&arts), bytes);
            (arts, "miss")
        }
    };
    let outputs = arts.trace.outputs();
    if outputs.is_empty() {
        return Err(ApiError {
            status: 422,
            code: "no-output",
            message: "the program printed nothing; no slicing criterion".to_string(),
        });
    }
    let idx = match opt_u64(body, "output")? {
        Some(n) => n as usize,
        None => outputs.len() - 1,
    };
    let criterion = outputs
        .get(idx)
        .ok_or_else(|| ApiError::bad("bad-field", format!("only {} outputs", outputs.len())))?
        .inst;
    let jobs = jobs_field(body)?;
    let slice = if opt_bool(body, "relevant")? {
        relevant_slice_jobs(&arts.trace, &arts.analysis, criterion, jobs)
    } else {
        arts.trace.build_index(jobs);
        DepGraph::with_jobs(&arts.trace, jobs).backward_slice(criterion)
    };

    Ok(Json::object([
        ("status", Json::str("ok")),
        ("program", Json::str(key_hex(key))),
        ("cache", Json::str(cache_state)),
        ("static_size", Json::Int(slice.static_size() as i64)),
        ("dynamic_size", Json::Int(slice.dynamic_size() as i64)),
        (
            "stmts",
            Json::Array({
                let mut ids: Vec<u32> = slice.stmts().iter().map(|s| s.0).collect();
                ids.sort_unstable();
                ids.into_iter()
                    .map(|s| Json::str(format!("S{s}")))
                    .collect()
            }),
        ),
        ("text", Json::str(render_slice(&arts, &slice))),
    ]))
}

/// The slice body exactly as the CLI prints it.
fn render_slice(arts: &SliceArtifacts, slice: &Slice) -> String {
    let mut out = String::new();
    for &inst in slice.insts() {
        out.push_str(&describe_inst(&arts.trace, &arts.analysis, inst));
        out.push('\n');
    }
    out.push_str(&format!(
        "-- {} statements / {} instances\n",
        slice.static_size(),
        slice.dynamic_size()
    ));
    out
}

// --- POST /diffcheck -------------------------------------------------

/// Cap on seeds per request, so one call cannot occupy a worker for
/// unbounded time.
const MAX_DIFFCHECK_SEEDS: u64 = 500;

/// `POST /diffcheck`: run the differential invariant sweep in-process.
pub fn handle_diffcheck(state: &ServerState, body: &Json) -> Result<Json, ApiError> {
    state.diffchecks.fetch_add(1, Ordering::Relaxed);
    let seeds = opt_u64(body, "seeds")?.unwrap_or(5);
    if seeds == 0 || seeds > MAX_DIFFCHECK_SEEDS {
        return Err(ApiError::bad(
            "bad-field",
            format!("`seeds` must be between 1 and {MAX_DIFFCHECK_SEEDS}"),
        ));
    }
    let opts = DiffcheckOptions {
        seeds,
        start_seed: opt_u64(body, "start_seed")?.unwrap_or(0),
        quick: !opt_bool(body, "thorough")?,
        chaos: opt_bool(body, "chaos")?,
    };
    let summary = run_diffcheck(&opts);
    Ok(Json::object([
        (
            "status",
            Json::str(if summary.failures.is_empty() {
                "ok"
            } else {
                "failed"
            }),
        ),
        ("cases", Json::Int(summary.cases as i64)),
        ("exposed", Json::Int(summary.exposed as i64)),
        ("located", Json::Int(summary.located as i64)),
        (
            "journals_compared",
            Json::Int(summary.journals_compared as i64),
        ),
        (
            "scheduler_configs",
            Json::Int(summary.scheduler_configs as i64),
        ),
        ("chaos_pipelines", Json::Int(summary.chaos_pipelines as i64)),
        (
            "chaos_recoveries",
            Json::Int(summary.chaos_recoveries as i64),
        ),
        (
            "failures",
            Json::Array(summary.failures.iter().map(Json::str).collect()),
        ),
    ]))
}

// --- GET /metrics ----------------------------------------------------

/// Folds request counters, cache occupancy, and the shared memo's
/// snapshot into one exportable set.
pub fn metrics_set(state: &ServerState) -> MetricSet {
    let mut set = MetricSet::new();
    set.push(
        "serve_requests_total",
        "Requests accepted by the worker pool",
        state.requests.load(Ordering::Relaxed) as f64,
    );
    set.push(
        "serve_errors_total",
        "Requests answered with a 4xx/5xx status",
        state.errors.load(Ordering::Relaxed) as f64,
    );
    set.push(
        "serve_panics_total",
        "Handler panics isolated by catch_unwind",
        state.panics.load(Ordering::Relaxed) as f64,
    );
    set.push(
        "serve_overloaded_total",
        "Connections shed with 503 (queue full)",
        state.overloaded.load(Ordering::Relaxed) as f64,
    );
    set.push(
        "serve_locate_requests",
        "POST /locate requests",
        state.locates.load(Ordering::Relaxed) as f64,
    );
    set.push(
        "serve_slice_requests",
        "POST /slice requests",
        state.slices.load(Ordering::Relaxed) as f64,
    );
    set.push(
        "serve_diffcheck_requests",
        "POST /diffcheck requests",
        state.diffchecks.load(Ordering::Relaxed) as f64,
    );
    let cache = state.cache.stats();
    set.push(
        "serve_cache_bytes",
        "Bytes held by the artifact cache (gauge)",
        cache.bytes as f64,
    );
    set.push(
        "serve_cache_entries",
        "Cached program versions (sessions + slices)",
        (cache.sessions + cache.slices) as f64,
    );
    set.push("serve_cache_hits", "Artifact cache hits", cache.hits as f64);
    set.push(
        "serve_cache_misses",
        "Artifact cache misses",
        cache.misses as f64,
    );
    set.push(
        "serve_cache_evictions",
        "Artifact cache evictions",
        cache.evictions as f64,
    );
    let memo = state.memo.snapshot();
    set.push(
        "serve_memo_run_bytes",
        "Bytes of memoized switched runs (gauge)",
        memo.run_bytes as f64,
    );
    set.push(
        "serve_memo_checkpoint_bytes",
        "Bytes of memoized checkpoints (gauge)",
        memo.checkpoint_bytes as f64,
    );
    set.push(
        "serve_memo_evictions",
        "Memo entries evicted by the size-bounded LRU",
        memo.evictions as f64,
    );
    set
}

/// `GET /healthz` body.
pub fn health_body(state: &ServerState) -> Json {
    Json::object([
        ("ok", Json::Bool(true)),
        ("workers", Json::Int(state.workers as i64)),
        (
            "requests",
            Json::Int(state.requests.load(Ordering::Relaxed) as i64),
        ),
    ])
}
