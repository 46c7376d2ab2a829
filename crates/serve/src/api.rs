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
//! report is the CLI's byte for byte. Each handler names the fields it
//! reads and answers 400 `bad-field` to any other, the way the CLI
//! rejects unknown flags.

use crate::cache::{fnv64, key_hex, parse_key_hex, Built, SliceArtifacts};
use crate::server::ServerState;
use omislice::omislice_interp::{parse_inputs, parse_profiles, run_traced, ResumeMode, RunConfig};
use omislice::omislice_lang::{compile, FrontendError, Program};
use omislice::omislice_slicing::{relevant_slice, DepGraph};
use omislice::omislice_trace::supervisor::fault_hit;
use omislice::omislice_trace::{take_recovery, FaultAction, FaultPlan, FaultSite, Supervisor};
use omislice::{
    render_slice, DebugSession, JournalMeta, LocateConfig, SessionError, VerifierMode, MAX_JOBS,
};
use omislice_analysis::ProgramAnalysis;
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

/// Rejects any field outside `known`, so a retired or misspelled knob
/// fails loudly instead of silently taking its default.
fn known_fields(body: &Json, known: &[&str]) -> Result<(), ApiError> {
    if let Json::Object(pairs) = body {
        if let Some((k, _)) = pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(ApiError::bad("bad-field", format!("unknown field `{k}`")));
        }
    }
    Ok(())
}

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
/// comma-separated string form ([`parse_inputs`]). Absent means no
/// inputs.
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
        Some(Json::Str(t)) => {
            parse_inputs(t).map_err(|e| ApiError::bad("bad-field", format!("{e} in `{key}`")))
        }
        Some(_) => Err(ApiError::bad(
            "bad-field",
            format!("`{key}` must be an array of integers or a comma-separated string"),
        )),
    }
}

/// Parses the profile-input field: an array of input streams or the
/// CLI's `;`-separated string form ([`parse_profiles`]).
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
        Some(Json::Str(t)) => {
            parse_profiles(t).map_err(|e| ApiError::bad("bad-field", format!("{e} in `profile`")))
        }
        Some(_) => Err(ApiError::bad(
            "bad-field",
            "`profile` must be an array of integer arrays or a `;`-separated string",
        )),
    }
}

fn mode_field(body: &Json) -> Result<VerifierMode, ApiError> {
    opt_str(body, "mode")?.map_or(Ok(VerifierMode::Edge), |t| {
        VerifierMode::parse(t).map_err(|e| ApiError::bad("bad-field", e))
    })
}

/// The locate request's `jobs` (its verify workers), default 1 rather
/// than [`omislice::default_jobs`]: the server's worker pool already
/// spreads concurrent requests over the cores.
fn jobs_field(body: &Json) -> Result<usize, ApiError> {
    match opt_u64(body, "jobs")? {
        None => Ok(1),
        Some(n) if (1..=MAX_JOBS as u64).contains(&n) => Ok(n as usize),
        Some(n) => Err(ApiError::bad(
            "bad-field",
            format!("`jobs` must be between 1 and {MAX_JOBS}, got {n}"),
        )),
    }
}

/// Builds the supervisor for one request from `fault_plan` (parsed by
/// [`FaultPlan::parse`]) and `deadline_ms`.
fn supervisor_fields(body: &Json) -> Result<Supervisor, ApiError> {
    let plan = opt_str(body, "fault_plan")?
        .map(FaultPlan::parse)
        .transpose()
        .map_err(|e| ApiError::bad("bad-field", e))?;
    let mut sup = Supervisor::new().with_fault_plan(plan);
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

/// Every field `POST /locate` reads.
const LOCATE_FIELDS: [&str; 13] = [
    "program",
    "faulty",
    "fixed",
    "input",
    "profile",
    "mode",
    "jobs",
    "no_resume",
    "fault_plan",
    "deadline_ms",
    "explain",
    "journal",
    "label",
];

/// Resolves the session for a locate request, with its cache key: by
/// `program` hash (hit required), or by sources (a cache hit, the session
/// a concurrent request for the same sources is building, or a fresh
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
    let (session, hit) = state.cache.session_or_build(key, || {
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
        Ok(Built {
            bytes: session_bytes(faulty_src, fixed_src, &session),
            session: Arc::new(session),
            // A deadline that expired during the build leaves a partial
            // trace: serve the partial result but never cache or share it.
            shared: !sup.deadline_expired(),
        })
    })?;
    Ok((key, session, if hit { "hit" } else { "miss" }))
}

/// Heap bytes the faulty program and its analysis hold per byte of the
/// two sources: ~13 on the corpus (sed: 41 KB for 3.2 KB of sources).
const PROGRAM_BYTES_PER_SOURCE_BYTE: usize = 16;

/// What the artifact cache charges for a locate session built from
/// `faulty_src` and `fixed_src`: the failing trace as it is held (its
/// columns through the first wrong output with their spare capacity,
/// outputs, anything built on it), the whole failing run's outputs, the
/// failing input, the oracle's reference values, the value profile, and
/// the faulty program with its analysis. A localization runs on a view of
/// the trace that it drops on return, so a `locate` leaves the session's
/// footprint as the build left it.
pub fn session_bytes(faulty_src: &str, fixed_src: &str, session: &DebugSession) -> usize {
    PROGRAM_BYTES_PER_SOURCE_BYTE * (faulty_src.len() + fixed_src.len())
        + session.trace().heap_bytes()
        + std::mem::size_of_val(session.run_outputs())
        + std::mem::size_of_val(session.config().inputs.as_slice())
        + session.oracle().bytes()
        + session.profile().bytes()
}

/// The request's [`LocateConfig`]: the tuning fields the CLI takes as
/// flags, the statement fault and deadline of the request's supervisor,
/// and the server's shared verification memo.
fn locate_config(
    state: &ServerState,
    body: &Json,
    sup: &Supervisor,
) -> Result<LocateConfig, ApiError> {
    Ok(LocateConfig {
        mode: mode_field(body)?,
        jobs: jobs_field(body)?,
        resume: if opt_bool(body, "no_resume")? {
            ResumeMode::Disabled
        } else {
            ResumeMode::Auto
        },
        memo: Some(Arc::clone(&state.memo)),
        fault: sup.stmt_fault(),
        deadline: sup.deadline(),
        ..LocateConfig::default()
    })
}

/// `POST /locate`: run (or replay) fault localization for one program
/// version, sharing sessions and the verification memo across requests.
pub fn handle_locate(state: &ServerState, body: &Json) -> Result<Json, ApiError> {
    state.locates.fetch_add(1, Ordering::Relaxed);
    known_fields(body, &LOCATE_FIELDS)?;
    let sup = supervisor_fields(body)?;
    // The handler fault site fires inside the supervised scope so the
    // server's catch_unwind fault isolation is exercised end-to-end.
    sup.run(|| {
        if fault_hit(FaultSite::Handler) == Some(FaultAction::Panic) {
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
        let records = session.journal(&meta, &lc, &outcome, Some(&recovery), None, None);
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
    known_fields(body, &["source", "input", "output", "relevant"])?;
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
            // Relevant slices read the trace index: build it before the
            // charge, so the charge covers all the cached trace will hold.
            trace.index();
            let bytes = PROGRAM_BYTES_PER_SOURCE_BYTE * source.len() + trace.heap_bytes();
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
    let slice = if opt_bool(body, "relevant")? {
        relevant_slice(&arts.trace, &arts.analysis, criterion)
    } else {
        DepGraph::new(&arts.trace).backward_slice(criterion)
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
        (
            "text",
            Json::str(render_slice(&arts.trace, &arts.analysis, &slice)),
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
        "Artifact cache misses: one per build, however many requests waited for it, and one per unknown program hash",
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
