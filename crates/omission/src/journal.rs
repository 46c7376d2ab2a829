//! Builds the structured event journal (`omislice-obs/v1`) for one
//! `locate` run from a [`LocateOutcome`].
//!
//! The journal content mirrors the deterministic [`IterationRecord`] log
//! the locator produced, so it is byte-identical across thread counts and
//! resume modes once timing fields are stripped
//! ([`omislice_obs::strip_timing`]). The recorder's spans ride along as
//! a trailing `spans` record — pure timing, dropped by the stripper.

use crate::locate::{ChainEdgeKind, IterationRecord, LocateConfig, LocateOutcome, RequestPhase};
use crate::verify::Verdict;
use omislice_obs::{Json, ProfileSummary, Recording};
use omislice_trace::{RecoveryLog, RunOutcome, Trace};

/// Journal-stable name of a verdict.
pub fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::NotId => "not-id",
        Verdict::Id => "id",
        Verdict::StrongId => "strong-id",
    }
}

/// Journal-stable name of a run outcome (crashes carry their kind as a
/// `crashed:<kind>` suffix).
pub fn outcome_str(o: RunOutcome) -> String {
    match o {
        RunOutcome::Completed => "completed".to_string(),
        RunOutcome::BudgetExhausted => "budget-exhausted".to_string(),
        RunOutcome::Crashed(kind) => format!("crashed:{}", kind.as_str()),
        RunOutcome::SwitchNotLanded => "switch-not-landed".to_string(),
        RunOutcome::CheckpointInvalid => "checkpoint-invalid".to_string(),
    }
}

/// Journal-stable name of a chain-edge kind.
pub fn edge_kind_str(k: ChainEdgeKind) -> &'static str {
    match k {
        ChainEdgeKind::Data => "data",
        ChainEdgeKind::Control => "control",
        ChainEdgeKind::Implicit => "implicit",
        ChainEdgeKind::StrongImplicit => "strong-implicit",
    }
}

/// Everything the journal header identifies about the run.
#[derive(Debug, Clone)]
pub struct JournalMeta {
    /// Program (or benchmark) label.
    pub program: String,
}

fn iteration_record(it: &IterationRecord) -> Json {
    let requests: Vec<Json> = it
        .requests
        .iter()
        .map(|r| {
            Json::object([
                ("p", Json::UInt(r.p.0 as u64)),
                ("p_stmt", Json::UInt(r.p_stmt.0 as u64)),
                ("p_occ", Json::UInt(r.p_occ as u64)),
                ("u", Json::UInt(r.u.0 as u64)),
                ("var", Json::UInt(r.var.0 as u64)),
                ("verdict", Json::str(verdict_str(r.verdict))),
                ("outcome", Json::str(outcome_str(r.outcome))),
                (
                    "phase",
                    Json::str(match r.phase {
                        RequestPhase::Primary => "primary",
                        RequestPhase::Secondary => "secondary",
                    }),
                ),
            ])
        })
        .collect();
    let edges: Vec<Json> = it
        .edges_added
        .iter()
        .map(|e| {
            Json::object([
                ("from", Json::UInt(e.from.0 as u64)),
                ("to", Json::UInt(e.to.0 as u64)),
                ("kind", Json::str(edge_kind_str(e.kind))),
            ])
        })
        .collect();
    Json::object([
        ("type", Json::str("iteration")),
        ("iter", Json::UInt(it.iter as u64)),
        (
            "use",
            Json::object([
                ("inst", Json::UInt(it.use_inst.0 as u64)),
                ("stmt", Json::UInt(it.use_stmt.0 as u64)),
            ]),
        ),
        ("requests", Json::Array(requests)),
        ("edges_added", Json::Array(edges)),
        ("slice_before", Json::UInt(it.slice_before as u64)),
        ("slice_after", Json::UInt(it.slice_after as u64)),
    ])
}

/// Builds the full journal for one run: header, one record per
/// iteration, the summary, a recovery record when faults were absorbed
/// or the deadline expired, a profile record when a scheduler summary is
/// given, and — when a drained [`Recording`] is given — a trailing spans
/// record of its spans and tasks.
///
/// The recovery record carries no timing fields, so it survives
/// [`omislice_obs::strip_timing`]: journals from a faulted-and-recovered
/// run intentionally *differ* from clean ones there, and fault-plan
/// comparisons must drop `"recovery"` records before diffing. The
/// profile record is the opposite — scheduling facts — and is stripped
/// alongside `spans`; a run without `--profile-out` emits no profile
/// record at all, keeping clean journals byte-unchanged.
pub fn build_journal(
    meta: &JournalMeta,
    lc: &LocateConfig,
    outcome: &LocateOutcome,
    trace: &Trace,
    recovery: Option<&RecoveryLog>,
    profile: Option<&ProfileSummary>,
    spans: Option<&Recording>,
) -> Vec<Json> {
    let mut records = Vec::with_capacity(outcome.iteration_log.len() + 3);
    records.push(Json::object([
        ("type", Json::str("header")),
        ("schema", Json::str(omislice_obs::SCHEMA)),
        ("program", Json::str(meta.program.clone())),
        ("jobs", Json::UInt(lc.jobs as u64)),
        (
            "resume",
            Json::str(format!("{:?}", lc.resume).to_lowercase()),
        ),
        ("mode", Json::str(format!("{:?}", lc.mode).to_lowercase())),
        ("trace_len", Json::UInt(trace.len() as u64)),
        ("wrong_output", Json::UInt(outcome.wrong_output.0 as u64)),
        (
            "wrong_stmt",
            Json::UInt(trace.event(outcome.wrong_output).stmt.0 as u64),
        ),
    ]));
    for it in &outcome.iteration_log {
        records.push(iteration_record(it));
    }

    // The statement set of the final pruned slice, for downstream checks
    // (the obs-smoke gate asserts the injected root cause appears here).
    let mut ips_stmts: Vec<u64> = outcome.provenance.iter().map(|p| p.stmt.0 as u64).collect();
    ips_stmts.sort_unstable();
    records.push(Json::object([
        ("type", Json::str("summary")),
        ("found", Json::Bool(outcome.found)),
        ("iterations", Json::UInt(outcome.iterations as u64)),
        ("verifications", Json::UInt(outcome.verifications as u64)),
        ("reexecutions", Json::UInt(outcome.reexecutions as u64)),
        ("user_prunings", Json::UInt(outcome.user_prunings as u64)),
        ("expanded_edges", Json::UInt(outcome.expanded_edges as u64)),
        ("strong_edges", Json::UInt(outcome.strong_edges as u64)),
        ("ips_dynamic", Json::UInt(outcome.ips.dynamic_size() as u64)),
        ("ips_static", Json::UInt(outcome.ips.static_size() as u64)),
        (
            "ips_stmts",
            Json::Array(ips_stmts.into_iter().map(Json::UInt).collect()),
        ),
        (
            "os_len",
            Json::UInt(outcome.os.as_ref().map_or(0, Vec::len) as u64),
        ),
    ]));

    let degraded = outcome.deadline_expired || recovery.is_some_and(|log| !log.is_empty());
    if degraded {
        let log = recovery.filter(|log| !log.is_empty());
        let counters: Vec<(String, Json)> = log
            .map(|log| {
                log.counters()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::UInt(v)))
                    .collect()
            })
            .unwrap_or_default();
        let events: Vec<Json> = log
            .map(|log| log.events().iter().map(|&e| Json::str(e)).collect())
            .unwrap_or_default();
        records.push(Json::object([
            ("type", Json::str("recovery")),
            ("deadline_expired", Json::Bool(outcome.deadline_expired)),
            ("counters", Json::Object(counters)),
            ("events", Json::Array(events)),
        ]));
    }

    if let Some(ps) = profile {
        let workers: Vec<Json> = ps
            .workers
            .iter()
            .map(|w| {
                let label = if w.worker == omislice_obs::profile::WORKER_MAIN {
                    Json::str("main")
                } else {
                    Json::UInt(w.worker as u64)
                };
                Json::object([
                    ("worker", label),
                    ("tasks", Json::UInt(w.tasks)),
                    ("busy_ns", Json::UInt(w.busy_ns)),
                    ("utilization", Json::Float(ps.utilization(w))),
                ])
            })
            .collect();
        records.push(Json::object([
            ("type", Json::str("profile")),
            ("events", Json::UInt(ps.events)),
            ("drops", Json::UInt(ps.drops)),
            ("window_ns", Json::UInt(ps.window_ns)),
            ("workers", Json::Array(workers)),
        ]));
    }

    if let Some(report) = spans {
        let mut spans_json: Vec<Json> = Vec::new();
        report.walk_intervals(|e, enclosing| {
            let mut fields = vec![
                ("name", Json::str(e.name)),
                ("thread", Json::UInt(e.thread as u64)),
                ("depth", Json::UInt(enclosing.len() as u64)),
                ("start_ns", Json::UInt(e.ts_ns)),
                ("end_ns", Json::UInt(e.end_ns())),
            ];
            if e.kind == omislice_obs::profile::EventKind::Task {
                fields.insert(1, ("index", Json::UInt(e.id)));
            }
            spans_json.push(Json::object(fields));
        });
        let counters: Vec<(String, Json)> = report
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), Json::UInt(v)))
            .collect();
        records.push(Json::object([
            ("type", Json::str("spans")),
            ("spans", Json::Array(spans_json)),
            ("counters", Json::Object(counters)),
        ]));
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locate::{locate_fault, LocateConfig};
    use crate::oracle::GroundTruthOracle;
    use omislice_analysis::ProgramAnalysis;
    use omislice_interp::{run_traced, RunConfig};
    use omislice_lang::{compile, StmtId};
    use omislice_obs::{to_jsonl, Validator};
    use omislice_slicing::ValueProfile;

    fn sample() -> (LocateOutcome, Trace, LocateConfig) {
        let fixed =
            compile("global x = 0; fn main() { let c = input(); if c == 1 { x = 9; } print(x); }")
                .unwrap();
        let faulty = compile(
            "global x = 0; fn main() { let c = input() - 1; if c == 1 { x = 9; } print(x); }",
        )
        .unwrap();
        let fixed_a = ProgramAnalysis::build(&fixed);
        let analysis = ProgramAnalysis::build(&faulty);
        let config = RunConfig::with_inputs(vec![1]);
        let trace = run_traced(&faulty, &analysis, &config).trace;
        let mut profile = ValueProfile::new();
        profile.add_trace(&trace);
        let oracle = GroundTruthOracle::new(&fixed, &fixed_a, &config, [StmtId(0)]);
        let lc = LocateConfig::default();
        let outcome =
            locate_fault(&faulty, &analysis, &config, &trace, &profile, &oracle, &lc).unwrap();
        (outcome, trace, lc)
    }

    #[test]
    fn journal_is_schema_valid() {
        let (outcome, trace, lc) = sample();
        let meta = JournalMeta {
            program: "sample".to_string(),
        };
        let records = build_journal(&meta, &lc, &outcome, &trace, None, None, None);
        let doc = to_jsonl(&records);
        let v = Validator::check_document(&doc).unwrap();
        assert_eq!(v.iterations(), outcome.iterations);
    }

    #[test]
    fn journal_reconstructs_the_verified_edge_set() {
        let (outcome, trace, lc) = sample();
        let meta = JournalMeta {
            program: "sample".to_string(),
        };
        let records = build_journal(&meta, &lc, &outcome, &trace, None, None, None);
        let mut from_journal = 0usize;
        for r in &records {
            if r.get("type").and_then(Json::as_str) == Some("iteration") {
                from_journal += r.get("edges_added").and_then(Json::as_array).unwrap().len();
            }
        }
        assert!(outcome.expanded_edges >= 1);
        assert_eq!(from_journal, outcome.expanded_edges);
    }

    #[test]
    fn outcome_strings_match_schema() {
        use omislice_trace::CrashKind;
        assert_eq!(outcome_str(RunOutcome::Completed), "completed");
        assert_eq!(
            outcome_str(RunOutcome::Crashed(CrashKind::DivByZero)),
            "crashed:div-by-zero"
        );
        for v in [Verdict::NotId, Verdict::Id, Verdict::StrongId] {
            assert!(omislice_obs::VERDICTS.contains(&verdict_str(v)));
        }
    }
}
