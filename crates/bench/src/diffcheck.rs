//! The differential correctness harness: generate random programs with
//! seeded omission faults ([`omislice_lang::generate_case`]) and
//! cross-check every optimized pipeline against naive oracles and
//! against itself under every execution-strategy knob.
//!
//! Per generated `(program, failing input, fault)` case the harness
//! asserts the paper's invariants:
//!
//! 1. **Exposure / ground truth** — the failing input makes the faulty
//!    run's output diverge from the fixed run's, every passing input
//!    keeps them identical, and the plain and tracing interpreters
//!    print the same values;
//! 2. **DS ⊆ RS** — the dynamic slice of the wrong output is contained
//!    in the relevant slice (relevant slicing only *adds* potential
//!    dependences, §2 of the paper);
//! 3. **PS ⊆ DS** — confidence pruning only removes candidates, never
//!    invents them;
//! 4. **Alignment** — the indexed [`Aligner::match_inst`] and its
//!    memoized form [`Aligner::match_inst_memo`] (one memo per switch,
//!    probed from the last use back) agree with the naive O(n·depth)
//!    region-walk oracle on every probed use, for every sampled landed
//!    switch (Definition 3 / Algorithm 1);
//! 5. **Verifier determinism** — [`Verifier::verify_all`] verdicts,
//!    outcomes, and scheduling-independent counters are identical
//!    across `jobs` × resume × fault-plan statement entries;
//! 6. **Locate + journal** — [`locate_fault`] terminates, finds the
//!    planted root cause (the oracle knows `v_exp` by construction),
//!    its final slice contains the root statement, and the normalized
//!    `--obs-out` journal is byte-identical across `jobs` × resume;
//! 7. **Chaos recovery** (`--chaos`) — the full pipeline (trace →
//!    save → load → locate) run under every pipeline-site
//!    [`omislice_trace::FaultPlan`] of the sweep recovers without
//!    aborting and produces the *same* normalized journal as the clean
//!    pipeline;
//! 8. **Capture-plan equivalence** — the checkpoint trie is a pure
//!    execution-plan optimization: locate journals under a dense trie
//!    (capture every divergence point) and a sparse one (ancestor-only
//!    resumes) are byte-identical to the invariant-6 reference, whose
//!    configurations include the from-scratch run (resume off, no
//!    checkpoints at all), across `jobs`.
//!
//! Divergences are returned as human-readable failure strings carrying
//! the seed, so every finding is reproducible with
//! `diffcheck --start <seed> --seeds 1`.

use omislice::{
    build_journal, locate_fault, GroundTruthOracle, JournalMeta, LocateConfig, UserOracle,
    Verification, Verifier, VerifierMode, VerifyRequest,
};
use omislice_align::{Aligner, MatchMemo};
use omislice_analysis::ProgramAnalysis;
use omislice_interp::{run_plain, run_traced, ResumeMode, RunConfig, SwitchSpec};
use omislice_lang::{generate_case, GenOptions, GeneratedCase};
use omislice_obs::{parse, strip_timing, to_jsonl, Json};
use omislice_slicing::{prune_slice, relevant_slice, DepGraph, Feedback, ValueProfile};
use omislice_trace::{
    take_recovery, FaultAction, FaultEntry, FaultPlan, InstId, Supervisor, Trace, Value,
};

/// What to run. `seeds` cases are checked, starting at `start_seed`;
/// `quick` trades probe density for speed (CI smoke mode) without
/// changing *which* invariants run.
#[derive(Debug, Clone)]
pub struct DiffcheckOptions {
    /// Number of consecutive seeds to check.
    pub seeds: u64,
    /// First seed (seed `s` always generates the same case).
    pub start_seed: u64,
    /// Sample fewer alignment probes and verifier configurations.
    pub quick: bool,
    /// Also run invariant 7: the chaos-plan sweep cross-checking
    /// faulted-and-recovered pipelines against the clean oracle.
    pub chaos: bool,
}

impl Default for DiffcheckOptions {
    fn default() -> Self {
        DiffcheckOptions {
            seeds: 50,
            start_seed: 0,
            quick: false,
            chaos: false,
        }
    }
}

/// Aggregate result of a [`run_diffcheck`] sweep. The counters exist so
/// callers (and the CI gate) can assert the sweep was not vacuous.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffcheckSummary {
    /// Cases generated and checked.
    pub cases: usize,
    /// Cases whose failing input exposed the fault (must equal `cases`).
    pub exposed: usize,
    /// `match_inst` probes compared against the naive oracle.
    pub alignment_probes: usize,
    /// Switched runs sampled for alignment (landed switches only).
    pub alignment_switches: usize,
    /// `verify_all` configuration snapshots compared.
    pub verifier_configs: usize,
    /// `locate_fault` runs that found the planted root.
    pub located: usize,
    /// Normalized journals compared byte-for-byte.
    pub journals_compared: usize,
    /// Capture-plan configurations (dense and sparse trie × `jobs`)
    /// whose journals matched the invariant-6 reference byte-for-byte.
    pub scheduler_configs: usize,
    /// Faulted pipelines cross-checked against the clean oracle
    /// (`--chaos` only).
    pub chaos_pipelines: usize,
    /// Recovery actions the chaos pipelines performed (`--chaos` only;
    /// must be nonzero or the chaos sweep was vacuous).
    pub chaos_recoveries: u64,
    /// Human-readable divergence reports (empty ⇔ all invariants held).
    pub failures: Vec<String>,
}

/// Per-case probe counts folded into the summary.
struct CaseStats {
    alignment_probes: usize,
    alignment_switches: usize,
    verifier_configs: usize,
    journals_compared: usize,
    scheduler_configs: usize,
    chaos_pipelines: usize,
    chaos_recoveries: u64,
}

/// Runs the harness over `opts.seeds` consecutive seeds. Never panics on
/// a divergence — failures are collected per seed so one bad case does
/// not hide the rest of the sweep.
pub fn run_diffcheck(opts: &DiffcheckOptions) -> DiffcheckSummary {
    let mut summary = DiffcheckSummary::default();
    for seed in opts.start_seed..opts.start_seed + opts.seeds {
        summary.cases += 1;
        match check_case(seed, opts.quick, opts.chaos) {
            Ok(stats) => {
                summary.exposed += 1;
                summary.alignment_probes += stats.alignment_probes;
                summary.alignment_switches += stats.alignment_switches;
                summary.verifier_configs += stats.verifier_configs;
                summary.located += 1;
                summary.journals_compared += stats.journals_compared;
                summary.scheduler_configs += stats.scheduler_configs;
                summary.chaos_pipelines += stats.chaos_pipelines;
                summary.chaos_recoveries += stats.chaos_recoveries;
            }
            Err(report) => summary.failures.push(format!("seed {seed}: {report}")),
        }
    }
    summary
}

/// Checks every invariant on the case generated by `seed`; the error
/// string names the first invariant that failed.
fn check_case(seed: u64, quick: bool, chaos: bool) -> Result<CaseStats, String> {
    let case = generate_case(seed, &GenOptions::default());
    let fixed_analysis = ProgramAnalysis::build(&case.fixed);
    let analysis = ProgramAnalysis::build(&case.faulty);
    let config = RunConfig::with_inputs(case.failing_input.clone());

    // --- invariant 1: exposure, benign inputs, interpreter agreement ---
    let fixed_run = run_traced(&case.fixed, &fixed_analysis, &config);
    let run = run_traced(&case.faulty, &analysis, &config);
    if !fixed_run.trace.termination().is_normal() || !run.trace.termination().is_normal() {
        return Err("generated run did not terminate normally".to_string());
    }
    let trace = &run.trace;
    if output_values(trace) == output_values(&fixed_run.trace) {
        return Err("failing input does not expose the planted fault".to_string());
    }
    for (which, program, reference) in [
        ("faulty", &case.faulty, trace),
        ("fixed", &case.fixed, &fixed_run.trace),
    ] {
        let plain = run_plain(program, &config);
        if plain.outputs != output_values(reference) {
            return Err(format!(
                "plain and tracing interpreters disagree on the {which} program"
            ));
        }
    }
    let mut profile = ValueProfile::new();
    profile.add_trace(trace);
    for input in &case.passing_inputs {
        let pass_cfg = RunConfig::with_inputs(input.clone());
        let pass_fixed = run_plain(&case.fixed, &pass_cfg);
        let pass_faulty = run_traced(&case.faulty, &analysis, &pass_cfg);
        if pass_fixed.outputs != output_values(&pass_faulty.trace) {
            return Err(format!("passing input {:?} is not benign", input[0]));
        }
        profile.add_trace(&pass_faulty.trace);
    }

    let oracle = GroundTruthOracle::new(&case.fixed, &fixed_analysis, &config, [case.root]);
    let class = oracle
        .classify_outputs(trace)
        .ok_or("oracle found no wrong output in an exposed run")?;
    if class.expected.is_none() {
        return Err("oracle does not know v_exp for the wrong output".to_string());
    }
    let wrong = class.wrong;

    // --- invariant 2: DS ⊆ RS -----------------------------------------
    let graph = DepGraph::new(trace);
    let ds = graph.backward_slice(wrong);
    let rs = relevant_slice(trace, &analysis, wrong);
    if let Some(&escapee) = ds.insts().iter().find(|&&i| !rs.contains(i)) {
        return Err(format!("DS ⊄ RS: {escapee} is in DS but not in RS"));
    }

    // --- invariant 3: PS ⊆ DS -----------------------------------------
    let ps = prune_slice(
        &graph,
        &analysis,
        &profile,
        &class.correct,
        wrong,
        &Feedback::default(),
    );
    let pruned = ps.pruned_slice(&graph);
    if let Some(&escapee) = pruned.insts().iter().find(|&&i| !ds.contains(i)) {
        return Err(format!("PS ⊄ DS: {escapee} survived pruning outside DS"));
    }

    // --- invariant 4: indexed alignment == naive oracle ----------------
    let preds: Vec<InstId> = trace
        .insts()
        .filter(|&i| trace.event(i).is_predicate())
        .collect();
    let mut stats = CaseStats {
        alignment_probes: 0,
        alignment_switches: 0,
        verifier_configs: 0,
        journals_compared: 0,
        scheduler_configs: 0,
        chaos_pipelines: 0,
        chaos_recoveries: 0,
    };
    let max_switches = if quick { 3 } else { 8 };
    let stride = (preds.len() / max_switches).max(1);
    for &p in preds.iter().step_by(stride).take(max_switches) {
        let spec = SwitchSpec::new(trace.event(p).stmt, trace.occurrence_index(p) as u32);
        let switched = run_traced(&case.faulty, &analysis, &config.switched(spec));
        if switched.switched != Some(p) || !switched.trace.termination().is_normal() {
            continue; // the switch was cut off or crashed: nothing to align
        }
        stats.alignment_switches += 1;
        let aligner = Aligner::new(trace, &switched.trace);
        let mut memo = MatchMemo::default();
        let u_stride = if quick { (trace.len() / 64).max(1) } else { 1 };
        for u in (0..trace.len()).step_by(u_stride).rev() {
            let u = InstId(u as u32);
            let fast = aligner.match_inst(p, u);
            let memoized = aligner.match_inst_memo(&mut memo, p, u);
            let naive = aligner.match_inst_naive(p, u);
            if fast != naive || memoized != naive {
                return Err(format!(
                    "alignment divergence at switch {p}, use {u}: indexed {fast:?}, memoized {memoized:?} vs naive {naive:?}"
                ));
            }
            stats.alignment_probes += 1;
        }
    }

    // --- invariant 5: verify_all determinism ---------------------------
    let use_var = *analysis
        .index()
        .stmt(trace.event(wrong).stmt)
        .uses
        .first()
        .ok_or("wrong output has no used variable")?;
    let requests: Vec<VerifyRequest> = preds
        .iter()
        .filter(|&&p| p < wrong)
        .take(if quick { 6 } else { 16 })
        .map(|&p| VerifyRequest {
            p,
            u: wrong,
            var: use_var,
            wrong_output: wrong,
            expected: class.expected,
        })
        .collect();
    if requests.is_empty() {
        return Err("no predicate precedes the wrong output".to_string());
    }
    let plan_target = trace.event(requests[0].p).stmt;
    let plans = [
        None,
        Some(FaultEntry::at_stmt(
            plan_target,
            0,
            FaultAction::ExhaustBudget,
        )),
        Some(FaultEntry::at_stmt(
            plan_target,
            0,
            FaultAction::PanicHarness,
        )),
    ];
    for plan in plans {
        let mut reference: Option<(Vec<Verification>, Vec<usize>)> = None;
        for jobs in [1usize, 4] {
            for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
                let mut v =
                    Verifier::new(&case.faulty, &analysis, &config, trace, VerifierMode::Edge)
                        .with_jobs(jobs)
                        .with_resume(resume)
                        .with_fault(plan);
                let verdicts = v.verify_all(&requests);
                let s = v.stats();
                let got = (
                    verdicts,
                    vec![
                        s.verifications,
                        s.reexecutions,
                        s.cache_hits,
                        s.completed_runs,
                        s.budget_exhausted_runs,
                        s.crashed_runs,
                        s.switch_not_landed_runs,
                        s.panics_isolated,
                        s.input_underflows,
                    ],
                );
                stats.verifier_configs += 1;
                match &reference {
                    Some(r) if r != &got => {
                        return Err(format!(
                            "verify_all diverged: jobs={jobs} resume={resume:?} plan={plan:?}"
                        ));
                    }
                    Some(_) => {}
                    None => reference = Some(got),
                }
            }
        }
    }

    // --- invariant 6: locate finds the root; journals byte-identical ---
    let meta = JournalMeta {
        program: format!("diffcheck-{seed}"),
    };
    let jobs_set: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let mut reference: Option<String> = None;
    for &jobs in jobs_set {
        for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
            let lc = LocateConfig {
                jobs,
                resume,
                ..LocateConfig::default()
            };
            let outcome = locate_fault(
                &case.faulty,
                &analysis,
                &config,
                trace,
                &profile,
                &oracle,
                &lc,
            )
            .map_err(|e| format!("locate_fault failed: {e}"))?;
            if !outcome.found {
                return Err(format!(
                    "locate_fault missed the planted root {} (jobs={jobs} resume={resume:?})",
                    case.root
                ));
            }
            if !outcome.full_slice.contains_stmt(case.root) && !outcome.ips.contains_stmt(case.root)
            {
                return Err(format!(
                    "final slice does not contain the planted root {}",
                    case.root
                ));
            }
            let journal = normalize(&to_jsonl(&build_journal(
                &meta, &lc, &outcome, trace, None, None, None,
            )))?;
            stats.journals_compared += 1;
            match &reference {
                Some(r) if r != &journal => {
                    return Err(format!("journal diverged at jobs={jobs} resume={resume:?}"));
                }
                Some(_) => {}
                None => reference = Some(journal),
            }
        }
    }

    // --- invariant 8: the capture plan is a pure optimization ---------
    // The invariant-6 reference ran the default threshold and already
    // matched the from-scratch run (resume off, no checkpoints). A dense
    // trie (capture every divergence point) and a sparse one (ancestor
    // resumes only) must reproduce it byte for byte. Thresholds only
    // shape resumed runs, so resume stays on.
    let clean = reference
        .clone()
        .expect("invariant 6 set the journal reference");
    for capture_threshold in [Some(1), Some(1000)] {
        for &jobs in jobs_set {
            let lc = LocateConfig {
                jobs,
                capture_threshold,
                ..LocateConfig::default()
            };
            let outcome = locate_fault(
                &case.faulty,
                &analysis,
                &config,
                trace,
                &profile,
                &oracle,
                &lc,
            )
            .map_err(|e| format!("locate_fault (threshold={capture_threshold:?}) failed: {e}"))?;
            let journal = normalize(&to_jsonl(&build_journal(
                &meta, &lc, &outcome, trace, None, None, None,
            )))?;
            if journal != clean {
                return Err(format!(
                    "journal diverged from the reference under \
                     threshold={capture_threshold:?} jobs={jobs}"
                ));
            }
            stats.scheduler_configs += 1;
        }
    }

    // --- invariant 7 (--chaos): faulted pipelines match the clean one ---
    if chaos {
        let clean = reference.as_deref().expect("invariant 6 set the reference");
        check_chaos_pipelines(
            &case, &analysis, &config, &profile, &oracle, &meta, clean, seed, quick, &mut stats,
        )?;
    }

    Ok(stats)
}

/// Invariant 7: for every chaos plan of the sweep, run the *whole*
/// pipeline — supervised trace, atomic save, supervised load, locate —
/// with the plan installed, and require the normalized journal to be
/// byte-identical to the clean pipeline's. The injected faults must be
/// absorbed by the degradation ladders, never change a verdict, and
/// never abort the process.
#[allow(clippy::too_many_arguments)]
fn check_chaos_pipelines(
    case: &GeneratedCase,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    profile: &ValueProfile,
    oracle: &GroundTruthOracle,
    meta: &JournalMeta,
    clean_journal: &str,
    seed: u64,
    quick: bool,
    stats: &mut CaseStats,
) -> Result<(), String> {
    // The file-side sites (encode/save/decode/mmap) fire on every
    // save/load roundtrip, so the sweep is never vacuous.
    let plans: &[&str] = if quick {
        &[
            "encode=corrupt,decode=corrupt",
            "save=short-write,mmap=fail",
        ]
    } else {
        &[
            "encode=corrupt,decode=corrupt",
            "save=short-write",
            "save=enospc,mmap=fail",
        ]
    };
    let tmp = std::env::temp_dir().join(format!(
        "omislice-diffcheck-{}-{seed}.omitrace",
        std::process::id()
    ));
    for text in plans {
        let plan =
            FaultPlan::parse(text).map_err(|e| format!("fault plan `{text}` rejected: {e}"))?;
        let sup = Supervisor::new().with_fault_plan(Some(plan));
        let _ = take_recovery();
        let chaos_run = sup.run(|| run_traced(&case.faulty, analysis, config));
        sup.save_trace(&chaos_run.trace, &tmp)
            .map_err(|e| format!("chaos `{text}`: supervised save failed: {e}"))?;
        let loaded = sup
            .load_trace(&tmp)
            .map_err(|e| format!("chaos `{text}`: supervised load failed: {e}"))?;
        let lc = LocateConfig::default();
        let outcome = locate_fault(
            &case.faulty,
            analysis,
            config,
            &loaded,
            profile,
            oracle,
            &lc,
        )
        .map_err(|e| format!("chaos `{text}`: locate on the recovered trace failed: {e}"))?;
        if !outcome.found {
            std::fs::remove_file(&tmp).ok();
            return Err(format!(
                "chaos `{text}`: recovered pipeline missed the planted root {}",
                case.root
            ));
        }
        let journal = normalize(&to_jsonl(&build_journal(
            meta, &lc, &outcome, &loaded, None, None, None,
        )))?;
        if journal != clean_journal {
            std::fs::remove_file(&tmp).ok();
            return Err(format!(
                "chaos `{text}`: recovered pipeline's journal differs from the clean one"
            ));
        }
        stats.chaos_pipelines += 1;
        stats.chaos_recoveries += take_recovery().total();
    }
    std::fs::remove_file(&tmp).ok();
    Ok(())
}

/// The printed values of a traced run, in order.
fn output_values(trace: &Trace) -> Vec<Value> {
    trace.outputs().iter().map(|o| o.value).collect()
}

/// Strips timing, then drops the header's `jobs`/`resume` fields — the
/// only journal content allowed to differ between configurations.
fn normalize(jsonl: &str) -> Result<String, String> {
    let stripped = strip_timing(jsonl).map_err(|e| format!("journal strip failed: {e}"))?;
    let mut out = String::new();
    for line in stripped.lines() {
        let record = parse(line).map_err(|e| format!("journal line does not parse: {e}"))?;
        if record.get("type").and_then(Json::as_str) == Some("header") {
            let Json::Object(fields) = record else {
                return Err("journal header is not an object".to_string());
            };
            let kept: Vec<(String, Json)> = fields
                .into_iter()
                .filter(|(k, _)| k != "jobs" && k != "resume")
                .collect();
            out.push_str(&Json::Object(kept).to_string());
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_seed_passes_all_invariants() {
        let summary = run_diffcheck(&DiffcheckOptions {
            seeds: 2,
            start_seed: 0,
            quick: true,
            chaos: false,
        });
        assert_eq!(summary.failures, Vec::<String>::new());
        assert_eq!(summary.cases, 2);
        assert_eq!(summary.exposed, 2);
        assert_eq!(summary.located, 2);
        assert!(summary.alignment_probes > 0);
        assert!(summary.verifier_configs > 0);
        assert!(summary.journals_compared > 0);
        assert!(summary.scheduler_configs > 0, "invariant 8 must run");
        assert_eq!(summary.chaos_pipelines, 0);
    }

    #[test]
    fn chaos_mode_recovers_and_matches_the_clean_pipeline() {
        let summary = run_diffcheck(&DiffcheckOptions {
            seeds: 1,
            start_seed: 0,
            quick: true,
            chaos: true,
        });
        assert_eq!(summary.failures, Vec::<String>::new());
        assert_eq!(
            summary.chaos_pipelines, 2,
            "every plan of the quick sweep ran"
        );
        // The file-side chaos sites fire on every save/load roundtrip,
        // so a sweep with zero recoveries means injection is broken.
        assert!(
            summary.chaos_recoveries > 0,
            "chaos sweep was vacuous: no recovery was exercised"
        );
    }
}
