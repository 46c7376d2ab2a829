//! Property: fault isolation is total and deterministic — for a random
//! program, a random batch of `VerifyDep` queries, and a *random
//! deterministic fault plan* (injected crash, budget exhaustion,
//! host-level panic, or corrupted checkpoint), `verify_all`:
//!
//!   1. never lets a panic escape (an escaped panic aborts the proptest
//!      harness, so merely completing each case proves isolation), and
//!   2. produces identical verdicts, run outcomes, and mode-independent
//!      counters whether it runs on one thread or several, and whether
//!      switched runs resume from checkpoints or re-execute from
//!      scratch.
//!
//! This is the robustness contract: one bad candidate run must never
//! take down a batch, and degraded results must not depend on
//! scheduling or on the checkpoint fast path.
//!
//! A second property pins single execution against the literal budget
//! escalation ladder: each switched run executes once, at the full step
//! budget, and must report the verdicts, outcomes and counters of a
//! ladder that re-executes it from scratch at every rung until one does
//! not expire.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{run_traced, BudgetSchedule, ResumeMode, RunConfig, SwitchSpec};
use omislice::omislice_lang::{compile, Program};
use omislice::omislice_trace::{
    CrashKind, FaultAction, FaultEntry, InstId, RunOutcome, Termination, Trace, VerificationStats,
};
use omislice::{Verification, Verifier, VerifierMode, VerifyRequest};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

// --- tiny structured-program generator ----------------------------------

#[derive(Debug, Clone)]
enum S {
    Assign(usize, usize, i8),
    Print(usize),
    If(usize, Vec<S>, Vec<S>),
    While(u8, Vec<S>),
}

const VARS: [&str; 3] = ["a", "b", "c"];

fn stmt_strategy() -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        ((0usize..3), (0usize..3), any::<i8>()).prop_map(|(d, u, k)| S::Assign(d, u, k)),
        (0usize..3).prop_map(S::Print),
    ];
    leaf.prop_recursive(3, 20, 4, |inner| {
        prop_oneof![
            (
                0usize..3,
                prop::collection::vec(inner.clone(), 1..4),
                prop::collection::vec(inner.clone(), 0..3),
            )
                .prop_map(|(v, t, e)| S::If(v, t, e)),
            ((1u8..4), prop::collection::vec(inner.clone(), 1..4))
                .prop_map(|(k, b)| S::While(k, b)),
        ]
    })
}

fn render(stmts: &[S], out: &mut String, counter: &mut usize) {
    for s in stmts {
        match s {
            S::Assign(d, u, k) => {
                out.push_str(&format!("{} = {} + {};\n", VARS[*d], VARS[*u], k));
            }
            S::Print(v) => out.push_str(&format!("print({});\n", VARS[*v])),
            S::If(v, t, e) => {
                out.push_str(&format!("if {} > 0 {{\n", VARS[*v]));
                render(t, out, counter);
                if e.is_empty() {
                    out.push_str("}\n");
                } else {
                    out.push_str("} else {\n");
                    render(e, out, counter);
                    out.push_str("}\n");
                }
            }
            S::While(k, b) => {
                let c = *counter;
                *counter += 1;
                out.push_str(&format!("let w{c} = 0;\nwhile w{c} < {k} {{\n"));
                render(b, out, counter);
                out.push_str(&format!("w{c} = w{c} + 1;\n}}\n"));
            }
        }
    }
}

fn program_strategy() -> impl Strategy<Value = Program> {
    prop::collection::vec(stmt_strategy(), 1..8).prop_map(|stmts| {
        let mut body = String::new();
        let mut counter = 0;
        render(&stmts, &mut body, &mut counter);
        // A trailing print guarantees every generated program has a use
        // to verify against.
        body.push_str("print(a + b + c);\n");
        let src = format!("global a = 1; global b = 2; global c = 3;\nfn main() {{\n{body}}}\n");
        compile(&src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"))
    })
}

/// Every statement fault action, each crash kind included.
fn action_strategy() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        Just(FaultAction::Crash(CrashKind::OobIndex)),
        Just(FaultAction::Crash(CrashKind::MissingCallee)),
        Just(FaultAction::Crash(CrashKind::DivByZero)),
        Just(FaultAction::Crash(CrashKind::TypeError)),
        Just(FaultAction::Crash(CrashKind::StackOverflow)),
        Just(FaultAction::Crash(CrashKind::UninitRead)),
        Just(FaultAction::ExhaustBudget),
        Just(FaultAction::Panic),
        Just(FaultAction::PanicHarness),
        Just(FaultAction::CorruptCheckpoint),
    ]
}

/// The escalation schedules the ladder property runs: the default, two
/// dense ones that escalate even the generator's short runs, and off.
fn schedules() -> [BudgetSchedule; 4] {
    [
        BudgetSchedule::default(),
        BudgetSchedule::parse("1:2:12").unwrap(),
        BudgetSchedule::parse("3:3:5").unwrap(),
        BudgetSchedule::disabled(),
    ]
}

/// What the literal ladder settles on for one switched run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LadderRun {
    outcome: RunOutcome,
    retries: usize,
    panicked: bool,
    input_underflows: u64,
}

/// The budget escalation ladder taken literally — the reference single
/// execution must reproduce: the switched run executes from scratch at
/// each rung of `schedule`, under `catch_unwind`, until a rung does not
/// expire (or the last rung, the full budget, is reached). A
/// `panic-harness` entry for this spec fires in the verifier before any
/// rung runs.
fn literal_ladder(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    schedule: BudgetSchedule,
    trace: &Trace,
    p: InstId,
) -> LadderRun {
    let spec = SwitchSpec::new(trace.event(p).stmt, trace.occurrence_index(p) as u32);
    let crashed = |retries| LadderRun {
        outcome: RunOutcome::Crashed(CrashKind::Panic),
        retries,
        panicked: true,
        input_underflows: 0,
    };
    if config.fault
        == Some(FaultEntry::at_stmt(
            spec.pred,
            spec.occurrence,
            FaultAction::PanicHarness,
        ))
    {
        return crashed(0);
    }
    let rungs = schedule.budgets(config.step_budget);
    for (rung, &budget) in rungs.iter().enumerate() {
        let cfg = RunConfig {
            step_budget: budget,
            ..config.switched(spec)
        };
        let Ok(run) = catch_unwind(AssertUnwindSafe(|| run_traced(program, analysis, &cfg))) else {
            return crashed(rung);
        };
        let outcome = match run.trace.termination() {
            Termination::Normal if run.switched == Some(p) => RunOutcome::Completed,
            Termination::Normal => RunOutcome::SwitchNotLanded,
            Termination::BudgetExhausted => RunOutcome::BudgetExhausted,
            Termination::RuntimeError(kind, _) => RunOutcome::Crashed(*kind),
        };
        if outcome == RunOutcome::BudgetExhausted && rung + 1 < rungs.len() {
            continue;
        }
        return LadderRun {
            outcome,
            retries: rung,
            panicked: false,
            input_underflows: run.input_underflows,
        };
    }
    unreachable!("the last rung always settles")
}

/// `stats` with its wall-clock fields zeroed, so the rest compares
/// exactly.
fn counters(stats: &VerificationStats) -> VerificationStats {
    VerificationStats {
        execution_wall: Duration::ZERO,
        capture_wall: Duration::ZERO,
        verdict_wall: Duration::ZERO,
        ..stats.clone()
    }
}

// --- regressions pinned by the differential harness ----------------------

/// Regression: a panic raised in the verifier harness itself — outside
/// the interpreter's own `catch_unwind`, e.g. while building a switched
/// run's region tree — unwound the worker thread, and `verify_all`
/// aborted the whole batch through
/// `h.join().expect("verification worker panicked")`, defeating
/// per-candidate isolation. A harness panic must degrade only the
/// candidate that owns it to `Crashed(Panic)` and leave every other
/// verdict intact, identically for any jobs × resume configuration.
#[test]
fn fuzz_regress_worker_panic_surfaces_as_crashed() {
    use omislice::omislice_trace::RunOutcome;
    use omislice::Verdict;

    let program = compile(
        "fn main() {
            let a = input();
            if a > 0 { print(1); }
            if a > 1 { print(2); }
            print(a);
        }",
    )
    .unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(vec![2]);
    let run = run_traced(&program, &analysis, &config);
    let trace = &run.trace;

    let u = trace.outputs().last().expect("trailing print").inst;
    let var = *analysis
        .index()
        .stmt(trace.event(u).stmt)
        .uses
        .first()
        .expect("print(a) uses a");
    let preds: Vec<_> = trace
        .insts()
        .filter(|&i| trace.event(i).is_predicate())
        .collect();
    assert_eq!(preds.len(), 2, "both ifs execute under input 2");
    let requests: Vec<VerifyRequest> = preds
        .iter()
        .map(|&p| VerifyRequest {
            p,
            u,
            var,
            wrong_output: u,
            expected: None,
        })
        .collect();

    // The plan panics the harness for the first predicate's switch spec;
    // `panic-harness` never fires inside an interpreter, so the second
    // candidate's switched run is untouched.
    let plan = FaultEntry::at_stmt(trace.event(preds[0]).stmt, 0, FaultAction::PanicHarness);

    let mut reference: Option<Vec<Verification>> = None;
    for jobs in [1usize, 4] {
        for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
            let mut v = Verifier::new(&program, &analysis, &config, trace, VerifierMode::Edge)
                .with_jobs(jobs)
                .with_resume(resume)
                .with_fault(Some(plan));
            let verdicts = v.verify_all(&requests);
            assert_eq!(
                verdicts[0].outcome,
                RunOutcome::Crashed(CrashKind::Panic),
                "jobs={jobs} resume={resume:?}: harness panic must surface on its candidate"
            );
            assert_eq!(verdicts[0].verdict, Verdict::NotId);
            assert_ne!(
                verdicts[1].outcome,
                RunOutcome::Crashed(CrashKind::Panic),
                "jobs={jobs} resume={resume:?}: the other candidate must survive"
            );
            assert_eq!(v.stats().panics_isolated, 1);
            match &reference {
                Some(r) => assert_eq!(r, &verdicts, "jobs={jobs} resume={resume:?} diverged"),
                None => reference = Some(verdicts),
            }
        }
    }
}

// --- the property --------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn verify_all_isolates_random_faults_deterministically(
        program in program_strategy(),
        fault_site in any::<prop::sample::Index>(),
        occurrence in 0u32..3,
        action in action_strategy(),
    ) {
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig::with_inputs(vec![]);
        let run = run_traced(&program, &analysis, &config);
        prop_assert!(run.trace.termination().is_normal());
        let trace = &run.trace;

        // Plant the fault at a statement the base run actually executes,
        // so most plans fire inside the switched re-executions.
        let site_inst = fault_site.index(trace.len());
        let plan = FaultEntry::at_stmt(
            trace.event(omislice::omislice_trace::InstId(site_inst as u32)).stmt,
            occurrence,
            action,
        );

        let u = trace.outputs().last().expect("trailing print").inst;
        let Some(&var) = analysis.index().stmt(trace.event(u).stmt).uses.first() else {
            return Ok(());
        };
        let requests: Vec<VerifyRequest> = trace
            .insts()
            .filter(|&i| i < u && trace.event(i).is_predicate())
            .take(8)
            .map(|p| VerifyRequest {
                p,
                u,
                var,
                wrong_output: u,
                expected: None,
            })
            .collect();
        if requests.is_empty() {
            return Ok(());
        }

        // (verdicts, mode-independent counters)
        type Snapshot = (Vec<Verification>, Vec<usize>);
        let mut reference: Option<Snapshot> = None;
        for jobs in [1usize, 4] {
            for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
                let mut v = Verifier::new(&program, &analysis, &config, trace, VerifierMode::Edge)
                    .with_jobs(jobs)
                    .with_resume(resume)
                    .with_fault(Some(plan));
                let verdicts = v.verify_all(&requests);
                let stats = v.stats();
                let got: Snapshot = (
                    verdicts,
                    vec![
                        stats.verifications,
                        stats.reexecutions,
                        stats.cache_hits,
                        stats.completed_runs,
                        stats.budget_exhausted_runs,
                        stats.crashed_runs,
                        stats.switch_not_landed_runs,
                        stats.escalated_runs,
                        stats.budget_retries,
                        stats.panics_isolated,
                        stats.input_underflows,
                    ],
                );
                match &reference {
                    Some(r) => prop_assert_eq!(
                        r,
                        &got,
                        "jobs={} resume={:?} plan={:?} diverged",
                        jobs,
                        resume,
                        plan
                    ),
                    None => reference = Some(got),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single execution against the literal ladder: for every schedule,
    /// resume mode and worker count, the verdicts and outcomes equal the
    /// ladder's, `escalated_runs`/`budget_retries` and every outcome
    /// counter are the ladder's sums, and every other counter (resume,
    /// capture, isolation) equals the same configuration's with
    /// escalation off — the schedule is accounting only.
    #[test]
    fn single_execution_matches_the_literal_ladder(
        program in program_strategy(),
        fault_site in any::<prop::sample::Index>(),
        occurrence in 0u32..3,
        action in action_strategy(),
    ) {
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig::with_inputs(vec![]);
        let run = run_traced(&program, &analysis, &config);
        prop_assert!(run.trace.termination().is_normal());
        let trace = &run.trace;
        let site_inst = fault_site.index(trace.len());
        let plan = FaultEntry::at_stmt(trace.event(InstId(site_inst as u32)).stmt, occurrence, action);
        let config = RunConfig { fault: Some(plan), ..config };

        let u = trace.outputs().last().expect("trailing print").inst;
        let Some(&var) = analysis.index().stmt(trace.event(u).stmt).uses.first() else {
            return Ok(());
        };
        let requests: Vec<VerifyRequest> = trace
            .insts()
            .filter(|&i| i < u && trace.event(i).is_predicate())
            .take(8)
            .map(|p| VerifyRequest { p, u, var, wrong_output: u, expected: None })
            .collect();
        if requests.is_empty() {
            return Ok(());
        }

        for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
            for jobs in [1usize, 2] {
                let verify = |schedule| {
                    let mut v = Verifier::new(&program, &analysis, &config, trace, VerifierMode::Edge)
                        .with_jobs(jobs)
                        .with_resume(resume)
                        .with_budget_schedule(schedule)
                        .with_fault(Some(plan));
                    let verdicts = v.verify_all(&requests);
                    (verdicts, counters(v.stats()))
                };
                let (off_verdicts, off_stats) = verify(BudgetSchedule::disabled());
                for schedule in schedules() {
                    let (verdicts, stats) = verify(schedule);
                    let mut expected = off_stats.clone();
                    expected.escalated_runs = 0;
                    expected.budget_retries = 0;
                    expected.completed_runs = 0;
                    expected.budget_exhausted_runs = 0;
                    expected.crashed_runs = 0;
                    expected.switch_not_landed_runs = 0;
                    expected.panics_isolated = 0;
                    expected.input_underflows = 0;
                    let mut seen: Vec<InstId> = Vec::new();
                    for (i, r) in requests.iter().enumerate() {
                        let ladder = literal_ladder(&program, &analysis, &config, schedule, trace, r.p);
                        prop_assert_eq!(
                            verdicts[i].outcome, ladder.outcome,
                            "{:?} {:?} jobs={} plan={:?}", schedule, resume, jobs, plan
                        );
                        prop_assert_eq!(verdicts[i], off_verdicts[i]);
                        if seen.contains(&r.p) {
                            continue;
                        }
                        seen.push(r.p);
                        if ladder.retries > 0 {
                            expected.escalated_runs += 1;
                            expected.budget_retries += ladder.retries;
                        }
                        match ladder.outcome {
                            RunOutcome::Completed => expected.completed_runs += 1,
                            RunOutcome::BudgetExhausted => expected.budget_exhausted_runs += 1,
                            RunOutcome::Crashed(_) => expected.crashed_runs += 1,
                            RunOutcome::SwitchNotLanded => expected.switch_not_landed_runs += 1,
                            RunOutcome::CheckpointInvalid => {}
                        }
                        expected.panics_isolated += usize::from(ladder.panicked);
                        expected.input_underflows += ladder.input_underflows as usize;
                    }
                    prop_assert_eq!(
                        &stats, &expected,
                        "{:?} {:?} jobs={} plan={:?}", schedule, resume, jobs, plan
                    );
                }
            }
        }
    }
}
