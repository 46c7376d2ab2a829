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
//! This is the robustness contract of ISSUE.md: one bad candidate run
//! must never take down a batch, and degraded results must not depend
//! on scheduling or on the checkpoint fast path.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{run_traced, ResumeMode, RunConfig};
use omislice::omislice_lang::{compile, Program};
use omislice::omislice_trace::{CrashKind, FaultAction, FaultEntry};
use omislice::{Verification, Verifier, VerifierMode, VerifyRequest};
use proptest::prelude::*;

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

fn action_strategy() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        Just(FaultAction::Crash(CrashKind::OobIndex)),
        Just(FaultAction::Crash(CrashKind::DivByZero)),
        Just(FaultAction::Crash(CrashKind::TypeError)),
        Just(FaultAction::ExhaustBudget),
        Just(FaultAction::Panic),
        Just(FaultAction::PanicHarness),
        Just(FaultAction::CorruptCheckpoint),
    ]
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
