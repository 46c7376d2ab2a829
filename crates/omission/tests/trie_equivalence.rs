//! Properties of the checkpoint-trie verification scheduler.
//!
//! 1. **Node equivalence** — at every trie node (predicate instance of
//!    the base run), a switched execution resumed from the deepest
//!    checkpoint at or before the node — its own *or a strict
//!    ancestor's* — is byte-identical to the from-scratch switched
//!    oracle. This is the contract that lets leaves share prefixes.
//! 2. **Scratch equivalence** — `locate_fault` produces the same
//!    iteration log, verdicts, and chain under the checkpoint trie, at
//!    every capture threshold and thread count, as under the
//!    from-scratch run (resume off, no checkpoints at all). The trie is
//!    a pure execution-plan optimization.
//! 3. **Cross-iteration memo** — a `VerifyMemo` shared between two
//!    locate jobs answers the second job's switched runs without a
//!    single re-execution.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{
    resume_switched, run_switched, run_traced, ResumeMode, RunConfig, SwitchSpec,
};
use omislice::omislice_lang::{compile, printer::stmt_head, Program, StmtId};
use omislice::omislice_slicing::ValueProfile;
use omislice::{locate_fault, GroundTruthOracle, LocateConfig, VerifyMemo};
use proptest::prelude::*;
use std::sync::Arc;

// --- tiny structured-program generator (resume_equivalence.rs idiom) ----

#[derive(Debug, Clone)]
enum S {
    Assign(usize, usize, i8),
    Print(usize),
    Call(usize),
    If(usize, Vec<S>, Vec<S>),
    While(u8, Vec<S>),
}

const VARS: [&str; 3] = ["a", "b", "c"];

fn stmt_strategy() -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        ((0usize..3), (0usize..3), any::<i8>()).prop_map(|(d, u, k)| S::Assign(d, u, k)),
        (0usize..3).prop_map(S::Print),
        (0usize..3).prop_map(S::Call),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (
                0usize..3,
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner.clone(), 0..2),
            )
                .prop_map(|(v, t, e)| S::If(v, t, e)),
            ((1u8..4), prop::collection::vec(inner.clone(), 1..3))
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
            S::Call(v) => out.push_str(&format!("{0} = bump({0});\n", VARS[*v])),
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
    prop::collection::vec(stmt_strategy(), 1..6).prop_map(|stmts| {
        let mut body = String::new();
        let mut counter = 0;
        render(&stmts, &mut body, &mut counter);
        let src = format!(
            "global a = 1; global b = 2; global c = 3;\n\
             fn bump(x) {{ if x > 5 {{ return x - 1; }} return x + 1; }}\n\
             fn main() {{\n{body}}}\n"
        );
        compile(&src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"))
    })
}

/// A fixed/faulty pair differing only in main's first assignment
/// (journal_determinism.rs idiom).
fn pair_strategy() -> impl Strategy<Value = (Program, Program)> {
    prop::collection::vec(stmt_strategy(), 1..5).prop_map(|stmts| {
        let mut body = String::new();
        let mut counter = 0;
        render(&stmts, &mut body, &mut counter);
        body.push_str("print(a + b + c);\n");
        let make = |seed: &str| {
            let src = format!(
                "global a = 1; global b = 2; global c = 3;\n\
                 fn bump(x) {{ if x > 5 {{ return x - 1; }} return x + 1; }}\n\
                 fn main() {{\na = a {seed} 1;\n{body}}}\n"
            );
            compile(&src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"))
        };
        (make("+"), make("-"))
    })
}

fn diff_roots(fixed: &Program, faulty: &Program) -> Vec<StmtId> {
    (0..)
        .map(StmtId)
        .take_while(|&s| fixed.stmt(s).is_some() && faulty.stmt(s).is_some())
        .filter(|&s| stmt_head(fixed.stmt(s).unwrap()) != stmt_head(faulty.stmt(s).unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: at every trie node, resuming from the deepest
    /// checkpoint at or before the node (own or ancestor) reproduces
    /// the from-scratch switched run byte for byte.
    #[test]
    fn every_trie_node_resume_matches_scratch(program in program_strategy()) {
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig::with_inputs(vec![]);
        let base = run_traced(&program, &analysis, &config);
        prop_assert!(base.trace.termination().is_normal());
        let preds: Vec<_> = base
            .trace
            .insts()
            .filter(|&i| base.trace.event(i).is_predicate())
            .collect();
        if preds.is_empty() {
            return Ok(());
        }
        // Every predicate instance is a trie node. One spine-style
        // instrumented pass captures all of them.
        let specs: Vec<SwitchSpec> = preds
            .iter()
            .map(|&p| SwitchSpec::new(
                base.trace.event(p).stmt,
                base.trace.occurrence_index(p) as u32,
            ))
            .collect();
        let (_, checkpoints) = run_switched(&program, &analysis, &config, &specs, None);
        prop_assert_eq!(checkpoints.len(), specs.len(), "every node captured");

        for (&p, spec) in preds.iter().zip(&specs) {
            let pos = p.0 as usize;
            let switched_cfg = config.switched(*spec);
            let scratch = run_traced(&program, &analysis, &switched_cfg);
            // Exercise both donor shapes the scheduler uses: the node's
            // own checkpoint (exact) and the deepest strict ancestor.
            let exact = checkpoints
                .iter()
                .filter(|cp| cp.is_resumable() && cp.prefix_len() <= pos)
                .max_by_key(|cp| cp.prefix_len());
            let ancestor = checkpoints
                .iter()
                .filter(|cp| cp.is_resumable() && cp.prefix_len() < pos)
                .max_by_key(|cp| cp.prefix_len());
            for cp in [exact, ancestor].into_iter().flatten() {
                let Ok((resumed, _)) = resume_switched(
                    &program, &analysis, &switched_cfg, cp, &base.trace, &[], None,
                ) else {
                    return Err(TestCaseError::fail(format!(
                        "resumable checkpoint {:?} failed to resume for {spec:?}",
                        cp.spec
                    )));
                };
                prop_assert_eq!(resumed.switched, scratch.switched);
                prop_assert_eq!(resumed.trace.events_vec(), scratch.trace.events_vec());
                prop_assert_eq!(resumed.trace.outputs(), scratch.trace.outputs());
                prop_assert_eq!(resumed.trace.termination(), scratch.trace.termination());
                prop_assert_eq!(resumed.input_underflows, scratch.input_underflows);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 2: the checkpoint trie is a pure execution-plan
    /// optimization — locate outcomes (iteration log with every verdict,
    /// final chain, counters) are identical to the from-scratch run's
    /// across capture thresholds and thread counts.
    #[test]
    fn trie_and_scratch_locate_outcomes_agree(
        (fixed, faulty) in pair_strategy(),
    ) {
        let roots = diff_roots(&fixed, &faulty);
        prop_assert!(!roots.is_empty(), "the pair must differ");
        let fixed_analysis = ProgramAnalysis::build(&fixed);
        let analysis = ProgramAnalysis::build(&faulty);
        let config = RunConfig::with_inputs(vec![]);
        let trace = run_traced(&faulty, &analysis, &config).trace;
        let mut profile = ValueProfile::new();
        profile.add_trace(&trace);
        let oracle = GroundTruthOracle::new(&fixed, &fixed_analysis, &config, roots);

        // The from-scratch run comes first: it is the reference.
        let configs = [
            (ResumeMode::Disabled, None),
            (ResumeMode::Auto, None),
            (ResumeMode::Auto, Some(1)),
            (ResumeMode::Auto, Some(1000)),
        ];
        let mut reference: Option<String> = None;
        for (resume, capture_threshold) in configs {
            for jobs in [1usize, 2] {
                let lc = LocateConfig {
                    resume,
                    capture_threshold,
                    jobs,
                    ..LocateConfig::default()
                };
                let outcome = match locate_fault(
                    &faulty, &analysis, &config, &trace, &profile, &oracle, &lc,
                ) {
                    Ok(o) => o,
                    Err(_) => {
                        prop_assert!(
                            reference.is_none(),
                            "locate error depends on the capture plan"
                        );
                        return Ok(());
                    }
                };
                let got = format!(
                    "{:?}|{:?}|{}|{}|{}",
                    outcome.iteration_log,
                    outcome.os,
                    outcome.found,
                    outcome.verifications,
                    outcome.reexecutions,
                );
                match &reference {
                    Some(r) => prop_assert_eq!(
                        r, &got,
                        "{:?} threshold={:?} jobs={} outcome diverged",
                        resume, capture_threshold, jobs
                    ),
                    None => reference = Some(got),
                }
            }
        }
    }
}

/// Property 3 anchor: a memo shared across two locate jobs answers every
/// switched run of the second job — zero re-executions, hits observable
/// in the stats.
#[test]
fn shared_memo_carries_runs_across_locate_jobs() {
    let fixed = compile(
        "global flags = 0; fn main() { let save = input(); flags = 1;\
         if save == 1 { flags = 2; } print(flags); }",
    )
    .unwrap();
    let faulty = compile(
        "global flags = 0; fn main() { let save = input() - 1; flags = 1;\
         if save == 1 { flags = 2; } print(flags); }",
    )
    .unwrap();
    let roots = diff_roots(&fixed, &faulty);
    assert!(!roots.is_empty());
    let fixed_analysis = ProgramAnalysis::build(&fixed);
    let analysis = ProgramAnalysis::build(&faulty);
    let config = RunConfig::with_inputs(vec![1]);
    let trace = run_traced(&faulty, &analysis, &config).trace;
    let mut profile = ValueProfile::new();
    profile.add_trace(&trace);
    let oracle = GroundTruthOracle::new(&fixed, &fixed_analysis, &config, roots);

    let memo = VerifyMemo::shared();
    let lc = LocateConfig {
        memo: Some(Arc::clone(&memo)),
        ..LocateConfig::default()
    };
    let first = locate_fault(&faulty, &analysis, &config, &trace, &profile, &oracle, &lc)
        .expect("figure 1 locates");
    assert!(first.found);
    assert_eq!(first.stats.memo_hits, 0, "a cold memo has nothing cached");
    assert!(first.reexecutions > 0);

    let second = locate_fault(&faulty, &analysis, &config, &trace, &profile, &oracle, &lc)
        .expect("figure 1 locates again");
    assert!(second.found);
    assert_eq!(
        second.reexecutions, 0,
        "every switched run of the second job comes from the shared memo"
    );
    assert!(second.stats.memo_hits > 0);
    assert_eq!(second.iteration_log, first.iteration_log);
    assert_eq!(second.os, first.os);
}
