//! Every figure and discussion example of the paper, as executable tests.
//!
//! * Figure 1 — the gzip motivating example (`fig1_*`);
//! * Figure 2 — region alignment across a switched loop (`fig2_*`);
//! * Figure 3 — the single-entry-multiple-exit case (`fig3_*`);
//! * Figure 4 — confidence analysis values (`fig4_*`);
//! * Figure 5 — verifying other uses of a switched predicate enables
//!   more pruning (`fig5_*`);
//! * Table 5(a) — feasibility: switched paths may be statically
//!   infeasible yet must still be explored (`discussion_feasibility`);
//! * Table 5(b) — soundness: nested predicates over one definition can
//!   hide an implicit dependence (`discussion_soundness_miss`).

use omislice::omislice_slicing::{analyze_confidence, ConfidenceParams};
use omislice::prelude::*;
use omislice::{LocateConfig, UserOracle, Verifier, VerifierMode};
use std::collections::HashSet;

// --- Figure 1 ---------------------------------------------------------

const FIG1_FIXED: &str = "\
    global flags = 0; global deflated = 8;\
    fn main() {\
        let save_orig_name = input();\
        flags = 1;\
        if save_orig_name == 1 { flags = flags + 8; }\
        print(deflated);\
        print(flags);\
    }";

fn fig1_session() -> DebugSession {
    let faulty = FIG1_FIXED.replace("input()", "input() - 1");
    DebugSession::builder(&faulty)
        .reference(FIG1_FIXED)
        .failing_input(vec![1])
        .profile_inputs([vec![0], vec![2]])
        .root_cause_stmts([StmtId(0)])
        .build()
        .expect("session builds")
}

#[test]
fn fig1_dynamic_slice_misses_the_root() {
    let session = fig1_session();
    let class = session
        .oracle()
        .classify_outputs(session.trace())
        .expect("wrong output exists");
    // DEFLATED prints correctly; flags is the wrong output.
    assert_eq!(class.correct.len(), 1);
    assert_eq!(class.expected, Some(Value::Int(9)));
    let ds = DepGraph::new(session.trace()).backward_slice(class.wrong);
    assert!(!ds.contains_stmt(StmtId(0)), "S1 missing from the DS");
    assert!(!ds.contains_stmt(StmtId(2)), "S4 missing from the DS");
}

#[test]
fn fig1_locator_reproduces_the_walkthrough() {
    let session = fig1_session();
    let outcome = session.locate(&LocateConfig::default()).unwrap();
    assert!(outcome.found);
    assert_eq!(outcome.iterations, 1, "one expansion, as in §3.2");
    assert!(outcome.strong_edges >= 1, "S4 → S6 is strong");
    // The final pruned slice mirrors {S1, S2, S4, S6, S10}: it contains
    // the root, the guard, and the failure point.
    assert!(outcome.ips.contains_stmt(StmtId(0)));
    assert!(outcome.ips.contains_stmt(StmtId(2)));
    let os = outcome.os.unwrap();
    assert_eq!(session.trace().event(*os.last().unwrap()).stmt, StmtId(0));
}

// --- Figures 2 and 3 --------------------------------------------------

const FIG2: &str = "\
    global i = 0; global t = 0; global x = 0;\
    global p1 = 0; global c1 = 0; global c2 = 0;\
    fn main() {\
        if p1 == 1 { t = 1; x = 7; }\
        while i < t {\
            x = x;\
            if c1 == 1 { x = x; }\
            i = i + 1;\
        }\
        if 1 == 1 {\
            if c2 == 0 { print(x); }\
            i = i;\
        }\
    }";

#[test]
fn fig2_alignment_finds_the_use_through_the_loop() {
    let program = compile(FIG2).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::default();
    let orig = run_traced(&program, &analysis, &config);
    let sw = run_traced(
        &program,
        &analysis,
        &config.switched(SwitchSpec::new(StmtId(0), 0)),
    );
    let aligner = Aligner::new(&orig.trace, &sw.trace);
    let p = orig.trace.instances_of(StmtId(0))[0];
    let u = orig.trace.instances_of(StmtId(10))[0];
    let m = aligner.match_inst(p, u).expect("15(1) matches in (2)");
    // The switched run executed loop iterations in between, so the
    // matched instance has a later timestamp.
    assert!(m > u);
    assert_eq!(sw.trace.event(m).value, Some(Value::Int(7)));
}

#[test]
fn fig2_region_rendering_shows_loop_chaining() {
    let program = compile(FIG2).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let sw = run_traced(
        &program,
        &analysis,
        &RunConfig::default().switched(SwitchSpec::new(StmtId(0), 0)),
    );
    let regions = RegionTree::build(&sw.trace);
    let rendered = regions.render_all(&sw.trace);
    // The loop head (S3) heads a region containing its re-evaluation —
    // the paper's [6,7,8,11,12,6] unit.
    assert!(rendered.contains("[3,"), "loop region exists: {rendered}");
}

#[test]
fn fig3_break_case_reports_no_match() {
    let src = "\
        global i = 0; global x = 5; global p1 = 0; global c0 = 0; global c1 = 1;\
        fn main() {\
            if p1 == 1 { c0 = 1; }\
            while i < 3 {\
                if c0 == 1 { break; }\
                if c1 == 1 { print(x); }\
                i = i + 1;\
            }\
            print(9);\
        }";
    let program = compile(src).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::default();
    let orig = run_traced(&program, &analysis, &config);
    let sw = run_traced(
        &program,
        &analysis,
        &config.switched(SwitchSpec::new(StmtId(0), 0)),
    );
    let aligner = Aligner::new(&orig.trace, &sw.trace);
    let p = orig.trace.instances_of(StmtId(0))[0];
    let u = orig.trace.instances_of(StmtId(6))[0];
    assert_eq!(aligner.match_inst(p, u), None, "the sibling walk ends");
}

// --- Figure 4 ---------------------------------------------------------

#[test]
fn fig4_confidence_values() {
    let src = "global a = 0; global b = 0; global c = 0;\
        fn main() { a = input(); b = a % 2; c = a + 2; print(b); print(c); }";
    let program = compile(src).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let mut profile = ValueProfile::new();
    for input in [1i64, 3, 5, 7, 9] {
        profile.add_trace(
            &run_traced(&program, &analysis, &RunConfig::with_inputs(vec![input])).trace,
        );
    }
    let trace = run_traced(&program, &analysis, &RunConfig::with_inputs(vec![1])).trace;
    let outs = trace.outputs();
    let graph = DepGraph::new(&trace);
    let conf = analyze_confidence(&ConfidenceParams {
        graph: &graph,
        analysis: &analysis,
        profile: &profile,
        correct_outputs: &[outs[0].inst],
        wrong_output: outs[1].inst,
        benign: &HashSet::new(),
        corrupted: &HashSet::new(),
    });
    let inst = |s: u32| trace.instances_of(StmtId(s))[0];
    assert!(conf.is_prunable(inst(1)), "C(b) = 1");
    assert_eq!(conf.of(inst(2)), 0.0, "C(c) = 0");
    let a = conf.of(inst(0));
    assert!(a > 0.0 && a < 1.0, "C(a) = f(range(A)), got {a}");
}

// --- Figure 5 ---------------------------------------------------------

#[test]
fn fig5_verified_edge_from_benign_use_exonerates_the_predicate() {
    // The Figure 5 mechanism in isolation: u and t both (implicitly)
    // depend on predicate p. With only the u → p edge, p stays a fault
    // candidate; once the t → p edge is also verified and added, t's
    // benign state propagates across it and p is pruned.
    use omislice::omislice_slicing::{prune_slice, Feedback};

    let src = "global x = 0; global y = 0;\
        fn main() {\
            let c = input();\
            if c > 0 { x = 1; y = 1; }\
            print(y);\
            print(x);\
        }";
    let program = compile(src).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let trace = run_traced(&program, &analysis, &RunConfig::with_inputs(vec![-1])).trace;
    let outs = trace.outputs();
    let (t_use, wrong) = (outs[0].inst, outs[1].inst);
    let guard = trace.instances_of(StmtId(1))[0];
    let profile = ValueProfile::from_traces([&trace]);
    // The user has judged print(y)'s state benign.
    let mut feedback = Feedback::default();
    feedback.benign.insert(t_use);

    // Only the u → p edge: the guard remains a candidate.
    let mut graph = DepGraph::new(&trace);
    graph.add_edge(wrong, guard);
    let ps = prune_slice(&graph, &analysis, &profile, &[], wrong, &feedback);
    assert!(ps.keeps(guard), "guard is a fault candidate");

    // Adding the verified t → p edge propagates t's confidence to p.
    graph.add_edge(t_use, guard);
    let ps = prune_slice(&graph, &analysis, &profile, &[], wrong, &feedback);
    assert!(!ps.keeps(guard), "benign t exonerates the guard (Figure 5)");
}

// --- §5 discussion ----------------------------------------------------

#[test]
fn discussion_feasibility() {
    // Table 5(a): A = 15 → P1 taken (A reassigned), P2 untaken. The path
    // "P2 taken" is infeasible in this program version, yet switching P2
    // exposes a dependence — deliberately, because either predicate might
    // be the error.
    let src = "global a = 0; global x = 0;\
        fn main() {\
            a = input();\
            x = 1;\
            if a > 10 { a = 2; }\
            if a > 100 { x = 9; }\
            print(x);\
        }";
    let program = compile(src).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(vec![15]);
    let trace = run_traced(&program, &analysis, &config).trace;
    let mut verifier = Verifier::new(&program, &analysis, &config, &trace, VerifierMode::Edge);
    let p2 = trace.instances_of(StmtId(4))[0];
    let out = trace.outputs()[0].inst;
    let x = analysis.index().vars().global("x").unwrap();
    let v = verifier.verify(p2, out, x, out, None);
    assert_eq!(
        v.verdict,
        omislice::Verdict::Id,
        "the infeasible path still exposes the dependence"
    );
}

#[test]
fn discussion_soundness_miss() {
    // Table 5(b): A = 5 → P1 false. Switching P1 alone makes P2 evaluate
    // (A < 5 → false), so S3 still does not execute and the implicit
    // dependence P1 → S4 is missed — the documented unsoundness.
    let src = "global a = 0; global x = 0;\
        fn main() {\
            a = input();\
            x = 1;\
            if a > 10 {\
                if a < 5 { x = 9; }\
            }\
            print(x);\
        }";
    let program = compile(src).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(vec![5]);
    let trace = run_traced(&program, &analysis, &config).trace;
    let mut verifier = Verifier::new(&program, &analysis, &config, &trace, VerifierMode::Edge);
    let p1 = trace.instances_of(StmtId(2))[0];
    let out = trace.outputs()[0].inst;
    let x = analysis.index().vars().global("x").unwrap();
    let v = verifier.verify(p1, out, x, out, None);
    assert_eq!(
        v.verdict,
        omislice::Verdict::NotId,
        "nested predicates over one definition hide the dependence"
    );
    // The safe path-based mode misses it too (no path materializes), so
    // this is inherent to single-predicate switching, as §5 explains.
    let mut safe = Verifier::new(&program, &analysis, &config, &trace, VerifierMode::Path);
    assert_eq!(
        safe.verify(p1, out, x, out, None).verdict,
        omislice::Verdict::NotId
    );
}

#[test]
fn discussion_soundness_recovered_by_value_perturbation() {
    // §5's proposed remedy, implemented: perturbing the *value* of A
    // (instead of one branch outcome) drives both nested predicates and
    // exposes the dependence that switching misses. The paper declines
    // this because "A has an integer domain while a predicate has a
    // binary domain" — visible here as extra re-executions.
    use omislice::{perturbation_candidates, verify_by_perturbation};

    let src = "global a = 0; global x = 0;        fn main() {            a = input();            x = 1;            if a > 10 {                if a > 20 { x = 9; }            }            print(x);        }";
    let program = compile(src).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(vec![5]);
    let trace = run_traced(&program, &analysis, &config).trace;
    // Profile over a suite that exercises the deep branch.
    let mut profile = ValueProfile::new();
    for i in [5i64, 12, 25] {
        profile.add_trace(&run_traced(&program, &analysis, &RunConfig::with_inputs(vec![i])).trace);
    }
    let def = trace.instances_of(StmtId(0))[0];
    let u = trace.outputs()[0].inst;
    let candidates = perturbation_candidates(&profile, &trace, def);
    let result = verify_by_perturbation(&program, &analysis, &config, &trace, def, u, &candidates);
    assert!(
        result.affected,
        "perturbation exposes the hidden dependence"
    );
    assert!(
        result.reexecutions > 1,
        "and costs more than a single binary switch ({})",
        result.reexecutions
    );
}

// --- instance precision -------------------------------------------------

#[test]
fn locator_is_instance_precise_in_loops() {
    // The paper's §2 argument for dynamic techniques: when an erroneous
    // predicate executes many times and only one instance matters, the
    // fault candidate set should contain *that* instance, not all of
    // them. Here the guard evaluates five times; only iteration 3's
    // outcome corrupts the output.
    use omislice::{DebugSession, LocateConfig};

    let fixed = "global marked = 0;\
        fn main() {\
            let target = input();\
            let i = 0;\
            while i < 5 {\
                if i == target { marked = i + 10; }\
                i = i + 1;\
            }\
            print(marked);\
        }";
    // The fault shifts the comparison so the guard never fires.
    let faulty = fixed.replace("if i == target", "if i == target + 9");
    let session = DebugSession::builder(&faulty)
        .reference(fixed)
        .failing_input(vec![3])
        .profile_inputs([vec![0], vec![4], vec![9]])
        .root_cause_stmts([StmtId(3)])
        .build()
        .unwrap();
    let outcome = session.locate(&LocateConfig::default()).unwrap();
    assert!(outcome.found, "{}", session.report(&outcome, false));

    // Exactly one of the five guard instances sits on the failure chain:
    // the one from iteration 3 (occurrence index 3).
    let trace = session.trace();
    let os = outcome.os.as_ref().unwrap();
    let guard_instances_on_chain: Vec<usize> = os
        .iter()
        .filter(|&&i| trace.event(i).stmt == StmtId(3))
        .map(|&i| trace.occurrence_index(i))
        .collect();
    assert_eq!(
        guard_instances_on_chain,
        vec![3],
        "only iteration 3's instance"
    );
    // And the IPS keeps at most a couple of the 5 instances (instance-
    // level pruning), rather than pulling in every iteration.
    let guard_in_ips = outcome
        .ips
        .insts()
        .iter()
        .filter(|&&i| trace.event(i).stmt == StmtId(3))
        .count();
    assert!(
        guard_in_ips <= 2,
        "IPS keeps {guard_in_ips} of 5 guard instances"
    );
}
