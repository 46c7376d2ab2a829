//! Stopping at the failure changes no verdict.
//!
//! `locate_fault` verifies on a view of the failing trace through the
//! first wrong output `o×`, and each switched run records only until
//! `o×`'s alignment is decided. Over generated programs and the paper's
//! Figure 2/3 shapes (loops, `break`, recursion), for sampled landed
//! switches `p < o×` and uses `u ≤ o×`:
//!
//! 1. a [`Verifier`] on the view returns the same [`Verification`] —
//!    verdict, outcome, matched use, matched failure and failure value —
//!    as one on the full trace, across jobs × resume × capture
//!    threshold;
//! 2. every switched run the view's verifier memoized is the fully
//!    recorded switched run's first events, ending at `o×`'s
//!    counterpart or at the event that rules the counterpart out.

use omislice::omislice_align::{descent_chain, Aligner};
use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{run_traced, ResumeMode, RunConfig, SwitchSpec};
use omislice::omislice_lang::{compile, generate_case, GenOptions, Program};
use omislice::omislice_trace::{InstId, Trace};
use omislice::{
    GroundTruthOracle, UserOracle, Verification, Verifier, VerifierMode, VerifyMemo, VerifyRequest,
};

/// Sampled `(p, u)` requests against failure point `wrong`: up to six
/// predicate instances before it, each against up to ten uses through it.
fn requests(trace: &Trace, analysis: &ProgramAnalysis, wrong: InstId) -> Vec<VerifyRequest> {
    let preds: Vec<InstId> = (0..wrong.0)
        .map(InstId)
        .filter(|&i| trace.event(i).is_predicate())
        .collect();
    let uses: Vec<(InstId, _)> = (0..=wrong.0)
        .map(InstId)
        .filter_map(|u| {
            let var = *analysis.index().stmt(trace.event(u).stmt).uses.first()?;
            Some((u, var))
        })
        .collect();
    let expected = trace.event(wrong).value;
    let mut out = Vec::new();
    for &p in preds.iter().step_by((preds.len() / 6).max(1)) {
        for &(u, var) in uses.iter().rev().step_by((uses.len() / 10).max(1)) {
            out.push(VerifyRequest {
                p,
                u,
                var,
                wrong_output: wrong,
                expected,
            });
        }
    }
    out
}

/// Where a switched run that follows `o×`'s descent chain must stop
/// recording, read off the fully recorded switched run `sw`: one past
/// `o×`'s counterpart, past the counterpart that differs in statement
/// or branch, or past the first event outside a region that closed
/// before the chain's position came.
fn decided_end(view: &Trace, sw: &Trace, p: InstId, wrong: InstId) -> usize {
    let chain = descent_chain(view, p, wrong);
    if chain.steps.is_empty() {
        return p.index() + 1;
    }
    let tree = sw.regions();
    let mut head = chain.root;
    for (level, step) in chain.steps.iter().enumerate() {
        let kids = match head {
            Some(h) => tree.children(h),
            None => tree.roots(),
        };
        let Some(c2) = kids.clone().nth(step.position as usize) else {
            let closed = head.and_then(|h| {
                (h.index()..sw.len()).find(|&i| !tree.in_region(h, InstId(i as u32)))
            });
            return closed.map_or(sw.len(), |x| x + 1);
        };
        let ev = sw.event(c2);
        if ev.stmt != step.stmt || level + 1 == chain.steps.len() || ev.branch != step.branch {
            return c2.index() + 1;
        }
        head = Some(c2);
    }
    unreachable!("the last step decides")
}

/// Checks both properties for one failing run and failure point;
/// returns how many memoized runs stopped recording before the end.
fn check(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    wrong: InstId,
) -> usize {
    let trace = run_traced(program, analysis, config).trace;
    let view = trace.prefix(wrong.index() + 1);
    let reqs = requests(&trace, analysis, wrong);
    let mut cut = 0;
    if reqs.is_empty() {
        return cut;
    }
    let reference: Vec<Verification> =
        Verifier::new(program, analysis, config, &trace, VerifierMode::Edge).verify_all(&reqs);
    for jobs in [1usize, 2] {
        for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
            for threshold in [Some(1), None] {
                let mut v = Verifier::new(program, analysis, config, &view, VerifierMode::Edge)
                    .with_jobs(jobs)
                    .with_resume(resume)
                    .with_capture_threshold(threshold)
                    .with_memo(VerifyMemo::shared());
                let got = v.verify_all(&reqs);
                assert_eq!(
                    got, reference,
                    "view verdicts differ (jobs={jobs} {resume:?} threshold={threshold:?})"
                );
                let mut ps: Vec<InstId> = reqs.iter().map(|r| r.p).collect();
                ps.dedup();
                for p in ps {
                    let Some(run) = v.switched_trace(p) else {
                        continue;
                    };
                    let ev = view.event(p);
                    let spec = SwitchSpec::new(ev.stmt, view.occurrence_index(p) as u32);
                    let full = run_traced(program, analysis, &config.switched(spec)).trace;
                    let end = decided_end(&view, &full, p, wrong);
                    assert_eq!(run.len(), end, "switch {p}: recorded {} events", run.len());
                    assert_eq!(run.events_vec(), full.events_vec()[..end], "switch {p}");
                    assert_eq!(run.termination(), full.termination(), "switch {p}");
                    let outputs = full.outputs().iter().filter(|o| o.inst.index() < end);
                    assert!(run.outputs().iter().eq(outputs), "switch {p}");
                    if let Some(m) = Aligner::new(&view, &full).match_inst(p, wrong) {
                        assert_eq!(end, m.index() + 1, "switch {p}: o× matched at {m}");
                    }
                    cut += usize::from(end < full.len());
                }
            }
        }
    }
    cut
}

#[test]
fn generated_cases_verify_alike_on_the_view() {
    let mut cut = 0;
    for seed in 0..12u64 {
        let case = generate_case(seed, &GenOptions::default());
        let analysis = ProgramAnalysis::build(&case.faulty);
        let fixed_analysis = ProgramAnalysis::build(&case.fixed);
        let config = RunConfig::with_inputs(case.failing_input.clone());
        let trace = run_traced(&case.faulty, &analysis, &config).trace;
        let oracle = GroundTruthOracle::new(&case.fixed, &fixed_analysis, &config, [case.root]);
        let Some(class) = oracle.classify_outputs(&trace) else {
            continue;
        };
        cut += check(&case.faulty, &analysis, &config, class.wrong);
    }
    assert!(cut > 0, "no switched run stopped recording early");
}

/// The paper's Figure 2 (a loop between the switch and the use), its
/// Figure 3 (`break` under the switched predicate), and recursion whose
/// depth the switch changes. Every output in turn plays `o×`.
#[test]
fn figure_shapes_verify_alike_on_the_view() {
    let programs = [
        "global i = 0; global t = 0; global x = 0;\
         global p1 = 0; global c1 = 0; global c2 = 0;\
         fn main() {\
             p1 = input();\
             if p1 == 1 { t = 2; x = 7; }\
             while i < t { x = x + 1; if c1 == 1 { x = x; } i = i + 1; }\
             if 1 == 1 { if c2 == 0 { print(x); } i = i; }\
             print(i);\
         }",
        "global i = 0; global x = 5; global p1 = 0; global c0 = 0; global c1 = 1;\
         fn main() {\
             p1 = input();\
             if p1 == 1 { c0 = 1; }\
             while i < 3 {\
                 if c0 == 1 { break; }\
                 if c1 == 1 { print(x); }\
                 i = i + 1;\
             }\
             print(9);\
         }",
        "global depth = 0;\
         fn down(n) { if n > 0 { depth = depth + 1; down(n - 1); } print(depth); }\
         fn main() { let k = input(); if k > 2 { k = 1; } down(k); print(depth); }",
    ];
    let mut cut = 0;
    for src in programs {
        let program = compile(src).unwrap();
        let analysis = ProgramAnalysis::build(&program);
        for input in [0, 1, 3] {
            let config = RunConfig::with_inputs(vec![input]);
            let trace = run_traced(&program, &analysis, &config).trace;
            for o in trace.outputs() {
                cut += check(&program, &analysis, &config, o.inst);
            }
        }
    }
    assert!(cut > 0, "no switched run stopped recording early");
}
