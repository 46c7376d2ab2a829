//! Property: resuming a switched execution from a checkpoint is
//! indistinguishable from running the switched execution from scratch —
//! identical event sequence, outputs, termination, and switched
//! instance — over randomly generated structured programs and randomly
//! chosen switch points.
//!
//! This is the contract the verification engine's checkpoint-resume fast
//! path relies on; any divergence here would silently corrupt verdicts.
//!
//! A second property holds the region tree, a subtree-size column read
//! with the trace's parent column, to a naive tree built from the parent
//! column alone, on the base run and on from-scratch and resumed
//! switched runs (whose head is the base run's shared prefix).

use omislice_analysis::ProgramAnalysis;
use omislice_interp::{
    resume_switched, run_traced, run_traced_with_checkpoints, RunConfig, SwitchSpec, TracedRun,
};
use omislice_lang::{compile, Program};
use omislice_trace::{InstId, Trace};
use proptest::prelude::*;

// --- tiny structured-program generator ----------------------------------

#[derive(Debug, Clone)]
enum S {
    Assign(usize, usize, i8),
    Print(usize),
    Call(usize),
    If(usize, Vec<S>, Vec<S>),
    While(u8, Vec<S>),
    Break,
}

const VARS: [&str; 3] = ["a", "b", "c"];

fn stmt_strategy() -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        ((0usize..3), (0usize..3), any::<i8>()).prop_map(|(d, u, k)| S::Assign(d, u, k)),
        (0usize..3).prop_map(S::Print),
        (0usize..3).prop_map(S::Call),
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
            Just(S::Break),
        ]
    })
}

fn render(stmts: &[S], out: &mut String, counter: &mut usize, in_loop: bool) {
    for s in stmts {
        match s {
            S::Assign(d, u, k) => {
                out.push_str(&format!("{} = {} + {};\n", VARS[*d], VARS[*u], k));
            }
            S::Print(v) => out.push_str(&format!("print({});\n", VARS[*v])),
            S::Call(v) => out.push_str(&format!("{0} = bump({0});\n", VARS[*v])),
            S::If(v, t, e) => {
                out.push_str(&format!("if {} > 0 {{\n", VARS[*v]));
                render(t, out, counter, in_loop);
                if e.is_empty() {
                    out.push_str("}\n");
                } else {
                    out.push_str("} else {\n");
                    render(e, out, counter, in_loop);
                    out.push_str("}\n");
                }
            }
            S::While(k, b) => {
                let c = *counter;
                *counter += 1;
                out.push_str(&format!("let w{c} = 0;\nwhile w{c} < {k} {{\n"));
                render(b, out, counter, true);
                out.push_str(&format!("w{c} = w{c} + 1;\n}}\n"));
            }
            S::Break => {
                if in_loop {
                    out.push_str("break;\n");
                }
            }
        }
    }
}

fn program_strategy() -> impl Strategy<Value = Program> {
    prop::collection::vec(stmt_strategy(), 1..8).prop_map(|stmts| {
        let mut body = String::new();
        let mut counter = 0;
        render(&stmts, &mut body, &mut counter, false);
        let src = format!(
            "global a = 1; global b = 2; global c = 3;\n\
             fn bump(x) {{ if x > 5 {{ return x - 1; }} return x + 1; }}\n\
             fn main() {{\n{body}}}\n"
        );
        compile(&src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"))
    })
}

// --- the properties ------------------------------------------------------

/// The base run of `program`, and for the predicate instance `pick`
/// selects, the from-scratch and (when its checkpoint is resumable) the
/// resumed switched runs. `None` when the base run has no predicate.
fn switched_runs(
    program: &Program,
    analysis: &ProgramAnalysis,
    pick: prop::sample::Index,
) -> Result<Option<(TracedRun, TracedRun, Option<TracedRun>)>, TestCaseError> {
    let config = RunConfig::with_inputs(vec![]);
    let base = run_traced(program, analysis, &config);
    prop_assert!(base.trace.termination().is_normal());

    let preds: Vec<_> = base
        .trace
        .insts()
        .filter(|&i| base.trace.event(i).is_predicate())
        .collect();
    if preds.is_empty() {
        return Ok(None);
    }
    let p = preds[pick.index(preds.len())];
    let spec = SwitchSpec::new(
        base.trace.event(p).stmt,
        base.trace.occurrence_index(p) as u32,
    );
    let switched_cfg = config.switched(spec);

    let scratch = run_traced(program, analysis, &switched_cfg);

    let (_, checkpoints) = run_traced_with_checkpoints(program, analysis, &config, &[spec]);
    let cp = checkpoints.iter().find(|cp| cp.spec == spec);
    // The switch point was reached in the base run, so the instrumented
    // re-run must capture it.
    prop_assert!(cp.is_some(), "no checkpoint captured for {spec:?}");
    let cp = cp.unwrap();
    if !cp.is_resumable() {
        return Ok(Some((base, scratch, None)));
    }
    let Ok(resumed) = resume_switched(program, analysis, &switched_cfg, cp, &base.trace) else {
        return Err(TestCaseError::fail(format!(
            "resumable checkpoint {spec:?} failed to resume"
        )));
    };
    Ok(Some((base, scratch, Some(resumed))))
}

/// Checks `trace.regions()` against a tree built naively from the
/// `region_parent` column: parents, child lists, roots, next siblings,
/// and region containment by ancestor walk for every pair.
fn check_regions(trace: &Trace) -> Result<(), TestCaseError> {
    let n = trace.len();
    let parent: Vec<Option<InstId>> = trace
        .insts()
        .map(|i| trace.event(i).region_parent)
        .collect();
    let mut children = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for i in trace.insts() {
        match parent[i.index()] {
            Some(p) => children[p.index()].push(i),
            None => roots.push(i),
        }
    }
    let tree = trace.regions();
    prop_assert_eq!(tree.bytes(), 4 * n);
    prop_assert_eq!(tree.roots().collect::<Vec<_>>(), roots.clone());
    let mut is_ancestor = vec![false; n];
    for i in trace.insts() {
        prop_assert_eq!(tree.parent(i), parent[i.index()]);
        prop_assert_eq!(
            tree.children(i).collect::<Vec<_>>(),
            children[i.index()].clone()
        );
        let siblings = parent[i.index()].map_or(&roots, |p| &children[p.index()]);
        let pos = siblings.iter().position(|&c| c == i).unwrap();
        prop_assert_eq!(tree.next_sibling(i), siblings.get(pos + 1).copied());
        let mut chain = vec![i];
        while let Some(p) = parent[chain[chain.len() - 1].index()] {
            chain.push(p);
        }
        for a in &chain {
            is_ancestor[a.index()] = true;
        }
        for h in trace.insts() {
            prop_assert_eq!(
                tree.in_region(h, i),
                is_ancestor[h.index()],
                "in_region({}, {})",
                h,
                i
            );
        }
        for a in &chain {
            is_ancestor[a.index()] = false;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resumed_switched_run_equals_from_scratch(
        program in program_strategy(),
        pick in any::<prop::sample::Index>(),
    ) {
        let analysis = ProgramAnalysis::build(&program);
        let Some((_, scratch, resumed)) = switched_runs(&program, &analysis, pick)? else {
            return Ok(());
        };
        let Some(resumed) = resumed else {
            return Ok(());
        };
        prop_assert_eq!(resumed.switched, scratch.switched);
        prop_assert_eq!(resumed.trace.events_vec(), scratch.trace.events_vec());
        prop_assert_eq!(resumed.trace.outputs(), scratch.trace.outputs());
        prop_assert_eq!(resumed.trace.termination(), scratch.trace.termination());
        prop_assert_eq!(resumed.input_underflows, scratch.input_underflows);
    }

    #[test]
    fn region_trees_match_the_parent_column(
        program in program_strategy(),
        pick in any::<prop::sample::Index>(),
    ) {
        let analysis = ProgramAnalysis::build(&program);
        let Some((base, scratch, resumed)) = switched_runs(&program, &analysis, pick)? else {
            return Ok(());
        };
        check_regions(&base.trace)?;
        check_regions(&scratch.trace)?;
        if let Some(resumed) = resumed {
            check_regions(&resumed.trace)?;
        }
    }
}
