//! Relevant slicing (Gyimóthy et al., ESEC/FSE 1999) — the baseline the
//! paper compares against (§2, Table 2).
//!
//! A relevant slice is the backward closure over dynamic data/control
//! dependences *plus potential dependence edges* (Definition 1): a use
//! `u` of variable `v` potentially depends on predicate instance `pᵢ` iff
//!
//! 1. `pᵢ` executes before `u`;
//! 2. `u` is not dynamically control dependent on `pᵢ`;
//! 3. the definition actually reaching `u` occurs before `pᵢ`;
//! 4. a different definition could reach `u` had `pᵢ` taken the other
//!    branch — the static component, supplied by
//!    [`PotentialDeps`](omislice_analysis::PotentialDeps).
//!
//! The closure makes the conservatism compound: every potential edge pulls
//! in the predicate's own slice, which is why relevant slices blow up
//! dynamically (the paper's Table 2 RS columns).

use crate::graph::{DepGraph, Slice};
use omislice_analysis::bitset::BitSet;
use omislice_analysis::ProgramAnalysis;
use omislice_lang::VarId;
use omislice_trace::{InstId, Trace};
use std::collections::{HashSet, VecDeque};

/// Computes the set of potential-dependence predicate instances for one
/// use instance `u` (all four conditions of Definition 1).
///
/// Returns instances `pᵢ` such that `u` potentially depends on `pᵢ`.
pub fn potential_dep_instances(
    trace: &Trace,
    analysis: &ProgramAnalysis,
    u: InstId,
) -> Vec<InstId> {
    let mut out: Vec<InstId> = potential_deps_by_var(trace, analysis, u)
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Like [`potential_dep_instances`], but keeps the variable whose skipped
/// definition links `u` to each predicate instance — the implicit-
/// dependence verifier needs it to identify "the definition of `u'`" in
/// the switched run.
pub fn potential_deps_by_var(
    trace: &Trace,
    analysis: &ProgramAnalysis,
    u: InstId,
) -> Vec<(VarId, InstId)> {
    let idx = trace.index();
    let cols = trace.columns();
    let stmt = cols.stmt_of(u);
    let info = analysis.index().stmt(stmt);
    let mut out: Vec<(VarId, InstId)> = Vec::new();
    for &var in &info.uses {
        // Condition (iii): the definition of `var` actually reaching `u`.
        // Identified as the latest data dependence of `u` that defines
        // `var`; when the value arrived through parameter passing (no
        // def_var match), fall back conservatively to "no lower bound".
        let actual_def: Option<InstId> = cols
            .deps_of(u)
            .iter()
            .copied()
            .filter(|&d| cols.def_var_of(d) == Some(var))
            .max();
        let lo = actual_def.unwrap_or(InstId(0));
        for cp in analysis.static_pd(stmt, var) {
            // Conditions (i)+(iii) and the branch filter collapse into one
            // postings-window query: instances of `cp.pred` that took the
            // non-defining branch inside `[actual_def, u)`. Only condition
            // (ii) remains, as an O(1) Euler-interval test.
            for &p_i in idx.pred_instances_between(cp.pred, !cp.branch, lo, u) {
                if !idx.cd_is_ancestor(p_i, u) {
                    out.push((var, p_i));
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Reference implementation of [`potential_deps_by_var`]: the original
/// full-instance scan with the parent-pointer `cd_depends_on` walk. Kept
/// as the oracle for the index equivalence property tests.
#[doc(hidden)]
pub fn potential_deps_by_var_naive(
    trace: &Trace,
    analysis: &ProgramAnalysis,
    u: InstId,
) -> Vec<(VarId, InstId)> {
    let ev = trace.event(u);
    let info = analysis.index().stmt(ev.stmt);
    let mut out: Vec<(VarId, InstId)> = Vec::new();
    for &var in &info.uses {
        let actual_def: Option<InstId> = ev
            .data_deps
            .iter()
            .copied()
            .filter(|&d| trace.event(d).def_var == Some(var))
            .max();
        for cp in analysis.static_pd(ev.stmt, var) {
            // cp.branch is the outcome that would execute the skipped
            // definition; the run must have taken the opposite branch.
            for &p_i in trace.instances_of(cp.pred) {
                if p_i >= u {
                    break; // condition (i): pᵢ precedes u
                }
                if trace.event(p_i).branch != Some(!cp.branch) {
                    continue; // the defining branch was taken after all
                }
                if let Some(d) = actual_def {
                    if p_i < d {
                        continue; // condition (iii): def must precede pᵢ
                    }
                }
                if trace.cd_depends_on_naive(u, p_i) {
                    continue; // condition (ii)
                }
                out.push((var, p_i));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Tests Definition 1 for one specific `(use, var, predicate instance)`
/// triple — used by the demand-driven locator when it re-verifies a
/// switched predicate against *other* uses (Algorithm 2 lines 12–18).
pub fn is_potential_dep(
    trace: &Trace,
    analysis: &ProgramAnalysis,
    u: InstId,
    var: omislice_lang::VarId,
    p_i: InstId,
) -> bool {
    if p_i >= u {
        return false; // condition (i)
    }
    let cols = trace.columns();
    let Some(taken) = cols.branch_of(p_i) else {
        return false;
    };
    // Condition (iv): the static relation must hold for the branch the
    // run did NOT take.
    let p_stmt = cols.stmt_of(p_i);
    let statically_possible = analysis
        .static_pd(cols.stmt_of(u), var)
        .iter()
        .any(|cp| cp.pred == p_stmt && cp.branch != taken);
    if !statically_possible {
        return false;
    }
    // Condition (iii).
    let actual_def: Option<InstId> = cols
        .deps_of(u)
        .iter()
        .copied()
        .filter(|&d| cols.def_var_of(d) == Some(var))
        .max();
    if let Some(d) = actual_def {
        if p_i < d {
            return false;
        }
    }
    // Condition (ii).
    !trace.cd_depends_on(u, p_i)
}

/// Computes the relevant slice of `criterion`.
pub fn relevant_slice(trace: &Trace, analysis: &ProgramAnalysis, criterion: InstId) -> Slice {
    trace.index();
    relevant_slice_on(&DepGraph::new(trace), analysis, criterion)
}

/// Computes the relevant slice of `criterion` over a prebuilt dependence
/// graph — the graph (and the trace index behind it) is built once per
/// trace and amortized over every slice taken on it.
pub fn relevant_slice_on(
    graph: &DepGraph<'_>,
    analysis: &ProgramAnalysis,
    criterion: InstId,
) -> Slice {
    let _span = omislice_obs::span("slice");
    let trace = graph.trace();
    let mut seen = BitSet::new(trace.len());
    seen.insert(criterion.index());
    let mut frontier = vec![criterion];
    let mut next: Vec<InstId> = Vec::new();
    while !frontier.is_empty() {
        for &i in &frontier {
            for d in graph.deps(i) {
                if seen.insert(d.index()) {
                    next.push(d);
                }
            }
            for (_, p) in potential_deps_by_var(trace, analysis, i) {
                if seen.insert(p.index()) {
                    next.push(p);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    Slice::from_insts(trace, seen.iter().map(|i| InstId(i as u32)))
}

/// Reference implementation of [`relevant_slice`]: the original hash-set
/// BFS over allocated dependence vectors and the naive potential-dep
/// scan. Kept as the oracle for the index equivalence property tests.
#[doc(hidden)]
pub fn relevant_slice_naive(trace: &Trace, analysis: &ProgramAnalysis, criterion: InstId) -> Slice {
    let graph = DepGraph::new(trace);
    let mut seen: HashSet<InstId> = HashSet::new();
    let mut queue: VecDeque<InstId> = VecDeque::new();
    seen.insert(criterion);
    queue.push_back(criterion);
    while let Some(i) = queue.pop_front() {
        for d in graph.backward_deps(i) {
            if seen.insert(d) {
                queue.push_back(d);
            }
        }
        for (_, p) in potential_deps_by_var_naive(trace, analysis, i) {
            if seen.insert(p) {
                queue.push_back(p);
            }
        }
    }
    Slice::from_insts(trace, seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepGraph;
    use omislice_interp::{run_traced, RunConfig};
    use omislice_lang::{compile, StmtId};

    fn run(src: &str, inputs: Vec<i64>) -> (Trace, ProgramAnalysis) {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        let t = run_traced(&p, &a, &RunConfig::with_inputs(inputs)).trace;
        (t, a)
    }

    /// The paper's Figure 1 miniature: the error makes `save` false, the
    /// guard is not taken, `flags` keeps its stale value, and the wrong
    /// value is printed. DS misses the root cause; RS captures it.
    const FIG1: &str = "\
        global flags = 0;\
        global save = 0;\
        fn main() {\
            save = input();\
            flags = 1;\
            if save == 1 { flags = 2; }\
            print(flags);\
        }";

    #[test]
    fn relevant_slice_captures_omission_root_cause() {
        let (t, a) = run(FIG1, vec![0]); // faulty condition: save = 0
        let out = t.outputs()[0].inst;
        let ds = DepGraph::new(&t).backward_slice(out);
        assert!(!ds.contains_stmt(StmtId(0)), "DS misses save = input()");
        assert!(!ds.contains_stmt(StmtId(2)), "DS misses the guard");
        let rs = relevant_slice(&t, &a, out);
        assert!(rs.contains_stmt(StmtId(2)), "RS has the guard");
        assert!(rs.contains_stmt(StmtId(0)), "RS reaches the root cause");
        assert!(rs.dynamic_size() > ds.dynamic_size());
    }

    #[test]
    fn no_potential_edge_when_branch_was_taken() {
        let (t, a) = run(FIG1, vec![1]); // guard taken: normal dependence
        let out = t.outputs()[0].inst;
        let pds = potential_dep_instances(&t, &a, out);
        assert!(
            pds.is_empty(),
            "definition executed; dependence is explicit, not potential"
        );
    }

    #[test]
    fn condition_iii_excludes_killed_definitions() {
        // The def in the branch is killed by x = 2 after the predicate.
        let src = "\
            global x = 0;\
            fn main() {\
                if input() == 1 { x = 1; }\
                x = 2;\
                print(x);\
            }";
        let (t, a) = run(src, vec![0]);
        let out = t.outputs()[0].inst;
        let pds = potential_dep_instances(&t, &a, out);
        assert!(pds.is_empty(), "killed def gives no potential dependence");
    }

    #[test]
    fn condition_ii_excludes_own_guards() {
        // The use is control dependent on the predicate: no potential
        // dependence on it (flipping it would unexecute the use).
        let src = "\
            global x = 0;\
            fn main() {\
                if input() == 0 { x = 5; print(x); }\
            }";
        let (t, a) = run(src, vec![0]);
        let out = t.outputs()[0].inst;
        let pds = potential_dep_instances(&t, &a, out);
        assert!(pds.is_empty());
    }

    #[test]
    fn loop_instances_counted_individually() {
        // Every not-taken guard instance between the reaching def and the
        // use is a separate potential dependence — the dynamic blow-up the
        // paper describes.
        let src = "\
            global x = 0;\
            fn main() {\
                let i = 0;\
                while i < 5 {\
                    if input() == 1 { x = i; }\
                    i = i + 1;\
                }\
                print(x);\
            }";
        let (t, a) = run(src, vec![0, 0, 0, 0, 0]);
        let out = t.outputs()[0].inst;
        let pds = potential_dep_instances(&t, &a, out);
        // All 5 untaken instances of the inner if qualify, plus the final
        // (false) evaluation of the loop head: one more iteration could
        // also have produced a reaching definition.
        let mut expected: Vec<InstId> = t.instances_of(StmtId(2)).to_vec();
        expected.push(*t.instances_of(StmtId(1)).last().unwrap());
        expected.sort();
        assert_eq!(pds, expected);
    }

    #[test]
    fn figure1_array_variant_has_false_positive() {
        // The S7→S10 false dependence of the paper: a conditional store to
        // a *different* output cell still registers as potential at the
        // array granularity. Relevant slicing includes it; implicit-
        // dependence verification will reject it later.
        let src = "\
            global buf = [0; 4];\
            global save = 0;\
            fn main() {\
                save = input();\
                buf[0] = 7;\
                if save == 1 { buf[1] = 9; }\
                print(buf[0]);\
            }";
        let (t, a) = run(src, vec![0]);
        let out = t.outputs()[0].inst;
        let pds = potential_dep_instances(&t, &a, out);
        let guard = t.instances_of(StmtId(2))[0];
        assert_eq!(pds, vec![guard], "conservative array-level dependence");
    }

    #[test]
    fn relevant_slice_is_superset_of_dynamic_slice() {
        let src = "\
            global x = 0; global y = 0;\
            fn main() {\
                let a = input();\
                if a > 0 { x = 1; }\
                if a > 10 { y = 1; }\
                print(x + y);\
            }";
        let (t, a) = run(src, vec![-3]);
        let out = t.outputs()[0].inst;
        let ds = DepGraph::new(&t).backward_slice(out);
        let rs = relevant_slice(&t, &a, out);
        for &i in ds.insts() {
            assert!(rs.contains(i), "RS must contain DS instance {i}");
        }
        assert!(rs.contains_stmt(StmtId(1)));
        assert!(rs.contains_stmt(StmtId(3)));
    }
}
