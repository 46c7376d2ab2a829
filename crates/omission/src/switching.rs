//! The predicate-switching baseline: *critical predicate* search
//! (Zhang, Gupta, Gupta — ICSE 2006), which the paper builds on and
//! contrasts with (§6 Related Work).
//!
//! The ICSE 2006 idea: brute-force over dynamic predicate instances of a
//! failing run, switch one instance per re-execution, and call an
//! instance *critical* if the switched run produces the expected output.
//! No dependence graphs, no alignment — just output comparison — but the
//! search may need as many re-executions as there are predicate
//! instances. The PLDI 2007 paper re-purposes the switching mechanism to
//! *verify individual dependences*, steering it with potential
//! dependences and pruning so only a handful of re-executions run; this
//! module exists so that trade-off can be measured (see the
//! `switching_vs_demand_driven` ablation).
//!
//! The search uses the ICSE 2006 prioritization: **LEFS** (last executed
//! first switched) walks instances backwards from the failure, and
//! **PRIOR** first tries predicates that appear in the dynamic slices of
//! the wrong output, ordered by dependence distance.

use omislice_analysis::ProgramAnalysis;
use omislice_interp::{run_plain_indexed, RunConfig, SwitchSpec};
use omislice_lang::Program;
use omislice_slicing::DepGraph;
use omislice_trace::{InstId, Trace, Value};

/// Instance-ordering strategy for the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchOrder {
    /// Last executed, first switched: walk the trace backwards.
    #[default]
    Lefs,
    /// Prioritized: predicates in the dynamic slice of the wrong output
    /// first (by dependence distance), then the remaining ones in LEFS
    /// order.
    Prioritized,
}

/// Result of a critical-predicate search.
#[derive(Debug, Clone)]
pub struct CriticalPredicate {
    /// The critical instance, if one was found.
    pub instance: Option<InstId>,
    /// Re-executions performed before finding it (or exhausting the
    /// candidates).
    pub reexecutions: usize,
    /// Total candidate instances considered.
    pub candidates: usize,
}

/// Searches for a critical predicate instance: one whose switch makes the
/// program produce exactly `expected_outputs`.
///
/// `trace` is the failing run of `program` under `config` (no switch).
/// Candidates are re-executed one at a time, in `order`, until the first
/// hit; `reexecutions` counts every switched run performed.
pub fn find_critical_predicate(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    trace: &Trace,
    expected_outputs: &[Value],
    order: SearchOrder,
) -> CriticalPredicate {
    let candidates = order_candidates(trace, order);
    let total = candidates.len();
    let mut reexecutions = 0;
    for inst in candidates {
        let ev = trace.event(inst);
        let spec = SwitchSpec::new(ev.stmt, trace.occurrence_index(inst) as u32);
        let run = run_plain_indexed(program, analysis.index(), &config.switched(spec));
        reexecutions += 1;
        if run.is_normal() && run.outputs == expected_outputs {
            return CriticalPredicate {
                instance: Some(inst),
                reexecutions,
                candidates: total,
            };
        }
    }
    CriticalPredicate {
        instance: None,
        reexecutions,
        candidates: total,
    }
}

fn order_candidates(trace: &Trace, order: SearchOrder) -> Vec<InstId> {
    let mut preds: Vec<InstId> = trace
        .insts()
        .filter(|&i| trace.event(i).is_predicate())
        .collect();
    match order {
        SearchOrder::Lefs => {
            preds.reverse();
            preds
        }
        SearchOrder::Prioritized => {
            let Some(last_out) = trace.outputs().last() else {
                preds.reverse();
                return preds;
            };
            let graph = DepGraph::new(trace);
            let distances = graph.distances_from(last_out.inst);
            let mut in_slice: Vec<InstId> = preds
                .iter()
                .copied()
                .filter(|i| distances.contains_key(i))
                .collect();
            in_slice.sort_by_key(|i| (distances[i], std::cmp::Reverse(*i)));
            let mut rest: Vec<InstId> = preds
                .into_iter()
                .filter(|i| !distances.contains_key(i))
                .collect();
            rest.reverse();
            in_slice.extend(rest);
            in_slice
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_interp::run_traced;
    use omislice_lang::{compile, StmtId};

    fn setup(src: &str, inputs: Vec<i64>) -> (Program, ProgramAnalysis, RunConfig, Trace) {
        let program = compile(src).unwrap();
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig::with_inputs(inputs);
        let trace = run_traced(&program, &analysis, &config).trace;
        (program, analysis, config, trace)
    }

    const FIG1: &str = "\
        global flags = 0;\
        fn main() {\
            let save = input();\
            flags = 1;\
            if save == 1 { flags = 2; }\
            print(flags);\
        }";

    #[test]
    fn finds_the_critical_guard() {
        let (p, a, cfg, t) = setup(FIG1, vec![0]);
        let expected = vec![Value::Int(2)];
        let result = find_critical_predicate(&p, &a, &cfg, &t, &expected, SearchOrder::Lefs);
        let inst = result.instance.expect("the guard is critical");
        assert_eq!(t.event(inst).stmt, StmtId(2));
        assert!(result.reexecutions >= 1);
    }

    #[test]
    fn reports_absence_when_no_switch_fixes_the_output() {
        let (p, a, cfg, t) = setup(FIG1, vec![0]);
        // No single switch can produce 42.
        let expected = vec![Value::Int(42)];
        let result = find_critical_predicate(&p, &a, &cfg, &t, &expected, SearchOrder::Lefs);
        assert!(result.instance.is_none());
        assert_eq!(result.reexecutions, result.candidates);
    }

    #[test]
    fn prioritized_order_tries_slice_predicates_first() {
        // Two predicates: a decoy executed late (outside the failure's
        // slice) and the critical guard that steers the wrong assignment.
        // LEFS tries the decoy first; PRIOR goes straight to the guard.
        // (Note: for *omission* failures the slice is empty of guards and
        // prioritization cannot help — which is the PLDI 2007 paper's
        // whole point; this scenario is a commission-style failure where
        // the ICSE 2006 heuristic shines.)
        let src = "\
            global x = 0; global junk = 0;\
            fn main() {\
                let c = input();\
                if c == 0 { x = 3; } else { x = 5; }\
                if input() == 7 { junk = 1; }\
                print(x);\
            }";
        let (p, a, cfg, t) = setup(src, vec![0, 0]);
        let expected = vec![Value::Int(5)];
        let lefs = find_critical_predicate(&p, &a, &cfg, &t, &expected, SearchOrder::Lefs);
        let prior = find_critical_predicate(&p, &a, &cfg, &t, &expected, SearchOrder::Prioritized);
        assert_eq!(lefs.instance, prior.instance);
        assert!(
            prior.reexecutions < lefs.reexecutions,
            "prioritization skips the decoy: {} vs {}",
            prior.reexecutions,
            lefs.reexecutions
        );
    }

    #[test]
    fn loop_instances_are_individual_candidates() {
        let src = "\
            global hits = 0;\
            fn main() {\
                let i = 0;\
                while i < 3 {\
                    if i == 9 { hits = hits + 1; }\
                    i = i + 1;\
                }\
                print(hits);\
            }";
        let (p, a, cfg, t) = setup(src, vec![]);
        // Switching exactly one inner-guard instance yields hits == 1.
        let expected = vec![Value::Int(1)];
        let result = find_critical_predicate(&p, &a, &cfg, &t, &expected, SearchOrder::Lefs);
        let inst = result.instance.expect("one iteration's guard is critical");
        assert_eq!(t.event(inst).stmt, StmtId(2));
    }

    #[test]
    fn search_counts_every_reexecution() {
        let (p, a, cfg, t) = setup(FIG1, vec![0]);
        let expected = vec![Value::Int(2)];
        let result = find_critical_predicate(&p, &a, &cfg, &t, &expected, SearchOrder::Lefs);
        assert!(result.reexecutions <= result.candidates);
        assert_eq!(result.candidates, 1, "one predicate instance in FIG1");
    }
}
