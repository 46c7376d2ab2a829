//! Confidence analysis (Zhang, Gupta, Gupta — PLDI 2006), as used by the
//! paper's pruning step (§3.2 "Confidence Analysis Based Pruning").
//!
//! Each instance gets a confidence in `[0, 1]` — the likelihood that it
//! produced a *correct* value:
//!
//! * instances whose value is known correct (correct outputs, instances
//!   the user marked benign) have confidence 1, and certainty propagates
//!   backwards through *invertible* (one-to-one) computations — if
//!   `c = a + 2` is correct, `a` must be too;
//! * the wrong output and user-marked corrupted instances are pinned at 0;
//! * instances that reach a correct output only through many-to-one
//!   computations (`%`, `/`, comparisons, ...) get the partial estimate
//!   `1 − log 2 ⁄ log |range|`, with the range approximated by the value
//!   profile (Figure 4's `C = f(range(A))`);
//! * instances with no correct-output evidence at all get 0.
//!
//! Confidence is computed over the *augmented* graph, so verified
//! implicit dependence edges participate — per the paper, propagating
//! along unverified potential edges would sanitize the root cause, which
//! is exactly why this analysis must not be combined with relevant
//! slicing directly.

use crate::graph::DepGraph;
use crate::profile::ValueProfile;
use omislice_analysis::ProgramAnalysis;
use omislice_trace::InstId;
use std::collections::HashSet;

/// Inputs to one confidence computation.
#[derive(Debug)]
pub struct ConfidenceParams<'a> {
    /// The (possibly augmented) dependence graph.
    pub graph: &'a DepGraph<'a>,
    /// Static analysis results (for per-statement invertibility).
    pub analysis: &'a ProgramAnalysis,
    /// Value profile from the test suite (for ranges).
    pub profile: &'a ValueProfile,
    /// Output instances observed to be correct.
    pub correct_outputs: &'a [InstId],
    /// The first wrong output — the slicing criterion.
    pub wrong_output: InstId,
    /// Instances the user declared benign (correct program state).
    pub benign: &'a HashSet<InstId>,
    /// Instances the user declared corrupted.
    pub corrupted: &'a HashSet<InstId>,
}

/// Per-instance confidence values.
#[derive(Debug, Clone)]
pub struct Confidence {
    conf: Vec<f64>,
    /// The wrong output and the user-marked corrupted instances: held at
    /// 0 whatever the evidence, and never crossed by certainty.
    pinned: Vec<bool>,
}

impl Confidence {
    /// The confidence of `inst`.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range for the analyzed trace.
    pub fn of(&self, inst: InstId) -> f64 {
        self.conf[inst.index()]
    }

    /// Whether `inst` can be pruned from the fault candidate set
    /// (confidence 1).
    pub fn is_prunable(&self, inst: InstId) -> bool {
        self.of(inst) >= 1.0 - f64::EPSILON
    }

    /// Certainty propagation: makes every seed certain (confidence 1) and
    /// lets certainty flow backwards — through invertible computations,
    /// from predicates onto binary-domain operands, and across added
    /// edges. Only instances neither certain nor pinned are visited, so
    /// re-entering with one more benign instance costs the edges of what
    /// it newly makes certain, and the certain set is the same closure
    /// one pass over all seeds computes. Confidence 1 marks exactly the
    /// certain instances: the range-based estimate stays below 1.
    pub(crate) fn extend_certainty(
        &mut self,
        graph: &DepGraph<'_>,
        analysis: &ProgramAnalysis,
        profile: &ValueProfile,
        seeds: impl IntoIterator<Item = InstId>,
    ) {
        let Confidence { conf, pinned } = self;
        let mut mark = |i: InstId, work: &mut Vec<InstId>| {
            if conf[i.index()] < 1.0 && !pinned[i.index()] {
                conf[i.index()] = 1.0;
                work.push(i);
            }
        };
        let mut work = Vec::new();
        for seed in seeds {
            mark(seed, &mut work);
        }
        let cols = graph.trace().columns();
        while let Some(j) = work.pop() {
            // One-to-one computations pin their inputs (Figure 4's `+`
            // case); predicates pin operands whose observed domain is
            // binary — the range-based estimate of PLDI 2006 (outcome +
            // two-valued domain determine the value).
            if analysis.index().stmt(cols.stmt_of(j)).invertible {
                for &i in cols.deps_of(j) {
                    mark(i, &mut work);
                }
            } else if cols.branch_of(j).is_some() {
                for &i in cols.deps_of(j) {
                    if profile.range(cols.stmt_of(i)) <= 2 {
                        mark(i, &mut work);
                    }
                }
            }
            // Added dependence edges transfer correctness evidence to
            // their target: `j` (implicitly) depends on the predicate, and
            // `j` being correct exonerates it. This is exactly the Figure 5
            // pruning the paper wants across *verified* edges — and
            // exactly the root-sanitizing hazard it warns about when the
            // edges are merely *potential* (§3.2), which the ablation
            // harness demonstrates.
            for &i in graph.extra_edges_of(j) {
                mark(i, &mut work);
            }
        }
    }
}

/// The partial-confidence estimate for a value whose only correctness
/// evidence passes through many-to-one computations: `1 − log2/log range`
/// (0 when the observed range has two or fewer values).
pub fn partial_confidence(range: usize) -> f64 {
    if range <= 2 {
        0.0
    } else {
        1.0 - (2f64).ln() / (range as f64).ln()
    }
}

/// Runs the analysis.
pub fn analyze(params: &ConfidenceParams<'_>) -> Confidence {
    let trace = params.graph.trace();
    let n = trace.len();

    // 1. Certainty propagation from the correct outputs and the benign
    //    marks.
    let mut pinned = vec![false; n];
    pinned[params.wrong_output.index()] = true;
    for &c in params.corrupted {
        pinned[c.index()] = true;
    }
    let mut confidence = Confidence {
        conf: vec![0.0; n],
        pinned,
    };
    confidence.extend_certainty(
        params.graph,
        params.analysis,
        params.profile,
        params.correct_outputs.iter().chain(params.benign).copied(),
    );

    // 2. Output reachability over the augmented graph. Dependences point
    //    strictly backwards in time, so one descending sweep suffices.
    const CORRECT: u8 = 1;
    const WRONG: u8 = 2;
    let mut reach = vec![0u8; n];
    for &c in params.correct_outputs {
        reach[c.index()] |= CORRECT;
    }
    reach[params.wrong_output.index()] |= WRONG;
    for idx in (0..n).rev() {
        let mask = reach[idx];
        if mask == 0 {
            continue;
        }
        for d in params.graph.deps(InstId(idx as u32)) {
            reach[d.index()] |= mask;
        }
    }

    // 3. Combine: uncertain, unpinned instances that reach a correct
    //    output get the range-based estimate; everything else stays 0.
    let cols = trace.columns();
    for (idx, &mask) in reach.iter().enumerate() {
        if mask & CORRECT != 0 && confidence.conf[idx] < 1.0 && !confidence.pinned[idx] {
            let stmt = cols.stmt_of(InstId(idx as u32));
            confidence.conf[idx] = partial_confidence(params.profile.range(stmt));
        }
    }
    confidence
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_interp::{run_traced, RunConfig};
    use omislice_lang::{compile, StmtId};
    use omislice_trace::Trace;

    fn run(src: &str, inputs: Vec<i64>) -> (Trace, ProgramAnalysis) {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        let t = run_traced(&p, &a, &RunConfig::with_inputs(inputs)).trace;
        (t, a)
    }

    fn profile_over(src: &str, inputs: &[i64]) -> ValueProfile {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        let mut profile = ValueProfile::new();
        for &i in inputs {
            profile.add_trace(&run_traced(&p, &a, &RunConfig::with_inputs(vec![i])).trace);
        }
        profile
    }

    /// The paper's Figure 4: `a=1; b=a%2; c=a+2; print(b) ✓; print(c) ✗`.
    const FIG4: &str = "\
        global a = 0; global b = 0; global c = 0;\
        fn main() {\
            a = input();\
            b = a % 2;\
            c = a + 2;\
            print(b);\
            print(c);\
        }";

    #[test]
    fn figure4_confidence_values() {
        let (t, analysis) = run(FIG4, vec![1]);
        let profile = profile_over(FIG4, &[1, 3, 5, 7, 9, 11, 13, 15]);
        let graph = DepGraph::new(&t);
        let outs = t.outputs();
        let (correct, wrong) = (outs[0].inst, outs[1].inst);
        let conf = analyze(&ConfidenceParams {
            graph: &graph,
            analysis: &analysis,
            profile: &profile,
            correct_outputs: &[correct],
            wrong_output: wrong,
            benign: &HashSet::new(),
            corrupted: &HashSet::new(),
        });
        let inst = |s: u32| t.instances_of(StmtId(s))[0];
        // print(b) correct → b = a%2 has confidence 1 (print is identity).
        assert!(conf.is_prunable(inst(1)), "stmt 20 of the paper: conf 1");
        // c = a+2 reaches only the wrong output → 0.
        assert_eq!(conf.of(inst(2)), 0.0, "stmt 30 of the paper: conf 0");
        // a = input(): correctness evidence only through %2 → partial.
        let ca = conf.of(inst(0));
        assert!(ca > 0.0 && ca < 1.0, "stmt 10: range-based, got {ca}");
        // The wrong output itself is 0.
        assert_eq!(conf.of(wrong), 0.0);
        assert!(conf.is_prunable(correct));
    }

    #[test]
    fn certainty_propagates_through_invertible_chain() {
        let src = "\
            fn main() {\
                let a = input();\
                let b = a + 2;\
                let c = b - 5;\
                print(c);\
                print(input());\
            }";
        let (t, analysis) = run(src, vec![10, 0]);
        let profile = profile_over(src, &[1, 2, 3]);
        let graph = DepGraph::new(&t);
        let outs = t.outputs();
        let conf = analyze(&ConfidenceParams {
            graph: &graph,
            analysis: &analysis,
            profile: &profile,
            correct_outputs: &[outs[0].inst],
            wrong_output: outs[1].inst,
            benign: &HashSet::new(),
            corrupted: &HashSet::new(),
        });
        // a, b, c all certain through the + / - chain.
        for s in 0..3 {
            assert!(conf.is_prunable(t.instances_of(StmtId(s))[0]), "S{s}");
        }
    }

    #[test]
    fn benign_marking_acts_like_a_correct_output() {
        let src = "\
            fn main() {\
                let a = input();\
                let b = a + 1;\
                print(b);\
            }";
        let (t, analysis) = run(src, vec![4]);
        let profile = profile_over(src, &[1, 2]);
        let graph = DepGraph::new(&t);
        let wrong = t.outputs()[0].inst;
        // Without benign info: everything suspect (single wrong output).
        let base = analyze(&ConfidenceParams {
            graph: &graph,
            analysis: &analysis,
            profile: &profile,
            correct_outputs: &[],
            wrong_output: wrong,
            benign: &HashSet::new(),
            corrupted: &HashSet::new(),
        });
        let a_inst = t.instances_of(StmtId(0))[0];
        let b_inst = t.instances_of(StmtId(1))[0];
        assert_eq!(base.of(a_inst), 0.0);
        // Mark b as benign: a becomes certain through the + chain.
        let benign: HashSet<InstId> = [b_inst].into_iter().collect();
        let with = analyze(&ConfidenceParams {
            graph: &graph,
            analysis: &analysis,
            profile: &profile,
            correct_outputs: &[],
            wrong_output: wrong,
            benign: &benign,
            corrupted: &HashSet::new(),
        });
        assert!(with.is_prunable(a_inst));
        assert!(with.is_prunable(b_inst));
    }

    #[test]
    fn corrupted_marking_pins_zero_and_blocks_propagation() {
        let src = "\
            fn main() {\
                let a = input();\
                let b = a + 1;\
                print(b);\
                print(a);\
            }";
        let (t, analysis) = run(src, vec![4]);
        let profile = profile_over(src, &[1]);
        let graph = DepGraph::new(&t);
        let outs = t.outputs();
        let a_inst = t.instances_of(StmtId(0))[0];
        let corrupted: HashSet<InstId> = [a_inst].into_iter().collect();
        let conf = analyze(&ConfidenceParams {
            graph: &graph,
            analysis: &analysis,
            profile: &profile,
            correct_outputs: &[outs[0].inst],
            wrong_output: outs[1].inst,
            benign: &HashSet::new(),
            corrupted: &corrupted,
        });
        assert_eq!(conf.of(a_inst), 0.0, "corruption overrides propagation");
    }

    #[test]
    fn extra_edges_extend_reachability() {
        // Without the implicit edge the guard reaches no output → 0; the
        // edge gives it wrong-output reachability (still 0) but its input
        // becomes part of the graph. Verify via slice membership + conf.
        let src = "\
            global x = 0;\
            fn main() {\
                let c = input();\
                if c > 0 { x = 1; }\
                print(x);\
            }";
        let (t, analysis) = run(src, vec![-1]);
        let profile = profile_over(src, &[1, -1]);
        let wrong = t.outputs()[0].inst;
        let guard = t.instances_of(StmtId(1))[0];
        let mut graph = DepGraph::new(&t);
        graph.add_edge(wrong, guard);
        let conf = analyze(&ConfidenceParams {
            graph: &graph,
            analysis: &analysis,
            profile: &profile,
            correct_outputs: &[],
            wrong_output: wrong,
            benign: &HashSet::new(),
            corrupted: &HashSet::new(),
        });
        assert_eq!(conf.of(guard), 0.0, "guard now on the failure path");
        let slice = graph.backward_slice(wrong);
        assert!(slice.contains(guard));
    }

    #[test]
    fn partial_confidence_is_monotone_in_range() {
        assert_eq!(partial_confidence(0), 0.0);
        assert_eq!(partial_confidence(2), 0.0);
        let c4 = partial_confidence(4);
        let c16 = partial_confidence(16);
        let c1000 = partial_confidence(1000);
        assert!(c4 > 0.0 && c4 < c16 && c16 < c1000 && c1000 < 1.0);
        assert!((partial_confidence(4) - 0.5).abs() < 1e-9);
    }
}
