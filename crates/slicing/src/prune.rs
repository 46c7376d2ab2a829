//! Slice pruning and ranking — the `PruneSlicing()` primitive of the
//! paper's Algorithm 2.
//!
//! Given the (possibly augmented) dependence graph, the observed correct
//! and wrong outputs, and any user feedback, compute the dynamic slice of
//! the wrong output, drop every instance whose confidence is 1, and rank
//! the survivors: lowest confidence first, then closest to the failure
//! point (dependence distance), then latest execution. The head of the
//! ranking is "the most promising" instance for implicit-dependence
//! verification. [`prune_round`] is the whole interactive round: one
//! such pass, then the user's benign judgements, each extending
//! certainty in place instead of re-running the pass.

use crate::confidence::{analyze, Confidence, ConfidenceParams};
use crate::graph::{DepGraph, Slice};
use crate::profile::ValueProfile;
use omislice_analysis::ProgramAnalysis;
use omislice_trace::InstId;
use std::collections::HashSet;

/// One ranked fault candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedInst {
    /// The instance.
    pub inst: InstId,
    /// Its confidence (lower = more suspicious).
    pub confidence: f64,
    /// Dependence distance to the failure point.
    pub distance: u32,
}

/// The outcome of `PruneSlicing()`: the full slice plus the pruned,
/// ranked fault candidate set.
#[derive(Debug, Clone)]
pub struct PrunedSlice {
    /// The full dynamic slice of the wrong output.
    pub slice: Slice,
    /// Remaining candidates, most suspicious first.
    pub ranked: Vec<RankedInst>,
    /// The confidence values the pruning used.
    pub confidence: Confidence,
}

impl PrunedSlice {
    /// The pruned slice as a [`Slice`] (for size reporting).
    pub fn pruned_slice(&self, graph: &DepGraph<'_>) -> Slice {
        Slice::from_insts(graph.trace(), self.ranked.iter().map(|r| r.inst))
    }

    /// The most suspicious candidate, if any remain.
    pub fn top(&self) -> Option<RankedInst> {
        self.ranked.first().copied()
    }

    /// Whether `inst` survived pruning.
    pub fn keeps(&self, inst: InstId) -> bool {
        self.ranked.iter().any(|r| r.inst == inst)
    }
}

/// User feedback accumulated during the interactive pruning session.
#[derive(Debug, Clone, Default)]
pub struct Feedback {
    /// Instances declared to hold benign (correct) state.
    pub benign: HashSet<InstId>,
    /// Instances declared to hold corrupted state.
    pub corrupted: HashSet<InstId>,
}

/// Runs one pruning pass (slice → confidence → prune → rank).
pub fn prune_slice(
    graph: &DepGraph<'_>,
    analysis: &ProgramAnalysis,
    profile: &ValueProfile,
    correct_outputs: &[InstId],
    wrong_output: InstId,
    feedback: &Feedback,
) -> PrunedSlice {
    let _span = omislice_obs::span("confidence-prune");
    rank(
        graph,
        analysis,
        profile,
        correct_outputs,
        wrong_output,
        feedback,
    )
}

/// Runs one whole `PruneSlicing()` round: one pruning pass, then the
/// user's benign judgements in ranking order, until no remaining
/// candidate is benign or `limit` judgements have been made. Returns the
/// final pruned slice and the number of judgements (instances added to
/// `feedback.benign`).
///
/// A benign mark only extends certainty — the slice, output reachability
/// and distances never read the feedback — so after each mark the
/// ranking is the previous one minus the newly certain instances. Each
/// judgement therefore extends certainty in place from the marked
/// instance, the newly certain candidates drop out of the ranking in one
/// compaction at the end, and the scan resumes where it stopped: the
/// candidates before it were already rejected. `is_benign` must answer
/// the same for the same instance; it is asked at most once per ranked
/// instance. The result equals re-running [`prune_slice`] after every
/// judgement and taking the first benign candidate from the top.
#[allow(clippy::too_many_arguments)]
pub fn prune_round(
    graph: &DepGraph<'_>,
    analysis: &ProgramAnalysis,
    profile: &ValueProfile,
    correct_outputs: &[InstId],
    wrong_output: InstId,
    feedback: &mut Feedback,
    mut is_benign: impl FnMut(InstId) -> bool,
    limit: usize,
) -> (PrunedSlice, usize) {
    let _span = omislice_obs::span("confidence-prune");
    let mut ps = rank(
        graph,
        analysis,
        profile,
        correct_outputs,
        wrong_output,
        feedback,
    );
    let mut judged = 0;
    for r in &ps.ranked {
        if judged == limit {
            break;
        }
        // Certain since the pass, or a pinned instance marked benign in
        // an earlier round: either way not a candidate to judge.
        if ps.confidence.is_prunable(r.inst)
            || feedback.benign.contains(&r.inst)
            || !is_benign(r.inst)
        {
            continue;
        }
        feedback.benign.insert(r.inst);
        judged += 1;
        ps.confidence
            .extend_certainty(graph, analysis, profile, [r.inst]);
    }
    let confidence = &ps.confidence;
    ps.ranked.retain(|r| !confidence.is_prunable(r.inst));
    (ps, judged)
}

/// The pass behind [`prune_slice`] and [`prune_round`].
fn rank(
    graph: &DepGraph<'_>,
    analysis: &ProgramAnalysis,
    profile: &ValueProfile,
    correct_outputs: &[InstId],
    wrong_output: InstId,
    feedback: &Feedback,
) -> PrunedSlice {
    let slice = graph.backward_slice(wrong_output);
    let confidence = analyze(&ConfidenceParams {
        graph,
        analysis,
        profile,
        correct_outputs,
        wrong_output,
        benign: &feedback.benign,
        corrupted: &feedback.corrupted,
    });
    let distances = graph.distances_from(wrong_output);
    let mut ranked: Vec<RankedInst> = slice
        .insts()
        .iter()
        .copied()
        .filter(|&i| !confidence.is_prunable(i))
        .map(|inst| RankedInst {
            inst,
            confidence: confidence.of(inst),
            distance: distances.get(&inst).copied().unwrap_or(u32::MAX),
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.confidence
            .partial_cmp(&b.confidence)
            .expect("confidences are never NaN")
            .then(a.distance.cmp(&b.distance))
            .then(b.inst.cmp(&a.inst))
    });
    PrunedSlice {
        slice,
        ranked,
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_interp::{run_traced, RunConfig};
    use omislice_lang::{compile, StmtId};
    use omislice_trace::Trace;

    fn setup(
        src: &str,
        inputs: Vec<i64>,
        profile_inputs: &[i64],
    ) -> (Trace, ProgramAnalysis, ValueProfile) {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        let t = run_traced(&p, &a, &RunConfig::with_inputs(inputs)).trace;
        let mut profile = ValueProfile::new();
        for &i in profile_inputs {
            profile.add_trace(&run_traced(&p, &a, &RunConfig::with_inputs(vec![i])).trace);
        }
        (t, a, profile)
    }

    /// Figure 4 again, through the pruning lens: the certain instance is
    /// dropped, the suspicious ones remain, ranked by confidence.
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
    fn pruning_drops_certain_instances() {
        let (t, a, profile) = setup(FIG4, vec![1], &[1, 3, 5, 7, 9]);
        let graph = DepGraph::new(&t);
        let outs = t.outputs();
        let ps = prune_slice(
            &graph,
            &a,
            &profile,
            &[outs[0].inst],
            outs[1].inst,
            &Feedback::default(),
        );
        let b_inst = t.instances_of(StmtId(1))[0];
        // The slice of the wrong output contains a and c but not b.
        assert!(!ps.slice.contains(b_inst));
        // c (reaches only wrong) and the wrong output rank above a.
        let order: Vec<StmtId> = ps.ranked.iter().map(|r| t.event(r.inst).stmt).collect();
        let pos = |s: u32| order.iter().position(|&x| x == StmtId(s)).unwrap();
        assert!(pos(4) < pos(0), "wrong output before a");
        assert!(pos(2) < pos(0), "c before a (lower confidence)");
    }

    #[test]
    fn ranking_puts_closest_zero_confidence_first() {
        let (t, a, profile) = setup(FIG4, vec![1], &[1, 3, 5]);
        let graph = DepGraph::new(&t);
        let outs = t.outputs();
        let ps = prune_slice(
            &graph,
            &a,
            &profile,
            &[outs[0].inst],
            outs[1].inst,
            &Feedback::default(),
        );
        let top = ps.top().unwrap();
        assert_eq!(top.confidence, 0.0);
        assert_eq!(top.distance, 0, "the failure point itself ranks first");
        assert_eq!(t.event(top.inst).stmt, StmtId(4));
    }

    #[test]
    fn benign_feedback_shrinks_the_candidate_set() {
        let (t, a, profile) = setup(FIG4, vec![1], &[1, 3, 5]);
        let graph = DepGraph::new(&t);
        let outs = t.outputs();
        let base = prune_slice(
            &graph,
            &a,
            &profile,
            &[outs[0].inst],
            outs[1].inst,
            &Feedback::default(),
        );
        let a_inst = t.instances_of(StmtId(0))[0];
        assert!(base.keeps(a_inst));
        let mut fb = Feedback::default();
        fb.benign.insert(a_inst);
        let refined = prune_slice(&graph, &a, &profile, &[outs[0].inst], outs[1].inst, &fb);
        assert!(!refined.keeps(a_inst));
        assert!(refined.ranked.len() < base.ranked.len());
    }

    #[test]
    fn pruned_slice_sizes_are_consistent() {
        let (t, a, profile) = setup(FIG4, vec![1], &[1, 3]);
        let graph = DepGraph::new(&t);
        let outs = t.outputs();
        let ps = prune_slice(
            &graph,
            &a,
            &profile,
            &[outs[0].inst],
            outs[1].inst,
            &Feedback::default(),
        );
        let pruned = ps.pruned_slice(&graph);
        assert_eq!(pruned.dynamic_size(), ps.ranked.len());
        assert!(pruned.dynamic_size() <= ps.slice.dynamic_size());
    }
}
