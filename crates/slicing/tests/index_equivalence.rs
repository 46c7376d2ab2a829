//! Property: the indexed slicers are instance-for-instance identical to
//! the naive reference implementations — for random structured programs
//! and random inputs:
//!
//!   1. `Trace::cd_depends_on` (Euler-interval test) agrees with the
//!      original parent-pointer walk on every instance pair;
//!   2. `potential_deps_by_var` (postings-window queries) returns exactly
//!      the pairs of the original full-instance scan;
//!   3. `DepGraph::backward_slice` (CSR + bitset) equals a hash-set BFS
//!      over the allocated dependence vectors;
//!   4. `relevant_slice` equals `relevant_slice_naive`;
//!   5. `prune_round` (one confidence pass per round, certainty extended
//!      in place per benign judgement) equals re-running `prune_slice`
//!      after every judgement, for random wrong outputs, extra edges,
//!      benign oracles and judgement limits;
//!   6. nothing after the wrong output `o×` reaches the report: random
//!      edges out of instances after `o×` leave `prune_round`'s ranking
//!      and judgement count, the confidence of every instance up to `o×`,
//!      `backward_slice(o×)` and `path_between(o×, x)` identical to the
//!      graph without them and to the graph on the trace's prefix view
//!      through `o×`.
//!
//! Every index and incremental shortcut must be invisible in results.

use omislice_analysis::ProgramAnalysis;
use omislice_interp::{run_traced, RunConfig};
use omislice_lang::{compile, Program};
use omislice_slicing::{
    potential_deps_by_var, potential_deps_by_var_naive, prune_round, prune_slice, relevant_slice,
    relevant_slice_naive, DepGraph, Feedback, PrunedSlice, Slice, ValueProfile,
};
use omislice_trace::{InstId, Trace};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

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
        // A trailing print guarantees a slicing criterion.
        body.push_str("print(a + b + c);\n");
        let src = format!("global a = 1; global b = 2; global c = 3;\nfn main() {{\n{body}}}\n");
        compile(&src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"))
    })
}

/// Hash-set BFS over `backward_deps` vectors: the pre-CSR slice closure.
fn backward_slice_naive(graph: &DepGraph<'_>, trace: &Trace, criterion: InstId) -> Slice {
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
    }
    Slice::from_insts(trace, seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_slicers_match_naive(
        program in program_strategy(),
        seed_inputs in prop::collection::vec(-2i64..3, 0..4),
        pair_picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 8),
    ) {
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig::with_inputs(seed_inputs);
        let run = run_traced(&program, &analysis, &config);
        let trace = &run.trace;
        prop_assert!(trace.termination().is_normal());
        prop_assert!(!trace.is_empty());

        // 1. cd_depends_on: indexed == parent-pointer walk on sampled
        // pairs (and on every self pair).
        for (iu, ip) in &pair_picks {
            let u = InstId(iu.index(trace.len()) as u32);
            let p = InstId(ip.index(trace.len()) as u32);
            prop_assert_eq!(
                trace.cd_depends_on(u, p),
                trace.cd_depends_on_naive(u, p),
                "cd_depends_on({}, {}) diverged", u, p
            );
            prop_assert!(!trace.cd_depends_on(u, u), "self-dependence at {}", u);
        }

        // 2. Potential dependences: postings windows == full scan, for
        // every output use.
        for o in trace.outputs() {
            prop_assert_eq!(
                potential_deps_by_var(trace, &analysis, o.inst),
                potential_deps_by_var_naive(trace, &analysis, o.inst),
                "potential deps diverged at {}", o.inst
            );
        }

        // 3+4. Slices.
        let criterion = trace.outputs().last().expect("trailing print").inst;
        let graph = DepGraph::new(trace);
        prop_assert_eq!(
            &graph.backward_slice(criterion),
            &backward_slice_naive(&graph, trace, criterion),
            "backward_slice diverged"
        );
        prop_assert_eq!(
            &relevant_slice(trace, &analysis, criterion),
            &relevant_slice_naive(trace, &analysis, criterion),
            "relevant_slice diverged"
        );
    }
}

/// The re-prune-per-judgement `PruneSlicing()` round: a full
/// `prune_slice` pass after every benign judgement, each scanning the
/// ranking from the top for the first benign candidate not yet marked.
#[allow(clippy::too_many_arguments)]
fn prune_round_naive(
    graph: &DepGraph<'_>,
    analysis: &ProgramAnalysis,
    profile: &ValueProfile,
    correct_outputs: &[InstId],
    wrong_output: InstId,
    feedback: &mut Feedback,
    is_benign: impl Fn(InstId) -> bool,
    limit: usize,
) -> (PrunedSlice, usize) {
    let mut judged = 0;
    loop {
        let ps = prune_slice(
            graph,
            analysis,
            profile,
            correct_outputs,
            wrong_output,
            feedback,
        );
        let next = ps
            .ranked
            .iter()
            .find(|r| !feedback.benign.contains(&r.inst) && is_benign(r.inst));
        match next {
            Some(r) if judged < limit => {
                feedback.benign.insert(r.inst);
                judged += 1;
            }
            _ => return (ps, judged),
        }
    }
}

/// A deterministic benign oracle: about `percent`% of instances, chosen
/// by hashing the instance with `seed` (splitmix64).
fn seeded_oracle(seed: u64, percent: u64) -> impl Fn(InstId) -> bool {
    move |inst| {
        let mut z = seed ^ u64::from(inst.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 100 < percent
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_prune_round_matches_repruning_per_judgement(
        program in program_strategy(),
        wrong_pick in any::<prop::sample::Index>(),
        edge_picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..6),
        corrupted_picks in prop::collection::vec(any::<prop::sample::Index>(), 0..2),
        oracle_seed in any::<u64>(),
        benign_percent in 0u64..101,
    ) {
        let analysis = ProgramAnalysis::build(&program);
        let trace = &run_traced(&program, &analysis, &RunConfig::default()).trace;
        prop_assert!(trace.termination().is_normal());
        let mut profile = ValueProfile::new();
        profile.add_trace(trace);
        let outputs = trace.outputs();
        let w = wrong_pick.index(outputs.len());
        let correct: Vec<InstId> = outputs[..w].iter().map(|o| o.inst).collect();
        let wrong = outputs[w].inst;
        let inst = |pick: &prop::sample::Index| InstId(pick.index(trace.len()) as u32);
        let edges: Vec<(InstId, InstId)> = edge_picks
            .iter()
            .map(|(a, b)| (inst(a), inst(b)))
            .filter(|(from, to)| to < from)
            .collect();
        let corrupted: HashSet<InstId> = corrupted_picks.iter().map(inst).collect();
        let is_benign = seeded_oracle(oracle_seed, benign_percent);

        for limit in [0usize, 1, 3, usize::MAX] {
            // Two rounds with edges added in between, as Algorithm 2 adds
            // verified edges between PruneSlicing rounds.
            let mut graph = DepGraph::new(trace);
            let mut fast = Feedback { benign: HashSet::new(), corrupted: corrupted.clone() };
            let mut slow = fast.clone();
            let mut left = limit;
            let (first, second) = edges.split_at(edges.len() / 2);
            for half in [first, second] {
                for &(from, to) in half {
                    graph.add_edge(from, to);
                }
                let mut asked: HashMap<InstId, usize> = HashMap::new();
                let (got, got_n) = prune_round(
                    &graph, &analysis, &profile, &correct, wrong, &mut fast,
                    |i| {
                        *asked.entry(i).or_default() += 1;
                        is_benign(i)
                    },
                    left,
                );
                let (want, want_n) = prune_round_naive(
                    &graph, &analysis, &profile, &correct, wrong, &mut slow, &is_benign, left,
                );
                prop_assert_eq!(&got.ranked, &want.ranked, "ranking (limit {})", limit);
                let conf = |ps: &PrunedSlice| {
                    trace.insts().map(|i| ps.confidence.of(i)).collect::<Vec<f64>>()
                };
                prop_assert_eq!(conf(&got), conf(&want), "confidence (limit {})", limit);
                prop_assert_eq!(&fast.benign, &slow.benign, "benign marks (limit {})", limit);
                prop_assert_eq!(got_n, want_n, "judgements (limit {})", limit);
                prop_assert!(
                    asked.values().all(|&n| n == 1),
                    "an instance was judged twice in one round: {:?}", asked
                );
                left -= got_n;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edges_out_of_instances_after_the_failure_change_nothing(
        program in program_strategy(),
        wrong_pick in any::<prop::sample::Index>(),
        edge_picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..6),
        late_picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..6),
        oracle_seed in any::<u64>(),
        benign_percent in 0u64..101,
    ) {
        let analysis = ProgramAnalysis::build(&program);
        let trace = &run_traced(&program, &analysis, &RunConfig::default()).trace;
        prop_assert!(trace.termination().is_normal());
        let mut profile = ValueProfile::new();
        profile.add_trace(trace);
        let outputs = trace.outputs();
        let w = wrong_pick.index(outputs.len());
        let correct: Vec<InstId> = outputs[..w].iter().map(|o| o.inst).collect();
        let wrong = outputs[w].inst;
        let n = wrong.index() + 1;
        let view = trace.prefix(n);
        // Edges Algorithm 2 may add up to o×, and edges out of the
        // instances after it (none when o× ends the trace).
        let early: Vec<(InstId, InstId)> = edge_picks
            .iter()
            .map(|(a, b)| (InstId(a.index(n) as u32), InstId(b.index(n) as u32)))
            .filter(|(from, to)| to < from)
            .collect();
        let late: Vec<(InstId, InstId)> = late_picks
            .iter()
            .filter(|_| trace.len() > n)
            .map(|(a, b)| {
                let from = n + a.index(trace.len() - n);
                (InstId(from as u32), InstId(b.index(from) as u32))
            })
            .collect();
        let is_benign = seeded_oracle(oracle_seed, benign_percent);

        let mut without = DepGraph::new(trace);
        let mut with = DepGraph::new(trace);
        let mut on_view = DepGraph::new(&view);
        for &(from, to) in &early {
            without.add_edge(from, to);
            with.add_edge(from, to);
            on_view.add_edge(from, to);
        }
        for &(from, to) in &late {
            with.add_edge(from, to);
        }
        let round = |graph: &DepGraph<'_>| {
            let mut feedback = Feedback::default();
            let (ps, judged) = prune_round(
                graph, &analysis, &profile, &correct, wrong, &mut feedback, &is_benign, usize::MAX,
            );
            let conf: Vec<f64> = (0..n as u32).map(|i| ps.confidence.of(InstId(i))).collect();
            let paths: Vec<Option<Vec<InstId>>> =
                (0..n as u32).map(|x| graph.path_between(wrong, InstId(x))).collect();
            (ps.ranked, judged, conf, graph.backward_slice(wrong), paths)
        };
        let want = round(&without);
        prop_assert_eq!(&round(&with), &want, "edges out of instances after o×");
        prop_assert_eq!(&round(&on_view), &want, "the prefix view through o×");
    }
}

/// A loop long enough that its trace runs past 4,096 events: the
/// indexed relevant slicer must agree with the naive one on a large
/// input too (the proptest programs above stay small).
#[test]
fn relevant_slice_matches_naive_on_large_trace() {
    let src = "\
        global x = 0;\
        fn main() {\
            let i = 0;\
            while i < 2000 {\
                if input() == 1 { x = i; }\
                i = i + 1;\
            }\
            print(x);\
        }";
    let program = compile(src).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(vec![0; 2000]);
    let run = run_traced(&program, &analysis, &config);
    let trace = &run.trace;
    assert!(trace.termination().is_normal());
    assert!(trace.len() >= 4096, "{} events", trace.len());
    let criterion = trace.outputs().last().unwrap().inst;
    assert_eq!(
        relevant_slice(trace, &analysis, criterion),
        relevant_slice_naive(trace, &analysis, criterion)
    );
}
