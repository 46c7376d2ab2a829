//! Ablation study over the design choices the paper calls out:
//!
//! 1. **Verifier mode** (§3.2): the paper's edge-based `VerifyDep` vs the
//!    safe path-based variant vs the value-comparison extension — does
//!    each still capture the root cause, and at what slice size?
//! 2. **Algorithm 2 lines 12–18** (Figure 5): verifying the switched
//!    predicate against *other* potentially dependent uses costs extra
//!    verifications but enables more pruning.
//! 3. **Relevant slicing + confidence analysis directly** (the "plausible
//!    alternative" the paper rejects): propagating confidence along
//!    unverified potential edges can sanitize the root cause.
//! 4. **Critical-predicate search (ICSE 2006) vs the demand-driven
//!    locator**: re-execution counts for the brute-force baseline the
//!    paper's related-work section contrasts against.

use omislice::omislice_slicing::{
    analyze_confidence, potential_dep_instances, ConfidenceParams, DepGraph,
};
use omislice::{LocateConfig, UserOracle, VerifierMode};
use omislice_bench::table::render;
use omislice_corpus::all_benchmarks;
use std::collections::HashSet;

fn main() {
    verifier_modes();
    extra_verification();
    relevant_plus_confidence();
    switching_vs_demand_driven();
    union_graph_pd();
    pd_reach();
}

fn verifier_modes() {
    println!("Ablation 1. Verifier mode (found / verifications / IPS dynamic size)");
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        for f in &b.faults {
            let mut cells = vec![b.name.to_string(), f.id.to_string()];
            for mode in [
                VerifierMode::Edge,
                VerifierMode::Path,
                VerifierMode::ValueChange,
            ] {
                let session = b.session(f).expect("session builds");
                let out = session
                    .locate(&LocateConfig {
                        mode,
                        ..LocateConfig::default()
                    })
                    .expect("locates");
                cells.push(format!(
                    "{}/{}/{}",
                    if out.found { "y" } else { "N" },
                    out.verifications,
                    out.ips.dynamic_size()
                ));
            }
            rows.push(cells);
        }
    }
    println!(
        "{}",
        render(
            &[
                "Benchmark",
                "Error",
                "Edge (paper)",
                "Path (safe)",
                "ValueChange"
            ],
            &rows
        )
    );
}

fn extra_verification() {
    println!("Ablation 2. Algorithm 2 lines 12-18 (verify other uses of a switched predicate)");
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        for f in &b.faults {
            let mut cells = vec![b.name.to_string(), f.id.to_string()];
            for verify_all in [true, false] {
                let session = b.session(f).expect("session builds");
                let out = session
                    .locate(&LocateConfig {
                        verify_all_uses: verify_all,
                        ..LocateConfig::default()
                    })
                    .expect("locates");
                cells.push(format!(
                    "{}/{}/{}/{}",
                    if out.found { "y" } else { "N" },
                    out.verifications,
                    out.expanded_edges,
                    out.ips.dynamic_size()
                ));
            }
            rows.push(cells);
        }
    }
    println!(
        "{}",
        render(
            &[
                "Benchmark",
                "Error",
                "with 12-18 (found/verif/edges/IPS)",
                "without",
            ],
            &rows
        )
    );
}

/// The paper's §3.2 warning, measured: add *all* potential dependence
/// edges (unverified, as relevant slicing would) and run confidence
/// analysis. Count how often the root cause's instances end up with
/// confidence 1 — i.e. sanitized away.
fn relevant_plus_confidence() {
    println!("Ablation 3. Relevant slicing + confidence analysis directly");
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        for f in &b.faults {
            let session = b.session(f).expect("session builds");
            let trace = session.trace();
            let analysis = session.analysis();
            let class = session
                .oracle()
                .classify_outputs(trace)
                .expect("wrong output exists");
            // Build the graph with every potential edge, unverified.
            let mut graph = DepGraph::new(trace);
            for u in trace.insts() {
                for p in potential_dep_instances(trace, analysis, u) {
                    graph.add_edge(u, p);
                }
            }
            let conf = analyze_confidence(&ConfidenceParams {
                graph: &graph,
                analysis,
                profile: session.profile(),
                correct_outputs: &class.correct,
                wrong_output: class.wrong,
                benign: &HashSet::new(),
                corrupted: &HashSet::new(),
            });
            let root = session.roots()[0];
            let insts = trace.instances_of(root);
            let sanitized = insts.iter().all(|&i| conf.is_prunable(i));
            let in_slice = graph.backward_slice(class.wrong).contains_stmt(root);
            rows.push(vec![
                b.name.to_string(),
                f.id.to_string(),
                graph.extra_edge_count().to_string(),
                if in_slice { "yes" } else { "NO" }.to_string(),
                if sanitized { "SANITIZED" } else { "kept" }.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render(
            &[
                "Benchmark",
                "Error",
                "potential edges",
                "root in RS",
                "root after confidence",
            ],
            &rows
        )
    );
}

/// The ICSE 2006 baseline head-to-head: how many re-executions does a
/// brute-force critical-predicate search need vs the demand-driven
/// verifier, and does it even find an answer?
fn switching_vs_demand_driven() {
    use omislice::{find_critical_predicate, SearchOrder};

    println!("Ablation 4. Critical-predicate search (ICSE 2006) vs demand-driven (this paper)");
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        for f in &b.faults {
            let session = b.session(f).expect("session builds");
            let expected = session.oracle().reference().output_values();
            let search = find_critical_predicate(
                session.program(),
                session.analysis(),
                session.config(),
                session.trace(),
                &expected,
                SearchOrder::Prioritized,
            );
            let outcome = session.locate(&LocateConfig::default()).expect("locates");
            rows.push(vec![
                b.name.to_string(),
                f.id.to_string(),
                search.candidates.to_string(),
                match search.instance {
                    Some(_) => format!("found/{}", search.reexecutions),
                    None => format!("none/{}", search.reexecutions),
                },
                format!(
                    "{}/{}",
                    if outcome.found { "found" } else { "miss" },
                    outcome.reexecutions
                ),
            ]);
        }
    }
    println!(
        "{}",
        render(
            &[
                "Benchmark",
                "Error",
                "pred instances",
                "ICSE06 (result/re-execs)",
                "demand-driven (result/re-execs)",
            ],
            &rows
        )
    );
    println!("The critical-predicate search needs no oracle beyond the expected");
    println!("output, but pays one re-execution per candidate and produces a single");
    println!("predicate, not a failure-inducing chain.");
}

/// The paper's §4 prototype configuration: potential dependences computed
/// from a union dependence graph instead of pure static analysis. The
/// union graph only knows definitions some profiled run *exercised*, so
/// it can cut verifications — or miss the omission entirely when the
/// fault suppresses the defining code on every available input.
fn union_graph_pd() {
    use omislice::omislice_interp::{run_traced, RunConfig};
    use omislice::omislice_slicing::UnionGraph;
    use omislice_corpus::WorkloadGen;

    println!("Ablation 5. Potential dependences from the union dependence graph (§4)");
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        for f in &b.faults {
            let session = b.session(f).expect("session builds");
            // Build the union graph over the whole test suite (failing +
            // passing + generated), as the prototype did.
            let mut union = UnionGraph::new();
            let mut runs: Vec<Vec<i64>> = vec![f.failing_input.clone()];
            runs.extend(f.passing_inputs.iter().cloned());
            let mut gen = WorkloadGen::new(0xA11CE);
            for _ in 0..10 {
                runs.push(gen.for_benchmark(b.name));
            }
            for inputs in runs {
                let cfg = RunConfig::with_inputs(inputs);
                union.add_trace(&run_traced(session.program(), session.analysis(), &cfg).trace);
            }

            let baseline = session.locate(&LocateConfig::default()).expect("locates");
            let with_union = session
                .locate(&LocateConfig {
                    union_graph: Some(union),
                    ..LocateConfig::default()
                })
                .expect("locates");
            rows.push(vec![
                b.name.to_string(),
                f.id.to_string(),
                format!(
                    "{}/{}",
                    if baseline.found { "found" } else { "miss" },
                    baseline.verifications
                ),
                format!(
                    "{}/{}",
                    if with_union.found { "found" } else { "MISS" },
                    with_union.verifications
                ),
            ]);
        }
    }
    println!(
        "{}",
        render(
            &[
                "Benchmark",
                "Error",
                "static PD (result/verifs)",
                "union-graph PD (result/verifs)",
            ],
            &rows
        )
    );
    println!("A MISS means no profiled run ever executed the omitted definition,");
    println!("so the union graph offers no candidate — static PD does not depend");
    println!("on test coverage, which is why this reproduction defaults to it.");
}

/// Intraprocedural vs interprocedural potential-dependence reach: the
/// wider reach can only add candidates (and thus verifications), never
/// lose the root cause.
fn pd_reach() {
    use omislice::omislice_analysis::PdMode;

    println!("Ablation 6. Potential-dependence reach (found / verifications / edges)");
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        for f in &b.faults {
            let mut cells = vec![b.name.to_string(), f.id.to_string()];
            for mode in [PdMode::Intraprocedural, PdMode::InterproceduralGuards] {
                let session = b
                    .session_builder(f)
                    .pd_mode(mode)
                    .build()
                    .expect("session builds");
                let out = session.locate(&LocateConfig::default()).expect("locates");
                cells.push(format!(
                    "{}/{}/{}",
                    if out.found { "found" } else { "MISS" },
                    out.verifications,
                    out.expanded_edges
                ));
            }
            rows.push(cells);
        }
    }
    println!(
        "{}",
        render(
            &[
                "Benchmark",
                "Error",
                "intraprocedural",
                "interprocedural guards"
            ],
            &rows
        )
    );
}
