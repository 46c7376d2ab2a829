//! End-to-end corpus scenarios beyond the per-fault validation suite:
//! cross-fault comparisons, the Figure 5 ablation at corpus scale, and
//! determinism of the whole pipeline.

use omislice::{LocateConfig, UserOracle, VerifierMode};
use omislice_corpus::all_benchmarks;

#[test]
fn verify_all_uses_only_adds_work_and_edges() {
    // Algorithm 2 lines 12-18 at corpus scale: enabling the extra
    // verifications never loses the root cause and never removes edges.
    for b in all_benchmarks() {
        for fault in &b.faults {
            let with = b
                .session(fault)
                .unwrap()
                .locate(&LocateConfig::default())
                .unwrap();
            let without = b
                .session(fault)
                .unwrap()
                .locate(&LocateConfig {
                    verify_all_uses: false,
                    ..LocateConfig::default()
                })
                .unwrap();
            assert!(with.found && without.found, "{} {}", b.name, fault.id);
            assert!(
                with.expanded_edges >= without.expanded_edges,
                "{} {}",
                b.name,
                fault.id
            );
            assert!(
                with.verifications >= without.verifications,
                "{} {}",
                b.name,
                fault.id
            );
        }
    }
}

#[test]
fn all_verifier_modes_locate_every_fault() {
    for b in all_benchmarks() {
        for fault in &b.faults {
            for mode in [
                VerifierMode::Edge,
                VerifierMode::Path,
                VerifierMode::ValueChange,
            ] {
                let out = b
                    .session(fault)
                    .unwrap()
                    .locate(&LocateConfig {
                        mode,
                        ..LocateConfig::default()
                    })
                    .unwrap();
                assert!(out.found, "{} {} under {mode:?}", b.name, fault.id);
            }
        }
    }
}

#[test]
fn union_graph_pd_works_when_the_suite_covers_the_definition() {
    // The §4 prototype configuration: union-graph-based potential
    // dependences. flex V3-F10's skipped definition (`kind = base[cl]`)
    // executes for letter tokens in every profiled run, so the union
    // graph has the edge and the locator succeeds without extra cost.
    use omislice::omislice_analysis::ProgramAnalysis;
    use omislice::omislice_interp::{run_traced, RunConfig};
    use omislice::omislice_slicing::UnionGraph;

    let benchmarks = all_benchmarks();
    let flex = benchmarks.iter().find(|b| b.name == "flex").unwrap();
    let fault = flex.fault("V3-F10").unwrap();
    let prepared = flex.prepare(fault).unwrap();
    let analysis = ProgramAnalysis::build(&prepared.faulty);
    let mut union = UnionGraph::new();
    for inputs in std::iter::once(&fault.failing_input).chain(&fault.passing_inputs) {
        let cfg = RunConfig::with_inputs(inputs.clone());
        union.add_trace(&run_traced(&prepared.faulty, &analysis, &cfg).trace);
    }
    let baseline = flex
        .session(fault)
        .unwrap()
        .locate(&LocateConfig::default())
        .unwrap();
    let with_union = flex
        .session(fault)
        .unwrap()
        .locate(&LocateConfig {
            union_graph: Some(union),
            ..LocateConfig::default()
        })
        .unwrap();
    assert!(baseline.found && with_union.found);
    assert!(with_union.verifications <= baseline.verifications);
}

#[test]
fn union_graph_pd_misses_uncovered_omissions() {
    // The coverage caveat: gzip V2-F3's skipped definition never executes
    // in any faulty run, so the union graph offers no candidate and the
    // locator cannot expand — the documented trade-off vs static PD.
    use omislice::omislice_slicing::UnionGraph;

    let benchmarks = all_benchmarks();
    let gzip = benchmarks.iter().find(|b| b.name == "gzip").unwrap();
    let fault = gzip.fault("V2-F3").unwrap();
    let session = gzip.session(fault).unwrap();
    let mut union = UnionGraph::new();
    union.add_trace(session.trace());
    let outcome = session
        .locate(&LocateConfig {
            union_graph: Some(union),
            ..LocateConfig::default()
        })
        .unwrap();
    assert!(!outcome.found);
    assert_eq!(outcome.expanded_edges, 0);
}

#[test]
fn interprocedural_pd_mode_locates_every_fault() {
    // The opt-in interprocedural potential-dependence reach (callee
    // guards propagate through the call graph) must never lose a root
    // cause; it may verify more candidates.
    use omislice::omislice_analysis::PdMode;
    for b in all_benchmarks() {
        for fault in &b.faults {
            let prepared = b.prepare(fault).unwrap();
            let session = omislice::DebugSession::builder(&prepared.faulty_src)
                .reference(b.fixed_src)
                .failing_input(fault.failing_input.clone())
                .profile_inputs(fault.passing_inputs.iter().cloned())
                .root_cause_stmts(prepared.roots.iter().copied())
                .pd_mode(PdMode::InterproceduralGuards)
                .build()
                .unwrap();
            let outcome = session.locate(&LocateConfig::default()).unwrap();
            assert!(outcome.found, "{} {}", b.name, fault.id);
        }
    }
}

#[test]
fn locate_is_deterministic() {
    let benchmarks = all_benchmarks();
    let gzip = benchmarks.iter().find(|b| b.name == "gzip").unwrap();
    let fault = gzip.fault("V2-F3").unwrap();
    let a = gzip
        .session(fault)
        .unwrap()
        .locate(&LocateConfig::default())
        .unwrap();
    let b = gzip
        .session(fault)
        .unwrap()
        .locate(&LocateConfig::default())
        .unwrap();
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.verifications, b.verifications);
    assert_eq!(a.expanded_edges, b.expanded_edges);
    assert_eq!(a.ips.insts(), b.ips.insts());
    assert_eq!(a.os, b.os);
}

#[test]
fn ips_stays_close_to_os() {
    // Table 3's "nearly optimal slices" claim: IPS within a small factor
    // of the hand-identifiable failure chain OS.
    for b in all_benchmarks() {
        for fault in &b.faults {
            let session = b.session(fault).unwrap();
            let out = session.locate(&LocateConfig::default()).unwrap();
            let os = out.os_slice(session.trace()).expect("found implies chain");
            assert!(
                out.ips.dynamic_size() <= os.dynamic_size() * 4 + 8,
                "{} {}: IPS {} vs OS {}",
                b.name,
                fault.id,
                out.ips.dynamic_size(),
                os.dynamic_size()
            );
        }
    }
}

#[test]
fn reference_runs_classify_full_output_prefixes() {
    // The oracle marks exactly the prefix of agreeing outputs as correct.
    for b in all_benchmarks() {
        for fault in &b.faults {
            let session = b.session(fault).unwrap();
            let trace = session.trace();
            let class = session.oracle().classify_outputs(trace).unwrap();
            let expected = session.oracle().expected_outputs();
            for (i, out) in trace.outputs().iter().enumerate() {
                if out.inst == class.wrong {
                    assert_ne!(Some(&out.value), expected.get(i), "{} {}", b.name, fault.id);
                    break;
                }
                assert_eq!(Some(&out.value), expected.get(i));
                assert!(class.correct.contains(&out.inst));
            }
        }
    }
}
