//! Corpus validation: every fault must be a *bona fide* execution
//! omission error in the paper's sense, and the technique must locate it.
//!
//! For each benchmark/fault pair this asserts:
//!
//! 1. fixed and faulty versions compile and are statement-id compatible
//!    with exactly one differing statement (the seeded root cause);
//! 2. every passing input produces identical output on both versions;
//! 3. the failing input produces a wrong output *value*;
//! 4. the classic dynamic slice (DS) of the wrong output does **not**
//!    contain the root cause — the defining omission property;
//! 5. the relevant slice (RS) *does* contain it (the conservative
//!    baseline captures everything, per the paper's Table 2);
//! 6. the demand-driven locator captures it, and the resulting IPS and
//!    OS behave like the paper's Table 3 (IPS ⊇ OS, both small).

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{run_plain, run_traced, RunConfig};
use omislice::omislice_slicing::{relevant_slice, DepGraph};
use omislice::prelude::*;
use omislice::{LocateConfig, UserOracle};
use omislice_corpus::{all_benchmarks, Benchmark, Fault};

fn for_each_fault(mut f: impl FnMut(&Benchmark, &Fault)) {
    for b in all_benchmarks() {
        for fault in &b.faults {
            f(&b, fault);
        }
    }
}

#[test]
fn passing_inputs_agree_on_both_versions() {
    for_each_fault(|b, fault| {
        let prepared = b.prepare(fault).unwrap();
        for (i, inputs) in fault.passing_inputs.iter().enumerate() {
            let cfg = RunConfig::with_inputs(inputs.clone());
            let fixed = run_plain(&prepared.fixed, &cfg);
            let faulty = run_plain(&prepared.faulty, &cfg);
            assert!(
                fixed.is_normal() && faulty.is_normal(),
                "{} {} passing input #{i}: abnormal termination",
                b.name,
                fault.id
            );
            assert_eq!(
                fixed.outputs, faulty.outputs,
                "{} {} passing input #{i} must not expose the fault",
                b.name, fault.id
            );
        }
    });
}

#[test]
fn failing_input_exposes_a_wrong_value() {
    for_each_fault(|b, fault| {
        let session = b.session(fault).unwrap();
        let class = session
            .oracle()
            .classify_outputs(session.trace())
            .unwrap_or_else(|| {
                panic!(
                    "{} {}: failing input shows no wrong value",
                    b.name, fault.id
                )
            });
        assert!(
            class.expected.is_some(),
            "{} {}: v_exp must be known",
            b.name,
            fault.id
        );
    });
}

#[test]
fn dynamic_slice_misses_root_cause() {
    for_each_fault(|b, fault| {
        let prepared = b.prepare(fault).unwrap();
        let session = b.session(fault).unwrap();
        let class = session.oracle().classify_outputs(session.trace()).unwrap();
        let ds = DepGraph::new(session.trace()).backward_slice(class.wrong);
        for &root in &prepared.roots {
            assert!(
                !ds.contains_stmt(root),
                "{} {}: DS contains the root — not an omission error",
                b.name,
                fault.id
            );
        }
    });
}

#[test]
fn relevant_slice_captures_root_cause() {
    for_each_fault(|b, fault| {
        let prepared = b.prepare(fault).unwrap();
        let analysis = ProgramAnalysis::build(&prepared.faulty);
        let cfg = RunConfig::with_inputs(fault.failing_input.clone());
        let trace = run_traced(&prepared.faulty, &analysis, &cfg).trace;
        let session = b.session(fault).unwrap();
        let class = session.oracle().classify_outputs(&trace).unwrap();
        let rs = relevant_slice(&trace, &analysis, class.wrong);
        for &root in &prepared.roots {
            assert!(
                rs.contains_stmt(root),
                "{} {}: RS must capture the root (Table 2)",
                b.name,
                fault.id
            );
        }
    });
}

#[test]
fn locator_captures_every_root_cause() {
    for_each_fault(|b, fault| {
        let session = b.session(fault).unwrap();
        let outcome = session
            .locate(&LocateConfig::default())
            .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, fault.id));
        assert!(
            outcome.found,
            "{} {}: locator failed\n{}",
            b.name,
            fault.id,
            session.report(&outcome, false)
        );
        let prepared = b.prepare(fault).unwrap();
        for &root in &prepared.roots {
            assert!(outcome.ips.contains_stmt(root), "{} {}", b.name, fault.id);
        }
        // Table 3 shape: the chain exists, starts at the failure, ends at
        // the root, and is contained in the final slice.
        let os = outcome.os.as_ref().expect("chain exists when found");
        assert_eq!(os[0], outcome.wrong_output);
        assert!(prepared
            .roots
            .contains(&session.trace().event(*os.last().unwrap()).stmt));
        let os_slice = outcome.os_slice(session.trace()).unwrap();
        assert!(os_slice.dynamic_size() <= outcome.ips.dynamic_size() + os_slice.dynamic_size());
        // Effectiveness counters stay modest (paper: 1-2 iterations for
        // everything except grep).
        assert!(
            outcome.iterations <= 12,
            "{} {}: {} iterations",
            b.name,
            fault.id,
            outcome.iterations
        );
    });
}

#[test]
fn sed_v3f2_needs_two_expansions() {
    let benchmarks = all_benchmarks();
    let sed = benchmarks.iter().find(|b| b.name == "sed").unwrap();
    let fault = sed.fault("V3-F2").unwrap();
    let session = sed.session(fault).unwrap();
    let outcome = session.locate(&LocateConfig::default()).unwrap();
    assert!(outcome.found);
    assert!(
        outcome.iterations >= 2,
        "the two-stage omission requires two expansions, got {}",
        outcome.iterations
    );
    assert!(outcome.strong_edges >= 2, "both edges are strong");
}

#[test]
fn gzip_v2f3_matches_figure1_walkthrough() {
    let benchmarks = all_benchmarks();
    let gzip = benchmarks.iter().find(|b| b.name == "gzip").unwrap();
    let fault = gzip.fault("V2-F3").unwrap();
    let session = gzip.session(fault).unwrap();
    let outcome = session.locate(&LocateConfig::default()).unwrap();
    assert!(outcome.found);
    // The wrong output is the flags byte (4th archive byte).
    let class = session.oracle().classify_outputs(session.trace()).unwrap();
    assert_eq!(class.correct.len(), 3, "magic bytes and method are correct");
    assert_eq!(class.expected, Some(Value::Int(8)), "ORIG_NAME bit");
    assert!(outcome.strong_edges >= 1, "the fix edge is strong");
}

#[test]
fn grep_is_the_heaviest_subject() {
    let benchmarks = all_benchmarks();
    let mut verifications = std::collections::HashMap::new();
    for b in &benchmarks {
        for fault in &b.faults {
            let session = b.session(fault).unwrap();
            let outcome = session.locate(&LocateConfig::default()).unwrap();
            assert!(outcome.found, "{} {}", b.name, fault.id);
            verifications.insert(format!("{}-{}", b.name, fault.id), outcome.verifications);
        }
    }
    let grep = verifications["grep-V4-F2"];
    for (k, &v) in &verifications {
        if !k.starts_with("grep") {
            assert!(
                grep >= v,
                "grep should need the most verifications ({grep} vs {k}={v})"
            );
        }
    }
}
