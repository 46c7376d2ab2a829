//! Cross-crate property tests over randomly generated programs.
//!
//! A small structured-program generator produces terminating programs
//! (loops are bounded counters), and properties assert agreement and
//! well-formedness across the whole pipeline:
//!
//! * plain and traced interpreters produce identical outputs;
//! * a value run keeps exactly the outputs, termination and per-statement
//!   values a traced run records, under any step budget and injected
//!   fault;
//! * pretty-print → re-parse → re-run is observationally identical;
//! * trace dependence edges always point backwards in time;
//! * region trees are properly nested;
//! * the dynamic slice is contained in the relevant slice;
//! * a switched re-execution shares the prefix up to the switch point,
//!   and the aligner maps prefix instances to themselves.

use omislice::omislice_interp::run_values;
use omislice::omislice_lang::printer::print_program;
use omislice::omislice_slicing::relevant_slice;
use omislice::omislice_trace::{CrashKind, FaultAction, FaultEntry};
use omislice::prelude::*;
use proptest::prelude::*;

// --- program generator -------------------------------------------------

mod generator;
use generator::program_strategy;

// --- properties ---------------------------------------------------------

fn compiled(src: &str) -> (Program, ProgramAnalysis) {
    let p = compile(src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"));
    let a = ProgramAnalysis::build(&p);
    (p, a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plain_and_traced_interpreters_agree((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let config = RunConfig::with_inputs(inputs);
        let plain = run_plain(&program, &config);
        let traced = run_traced(&program, &analysis, &config);
        prop_assert_eq!(&plain.outputs, &traced.trace.output_values(), "src:\n{}", src);
        prop_assert_eq!(
            plain.is_normal(),
            traced.trace.termination().is_normal(),
            "termination mismatch on:\n{}", src
        );
    }

    #[test]
    fn value_runs_keep_what_traced_runs_record(
        (src, inputs) in program_strategy(),
        budget in prop_oneof![Just(None), (0u64..80).prop_map(Some)],
        fault in prop_oneof![
            Just(None),
            (any::<prop::sample::Index>(), 0u32..3, any::<bool>()).prop_map(Some)
        ],
    ) {
        let (program, analysis) = compiled(&src);
        let mut config = RunConfig::with_inputs(inputs);
        if let Some(budget) = budget {
            config.step_budget = budget;
        }
        // An injected crash or budget stop at some instance of some
        // statement: value and traced runs must stop at the same event.
        if let Some((stmt, occurrence, crash)) = fault {
            let stmt = StmtId(stmt.index(program.stmt_count() as usize) as u32);
            let action = if crash {
                FaultAction::Crash(CrashKind::DivByZero)
            } else {
                FaultAction::ExhaustBudget
            };
            config.fault = Some(FaultEntry::at_stmt(stmt, occurrence, action));
        }
        let traced = run_traced(&program, &analysis, &config).trace;
        let values = run_values(&program, analysis.index(), &config);
        prop_assert_eq!(&values.outputs, &traced.output_values(), "src:\n{}", src);
        prop_assert_eq!(&values.termination, traced.termination(), "src:\n{}", src);
        for s in 0..program.stmt_count() {
            let stmt = StmtId(s);
            let want: Vec<Value> = traced
                .instances_of(stmt)
                .iter()
                .filter_map(|&i| traced.event(i).value)
                .collect();
            let got: Vec<Value> = values.values.of(stmt).collect();
            prop_assert_eq!(got, want, "{} on:\n{}", stmt, src);
        }
    }

    #[test]
    fn printer_roundtrip_is_observational_identity((src, inputs) in program_strategy()) {
        let (program, _) = compiled(&src);
        let printed = print_program(&program);
        let reparsed = compile(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        prop_assert_eq!(program.stmt_count(), reparsed.stmt_count());
        let config = RunConfig::with_inputs(inputs);
        let a = run_plain(&program, &config);
        let b = run_plain(&reparsed, &config);
        prop_assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn trace_edges_point_backwards((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let run = run_traced(&program, &analysis, &RunConfig::with_inputs(inputs));
        for inst in run.trace.insts() {
            let ev = run.trace.event(inst);
            for &d in ev.data_deps {
                prop_assert!(d < inst, "forward data edge {d} -> {inst}");
            }
            if let Some(cd) = ev.cd_parent {
                prop_assert!(cd < inst);
            }
            if let Some(rp) = ev.region_parent {
                prop_assert!(rp < inst);
            }
        }
    }

    #[test]
    fn region_trees_are_properly_nested((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let run = run_traced(&program, &analysis, &RunConfig::with_inputs(inputs));
        let regions = run.trace.regions();
        for inst in run.trace.insts() {
            for anc in regions.ancestors(inst) {
                prop_assert!(regions.in_region(anc, inst));
            }
            for child in regions.children(inst) {
                prop_assert_eq!(regions.parent(child), Some(inst));
            }
        }
    }

    #[test]
    fn dynamic_slice_is_contained_in_relevant_slice((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let run = run_traced(&program, &analysis, &RunConfig::with_inputs(inputs));
        let Some(last) = run.trace.outputs().last() else { return Ok(()); };
        let ds = DepGraph::new(&run.trace).backward_slice(last.inst);
        let rs = relevant_slice(&run.trace, &analysis, last.inst);
        for &i in ds.insts() {
            prop_assert!(rs.contains(i), "DS instance {i} missing from RS");
        }
    }

    #[test]
    fn switched_runs_share_the_prefix((src, inputs, pick) in (program_strategy(), any::<prop::sample::Index>())
        .prop_map(|((s, i), p)| (s, i, p)))
    {
        let (program, analysis) = compiled(&src);
        let config = RunConfig::with_inputs(inputs);
        let base = run_traced(&program, &analysis, &config);
        // Pick a predicate instance from the base run, if any.
        let preds: Vec<InstId> = base
            .trace
            .insts()
            .filter(|&i| base.trace.event(i).is_predicate())
            .collect();
        if preds.is_empty() {
            return Ok(());
        }
        let target = preds[pick.index(preds.len())];
        let stmt = base.trace.event(target).stmt;
        let occurrence = base.trace.occurrence_index(target) as u32;
        let sw = run_traced(
            &program,
            &analysis,
            &config.switched(SwitchSpec::new(stmt, occurrence)),
        );
        let Some(switched_at) = sw.switched else {
            return Ok(());
        };
        prop_assert_eq!(switched_at, target, "switch lands at the same timestamp");
        for i in 0..switched_at.index() {
            prop_assert_eq!(
                base.trace.event(InstId(i as u32)),
                sw.trace.event(InstId(i as u32)),
                "prefix diverged at {} on:\n{}", i, src
            );
        }
        // The switched instance itself: same statement, opposite branch.
        let b0 = base.trace.event(target).branch;
        let b1 = sw.trace.event(target).branch;
        prop_assert_eq!(b0.map(|b| !b), b1);
        // The aligner maps prefix instances to themselves.
        let aligner = Aligner::new(&base.trace, &sw.trace);
        if switched_at.index() > 0 {
            let probe = InstId((switched_at.index() / 2) as u32);
            prop_assert_eq!(aligner.match_inst(target, probe), Some(probe));
        }
    }
}
