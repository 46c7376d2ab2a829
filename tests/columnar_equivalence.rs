//! Differential properties pinning the columnar trace engine to its
//! row-major oracle.
//!
//! `run_traced` produces traces through the recorder, which writes each
//! event straight into the columns as the interpreter executes it; the
//! query index is built on demand. [`Trace::from_parts`] is the legacy
//! row-major constructor, kept precisely as the oracle for these tests:
//! it re-packs the same events from owned rows. For any generated
//! program × input vector the two must be observationally identical —
//! same events, same per-statement postings, same control-dependence
//! (Euler-tour) answers, same relevant slices at any worker count — and
//! the on-disk `omitrace/v1` round trip must be the identity.

mod generator;

use generator::program_strategy;
use omislice::omislice_slicing::relevant_slice_jobs;
use omislice::omislice_trace::{decode_trace, encode_trace};
use omislice::prelude::*;
use proptest::prelude::*;

fn compiled(src: &str) -> (Program, ProgramAnalysis) {
    let p = compile(src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"));
    let a = ProgramAnalysis::build(&p);
    (p, a)
}

/// Rebuilds `trace` through the legacy row-major constructor.
fn oracle_of(trace: &Trace) -> Trace {
    Trace::from_parts(
        trace.events_vec(),
        trace.outputs().to_vec(),
        trace.termination().clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recorded_events_match_the_row_major_oracle((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let run = run_traced(&program, &analysis, &RunConfig::with_inputs(inputs));
        let oracle = oracle_of(&run.trace);
        prop_assert_eq!(run.trace.len(), oracle.len());
        prop_assert_eq!(run.trace.termination(), oracle.termination());
        prop_assert_eq!(run.trace.outputs(), oracle.outputs());
        for inst in run.trace.insts() {
            prop_assert_eq!(
                run.trace.event(inst),
                oracle.event(inst),
                "event {} diverged on:\n{}", inst, src
            );
        }
    }

    #[test]
    fn index_postings_match_the_oracle((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let run = run_traced(&program, &analysis, &RunConfig::with_inputs(inputs));
        let oracle = oracle_of(&run.trace);
        for s in 0..program.stmt_count() {
            let stmt = StmtId(s);
            prop_assert_eq!(
                run.trace.instances_of(stmt),
                oracle.instances_of(stmt),
                "postings of {} diverged on:\n{}", stmt, src
            );
        }
        for inst in run.trace.insts() {
            let k = run.trace.occurrence_index(inst);
            prop_assert_eq!(k, oracle.occurrence_index(inst));
            let stmt = run.trace.event(inst).stmt;
            prop_assert_eq!(run.trace.nth_instance(stmt, k), Some(inst));
            prop_assert_eq!(oracle.nth_instance(stmt, k), Some(inst));
        }
    }

    #[test]
    fn cd_queries_match_the_oracle((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let run = run_traced(&program, &analysis, &RunConfig::with_inputs(inputs));
        let oracle = oracle_of(&run.trace);
        // One trace answers from the recorded columns, the oracle from
        // the re-packed rows. Every ancestor chain must agree.
        for inst in run.trace.insts() {
            prop_assert_eq!(
                run.trace.cd_ancestors(inst),
                oracle.cd_ancestors(inst),
                "cd ancestors of {} diverged on:\n{}", inst, src
            );
        }
        let regions = run.trace.regions();
        let oracle_regions = oracle.regions();
        for inst in run.trace.insts() {
            prop_assert_eq!(regions.parent(inst), oracle_regions.parent(inst));
            prop_assert_eq!(
                regions.children(inst).collect::<Vec<_>>(),
                oracle_regions.children(inst).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn relevant_slices_agree_across_worker_counts((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let run = run_traced(&program, &analysis, &RunConfig::with_inputs(inputs));
        let Some(last) = run.trace.outputs().last() else { return Ok(()); };
        let oracle = oracle_of(&run.trace);
        let want = relevant_slice_jobs(&oracle, &analysis, last.inst, 1);
        for jobs in [1usize, 2, 4] {
            let got = relevant_slice_jobs(&run.trace, &analysis, last.inst, jobs);
            prop_assert_eq!(
                got.insts(),
                want.insts(),
                "relevant slice (jobs {}) diverged on:\n{}", jobs, src
            );
        }
    }

    #[test]
    fn omitrace_round_trip_is_identity((src, inputs) in program_strategy()) {
        let (program, analysis) = compiled(&src);
        let run = run_traced(&program, &analysis, &RunConfig::with_inputs(inputs));
        let bytes = encode_trace(&run.trace);
        let reloaded = decode_trace(&bytes).expect("freshly encoded trace decodes");
        prop_assert_eq!(run.trace.len(), reloaded.len());
        prop_assert_eq!(run.trace.termination(), reloaded.termination());
        prop_assert_eq!(run.trace.outputs(), reloaded.outputs());
        for inst in run.trace.insts() {
            prop_assert_eq!(run.trace.event(inst), reloaded.event(inst));
        }
        // Encoding is canonical: re-encoding the reload is byte-identical.
        prop_assert_eq!(bytes, encode_trace(&reloaded));
    }
}
