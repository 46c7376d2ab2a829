//! Simulated-user oracles.
//!
//! Algorithm 2 is interactive: the programmer supplies which outputs are
//! correct, the expected value `v_exp` at the failure point, judgements
//! about presented statement instances ("benign" / "corrupted"), and
//! recognizes the root cause when shown. The paper's evaluation automates
//! the programmer with ground truth ("statement instances not in OS were
//! selected ... as being benign"); this module does the same, one level
//! more honestly: the [`GroundTruthOracle`] runs the *fixed* version of
//! the program on the same input and answers every query by comparing
//! values against that reference run.

use omislice_analysis::ProgramAnalysis;
use omislice_interp::{
    run_values, run_values_publishing, Demand, OutputFeed, RunConfig, StmtValues, ValueRun,
};
use omislice_lang::{Program, StmtId};
use omislice_trace::{InstId, Trace, Value};
use std::collections::HashSet;

/// Classification of a failing run's outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputClassification {
    /// Output instances that match the expected output.
    pub correct: Vec<InstId>,
    /// The first wrong output — the slicing criterion `o×`.
    pub wrong: InstId,
    /// The expected correct value at `o×` (`v_exp`), when known.
    pub expected: Option<Value>,
}

/// The programmer's knowledge, as Algorithm 2 consumes it.
pub trait UserOracle {
    /// Splits the failing run's outputs into correct ones and the first
    /// wrong one. `None` when the run does not expose a wrong output
    /// value (e.g. output is a strict prefix of the expected output).
    fn classify_outputs(&self, trace: &Trace) -> Option<OutputClassification>;

    /// Whether the program state produced by `inst` is benign (correct).
    ///
    /// `trace` is the view of the failing trace through the first wrong
    /// output ([`Trace::prefix`]) that the locator runs on, not the
    /// trace [`UserOracle::classify_outputs`] saw: its instances are the
    /// failing run's, numbered alike, but it ends at `o×`.
    ///
    /// The answer must be a pure function of `(trace, inst)` within one
    /// localization: PruneSlicing asks each ranked instance at most once
    /// per round and never re-asks the candidates it has passed, so an
    /// answer that changed on a second asking would be ignored.
    fn is_benign(&self, trace: &Trace, inst: InstId) -> bool;

    /// Whether `stmt` is (part of) the root cause — the loop-termination
    /// test of Algorithm 2 ("while the root cause is not found").
    fn is_root_cause(&self, stmt: StmtId) -> bool;
}

/// An oracle backed by the fault-free version of the program.
///
/// Fault seeding in the corpus preserves statement ids, so instances of
/// the faulty and fixed runs are compared positionally: the k-th instance
/// of statement `s` in the faulty run is benign iff the fixed run also
/// executes `s` at least `k+1` times with the same value.
///
/// The oracle reads nothing of the reference run but values, so it keeps
/// only those: the printed outputs and each statement's values in
/// execution order ([`run_values`]), nine bytes per valued instance — no
/// trace, dependences or statement index.
#[derive(Debug)]
pub struct GroundTruthOracle {
    outputs: Vec<Value>,
    values: StmtValues,
    roots: HashSet<StmtId>,
}

impl GroundTruthOracle {
    /// Runs the fixed program on `config`'s inputs to build the reference.
    ///
    /// `roots` are the seeded fault's statement ids in the *faulty*
    /// program.
    pub fn new(
        fixed_program: &Program,
        fixed_analysis: &ProgramAnalysis,
        config: &RunConfig,
        roots: impl IntoIterator<Item = StmtId>,
    ) -> Self {
        let _span = omislice_obs::span("reference");
        let run = run_values(fixed_program, fixed_analysis.index(), &reference(config));
        GroundTruthOracle::from_run(run, roots)
    }

    /// [`GroundTruthOracle::new`], publishing the reference run's outputs
    /// into `feed` as it prints them: the stream a failing run on another
    /// thread stops recording by ([`omislice_interp::run_failing`]). The
    /// feed is closed when the run returns or unwinds.
    ///
    /// Once the failing run releases the feed with its [`Demand`] — the
    /// values of its trace through its first wrong output `o×` and the
    /// outputs through `o×`'s position, all a localization on that trace
    /// can ask — the reference run logs only what the demand still
    /// wants and returns as soon as it holds it, having run no further
    /// than the oracle can be asked about. What it logged before the
    /// demand arrived stays, and a reference that ended first holds
    /// everything: [`GroundTruthOracle::keep`] with the feed's demand
    /// ([`OutputFeed::demand`]), once both runs have returned, trims the
    /// oracle to exactly the demand whichever side finished first, so its
    /// contents do not depend on thread timing. A failing run with no
    /// wrong output releases no demand and the oracle keeps everything.
    pub fn publishing(
        fixed_program: &Program,
        fixed_analysis: &ProgramAnalysis,
        config: &RunConfig,
        roots: impl IntoIterator<Item = StmtId>,
        feed: &OutputFeed,
    ) -> Self {
        let _span = omislice_obs::span("reference");
        let plain = reference(config);
        let run = run_values_publishing(fixed_program, fixed_analysis.index(), &plain, feed);
        GroundTruthOracle::from_run(run, roots)
    }

    fn from_run(run: ValueRun, roots: impl IntoIterator<Item = StmtId>) -> Self {
        GroundTruthOracle {
            outputs: run.outputs,
            values: run.values,
            roots: roots.into_iter().collect(),
        }
    }

    /// Keeps only what `demand` wants: the first `demand.values[s]`
    /// values of each statement `s` and the first `demand.outputs`
    /// outputs — everything a localization on the failing trace through
    /// its first wrong output can ask ([`GroundTruthOracle::publishing`]).
    pub fn keep(&mut self, demand: &Demand) {
        self.outputs.truncate(demand.outputs);
        self.outputs.shrink_to_fit();
        self.values.truncate(&demand.values);
    }

    /// The reference (fixed-program) run's printed values: the expected
    /// output — through the position of the failing run's first wrong
    /// output once the oracle keeps a demand ([`GroundTruthOracle::keep`],
    /// as a [`DebugSession`](crate::DebugSession)'s oracle does), the
    /// whole of it otherwise ([`GroundTruthOracle::new`]).
    pub fn expected_outputs(&self) -> &[Value] {
        &self.outputs
    }

    /// Reference values the oracle keeps, over all statements.
    pub fn kept_values(&self) -> usize {
        self.values.len()
    }

    /// Bytes the oracle holds: the expected outputs and the reference
    /// run's per-statement values.
    pub fn bytes(&self) -> usize {
        self.outputs.len() * std::mem::size_of::<Value>() + self.values.bytes()
    }
}

/// The reference run's config: `config`'s inputs and budget, with no
/// switch, override or injected fault.
fn reference(config: &RunConfig) -> RunConfig {
    RunConfig {
        inputs: config.inputs.clone(),
        step_budget: config.step_budget,
        switch: None,
        value_override: None,
        fault: None,
    }
}

impl UserOracle for GroundTruthOracle {
    fn classify_outputs(&self, trace: &Trace) -> Option<OutputClassification> {
        let actual = trace.outputs();
        let expected = &self.outputs;
        let mut correct = Vec::new();
        for (i, out) in actual.iter().enumerate() {
            match expected.get(i) {
                Some(&e) if e == out.value => correct.push(out.inst),
                _ => {
                    return Some(OutputClassification {
                        correct,
                        wrong: out.inst,
                        expected: expected.get(i).copied(),
                    })
                }
            }
        }
        None // outputs agree (or are a strict prefix): no wrong value
    }

    fn is_benign(&self, trace: &Trace, inst: InstId) -> bool {
        let ev = trace.event(inst);
        // Value-less instances (calls, break/continue, bare returns) give
        // the programmer no state to inspect; they are never declared
        // benign.
        if ev.value.is_none() {
            return false;
        }
        // Whether a statement's instances carry values depends only on
        // its kind, so the k-th instance is the k-th value.
        let k = trace.occurrence_index(inst);
        self.values.get(ev.stmt, k) == ev.value
    }

    fn is_root_cause(&self, stmt: StmtId) -> bool {
        self.roots.contains(&stmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_interp::run_traced;
    use omislice_lang::compile;

    const FIXED: &str = "\
        global flags = 0;\
        fn main() {\
            let save = input();\
            flags = 1;\
            if save == 1 { flags = 2; }\
            print(save);\
            print(flags);\
        }";

    /// Faulty version: the first statement drops the input (the seeded
    /// root cause), so the guard is not taken.
    const FAULTY: &str = "\
        global flags = 0;\
        fn main() {\
            let save = input() - 1;\
            flags = 1;\
            if save == 1 { flags = 2; }\
            print(save);\
            print(flags);\
        }";

    fn runs() -> (Trace, GroundTruthOracle) {
        let fixed = compile(FIXED).unwrap();
        let fixed_a = ProgramAnalysis::build(&fixed);
        let faulty = compile(FAULTY).unwrap();
        let faulty_a = ProgramAnalysis::build(&faulty);
        let config = RunConfig::with_inputs(vec![1]);
        let trace = run_traced(&faulty, &faulty_a, &config).trace;
        let oracle = GroundTruthOracle::new(&fixed, &fixed_a, &config, [StmtId(0)]);
        (trace, oracle)
    }

    #[test]
    fn classifies_first_divergent_output() {
        let (trace, oracle) = runs();
        let c = oracle.classify_outputs(&trace).unwrap();
        // print(save) (S4; S3 is the assignment inside the guard):
        // faulty prints 0, expected 1 → first wrong output.
        assert_eq!(c.correct, Vec::<InstId>::new());
        assert_eq!(trace.event(c.wrong).stmt, StmtId(4));
        assert_eq!(c.expected, Some(Value::Int(1)));
    }

    #[test]
    fn benign_judgement_compares_values() {
        let (trace, oracle) = runs();
        // flags = 1 is identical in both runs → benign.
        let flags1 = trace.instances_of(StmtId(1))[0];
        assert!(oracle.is_benign(&trace, flags1));
        // save = input() - 1 computes the wrong value → corrupted.
        let save = trace.instances_of(StmtId(0))[0];
        assert!(!oracle.is_benign(&trace, save));
        // The guard instance: outcome false vs reference true → corrupted.
        let guard = trace.instances_of(StmtId(2))[0];
        assert!(!oracle.is_benign(&trace, guard));
    }

    #[test]
    fn benign_is_false_for_extra_instances() {
        // Faulty run executes a loop body more often than the reference.
        let fixed =
            compile("fn main() { let i = 0; while i < 1 { i = i + 1; } print(i); }").unwrap();
        let faulty =
            compile("fn main() { let i = 0; while i < 3 { i = i + 1; } print(i); }").unwrap();
        let fixed_a = ProgramAnalysis::build(&fixed);
        let faulty_a = ProgramAnalysis::build(&faulty);
        let config = RunConfig::default();
        let trace = run_traced(&faulty, &faulty_a, &config).trace;
        let oracle = GroundTruthOracle::new(&fixed, &fixed_a, &config, [StmtId(1)]);
        let bodies = trace.instances_of(StmtId(2));
        assert!(oracle.is_benign(&trace, bodies[0]));
        assert!(!oracle.is_benign(&trace, bodies[1]), "no counterpart");
    }

    #[test]
    fn no_classification_when_outputs_agree() {
        let fixed = compile(FIXED).unwrap();
        let fixed_a = ProgramAnalysis::build(&fixed);
        let config = RunConfig::with_inputs(vec![5]); // guard untaken in both
        let trace = run_traced(&fixed, &fixed_a, &config).trace;
        let oracle = GroundTruthOracle::new(&fixed, &fixed_a, &config, [StmtId(0)]);
        assert!(oracle.classify_outputs(&trace).is_none());
    }

    #[test]
    fn root_cause_membership() {
        let (_, oracle) = runs();
        assert!(oracle.is_root_cause(StmtId(0)));
        assert!(!oracle.is_root_cause(StmtId(1)));
        assert_eq!(oracle.expected_outputs(), [Value::Int(1), Value::Int(2)]);
        // Six valued reference instances (`save`, both `flags`
        // assignments, the guard and the two prints) at nine bytes each,
        // beside the two expected outputs.
        assert_eq!(oracle.bytes(), 2 * std::mem::size_of::<Value>() + 9 * 6);
    }
}
