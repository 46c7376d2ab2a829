//! Checkpointing and resumption of traced runs.
//!
//! Predicate switching re-executes the program once per candidate
//! predicate instance, yet every switched run is byte-identical to the
//! original up to the switch point (the interpreter is deterministic and
//! the switch is the first divergence). A [`Checkpoint`] captures the
//! interpreter state at a candidate instance during the *original*
//! traced run ([`run_switched`]); [`resume_switched`] then replays the
//! recorded prefix verbatim and re-executes only the suffix with the
//! switch armed, producing the same [`TracedRun`] a from-scratch switched
//! execution would.
//!
//! Checkpoints are taken at predicate *entry* (before the condition
//! evaluates), keyed by the predicate's entry-occurrence count, so the
//! snapshot precedes every side effect of the instance being switched.

use crate::store::{Defs, Frame, Globals};
use crate::tracer::{self, TracedRun};
use crate::{RunConfig, SwitchSpec};
use omislice_analysis::ProgramAnalysis;
use omislice_lang::Program;
use omislice_trace::{DescentChain, FaultAction, FaultSite, InstId, Trace};
use std::fmt;

/// Interpreter state captured at a candidate predicate instance, from
/// which a switched run can resume. Only traced runs capture checkpoints,
/// so cells hold [`Defs`]; the parameter lets generic capture code name it.
#[derive(Debug, Clone)]
pub struct Checkpoint<D = Defs> {
    /// The switch this checkpoint was captured for.
    pub spec: SwitchSpec,
    pub(crate) globals: Globals<D>,
    pub(crate) frames: Vec<Frame<D>>,
    /// Per-statement execution counters, dense over `StmtId`.
    pub(crate) occ: Vec<u32>,
    pub(crate) region_stack: Vec<InstId>,
    pub(crate) input_pos: usize,
    /// Input underflows accumulated in the prefix, restored on resume so
    /// resumed and from-scratch runs report identical counts.
    pub(crate) input_underflows: u64,
    pub(crate) trace_len: usize,
    pub(crate) outputs_len: usize,
    /// For a `while` predicate: whether a prior iteration's region is on
    /// the region stack (`None` for `if` predicates).
    pub(crate) loop_pushed: Option<bool>,
}

impl Checkpoint {
    /// Number of trace events in the shared prefix this checkpoint
    /// replays verbatim instead of re-executing.
    pub fn prefix_len(&self) -> usize {
        self.trace_len
    }

    /// Approximate footprint of this checkpoint in bytes — snapshot
    /// state (globals, frames, counters) plus fixed fields. Used by the
    /// verification memo's size-bounded LRU and the `checkpoint.bytes`
    /// gauge. Deterministic: computed from element counts, not from
    /// allocator state, so eviction decisions replay identically.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Checkpoint>()
            + self.globals.approx_bytes()
            + self.frames.iter().map(Frame::approx_bytes).sum::<usize>()
            + self.occ.len() * std::mem::size_of::<u32>()
            + self.region_stack.len() * std::mem::size_of::<InstId>()
    }

    /// Whether a switched run can resume from this checkpoint.
    ///
    /// Resumption rebuilds the suspended call stack from static AST
    /// paths, which requires every frame above `main` to have been
    /// pushed by a statement-position call. A call in expression
    /// position suspends mid-expression — its continuation holds a
    /// pending value the snapshot cannot capture — so such checkpoints
    /// fall back to from-scratch execution.
    pub fn is_resumable(&self) -> bool {
        self.frames.iter().skip(1).all(|f| f.call_site.is_some())
    }

    /// Structural consistency check against the program and the base
    /// trace this checkpoint claims a prefix of. A checkpoint that fails
    /// validation (e.g. one poisoned by a `corrupt-checkpoint` fault
    /// plan, or paired with the wrong base trace) must not be resumed —
    /// its cursors would slice out of range or replay the wrong prefix.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self, program: &Program, base: &Trace) -> Result<(), String> {
        if self.frames.is_empty() {
            return Err("checkpoint has no frames".to_string());
        }
        let functions = program.functions().count();
        for frame in &self.frames {
            if frame.func.index() >= functions {
                return Err(format!(
                    "checkpoint frame names unknown function #{} of {functions}",
                    frame.func.0
                ));
            }
        }
        if self.trace_len > base.len() {
            return Err(format!(
                "checkpoint prefix length {} exceeds base trace length {}",
                self.trace_len,
                base.len()
            ));
        }
        if self.outputs_len > base.outputs().len() {
            return Err(format!(
                "checkpoint output cursor {} exceeds base output count {}",
                self.outputs_len,
                base.outputs().len()
            ));
        }
        Ok(())
    }
}

/// Why a checkpoint resumption was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint suspends below an expression-position call and can
    /// never resume; run from scratch (not a fault — expected for such
    /// call shapes).
    NotResumable,
    /// The run config carries a fault entry that would have
    /// fired inside the replayed prefix; a resume would skip the fault
    /// and diverge from the from-scratch run, so it refuses instead.
    FaultInPrefix,
    /// The checkpoint is structurally inconsistent (failed
    /// [`Checkpoint::validate`]) or its suspended call stack could not
    /// be re-entered. The caller should discard it and fall back to
    /// from-scratch execution.
    Invalid(String),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::NotResumable => {
                write!(f, "checkpoint suspends below an expression-position call")
            }
            ResumeError::FaultInPrefix => {
                write!(f, "fault plan fires inside the replayed prefix")
            }
            ResumeError::Invalid(msg) => write!(f, "invalid checkpoint: {msg}"),
        }
    }
}

/// Whether switched runs may resume from checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumeMode {
    /// Resume from a checkpoint when one is available and resumable;
    /// fall back to from-scratch execution otherwise.
    #[default]
    Auto,
    /// Always execute switched runs from scratch. Escape hatch for
    /// comparing against resumed runs (they are byte-identical, but this
    /// makes the equivalence checkable).
    Disabled,
}

/// Runs `program` traced under `config`, switched or not, capturing a
/// checkpoint at each `capture` spec's predicate instance it reaches.
/// Returns the run, identical to `run_traced`'s, plus the captured
/// checkpoints (a spec whose occurrence never executes yields none).
///
/// With a `chain`, the run records only what aligning instances up to
/// the chain's target can read: it follows the chain as regions open and
/// close, and stops recording once the target's counterpart is recorded
/// or ruled out (a region still open there counts as extending past it).
/// The run then executes on, keeping outputs, budget, injected faults and
/// input underflows exactly as a fully recorded run would, so its
/// termination is the same; its trace is the fully recorded run's first
/// events, and its outputs those they emitted.
pub fn run_switched(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    capture: &[SwitchSpec],
    chain: Option<DescentChain>,
) -> (TracedRun, Vec<Checkpoint>) {
    tracer::run_traced_capturing(program, analysis, config, capture, chain)
}

/// Resumes a switched run from `checkpoint`, reusing `base` (the
/// original run's trace) for the shared prefix. Refuses — with a
/// [`ResumeError`] saying why — when the checkpoint cannot or must not
/// be resumed; the caller then runs from scratch.
///
/// The checkpoint is validated against `program` and `base` first, so a
/// corrupted or mismatched checkpoint is reported as
/// [`ResumeError::Invalid`] instead of slicing out of range.
///
/// The result is byte-identical — events, outputs, termination — to
/// [`run_switched`] with the same config, capture list and chain,
/// including step-budget behavior (the budget counts prefix events
/// exactly as a from-scratch run would) and fault-injection behavior (a
/// plan that would fire inside the prefix refuses with
/// [`ResumeError::FaultInPrefix`] rather than diverge). When
/// `config.switch` is unset the checkpoint's own spec is armed; setting
/// it to a spec *downstream* of the checkpoint resumes the shared prefix
/// and re-executes the original run up to that deeper switch point (the
/// checkpoint-trie ancestor resume). The re-executed suffix captures a
/// [`Checkpoint`] at every `capture` spec it reaches *before* the armed
/// switch fires: the replayed segment between two divergence points is
/// original execution, so its snapshots are exactly what a capturing run
/// from scratch would have produced, and requests at or past the switch
/// point are skipped, never corrupted.
///
/// # Errors
///
/// Returns the refusal reason; every variant is recoverable by running
/// the switched config from scratch.
pub fn resume_switched(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    checkpoint: &Checkpoint,
    base: &Trace,
    capture: &[SwitchSpec],
    chain: Option<DescentChain>,
) -> Result<(TracedRun, Vec<Checkpoint>), ResumeError> {
    if !checkpoint.is_resumable() {
        return Err(ResumeError::NotResumable);
    }
    checkpoint
        .validate(program, base)
        .map_err(ResumeError::Invalid)?;
    // Instances of the fault statement in the prefix: the resumed run's
    // fault counter starts there.
    let mut fault_seen = 0;
    if let Some(fault) = config.fault {
        let cols = base.columns();
        fault_seen = (0..checkpoint.trace_len)
            .filter(|&i| FaultSite::Stmt(cols.stmt_of(InstId(i as u32))) == fault.site)
            .count() as u32;
        if fault.action != FaultAction::CorruptCheckpoint && fault_seen > fault.occurrence {
            return Err(ResumeError::FaultInPrefix);
        }
    }
    tracer::resume_switched_impl(
        program, analysis, config, checkpoint, base, capture, fault_seen, chain,
    )
    .ok_or_else(|| ResumeError::Invalid("suspended call stack cannot be re-entered".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_traced, RunConfig};
    use omislice_lang::{compile, StmtId};

    fn analyzed(src: &str) -> (Program, ProgramAnalysis) {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        (p, a)
    }

    /// [`resume_switched`] without captures or a chain.
    fn resume(
        p: &Program,
        a: &ProgramAnalysis,
        config: &RunConfig,
        cp: &Checkpoint,
        base: &Trace,
    ) -> Result<TracedRun, ResumeError> {
        resume_switched(p, a, config, cp, base, &[], None).map(|(run, _)| run)
    }

    /// Every (predicate, occurrence) pair in `run`'s trace.
    fn all_specs(program: &Program, run: &TracedRun) -> Vec<SwitchSpec> {
        let mut specs = Vec::new();
        for f in program.functions() {
            collect_preds(&f.body, &mut |stmt| {
                let n = run.trace.instances_of(stmt).len() as u32;
                for occurrence in 0..n {
                    specs.push(SwitchSpec::new(stmt, occurrence));
                }
            });
        }
        specs
    }

    fn collect_preds(block: &omislice_lang::Block, visit: &mut impl FnMut(StmtId)) {
        for stmt in &block.stmts {
            match &stmt.kind {
                omislice_lang::StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    visit(stmt.id);
                    collect_preds(then_blk, visit);
                    if let Some(e) = else_blk {
                        collect_preds(e, visit);
                    }
                }
                omislice_lang::StmtKind::While { body, .. } => {
                    visit(stmt.id);
                    collect_preds(body, visit);
                }
                _ => {}
            }
        }
    }

    /// For every predicate instance in `src`'s run: capture, resume, and
    /// compare against the from-scratch switched run.
    fn assert_resume_matches_scratch(src: &str, inputs: &[i64]) {
        let (p, a) = analyzed(src);
        let config = RunConfig::with_inputs(inputs.to_vec());
        let base = run_traced(&p, &a, &config);
        let specs = all_specs(&p, &base);
        assert!(!specs.is_empty(), "program has predicate instances");
        let (rerun, checkpoints) = run_switched(&p, &a, &config, &specs, None);
        assert_eq!(rerun.trace.events_vec(), base.trace.events_vec());
        assert_eq!(checkpoints.len(), specs.len(), "one checkpoint per spec");
        let mut resumed_any = false;
        for cp in &checkpoints {
            let switched_config = config.switched(cp.spec);
            let scratch = run_traced(&p, &a, &switched_config);
            match resume(&p, &a, &switched_config, cp, &base.trace) {
                Ok(resumed) => {
                    resumed_any = true;
                    assert_eq!(
                        resumed.trace.events_vec(),
                        scratch.trace.events_vec(),
                        "resumed events differ for {:?}",
                        cp.spec
                    );
                    assert_eq!(resumed.trace.outputs(), scratch.trace.outputs());
                    assert_eq!(resumed.trace.termination(), scratch.trace.termination());
                    assert_eq!(resumed.input_underflows, scratch.input_underflows);
                }
                Err(e) => {
                    assert_eq!(e, ResumeError::NotResumable);
                    assert!(!cp.is_resumable());
                }
            }
        }
        assert!(resumed_any, "at least one checkpoint resumes");
    }

    #[test]
    fn resume_matches_scratch_on_branches() {
        assert_resume_matches_scratch(
            "global g = 0;
             fn main() {
                 let x = input();
                 if x > 2 { g = 1; } else { g = 2; }
                 if g == 1 { print(10); }
                 print(g);
             }",
            &[5],
        );
    }

    #[test]
    fn resume_matches_scratch_on_loops() {
        assert_resume_matches_scratch(
            "global sum = 0;
             fn main() {
                 let i = 0;
                 while i < 4 {
                     if i == 2 { sum = sum + 10; }
                     sum = sum + i;
                     i = i + 1;
                 }
                 print(sum);
             }",
            &[],
        );
    }

    #[test]
    fn resume_matches_scratch_through_calls() {
        assert_resume_matches_scratch(
            "global acc = 0;
             fn bump(n) {
                 if n > 1 { acc = acc + n; }
                 while n > 0 { acc = acc + 1; n = n - 1; }
             }
             fn main() {
                 let i = 0;
                 while i < 3 {
                     bump(i);
                     i = i + 1;
                 }
                 print(acc);
             }",
            &[],
        );
    }

    #[test]
    fn resume_matches_scratch_on_nested_loops_and_breaks() {
        assert_resume_matches_scratch(
            "fn main() {
                 let i = 0;
                 while i < 3 {
                     let j = 0;
                     while j < 3 {
                         if j == 2 { break; }
                         if i == j { print(i); }
                         j = j + 1;
                     }
                     i = i + 1;
                 }
             }",
            &[],
        );
    }

    #[test]
    fn expression_position_call_is_not_resumable() {
        let (p, a) = analyzed(
            "global g = 0;
             fn probe(n) {
                 if n > 0 { g = g + 1; }
                 return n;
             }
             fn main() {
                 let x = probe(3);
                 print(x + g);
             }",
        );
        let config = RunConfig::default();
        let base = run_traced(&p, &a, &config);
        let specs = all_specs(&p, &base);
        let (_, checkpoints) = run_switched(&p, &a, &config, &specs, None);
        // The predicate inside `probe` runs under an expression-position
        // call: its checkpoint must refuse to resume.
        let cp = checkpoints
            .iter()
            .find(|c| c.frames.len() > 1)
            .expect("a checkpoint below the call");
        assert!(!cp.is_resumable());
        let switched = config.switched(cp.spec);
        assert_eq!(
            resume(&p, &a, &switched, cp, &base.trace).unwrap_err(),
            ResumeError::NotResumable
        );
    }

    #[test]
    fn resume_preserves_step_budget_semantics() {
        let src = "fn main() {
                 let i = 0;
                 while i < 100 {
                     if i == 5 { print(i); }
                     i = i + 1;
                 }
             }";
        let (p, a) = analyzed(src);
        let config = RunConfig {
            step_budget: 120,
            ..RunConfig::default()
        };
        let base = run_traced(&p, &a, &config);
        let specs = all_specs(&p, &base);
        let (_, checkpoints) = run_switched(&p, &a, &config, &specs, None);
        for cp in &checkpoints {
            let switched = config.switched(cp.spec);
            let scratch = run_traced(&p, &a, &switched);
            let resumed = resume(&p, &a, &switched, cp, &base.trace)
                .expect("single-frame checkpoints resume");
            assert_eq!(
                resumed.trace.events_vec().len(),
                scratch.trace.events_vec().len()
            );
            assert_eq!(resumed.trace.termination(), scratch.trace.termination());
        }
    }

    #[test]
    fn corrupted_checkpoint_fails_validation_and_resume() {
        use omislice_trace::FaultEntry;
        let (p, a) = analyzed(
            "fn main() {
                 let i = 0;
                 while i < 3 { i = i + 1; }
                 print(i);
             }",
        );
        let config = RunConfig::default();
        let base = run_traced(&p, &a, &config);
        let specs = all_specs(&p, &base);
        // Corrupt the checkpoint captured at the while's second instance.
        let while_id = specs[0].pred;
        let corrupting = RunConfig {
            fault: Some(FaultEntry::at_stmt(
                while_id,
                1,
                FaultAction::CorruptCheckpoint,
            )),
            ..config.clone()
        };
        let (rerun, checkpoints) = run_switched(&p, &a, &corrupting, &specs, None);
        // The corruption never perturbs the run itself.
        assert_eq!(rerun.trace.events_vec(), base.trace.events_vec());
        let bad = checkpoints
            .iter()
            .find(|c| c.spec.occurrence == 1)
            .expect("occurrence 1 was captured");
        assert!(bad.validate(&p, &base.trace).is_err());
        let switched = config.switched(bad.spec);
        assert!(matches!(
            resume(&p, &a, &switched, bad, &base.trace),
            Err(ResumeError::Invalid(_))
        ));
        // Sibling checkpoints are untouched and still resume exactly.
        for cp in checkpoints.iter().filter(|c| c.spec.occurrence != 1) {
            let sw = config.switched(cp.spec);
            let scratch = run_traced(&p, &a, &sw);
            let resumed = resume(&p, &a, &sw, cp, &base.trace).unwrap();
            assert_eq!(resumed.trace.events_vec(), scratch.trace.events_vec());
        }
    }

    #[test]
    fn fault_in_prefix_refuses_resume_and_scratch_matches() {
        let src = "fn main() {
                 let i = 0;
                 while i < 6 {
                     if i == 4 { print(i); }
                     i = i + 1;
                 }
             }";
        let (p, a) = analyzed(src);
        let config = RunConfig::default();
        let base = run_traced(&p, &a, &config);
        let specs = all_specs(&p, &base);
        let (_, checkpoints) = run_switched(&p, &a, &config, &specs, None);
        // Crash at the third instance of `i = i + 1` (statement S4).
        let plan = omislice_trace::FaultPlan::parse("S4:2=div-zero")
            .unwrap()
            .stmt_entry();
        for cp in &checkpoints {
            let mut switched = config.switched(cp.spec);
            switched.fault = plan;
            let scratch = run_traced(&p, &a, &switched);
            match resume(&p, &a, &switched, cp, &base.trace) {
                Ok(resumed) => {
                    assert_eq!(
                        resumed.trace.events_vec(),
                        scratch.trace.events_vec(),
                        "resumed+fault differs for {:?}",
                        cp.spec
                    );
                    assert_eq!(resumed.trace.termination(), scratch.trace.termination());
                }
                Err(ResumeError::FaultInPrefix) => {
                    // The fault fired inside the prefix: the scratch run
                    // must indeed crash before the switch point.
                    assert!(!scratch.trace.termination().is_normal());
                }
                Err(ResumeError::NotResumable) => assert!(!cp.is_resumable()),
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
    }

    #[test]
    fn checkpoint_reports_prefix_length() {
        let (p, a) = analyzed(
            "fn main() {
                 let i = 0;
                 while i < 3 { i = i + 1; }
             }",
        );
        let config = RunConfig::default();
        let base = run_traced(&p, &a, &config);
        let specs = all_specs(&p, &base);
        let (_, checkpoints) = run_switched(&p, &a, &config, &specs, None);
        for cp in &checkpoints {
            assert!(cp.prefix_len() <= base.trace.events_vec().len());
        }
        // Later occurrences have longer prefixes.
        let mut by_occ: Vec<_> = checkpoints.iter().map(|c| c.prefix_len()).collect();
        let sorted = {
            let mut s = by_occ.clone();
            s.sort_unstable();
            s
        };
        by_occ.sort_unstable();
        assert_eq!(by_occ, sorted);
    }
}
