//! The localization pipeline every front end runs.
//!
//! [`DebugSession`] wires the paper's prototype end to end: compile the
//! faulty program and its fixed reference, analyze both, acquire the
//! failing trace (recorded, or loaded from an `omitrace/v1` file) under
//! the caller's [`Supervisor`], collect value profiles, derive the seeded
//! root cause from the two versions' structural diff, and build the
//! ground-truth oracle. [`DebugSession::locate`] runs Algorithm 2 and
//! [`DebugSession::report`] renders the result.
//!
//! `omislice locate`, `omislice corpus locate` and `POST /locate` all
//! build and render through this one type, so their reports agree byte
//! for byte by construction; a front end only turns flags or JSON into a
//! builder and a [`LocateConfig`].

use crate::journal::{journal_records, JournalMeta, JournalRun};
use crate::locate::{locate_fault, LocateConfig, LocateError, LocateOutcome};
use crate::oracle::GroundTruthOracle;
use crate::report::{render_explain, render_report};
use omislice_analysis::{PdMode, ProgramAnalysis};
use omislice_interp::{run_failing, FailingRun, OutputFeed, RunConfig};
use omislice_lang::{compile, printer::stmt_head, FrontendError, Program, StmtId};
use omislice_obs::{Json, ProfileSummary, Recording};
use omislice_slicing::ValueProfile;
use omislice_trace::{note_recovery, RecoveryKind, RecoveryLog, Supervisor, Trace, Value};
use std::fmt::{self, Write as _};
use std::path::PathBuf;

/// Errors building a session.
#[derive(Debug)]
pub enum SessionError {
    /// The faulty program failed to compile.
    Faulty(FrontendError),
    /// The reference (fixed) program failed to compile.
    Reference(FrontendError),
    /// No reference program was supplied.
    MissingReference,
    /// The two versions do not share one statement structure, so the
    /// root cause cannot be read off their diff (see [`try_seeded_roots`]).
    StructuralMismatch(String),
    /// The two versions are identical: there is no fault to locate.
    IdenticalPrograms,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Faulty(e) => write!(f, "faulty program: {e}"),
            SessionError::Reference(e) => write!(f, "reference program: {e}"),
            SessionError::MissingReference => {
                write!(f, "a reference (fixed) program is required")
            }
            SessionError::StructuralMismatch(msg) => f.write_str(msg),
            SessionError::IdenticalPrograms => {
                write!(f, "fixed and faulty programs are identical")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Builder for a [`DebugSession`].
#[derive(Debug, Default)]
pub struct DebugSessionBuilder {
    faulty_src: String,
    reference_src: Option<String>,
    failing_input: Vec<i64>,
    profile_inputs: Vec<Vec<i64>>,
    roots: Option<Vec<StmtId>>,
    pd_mode: PdMode,
    supervisor: Supervisor,
    trace_file: Option<PathBuf>,
}

impl DebugSessionBuilder {
    /// The fault-free version of the program (required; it powers the
    /// simulated-user oracle).
    pub fn reference(mut self, src: &str) -> Self {
        self.reference_src = Some(src.to_string());
        self
    }

    /// The input on which the faulty program fails.
    pub fn failing_input(mut self, inputs: Vec<i64>) -> Self {
        self.failing_input = inputs;
        self
    }

    /// Additional test inputs used to collect value profiles for
    /// confidence analysis (the failing input is always included).
    pub fn profile_inputs(mut self, inputs: impl IntoIterator<Item = Vec<i64>>) -> Self {
        self.profile_inputs = inputs.into_iter().collect();
        self
    }

    /// The statement ids of the seeded fault (loop-termination ground
    /// truth, as in the paper's evaluation protocol). Without this call
    /// the session derives them with [`try_seeded_roots`].
    pub fn root_cause_stmts(mut self, roots: impl IntoIterator<Item = StmtId>) -> Self {
        self.roots = Some(roots.into_iter().collect());
        self
    }

    /// Selects how far the static potential-dependence computation
    /// reaches (default: intraprocedural, as in the evaluation).
    pub fn pd_mode(mut self, mode: PdMode) -> Self {
        self.pd_mode = mode;
        self
    }

    /// Acquires the failing trace under `sup`: its fault plan's pipeline
    /// entries and deadline scope the recording (or loading) of the
    /// failing run. The
    /// profile runs and the reference run stay outside, so a deadline can
    /// cut the failing trace short but never the ground truth.
    pub fn supervisor(mut self, sup: Supervisor) -> Self {
        self.supervisor = sup;
        self
    }

    /// Loads the failing trace from an `omitrace/v1` file, which must
    /// come from running the faulty program on the failing input. A file
    /// that stays unreadable after the supervisor's retry climbs the last
    /// rung of the degradation ladder: the run is recorded from source,
    /// noted as [`RecoveryKind::RetraceFallback`] and in
    /// [`DebugSession::warnings`].
    pub fn trace_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_file = Some(path.into());
        self
    }

    /// Compiles both programs, acquires the failing trace, runs the
    /// profiling suite, and assembles the session.
    ///
    /// Only the failing run is traced: the oracle's reference run and the
    /// profile runs are read for values alone, so the reference is a
    /// value run ([`omislice_interp::run_values`]) and each profile run
    /// folds its values into the profile as it computes them
    /// ([`ValueProfile::add_run`]). The reference run reads nothing the
    /// failing trace produces, so it runs on its own scoped thread beside
    /// the failing run (or the trace load) and the profile runs, and
    /// publishes each output as it prints it
    /// ([`GroundTruthOracle::publishing`]). The failing run
    /// ([`run_failing`]) compares each output it records with the
    /// reference's at the same position and stops recording at the first
    /// that differs, `o×`: it executes to its end with the same deadline
    /// cadence, budget and termination, and folds every later value
    /// straight into the value profile. It hands the reference the
    /// demand of its trace through `o×`, and the reference stops once it
    /// holds that; the oracle keeps exactly the demand
    /// ([`GroundTruthOracle::keep`]) whichever run finished first. A
    /// loaded trace is whole: its outputs are read against the
    /// reference's the same way ([`OutputFeed::read_trace`]), which sends
    /// the same demand, and the session keeps its view through `o×`
    /// ([`Trace::prefix`]). Either way the session also keeps the whole
    /// run's instance count and outputs.
    ///
    /// The supervisor's scope is the calling thread's, so the reference
    /// run stays outside it (no fault fires and no recovery is noted
    /// there), and a panic in it resumes on the caller once the failing
    /// run, which the closed feed releases, has returned.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if either program fails to compile, no
    /// reference was supplied, or (when no roots were given) the two
    /// versions are identical or structurally incompatible.
    pub fn build(self) -> Result<DebugSession, SessionError> {
        let faulty = compile(&self.faulty_src).map_err(SessionError::Faulty)?;
        let reference_src = self.reference_src.ok_or(SessionError::MissingReference)?;
        let reference = compile(&reference_src).map_err(SessionError::Reference)?;
        let roots = match self.roots {
            Some(roots) => roots,
            None => match try_seeded_roots(&reference, &faulty) {
                Ok(roots) if roots.is_empty() => return Err(SessionError::IdenticalPrograms),
                Ok(roots) => roots,
                Err(msg) => return Err(SessionError::StructuralMismatch(msg)),
            },
        };
        let analysis = ProgramAnalysis::build_with(&faulty, self.pd_mode);
        let reference_analysis = ProgramAnalysis::build(&reference);
        let config = RunConfig::with_inputs(self.failing_input);
        let sup = &self.supervisor;
        let feed = OutputFeed::new();
        let mut profile = ValueProfile::new();
        let mut warnings = Vec::new();
        let (run, cut, mut oracle) = std::thread::scope(|s| {
            let reference_run = s.spawn(|| {
                let roots = roots.clone();
                GroundTruthOracle::publishing(
                    &reference,
                    &reference_analysis,
                    &config,
                    roots,
                    &feed,
                )
            });
            let loaded = self.trace_file.as_ref().and_then(|path| {
                sup.load_trace(path)
                    .map_err(|e| {
                        note_recovery(RecoveryKind::RetraceFallback);
                        warnings.push(format!(
                            "cannot load trace from `{}` ({e}); re-tracing from source",
                            path.display()
                        ));
                    })
                    .ok()
            });
            // A recorded trace ends at `o×`; a loaded one is whole, and
            // its length through `o×` is where the session cuts it.
            let (run, cut) = match loaded {
                Some(trace) => {
                    let cut = feed.read_trace(&trace);
                    let run = FailingRun {
                        instances: trace.len(),
                        outputs: trace.output_values(),
                        trace,
                    };
                    (run, cut)
                }
                None => {
                    let run = sup.run(|| {
                        let fold = |stmt, value| profile.observe(stmt, value);
                        run_failing(&faulty, &analysis, &config, &feed, fold)
                    });
                    (run, None)
                }
            };
            let profile_span = omislice_obs::span("value-profile");
            profile.add_trace(&run.trace);
            for inputs in self.profile_inputs {
                let cfg = RunConfig {
                    inputs,
                    ..config.clone()
                };
                profile.add_run(&faulty, analysis.index(), &cfg);
            }
            drop(profile_span);
            let oracle = reference_run
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (run, cut, oracle)
        });
        if let Some(demand) = feed.demand() {
            oracle.keep(&demand);
        }
        let trace = match cut {
            Some(len) if len < run.trace.len() => run.trace.prefix(len),
            _ => run.trace,
        };
        Ok(DebugSession {
            faulty,
            analysis,
            config,
            trace,
            run_instances: run.instances,
            run_outputs: run.outputs,
            profile,
            oracle,
            roots,
            warnings,
        })
    }
}

/// A ready-to-run debugging session for one failing execution.
#[derive(Debug)]
pub struct DebugSession {
    faulty: Program,
    analysis: ProgramAnalysis,
    config: RunConfig,
    /// The failing trace through `o×`.
    trace: Trace,
    /// Statement instances the whole failing run executed.
    run_instances: usize,
    /// Every value the whole failing run printed.
    run_outputs: Vec<Value>,
    profile: ValueProfile,
    oracle: GroundTruthOracle,
    roots: Vec<StmtId>,
    warnings: Vec<String>,
}

impl DebugSession {
    /// Starts building a session for the given faulty program source.
    pub fn builder(faulty_src: &str) -> DebugSessionBuilder {
        DebugSessionBuilder {
            faulty_src: faulty_src.to_string(),
            ..DebugSessionBuilder::default()
        }
    }

    /// Runs Algorithm 2 on the failing trace. One counted deadline check
    /// comes first: a loaded or cached trace skips the supervised
    /// recording, and the deadline must hold on that path too.
    ///
    /// # Errors
    ///
    /// See [`locate_fault`].
    pub fn locate(&self, lc: &LocateConfig) -> Result<LocateOutcome, LocateError> {
        if let Some(deadline) = &lc.deadline {
            deadline.check();
        }
        locate_fault(
            &self.faulty,
            &self.analysis,
            &self.config,
            &self.trace,
            &self.profile,
            &self.oracle,
            lc,
        )
    }

    /// Renders the report every front end prints: the localization
    /// summary, the slice provenance when `explain` is set, and the
    /// seeded root statements.
    pub fn report(&self, outcome: &LocateOutcome, explain: bool) -> String {
        let mut out = render_report(outcome, &self.trace, &self.analysis);
        out.push('\n');
        if explain {
            out.push_str(&render_explain(outcome, &self.trace, &self.analysis));
            out.push('\n');
        }
        out.push_str("seeded root statement(s):\n");
        for r in &self.roots {
            if let Some(stmt) = self.faulty.stmt(*r) {
                let _ = writeln!(out, "  {r} {}", stmt_head(stmt));
            }
        }
        out
    }

    /// The compiled faulty program.
    pub fn program(&self) -> &Program {
        &self.faulty
    }

    /// The static analysis of the faulty program.
    pub fn analysis(&self) -> &ProgramAnalysis {
        &self.analysis
    }

    /// The failing execution's trace through its first wrong output
    /// `o×`: `o× + 1` events, the instances Algorithm 2 reads, numbered
    /// as in the whole run, with the outputs they printed and the whole
    /// run's termination. Nothing after `o×` can reach a report, so the
    /// run was not recorded past it (or, loaded from a file, is cut
    /// there). When no output is wrong, the whole run's trace. The whole
    /// run's size and outputs are [`DebugSession::run_instances`] and
    /// [`DebugSession::run_outputs`].
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Statement instances the whole failing run executed: its trace's
    /// length, had it been recorded to its end (the journal header's
    /// `trace_len`).
    pub fn run_instances(&self) -> usize {
        self.run_instances
    }

    /// Every value the whole failing run printed, in order.
    pub fn run_outputs(&self) -> &[Value] {
        &self.run_outputs
    }

    /// The event journal of one localization of this session
    /// ([`crate::build_journal`]), its header's `trace_len` the whole failing
    /// run's instance count.
    pub fn journal(
        &self,
        meta: &JournalMeta,
        lc: &LocateConfig,
        outcome: &LocateOutcome,
        recovery: Option<&RecoveryLog>,
        profile: Option<&ProfileSummary>,
        spans: Option<&Recording>,
    ) -> Vec<Json> {
        let run = JournalRun {
            trace: &self.trace,
            instances: self.run_instances,
        };
        journal_records(meta, lc, outcome, run, recovery, profile, spans)
    }

    /// The run configuration of the failing execution.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The value profile collected over the session's test inputs.
    pub fn profile(&self) -> &ValueProfile {
        &self.profile
    }

    /// The simulated-user oracle.
    pub fn oracle(&self) -> &GroundTruthOracle {
        &self.oracle
    }

    /// The seeded root-cause statements the oracle judges against.
    pub fn roots(&self) -> &[StmtId] {
        &self.roots
    }

    /// Degradations the build absorbed that a front end should surface
    /// (today: a `trace_file` that could not be loaded).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }
}

/// Finds the statements whose rendered text differs between two
/// id-compatible programs: the seeded root cause of a single-statement
/// fault.
///
/// # Panics
///
/// Panics if the programs do not have the same number of statements
/// (fault seeding must preserve statement structure).
pub fn seeded_roots(fixed: &Program, faulty: &Program) -> Vec<StmtId> {
    try_seeded_roots(fixed, faulty).expect("fault seeding must preserve statement ids")
}

/// Fallible form of [`seeded_roots`] for program pairs from untrusted
/// input (a `--fixed`/`--faulty` file pair, a served request body).
///
/// # Errors
///
/// Returns a description of the structural mismatch when the two programs
/// do not have the same number of statements.
pub fn try_seeded_roots(fixed: &Program, faulty: &Program) -> Result<Vec<StmtId>, String> {
    if fixed.stmt_count() != faulty.stmt_count() {
        return Err(format!(
            "fixed and faulty programs are structurally incompatible: \
             {} vs {} statements (fault seeding must preserve statement ids)",
            fixed.stmt_count(),
            faulty.stmt_count()
        ));
    }
    let mut heads_fixed = Vec::new();
    fixed.visit_stmts(&mut |s| heads_fixed.push((s.id, stmt_head(s))));
    let mut heads_faulty = Vec::new();
    faulty.visit_stmts(&mut |s| heads_faulty.push((s.id, stmt_head(s))));
    Ok(heads_fixed
        .iter()
        .zip(&heads_faulty)
        .filter(|((_, a), (_, b))| a != b)
        .map(|((id, _), _)| *id)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXED: &str = "global flags = 0;\
        fn main() { let save = input(); flags = 1;\
                    if save == 1 { flags = 2; } print(flags); }";
    const FAULTY: &str = "global flags = 0;\
        fn main() { let save = input() - 1; flags = 1;\
                    if save == 1 { flags = 2; } print(flags); }";

    #[test]
    fn builder_assembles_and_locates() {
        let session = DebugSession::builder(FAULTY)
            .reference(FIXED)
            .failing_input(vec![1])
            .profile_inputs([vec![0], vec![2], vec![5]])
            .root_cause_stmts([StmtId(0)])
            .build()
            .unwrap();
        let outcome = session.locate(&LocateConfig::default()).unwrap();
        assert!(outcome.found);
        let report = session.report(&outcome, false);
        assert!(report.contains("yes"));
        assert!(session.profile().run_count() >= 4);
        assert_eq!(session.config().inputs, vec![1]);
        assert!(!session.trace().is_empty());
        let _ = (session.program(), session.analysis(), session.oracle());
    }

    #[test]
    fn missing_reference_is_an_error() {
        let err = DebugSession::builder(FAULTY)
            .failing_input(vec![1])
            .build()
            .unwrap_err();
        assert!(matches!(err, SessionError::MissingReference));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn bad_programs_are_reported_with_provenance() {
        let err = DebugSession::builder("fn main( {")
            .reference(FIXED)
            .build()
            .unwrap_err();
        assert!(matches!(err, SessionError::Faulty(_)));
        let err = DebugSession::builder(FAULTY)
            .reference("nope")
            .build()
            .unwrap_err();
        assert!(matches!(err, SessionError::Reference(_)));
    }

    #[test]
    fn roots_are_derived_from_the_diff_and_rendered_last() {
        let session = DebugSession::builder(FAULTY)
            .reference(FIXED)
            .failing_input(vec![1])
            .build()
            .unwrap();
        assert_eq!(session.roots(), &[StmtId(0)]);
        let outcome = session.locate(&LocateConfig::default()).unwrap();
        let plain = session.report(&outcome, false);
        assert!(plain.starts_with(&render_report(
            &outcome,
            session.trace(),
            session.analysis()
        )));
        assert!(
            plain.ends_with("seeded root statement(s):\n  S0 let save = (input() - 1);\n"),
            "{plain}"
        );
        let explained = session.report(&outcome, true);
        assert!(explained.contains("=== slice provenance"), "{explained}");
        assert!(explained.ends_with("  S0 let save = (input() - 1);\n"));
    }

    #[test]
    fn identical_or_misaligned_versions_are_rejected() {
        let err = DebugSession::builder(FIXED)
            .reference(FIXED)
            .build()
            .unwrap_err();
        assert!(matches!(err, SessionError::IdenticalPrograms));
        let err = DebugSession::builder("fn main() { print(1); print(2); }")
            .reference("fn main() { print(1); }")
            .build()
            .unwrap_err();
        assert!(matches!(err, SessionError::StructuralMismatch(_)));
        assert!(err.to_string().contains("1 vs 2"), "{err}");
    }

    #[test]
    fn unreadable_trace_file_falls_back_to_recording() {
        let missing = std::env::temp_dir().join("omislice-session-test-missing.omitrace");
        let _ = omislice_trace::take_recovery();
        let session = DebugSession::builder(FAULTY)
            .reference(FIXED)
            .failing_input(vec![1])
            .trace_file(missing)
            .build()
            .unwrap();
        assert_eq!(session.warnings().len(), 1);
        assert!(session.warnings()[0].contains("re-tracing from source"));
        assert_eq!(
            omislice_trace::take_recovery().count(RecoveryKind::RetraceFallback),
            1
        );
        assert!(session.locate(&LocateConfig::default()).unwrap().found);
    }
}
