//! # omislice-corpus
//!
//! Benchmark programs with seeded **execution-omission faults** for the
//! omislice evaluation — the stand-in for the paper's Siemens-suite
//! subjects (flex, grep, gzip, sed from the SIR repository, Table 1).
//!
//! Each [`Benchmark`] is one mini-language program modeled on the
//! corresponding utility, plus a list of [`Fault`]s named after the
//! paper's error ids (e.g. `V2-F3`). A fault is a single-statement
//! mutation of the fixed source that preserves every statement id, so
//! the ground-truth oracle can align faulty and fixed runs positionally.
//!
//! Every fault in the corpus satisfies the defining property of an
//! execution omission error, which the crate's tests enforce:
//!
//! * the failing input produces a wrong output **value**;
//! * the classic dynamic slice of that wrong value does **not** contain
//!   the root cause (the mutation suppressed the execution of the code
//!   that would have connected them);
//! * the demand-driven locator recovers the root cause via implicit
//!   dependences.
//!
//! ```
//! use omislice_corpus::all_benchmarks;
//!
//! let benchmarks = all_benchmarks();
//! assert_eq!(benchmarks.len(), 4);
//! let gzip = benchmarks.iter().find(|b| b.name == "gzip").unwrap();
//! assert!(gzip.fault("V2-F3").is_some());
//! ```

mod programs;
pub mod workload;

pub use omislice::{seeded_roots, try_seeded_roots};
pub use programs::{all_benchmarks, excluded_benchmarks};
pub use workload::WorkloadGen;

use omislice::{DebugSession, DebugSessionBuilder, SessionError};
use omislice_lang::{compile, FrontendError, Program, StmtId};

/// Whether a fault mirrors one of the suite's real bugs or was seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Seeded by mutation (most of the suite).
    Seeded,
    /// Modeled on a real bug (the suite's sed errors).
    Real,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Seeded => "seeded",
            FaultKind::Real => "real",
        })
    }
}

/// One seeded fault: a single-statement mutation plus its exposing and
/// passing inputs.
#[derive(Debug, Clone)]
pub struct Fault {
    /// The paper's error id, e.g. `"V1-F9"`.
    pub id: &'static str,
    /// Seeded or modeled-on-real.
    pub kind: FaultKind,
    /// What the mutation breaks, in one sentence.
    pub description: &'static str,
    /// Exact statement text in the fixed source to replace (must occur
    /// exactly once).
    pub needle: &'static str,
    /// The faulty replacement text.
    pub replacement: &'static str,
    /// The input exposing the failure.
    pub failing_input: Vec<i64>,
    /// Inputs on which faulty and fixed agree (also the profiling suite).
    pub passing_inputs: Vec<Vec<i64>>,
}

impl Fault {
    /// Produces the faulty source from the benchmark's fixed source.
    ///
    /// # Panics
    ///
    /// Panics if the needle does not occur exactly once.
    pub fn apply(&self, fixed_src: &str) -> String {
        assert_eq!(
            fixed_src.matches(self.needle).count(),
            1,
            "fault {}: needle `{}` must occur exactly once",
            self.id,
            self.needle
        );
        fixed_src.replacen(self.needle, self.replacement, 1)
    }
}

/// One benchmark program and its faults.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short name matching the paper's Table 1 (`flex`, `grep`, ...).
    pub name: &'static str,
    /// What the program does.
    pub description: &'static str,
    /// The fault-free source.
    pub fixed_src: &'static str,
    /// The seeded faults.
    pub faults: Vec<Fault>,
}

impl Benchmark {
    /// Looks up a fault by its paper id.
    pub fn fault(&self, id: &str) -> Option<&Fault> {
        self.faults.iter().find(|f| f.id == id)
    }

    /// Non-blank, non-comment source lines (the Table 1 "LOC" metric).
    pub fn loc(&self) -> usize {
        self.fixed_src
            .lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("//")
            })
            .count()
    }

    /// Number of procedures (the Table 1 "# of procedures" metric).
    ///
    /// # Panics
    ///
    /// Panics if the fixed source does not compile (corpus invariant).
    pub fn procedures(&self) -> usize {
        compile(self.fixed_src)
            .expect("corpus programs compile")
            .functions()
            .count()
    }

    /// Compiles the fixed program and one fault's variant, returning the
    /// root-cause statement ids (the statements whose text differs).
    ///
    /// # Errors
    ///
    /// Returns the compile error of whichever version fails.
    pub fn prepare(&self, fault: &Fault) -> Result<PreparedFault, FrontendError> {
        let fixed = compile(self.fixed_src)?;
        let faulty_src = fault.apply(self.fixed_src);
        let faulty = compile(&faulty_src)?;
        let roots = seeded_roots(&fixed, &faulty);
        Ok(PreparedFault {
            fixed,
            faulty,
            faulty_src,
            roots,
        })
    }

    /// The [`DebugSession`] builder for one fault: the faulty variant
    /// against the fixed source on the fault's failing input, profiled on
    /// its passing inputs. The session derives the seeded root from the
    /// two versions' diff, as [`Benchmark::prepare`] does.
    pub fn session_builder(&self, fault: &Fault) -> DebugSessionBuilder {
        DebugSession::builder(&fault.apply(self.fixed_src))
            .reference(self.fixed_src)
            .failing_input(fault.failing_input.clone())
            .profile_inputs(fault.passing_inputs.iter().cloned())
    }

    /// Builds a ready [`DebugSession`] for one fault.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures as [`SessionError`].
    pub fn session(&self, fault: &Fault) -> Result<DebugSession, SessionError> {
        self.session_builder(fault).build()
    }
}

/// Compiled fixed/faulty pair with the seeded statement ids.
#[derive(Debug)]
pub struct PreparedFault {
    /// The fault-free program.
    pub fixed: Program,
    /// The faulty program.
    pub faulty: Program,
    /// The faulty source text.
    pub faulty_src: String,
    /// Statement ids whose text differs (the root cause).
    pub roots: Vec<StmtId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table1() {
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["flex", "grep", "gzip", "sed"]);
        let counts: Vec<usize> = all_benchmarks().iter().map(|b| b.faults.len()).collect();
        assert_eq!(counts, vec![5, 1, 1, 2], "fault counts match Table 2");
    }

    #[test]
    fn try_seeded_roots_reports_structural_mismatch() {
        let a = compile("fn main() { print(1); }").unwrap();
        let b = compile("fn main() { print(1); print(2); }").unwrap();
        let err = try_seeded_roots(&a, &b).unwrap_err();
        assert!(err.contains("structurally incompatible"), "{err}");
        assert!(err.contains("1 vs 2"), "{err}");
        assert_eq!(try_seeded_roots(&a, &a).unwrap(), Vec::<StmtId>::new());
    }

    #[test]
    fn all_sources_compile_and_have_metrics() {
        for b in all_benchmarks() {
            assert!(b.loc() > 30, "{} too small ({})", b.name, b.loc());
            assert!(b.procedures() >= 4, "{}", b.name);
        }
    }

    #[test]
    fn every_fault_prepares_with_single_root() {
        for b in all_benchmarks() {
            for f in &b.faults {
                let p = b
                    .prepare(f)
                    .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, f.id));
                assert_eq!(
                    p.roots.len(),
                    1,
                    "{} {}: expected a single-statement mutation",
                    b.name,
                    f.id
                );
            }
        }
    }

    #[test]
    fn fault_lookup_by_id() {
        let all = all_benchmarks();
        let flex = &all[0];
        assert!(flex.fault("V1-F9").is_some());
        assert!(flex.fault("V9-F9").is_none());
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn apply_rejects_missing_needle() {
        let f = Fault {
            id: "X",
            kind: FaultKind::Seeded,
            description: "",
            needle: "no such text",
            replacement: "whatever",
            failing_input: vec![],
            passing_inputs: vec![],
        };
        f.apply("fn main() { }");
    }

    #[test]
    fn make_is_present_but_excluded_like_the_paper() {
        use omislice::omislice_interp::{run_plain, RunConfig};
        let excluded = excluded_benchmarks();
        assert_eq!(excluded.len(), 1);
        let make = &excluded[0];
        assert_eq!(make.name, "make");
        assert!(make.loc() > 30 && make.procedures() >= 4);
        // The mutation exists, but no provided test exposes it: fixed and
        // mutated versions agree on every input in the suite.
        let fault = &make.faults[0];
        let prepared = make.prepare(fault).unwrap();
        for inputs in &fault.passing_inputs {
            let cfg = RunConfig::with_inputs(inputs.clone());
            let fixed = run_plain(&prepared.fixed, &cfg);
            let faulty = run_plain(&prepared.faulty, &cfg);
            assert!(fixed.is_normal() && faulty.is_normal());
            assert_eq!(fixed.outputs, faulty.outputs, "make: {inputs:?}");
        }
        assert!(
            fault.failing_input.is_empty(),
            "no exposing input exists, as the paper reports"
        );
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::Seeded.to_string(), "seeded");
        assert_eq!(FaultKind::Real.to_string(), "real");
    }
}
