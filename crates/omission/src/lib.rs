//! # omislice
//!
//! A full reproduction of *"Towards Locating Execution Omission Errors"*
//! (Zhang, Tallam, Gupta, Gupta — PLDI 2007) as a Rust library.
//!
//! **Execution omission errors** cause failures through statements that
//! were *not* executed: a corrupted value makes a branch go the wrong
//! way, a definition is skipped, and a stale value reaches the output.
//! Classic dynamic slicing cannot reach the root cause (no dynamic
//! dependence connects skipped code to the failure), and relevant slicing
//! over static *potential* dependences drowns it in false positives.
//!
//! This crate implements the paper's fully dynamic alternative:
//!
//! * **Implicit dependences** (Definition 2) are *verified*, not assumed:
//!   re-execute with one predicate instance switched
//!   ([`omislice_interp::SwitchSpec`]), align the two runs region-by-region
//!   (Algorithm 1, [`omislice_align::Aligner`]), and observe whether the
//!   use was affected — [`Verifier`] / [`Verdict`].
//! * **Strong implicit dependences** (Definition 4): the switch also
//!   produces the expected value at the failure point.
//! * **Demand-driven localization** (Algorithm 2, [`locate_fault`]):
//!   start from the confidence-pruned dynamic slice, verify potential
//!   dependences of the most suspicious use, add only verified edges,
//!   re-prune, repeat — keeping both the number of re-executions and the
//!   fault candidate set small.
//!
//! The supporting layers live in sibling crates re-exported here:
//! [`omislice_lang`] (the analyzed language), [`omislice_analysis`]
//! (CFGs, control dependence, potential dependence), [`omislice_interp`]
//! (the tracing interpreter), [`omislice_trace`] (traces and region
//! trees), [`omislice_slicing`] (DS/RS/confidence/pruning), and
//! [`omislice_align`] (execution alignment).
//!
//! ## Quickstart
//!
//! ```
//! use omislice::prelude::*;
//!
//! // The paper's Figure 1 shape: the root cause corrupts `save`, so the
//! // guard is skipped and `flags` reaches the output stale.
//! let fixed = "global flags = 0;\
//!     fn main() { let save = input(); flags = 1;\
//!                 if save == 1 { flags = 2; } print(flags); }";
//! let faulty = "global flags = 0;\
//!     fn main() { let save = input() - 1; flags = 1;\
//!                 if save == 1 { flags = 2; } print(flags); }";
//!
//! let session = DebugSession::builder(faulty)
//!     .reference(fixed)
//!     .failing_input(vec![1])
//!     .root_cause_stmts([StmtId(0)])
//!     .build()?;
//! let outcome = session.locate(&LocateConfig::default())?;
//! assert!(outcome.found);
//! assert!(outcome.ips.contains_stmt(StmtId(0)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod journal;
pub mod locate;
pub mod memo;
pub mod oracle;
pub mod perturb;
pub mod report;
pub mod session;
pub mod switching;
pub mod verify;

pub use journal::{build_journal, JournalMeta};
pub use locate::{
    default_jobs, locate_fault, ChainEdge, ChainEdgeKind, EdgeRecord, IterationRecord,
    LocateConfig, LocateError, LocateOutcome, ProvenanceEntry, RequestPhase, RequestRecord,
    MAX_JOBS,
};
pub use memo::{MemoSnapshot, VerifyMemo, DEFAULT_MEMO_CAPACITY};
pub use oracle::{GroundTruthOracle, OutputClassification, UserOracle};
pub use perturb::{perturbation_candidates, verify_by_perturbation, Perturbation};
pub use report::{describe_inst, render_explain, render_report, render_slice};
pub use session::{
    seeded_roots, try_seeded_roots, DebugSession, DebugSessionBuilder, SessionError,
};
pub use switching::{find_critical_predicate, CriticalPredicate, SearchOrder};
pub use verify::{
    Verdict, Verification, Verifier, VerifierMode, VerifyRequest, DEFAULT_CAPTURE_THRESHOLD,
};

// Re-export the whole stack so downstream users depend on one crate.
pub use omislice_align;
pub use omislice_analysis;
pub use omislice_interp;
pub use omislice_lang;
pub use omislice_slicing;
pub use omislice_trace;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::locate::{locate_fault, LocateConfig, LocateOutcome};
    pub use crate::oracle::{GroundTruthOracle, UserOracle};
    pub use crate::report::render_report;
    pub use crate::session::DebugSession;
    pub use crate::verify::{Verdict, Verifier, VerifierMode};
    pub use omislice_align::Aligner;
    pub use omislice_analysis::ProgramAnalysis;
    pub use omislice_interp::{run_plain, run_traced, RunConfig, SwitchSpec};
    pub use omislice_lang::{compile, parse_program, Program, StmtId};
    pub use omislice_slicing::{relevant_slice, DepGraph, Slice, ValueProfile};
    pub use omislice_trace::{InstId, RegionTree, Termination, Trace, Value};
}
