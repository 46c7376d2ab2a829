//! # omislice-slicing
//!
//! The slicing layer of the omislice system:
//!
//! * [`DepGraph`] / [`Slice`] — the dynamic dependence graph (augmentable
//!   with verified implicit edges) and classic backward dynamic slicing
//!   (the paper's **DS**);
//! * [`relevant_slice`] — relevant slicing over potential dependences
//!   (Definition 1), the conservative baseline (**RS**);
//! * [`ValueProfile`] — per-statement value ranges from the test suite;
//! * [`confidence`] — the PLDI 2006 confidence analysis;
//! * [`prune_slice`] — pruning + ranking (**PS**), and [`prune_round`] —
//!   the `PruneSlicing()` round of Algorithm 2 (one pass, then the user's
//!   benign judgements, each extending certainty in place).
//!
//! ```
//! use omislice_analysis::ProgramAnalysis;
//! use omislice_interp::{run_traced, RunConfig};
//! use omislice_lang::{compile, StmtId};
//! use omislice_slicing::{relevant_slice, DepGraph};
//!
//! // The motivating shape: a skipped definition leaves a stale value.
//! let program = compile(
//!     "global x = 0;\
//!      fn main() { let c = input(); if c > 0 { x = 1; } print(x); }",
//! )?;
//! let analysis = ProgramAnalysis::build(&program);
//! let run = run_traced(&program, &analysis, &RunConfig::with_inputs(vec![-1]));
//! let wrong = run.trace.outputs()[0].inst;
//!
//! let ds = DepGraph::new(&run.trace).backward_slice(wrong);
//! assert!(!ds.contains_stmt(StmtId(1)), "dynamic slice misses the guard");
//! let rs = relevant_slice(&run.trace, &analysis, wrong);
//! assert!(rs.contains_stmt(StmtId(1)), "relevant slice captures it");
//! # Ok::<(), omislice_lang::FrontendError>(())
//! ```

pub mod confidence;
pub mod graph;
pub mod profile;
pub mod prune;
pub mod relevant;
pub mod union_graph;

pub use confidence::{
    analyze as analyze_confidence, partial_confidence, Confidence, ConfidenceParams,
};
pub use graph::{DepGraph, ExtraEdges, Slice};
pub use profile::ValueProfile;
pub use prune::{prune_round, prune_slice, Feedback, PrunedSlice, RankedInst};
pub use relevant::{
    is_potential_dep, potential_dep_instances, potential_deps_by_var, potential_deps_by_var_naive,
    relevant_slice, relevant_slice_naive, relevant_slice_on,
};
pub use union_graph::{union_pd, UnionGraph};
