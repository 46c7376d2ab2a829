//! # omislice-trace
//!
//! Execution traces for the omislice system: statement instances with
//! timestamps and values, dynamic data/control dependence edges (the
//! dynamic dependence graph the paper builds with Valgrind), observable
//! outputs, and the *region trees* of Definition 3 that the execution
//! alignment algorithm navigates.
//!
//! Traces are produced by [`omislice-interp`](../omislice_interp) and
//! consumed by the slicing, alignment, and fault-locating crates.
//!
//! ```
//! use omislice_trace::{Event, InstId, RegionTree, Termination, Trace};
//! use omislice_lang::StmtId;
//!
//! let mut guard = Event::new(StmtId(0));
//! guard.branch = Some(true);
//! let mut body = Event::new(StmtId(1));
//! body.region_parent = Some(InstId(0));
//! body.cd_parent = Some(InstId(0));
//! let trace = Trace::from_parts(vec![guard, body], vec![], Termination::Normal);
//! let regions = RegionTree::build(&trace);
//! assert!(regions.in_region(InstId(0), InstId(1)));
//! ```

pub mod columnar;
pub mod dot;
pub mod event;
pub mod format;
pub mod index;
mod mmap;
pub mod outcome;
pub mod recorder;
pub mod region;
pub mod stats;
pub mod supervisor;
#[allow(clippy::module_inception)]
pub mod trace;
pub mod value;

pub use columnar::{ColumnarTrace, RawEvent};
pub use dot::{ddg_to_dot, regions_to_dot};
pub use event::{Event, EventRef, InstId, OutputRecord};
pub use format::{decode_trace, encode_trace, load_trace, save_trace, TraceFileError};
pub use index::TraceIndex;
pub use outcome::{CrashKind, RunOutcome};
pub use recorder::Recorder;
pub use region::RegionTree;
pub use stats::{TraceStats, VerificationStats};
pub use supervisor::{
    note_recovery, take_recovery, Deadline, FaultAction, FaultEntry, FaultPlan, FaultSite,
    PipelineError, RecoveryKind, RecoveryLog, Supervisor,
};
pub use trace::{Termination, Trace};
pub use value::Value;
