//! # omislice-obs
//!
//! Structured observability for the omislice pipeline: one event
//! recorder (spans, scheduler tasks and markers, gauges, counters) with
//! its exporters, the locate event journal, and metrics.
//!
//! The crate is a **leaf** — it depends on nothing in the workspace, so
//! every layer (interpreter, slicers, aligner, locator, CLI, bench) can
//! instrument itself without dependency cycles. The semantic record
//! types (verdicts, run outcomes, edge kinds) are carried as strings
//! defined by the journal schema ([`journal::SCHEMA`]); the producing
//! crates own the conversion.
//!
//! Three design rules:
//!
//! 1. **Disabled means free.** The global [recorder](profile) is off by
//!    default; every instrumentation site guards on [`enabled`] (one
//!    relaxed atomic load). Hot paths — tracer event append, CSR fill,
//!    frontier claims — batch their counter updates so the enabled cost
//!    is one call per run or chunk, not per event. One [`drain`] yields
//!    one [`Recording`]; metrics, the journal's `spans` and `profile`
//!    records, the Chrome trace, and the flamegraph all derive from it.
//! 2. **Deterministic content.** Journals contain timing only in fields
//!    ending `_ns` (and the `spans` and `profile` records); everything
//!    else is byte-identical across `--jobs` values and resume modes,
//!    which [`journal::strip_timing`] makes checkable.
//! 3. **Machine output on stdout, human output on stderr.** The
//!    [`Reporter`] is the single stderr sink for `--stats` tables and
//!    warnings.

pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;

pub use journal::{
    strip_timing, to_jsonl, write_jsonl, Validator, EDGE_KINDS, OUTCOMES, RECORD_TYPES, SCHEMA,
    VERDICTS,
};
pub use json::{parse, Json};
pub use metrics::{Metric, MetricSet, KNOWN_COUNTERS};
pub use profile::{
    counter_add, counter_max, drain, enabled, gauge, reset, set_enabled, span, task,
    ProfileSummary, Recording, SpanAgg, SpanGuard,
};
pub use report::Reporter;
