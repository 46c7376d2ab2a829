//! Supervised pipeline runtime: deterministic chaos injection, recovery
//! accounting, cooperative deadlines, and the unified [`PipelineError`]
//! taxonomy.
//!
//! PR 2 gave the *interpreter* a fault-injection harness (`FaultPlan`);
//! this module extends the idea to every non-interpreter stage of the
//! pipeline. A [`ChaosPlan`] names a *site* (recorder builder thread,
//! SPSC channel, bounded queue, trace encode/decode, save I/O, mmap,
//! deadline clock), an occurrence index, and an *action*; the hooks at
//! each site consult the plan through [`chaos_hit`] and fire the fault
//! deterministically. Every injected fault is paired with a recovery
//! ladder (pipelined recorder → inline recorder, mmap → `fs::read`,
//! torn save → retry, corrupt load → retry → re-trace) whose steps are
//! counted in a [`RecoveryLog`] and surfaced as `recovery.*` counters.
//!
//! # Determinism
//!
//! Chaos state is **thread-local** and installed only around
//! pipeline-level supervised operations (the initial trace, save, load)
//! on the calling thread. The verifier's switched re-executions never
//! see an active plan, so verdicts, counters, and journals stay
//! byte-identical across `--jobs` and resume modes even while chaos is
//! firing upstream. Each plan entry fires exactly once; retries after a
//! recovery therefore run clean.
//!
//! # Zero-cost happy path
//!
//! With no plan installed, every hook is one thread-local read of a
//! `bool`-like option; deadline checks only happen at chunk/candidate
//! boundaries. Nothing on the per-event hot path changes.

use crate::format::TraceFileError;
use crate::outcome::RunOutcome;
use crate::recorder::RecorderError;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Chaos plans
// ---------------------------------------------------------------------

/// A pipeline stage where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// The recorder's builder thread (action: `panic`).
    Builder,
    /// The SPSC chunk channel (action: `disconnect`).
    Channel,
    /// The bounded chunk queue (action: `stall`).
    Queue,
    /// Trace encoding, before bytes hit the disk (action: `corrupt`).
    Encode,
    /// Trace decoding, after bytes leave the disk (action: `corrupt`).
    Decode,
    /// The save path (actions: `short-write`, `enospc`).
    Save,
    /// The mmap-backed load path (action: `fail`).
    Mmap,
    /// The cooperative deadline clock (action: `expire`).
    Deadline,
    /// A serve request handler, after parsing but before the pipeline
    /// runs (action: `panic`) — exercises the server's fault isolation.
    Handler,
}

const SITES: [(ChaosSite, &str); 9] = [
    (ChaosSite::Builder, "builder"),
    (ChaosSite::Channel, "channel"),
    (ChaosSite::Queue, "queue"),
    (ChaosSite::Encode, "encode"),
    (ChaosSite::Decode, "decode"),
    (ChaosSite::Save, "save"),
    (ChaosSite::Mmap, "mmap"),
    (ChaosSite::Deadline, "deadline"),
    (ChaosSite::Handler, "handler"),
];

impl ChaosSite {
    pub fn as_str(self) -> &'static str {
        SITES.iter().find(|(s, _)| *s == self).expect("listed").1
    }

    fn index(self) -> usize {
        SITES.iter().position(|(s, _)| *s == self).expect("listed")
    }
}

/// What happens when a chaos entry fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Panic the builder thread.
    Panic,
    /// Drop the builder's receiver mid-stream.
    Disconnect,
    /// Force the producer onto the blocking (queue-full) send path.
    Stall,
    /// Flip a byte in the encoded/decoded image.
    Corrupt,
    /// Persist only a prefix of the encoded trace.
    ShortWrite,
    /// Fail the write with a simulated out-of-space error.
    Enospc,
    /// Make the mmap attempt fail.
    Fail,
    /// Expire the deadline at this counted check.
    Expire,
}

const ACTIONS: [(ChaosAction, &str); 8] = [
    (ChaosAction::Panic, "panic"),
    (ChaosAction::Disconnect, "disconnect"),
    (ChaosAction::Stall, "stall"),
    (ChaosAction::Corrupt, "corrupt"),
    (ChaosAction::ShortWrite, "short-write"),
    (ChaosAction::Enospc, "enospc"),
    (ChaosAction::Fail, "fail"),
    (ChaosAction::Expire, "expire"),
];

impl ChaosAction {
    pub fn as_str(self) -> &'static str {
        ACTIONS.iter().find(|(a, _)| *a == self).expect("listed").1
    }
}

/// Which actions make sense at which site.
fn compatible(site: ChaosSite, action: ChaosAction) -> bool {
    use ChaosAction::*;
    use ChaosSite::*;
    matches!(
        (site, action),
        (Builder, Panic)
            | (Channel, Disconnect)
            | (Queue, Stall)
            | (Encode, Corrupt)
            | (Decode, Corrupt)
            | (Save, ShortWrite)
            | (Save, Enospc)
            | (Mmap, Fail)
            | (Deadline, Expire)
            | (Handler, Panic)
    )
}

/// One `<site>[:occ]=<action>` injection directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEntry {
    pub site: ChaosSite,
    /// Zero-based occurrence of the site at which to fire. For recorder
    /// sites occurrences count chunk rotations; elsewhere they count
    /// operations (saves, loads, deadline checks).
    pub occurrence: u32,
    pub action: ChaosAction,
}

/// A deterministic pipeline-wide fault plan: the `--chaos` flag.
///
/// Parsed from a comma-separated list of `<site>[:occ]=<action>`
/// directives, mirroring the interpreter-level
/// `FaultPlan` syntax (`S<id>[:occ]=<action>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    pub entries: Vec<ChaosEntry>,
}

impl ChaosPlan {
    /// Parses `--chaos builder=panic,save:1=enospc` style specs.
    pub fn parse(text: &str) -> Result<ChaosPlan, String> {
        let mut entries = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (lhs, action_text) = part.split_once('=').ok_or_else(|| {
                format!("bad chaos entry `{part}` (expected <site>[:occ]=<action>)")
            })?;
            let (site_text, occ) = match lhs.split_once(':') {
                Some((s, o)) => (
                    s,
                    o.parse::<u32>()
                        .map_err(|_| format!("bad occurrence in chaos entry `{part}`"))?,
                ),
                None => (lhs, 0),
            };
            let site = SITES
                .iter()
                .find(|(_, n)| *n == site_text.trim())
                .map(|(s, _)| *s)
                .ok_or_else(|| {
                    format!(
                        "unknown chaos site `{}` (expected one of: {})",
                        site_text.trim(),
                        SITES.map(|(_, n)| n).join(", ")
                    )
                })?;
            let action = ACTIONS
                .iter()
                .find(|(_, n)| *n == action_text.trim())
                .map(|(a, _)| *a)
                .ok_or_else(|| {
                    format!(
                        "unknown chaos action `{}` (expected one of: {})",
                        action_text.trim(),
                        ACTIONS.map(|(_, n)| n).join(", ")
                    )
                })?;
            if !compatible(site, action) {
                return Err(format!(
                    "chaos action `{}` does not apply to site `{}`",
                    action.as_str(),
                    site.as_str()
                ));
            }
            entries.push(ChaosEntry {
                site,
                occurrence: occ,
                action,
            });
        }
        if entries.is_empty() {
            return Err("empty chaos plan".to_string());
        }
        Ok(ChaosPlan { entries })
    }

    /// The forced-expiry check index, when the plan injects a deadline
    /// expiry.
    pub fn forced_deadline(&self) -> Option<u32> {
        self.entries
            .iter()
            .find(|e| e.site == ChaosSite::Deadline)
            .map(|e| e.occurrence)
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if e.occurrence == 0 {
                write!(f, "{}={}", e.site.as_str(), e.action.as_str())?;
            } else {
                write!(
                    f,
                    "{}:{}={}",
                    e.site.as_str(),
                    e.occurrence,
                    e.action.as_str()
                )?;
            }
        }
        Ok(())
    }
}

struct ActiveChaos {
    /// Plan entries, each paired with a fired flag: every entry injects
    /// exactly once so that post-recovery retries run clean.
    entries: Vec<(ChaosEntry, bool)>,
    /// Per-site occurrence counters.
    counts: [u32; SITES.len()],
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveChaos>> = const { RefCell::new(None) };
    static SCOPED_DEADLINE: RefCell<Option<Deadline>> = const { RefCell::new(None) };
}

/// Consults the active chaos plan at an injection site. Counts the
/// occurrence and returns the action to perform when an un-fired entry
/// matches. One thread-local read when no plan is installed.
pub fn chaos_hit(site: ChaosSite) -> Option<ChaosAction> {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let active = a.as_mut()?;
        let occ = active.counts[site.index()];
        active.counts[site.index()] = occ.saturating_add(1);
        for (entry, fired) in &mut active.entries {
            if !*fired && entry.site == site && entry.occurrence == occ {
                *fired = true;
                return Some(entry.action);
            }
        }
        None
    })
}

/// Installs a chaos plan (and optionally a deadline visible to the
/// recorder's chunk boundaries) on the current thread for the guard's
/// lifetime. The previous state is restored on drop, so scopes nest.
pub struct ChaosScope {
    prev: Option<ActiveChaos>,
    prev_deadline: Option<Deadline>,
}

impl ChaosScope {
    pub fn install(plan: Option<&ChaosPlan>, deadline: Option<&Deadline>) -> ChaosScope {
        let next = plan.map(|p| ActiveChaos {
            entries: p.entries.iter().map(|&e| (e, false)).collect(),
            counts: [0; SITES.len()],
        });
        let prev = ACTIVE.with(|a| a.replace(next));
        let prev_deadline = SCOPED_DEADLINE.with(|d| d.replace(deadline.cloned()));
        ChaosScope {
            prev,
            prev_deadline,
        }
    }
}

impl Drop for ChaosScope {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            *a.borrow_mut() = self.prev.take();
        });
        SCOPED_DEADLINE.with(|d| {
            *d.borrow_mut() = self.prev_deadline.take();
        });
    }
}

/// Counted deadline check for the recorder's chunk boundaries: true when
/// a deadline is in scope on this thread and has expired.
pub fn scoped_deadline_check() -> bool {
    SCOPED_DEADLINE.with(|d| match d.borrow().as_ref() {
        Some(deadline) => deadline.check(),
        None => false,
    })
}

// ---------------------------------------------------------------------
// Recovery accounting
// ---------------------------------------------------------------------

/// One rung of a degradation ladder that actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Pipelined recorder failed; the run was re-traced inline.
    InlineFallback,
    /// The chunk queue filled (or a stall was injected) and the producer
    /// blocked.
    QueueStall,
    /// A torn or failed save was retried.
    SaveRetry,
    /// A corrupt load was retried.
    LoadRetry,
    /// mmap failed (or was failed); the load fell back to `fs::read`.
    MmapFallback,
    /// A trace file could not be loaded at all; the pipeline re-traced
    /// from source.
    RetraceFallback,
    /// A cooperative deadline expired.
    DeadlineExpired,
}

const RECOVERY_KINDS: [(RecoveryKind, &str); 7] = [
    (RecoveryKind::InlineFallback, "recovery.inline_fallbacks"),
    (RecoveryKind::QueueStall, "recovery.queue_stalls"),
    (RecoveryKind::SaveRetry, "recovery.save_retries"),
    (RecoveryKind::LoadRetry, "recovery.load_retries"),
    (RecoveryKind::MmapFallback, "recovery.mmap_fallbacks"),
    (RecoveryKind::RetraceFallback, "recovery.retrace_fallbacks"),
    (
        RecoveryKind::DeadlineExpired,
        "recovery.deadline_expirations",
    ),
];

impl RecoveryKind {
    /// The `recovery.*` counter this rung increments.
    pub fn counter_name(self) -> &'static str {
        RECOVERY_KINDS
            .iter()
            .find(|(k, _)| *k == self)
            .expect("listed")
            .1
    }

    fn index(self) -> usize {
        RECOVERY_KINDS
            .iter()
            .position(|(k, _)| *k == self)
            .expect("listed")
    }
}

/// Ordered record of every recovery rung the pipeline climbed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    counts: [u64; RECOVERY_KINDS.len()],
    events: Vec<&'static str>,
}

impl RecoveryLog {
    pub fn note(&mut self, kind: RecoveryKind) {
        self.counts[kind.index()] += 1;
        self.events.push(kind.counter_name());
    }

    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Total recovery events of every kind.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn count(&self, kind: RecoveryKind) -> u64 {
        self.counts[kind.index()]
    }

    /// The non-zero `recovery.*` counters, in declaration order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        RECOVERY_KINDS
            .iter()
            .map(|&(k, name)| (name, self.counts[k.index()]))
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    /// The recovery events in the order they happened.
    pub fn events(&self) -> &[&'static str] {
        &self.events
    }

    pub fn absorb(&mut self, other: &RecoveryLog) {
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.events.extend_from_slice(&other.events);
    }
}

thread_local! {
    static RECOVERY: RefCell<RecoveryLog> = RefCell::new(RecoveryLog::default());
}

/// Records one recovery rung on the current thread's log and mirrors it
/// to the observability counter set when the recorder is on.
pub fn note_recovery(kind: RecoveryKind) {
    RECOVERY.with(|r| r.borrow_mut().note(kind));
    if omislice_obs::enabled() {
        omislice_obs::counter_add(kind.counter_name(), 1);
    }
}

/// Drains the current thread's recovery log.
pub fn take_recovery() -> RecoveryLog {
    RECOVERY.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

/// A cooperative wall-clock deadline with counted checks.
///
/// Checks happen only at serial pipeline boundaries (locate iteration
/// top, verification batch entry, per-candidate dispatch, recorder chunk
/// rotation), so cancellation never races the parallel workers: a
/// candidate is either dispatched or cancelled before any thread runs.
/// Expiry is sticky. `deadline[:K]=expire` chaos pins expiry to the
/// K-th counted check, making deadline behaviour fully deterministic in
/// tests; real wall-clock expiry is inherently best-effort.
#[derive(Debug, Clone)]
pub struct Deadline {
    start: Instant,
    limit: Option<Duration>,
    force_expire_at: Option<u32>,
    checks: Arc<AtomicU32>,
    expired: Arc<AtomicBool>,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Deadline {
        Deadline {
            start: Instant::now(),
            limit: Some(Duration::from_millis(ms)),
            force_expire_at: None,
            checks: Arc::new(AtomicU32::new(0)),
            expired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A deadline that never expires on its own (chaos can still force
    /// it).
    pub fn unlimited() -> Deadline {
        Deadline {
            start: Instant::now(),
            limit: None,
            force_expire_at: None,
            checks: Arc::new(AtomicU32::new(0)),
            expired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Forces expiry at the `at`-th counted check (zero-based).
    pub fn with_force_expire(mut self, at: u32) -> Deadline {
        self.force_expire_at = Some(at);
        self
    }

    /// One counted check: returns true once the deadline has expired.
    /// The first expiring check notes a
    /// [`RecoveryKind::DeadlineExpired`] event.
    pub fn check(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        let n = self.checks.fetch_add(1, Ordering::Relaxed);
        let hit = match self.force_expire_at {
            Some(k) => n >= k,
            None => false,
        } || match self.limit {
            Some(limit) => self.start.elapsed() >= limit,
            None => false,
        };
        if hit && !self.expired.swap(true, Ordering::Relaxed) {
            note_recovery(RecoveryKind::DeadlineExpired);
        }
        hit
    }

    /// Whether a previous check already expired (does not count a
    /// check).
    pub fn expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// The unified error taxonomy
// ---------------------------------------------------------------------

/// Everything that can go wrong anywhere in the supervised pipeline,
/// folded into one structured, journal-visible surface.
#[derive(Debug)]
pub enum PipelineError {
    /// A (switched) execution terminated abnormally.
    Run {
        stage: &'static str,
        outcome: RunOutcome,
    },
    /// A trace file could not be written or read back.
    TraceFile {
        stage: &'static str,
        error: TraceFileError,
    },
    /// The pipelined recorder lost its builder.
    Recorder {
        stage: &'static str,
        error: RecorderError,
    },
    /// A cooperative deadline expired before the stage finished.
    DeadlineExpired { stage: &'static str },
}

impl PipelineError {
    /// The pipeline stage that failed.
    pub fn stage(&self) -> &'static str {
        match self {
            PipelineError::Run { stage, .. }
            | PipelineError::TraceFile { stage, .. }
            | PipelineError::Recorder { stage, .. }
            | PipelineError::DeadlineExpired { stage } => stage,
        }
    }

    /// A stable machine-readable class for journals and metrics.
    pub fn code(&self) -> &'static str {
        match self {
            PipelineError::Run { .. } => "run",
            PipelineError::TraceFile { .. } => "trace-file",
            PipelineError::Recorder { .. } => "recorder",
            PipelineError::DeadlineExpired { .. } => "deadline-expired",
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Run { stage, outcome } => {
                write!(f, "{stage}: run terminated abnormally ({outcome})")
            }
            PipelineError::TraceFile { stage, error } => write!(f, "{stage}: {error}"),
            PipelineError::Recorder { stage, error } => write!(f, "{stage}: {error}"),
            PipelineError::DeadlineExpired { stage } => {
                write!(f, "{stage}: deadline expired")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

/// Per-stage supervision for pipeline-level operations: installs the
/// chaos plan and scoped deadline around the initial trace, and wraps
/// save/load with retry ladders.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    chaos: Option<ChaosPlan>,
    deadline: Option<Deadline>,
}

impl Supervisor {
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// Installs a chaos plan. A `deadline[:K]=expire` entry forces an
    /// (otherwise unlimited) deadline to expire at its K-th counted
    /// check.
    pub fn with_chaos(mut self, plan: Option<ChaosPlan>) -> Supervisor {
        if let Some(forced) = plan.as_ref().and_then(|p| p.forced_deadline()) {
            let base = self.deadline.take().unwrap_or_else(Deadline::unlimited);
            self.deadline = Some(base.with_force_expire(forced));
        }
        self.chaos = plan;
        self
    }

    /// Installs a wall-clock deadline of `ms` milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Supervisor {
        let forced = self.deadline.as_ref().and_then(|d| d.force_expire_at);
        let mut d = Deadline::after_ms(ms);
        d.force_expire_at = forced;
        self.deadline = Some(d);
        self
    }

    /// The shared deadline, for wiring into downstream configs. Clones
    /// share the check counter and sticky expiry flag.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline.clone()
    }

    /// Whether the shared deadline has already expired.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.as_ref().is_some_and(|d| d.expired())
    }

    /// Runs `f` with the chaos plan and scoped deadline installed on
    /// the current thread. Use for the supervised initial trace.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let _scope = ChaosScope::install(self.chaos.as_ref(), self.deadline.as_ref());
        f()
    }

    /// Atomic, verified, supervised save: one transparent retry on a
    /// torn or failed write (noted as [`RecoveryKind::SaveRetry`]).
    pub fn save_trace(
        &self,
        trace: &crate::trace::Trace,
        path: &std::path::Path,
    ) -> Result<(), PipelineError> {
        self.run(|| {
            if let Err(first) = crate::format::save_trace(trace, path) {
                note_recovery(RecoveryKind::SaveRetry);
                let _ = first;
                crate::format::save_trace(trace, path).map_err(|error| PipelineError::TraceFile {
                    stage: "save",
                    error,
                })
            } else {
                Ok(())
            }
        })
    }

    /// Supervised load: one transparent retry on decode-level failures
    /// (noted as [`RecoveryKind::LoadRetry`]); I/O errors (missing
    /// file) fail immediately. Callers can climb the next rung of the
    /// ladder — re-tracing from source — on error.
    pub fn load_trace(&self, path: &std::path::Path) -> Result<crate::trace::Trace, PipelineError> {
        self.run(|| match crate::format::load_trace(path) {
            Ok(t) => Ok(t),
            Err(TraceFileError::Io(e)) => Err(PipelineError::TraceFile {
                stage: "load",
                error: TraceFileError::Io(e),
            }),
            Err(_) => {
                note_recovery(RecoveryKind::LoadRetry);
                crate::format::load_trace(path).map_err(|error| PipelineError::TraceFile {
                    stage: "load",
                    error,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse_and_render() {
        let plan = ChaosPlan::parse("builder=panic, save:1=enospc,decode=corrupt").unwrap();
        assert_eq!(plan.entries.len(), 3);
        assert_eq!(
            plan.to_string(),
            "builder=panic,save:1=enospc,decode=corrupt"
        );
        assert_eq!(plan.entries[1].occurrence, 1);
        assert_eq!(plan.entries[1].action, ChaosAction::Enospc);
    }

    #[test]
    fn bad_plans_are_rejected() {
        assert!(ChaosPlan::parse("").is_err());
        assert!(ChaosPlan::parse("builder").is_err());
        assert!(ChaosPlan::parse("nowhere=panic").is_err());
        assert!(ChaosPlan::parse("builder=explode").is_err());
        assert!(ChaosPlan::parse("builder:x=panic").is_err());
        // Incompatible site/action pairs are caught at parse time.
        assert!(ChaosPlan::parse("builder=corrupt").is_err());
        assert!(ChaosPlan::parse("save=panic").is_err());
    }

    #[test]
    fn handler_site_parses_and_fires() {
        let plan = ChaosPlan::parse("handler=panic").unwrap();
        assert!(ChaosPlan::parse("handler=corrupt").is_err());
        let _scope = ChaosScope::install(Some(&plan), None);
        assert_eq!(chaos_hit(ChaosSite::Handler), Some(ChaosAction::Panic));
        assert_eq!(chaos_hit(ChaosSite::Handler), None); // fired already
    }

    #[test]
    fn entries_fire_once_at_their_occurrence() {
        let plan = ChaosPlan::parse("queue:2=stall").unwrap();
        let _scope = ChaosScope::install(Some(&plan), None);
        assert_eq!(chaos_hit(ChaosSite::Queue), None); // occ 0
        assert_eq!(chaos_hit(ChaosSite::Builder), None); // other site
        assert_eq!(chaos_hit(ChaosSite::Queue), None); // occ 1
        assert_eq!(chaos_hit(ChaosSite::Queue), Some(ChaosAction::Stall)); // occ 2
        assert_eq!(chaos_hit(ChaosSite::Queue), None); // fired already
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(chaos_hit(ChaosSite::Save), None);
        let outer = ChaosPlan::parse("save=enospc").unwrap();
        let _o = ChaosScope::install(Some(&outer), None);
        {
            let inner = ChaosPlan::parse("mmap=fail").unwrap();
            let _i = ChaosScope::install(Some(&inner), None);
            assert_eq!(chaos_hit(ChaosSite::Save), None);
            assert_eq!(chaos_hit(ChaosSite::Mmap), Some(ChaosAction::Fail));
        }
        // Outer plan restored, its counts untouched by the inner scope.
        assert_eq!(chaos_hit(ChaosSite::Save), Some(ChaosAction::Enospc));
    }

    #[test]
    fn recovery_log_counts_and_orders_events() {
        let _ = take_recovery();
        note_recovery(RecoveryKind::MmapFallback);
        note_recovery(RecoveryKind::SaveRetry);
        note_recovery(RecoveryKind::MmapFallback);
        let log = take_recovery();
        assert_eq!(log.total(), 3);
        assert_eq!(log.count(RecoveryKind::MmapFallback), 2);
        assert_eq!(
            log.counters(),
            vec![("recovery.save_retries", 1), ("recovery.mmap_fallbacks", 2)]
        );
        assert_eq!(
            log.events(),
            [
                "recovery.mmap_fallbacks",
                "recovery.save_retries",
                "recovery.mmap_fallbacks"
            ]
        );
        assert!(take_recovery().is_empty());
    }

    #[test]
    fn forced_deadline_expires_at_counted_check() {
        let _ = take_recovery();
        let d = Deadline::unlimited().with_force_expire(2);
        assert!(!d.check()); // check 0
        assert!(!d.check()); // check 1
        assert!(!d.expired());
        assert!(d.check()); // check 2 expires
        assert!(d.expired());
        assert!(d.check()); // sticky
        let log = take_recovery();
        assert_eq!(log.count(RecoveryKind::DeadlineExpired), 1);
    }

    #[test]
    fn deadline_clones_share_expiry() {
        let d = Deadline::unlimited().with_force_expire(0);
        let clone = d.clone();
        assert!(clone.check());
        assert!(d.expired());
        let _ = take_recovery();
    }

    #[test]
    fn wall_clock_deadline_expires() {
        let d = Deadline::after_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.check());
        let _ = take_recovery();
    }

    #[test]
    fn pipeline_error_surface() {
        let e = PipelineError::Run {
            stage: "initial-trace",
            outcome: RunOutcome::BudgetExhausted,
        };
        assert_eq!(e.stage(), "initial-trace");
        assert_eq!(e.code(), "run");
        assert!(e.to_string().contains("initial-trace"));
        let e = PipelineError::DeadlineExpired { stage: "locate" };
        assert_eq!(e.code(), "deadline-expired");
    }
}
