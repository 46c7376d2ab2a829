//! Supervised pipeline runtime: the deterministic fault plan, recovery
//! accounting, cooperative deadlines, and the unified [`PipelineError`]
//! taxonomy.
//!
//! # The fault plan
//!
//! A [`FaultPlan`] is the one fault-injection language of the system:
//! a comma-separated list of `<site>[:occ]=<action>` entries. A site is
//! either `S<id>` — an instance of that statement in the verifier's
//! switched re-executions — or a pipeline stage (recorder builder
//! thread, SPSC channel, bounded queue, trace encode/decode, save I/O,
//! mmap, deadline clock, serve handler). Entries that could never fire
//! are rejected at parse time.
//!
//! The statement entry travels to the interpreters as a small `Copy`
//! [`FaultEntry`] in `RunConfig::fault` (via [`Supervisor::stmt_fault`]);
//! the pipeline entries fire at hooks that consult the plan through
//! [`fault_hit`]. Every pipeline fault is paired with a recovery ladder
//! (pipelined recorder → inline recorder, mmap → `fs::read`, torn save
//! → retry, corrupt load → retry → re-trace) whose steps are counted in
//! a [`RecoveryLog`] and surfaced as `recovery.*` counters.
//!
//! # Determinism
//!
//! Pipeline fault state is **thread-local** and installed only around
//! pipeline-level supervised operations (the initial trace, save, load)
//! on the calling thread. The verifier's switched re-executions never
//! see the pipeline entries, so verdicts, counters, and journals stay
//! byte-identical across `--jobs` and resume modes even while faults
//! fire upstream. Each pipeline entry fires exactly once per scope;
//! retries after a recovery therefore run clean.
//!
//! # Zero-cost happy path
//!
//! With no plan installed, every hook is one thread-local read of a
//! `bool`-like option; deadline checks only happen at chunk/candidate
//! boundaries. Nothing on the per-event hot path changes.

use crate::format::TraceFileError;
use crate::outcome::{CrashKind, RunOutcome};
use crate::recorder::RecorderError;
use omislice_lang::StmtId;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

/// Where a fault-plan entry fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `S<id>`: the statement's instances in the verifier's switched
    /// re-executions (never the original run).
    Stmt(StmtId),
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

/// The pipeline sites by name; statement sites are spelled `S<id>`.
const SITES: [(FaultSite, &str); 9] = [
    (FaultSite::Builder, "builder"),
    (FaultSite::Channel, "channel"),
    (FaultSite::Queue, "queue"),
    (FaultSite::Encode, "encode"),
    (FaultSite::Decode, "decode"),
    (FaultSite::Save, "save"),
    (FaultSite::Mmap, "mmap"),
    (FaultSite::Deadline, "deadline"),
    (FaultSite::Handler, "handler"),
];

impl FaultSite {
    /// The site's position in [`SITES`]; `None` for statement sites,
    /// which fire in the interpreters rather than at pipeline hooks.
    fn index(self) -> Option<usize> {
        SITES.iter().position(|(s, _)| *s == self)
    }
}

/// What happens when a fault-plan entry fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Stop the switched run with a structured runtime error of this
    /// class.
    Crash(CrashKind),
    /// Stop the switched run as if the step budget had just expired.
    ExhaustBudget,
    /// Raise a host-level panic: in the interpreter at `S<id>` (caught
    /// by the verifier's `catch_unwind`), on the recorder's builder
    /// thread at `builder`, in the request handler at `handler`.
    Panic,
    /// Raise a panic in the verifier harness itself, just before the
    /// switched run whose switch matches the entry's statement and
    /// occurrence (exercises per-candidate isolation of the harness, not
    /// just the interpreter). Never fires inside an interpreter.
    PanicHarness,
    /// Emit a deliberately inconsistent checkpoint when one is captured
    /// at the entry's statement instance (exercises checkpoint validation
    /// and the scratch fallback). Never perturbs the run itself.
    CorruptCheckpoint,
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

/// Every action by its plan spelling. The crash spellings are the
/// plan's own (`oob`, `div-zero`, …), not [`CrashKind::as_str`].
const ACTIONS: [(FaultAction, &str); 17] = [
    (FaultAction::Crash(CrashKind::OobIndex), "oob"),
    (
        FaultAction::Crash(CrashKind::MissingCallee),
        "missing-callee",
    ),
    (FaultAction::Crash(CrashKind::DivByZero), "div-zero"),
    (FaultAction::Crash(CrashKind::TypeError), "type"),
    (
        FaultAction::Crash(CrashKind::StackOverflow),
        "stack-overflow",
    ),
    (FaultAction::Crash(CrashKind::UninitRead), "uninit"),
    (FaultAction::ExhaustBudget, "budget"),
    (FaultAction::Panic, "panic"),
    (FaultAction::PanicHarness, "panic-harness"),
    (FaultAction::CorruptCheckpoint, "corrupt-checkpoint"),
    (FaultAction::Disconnect, "disconnect"),
    (FaultAction::Stall, "stall"),
    (FaultAction::Corrupt, "corrupt"),
    (FaultAction::ShortWrite, "short-write"),
    (FaultAction::Enospc, "enospc"),
    (FaultAction::Fail, "fail"),
    (FaultAction::Expire, "expire"),
];

/// Which actions make sense at which site.
fn compatible(site: FaultSite, action: FaultAction) -> bool {
    use FaultAction::*;
    use FaultSite::*;
    matches!(
        (site, action),
        (
            Stmt(_),
            Crash(_) | ExhaustBudget | Panic | PanicHarness | CorruptCheckpoint
        ) | (Builder, Panic)
            | (Channel, Disconnect)
            | (Queue, Stall)
            | (Encode, Corrupt)
            | (Decode, Corrupt)
            | (Save, ShortWrite | Enospc)
            | (Mmap, Fail)
            | (Deadline, Expire)
            | (Handler, Panic)
    )
}

/// One `<site>[:occ]=<action>` entry. A statement entry is the small
/// `Copy` value the interpreters check at every statement instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEntry {
    pub site: FaultSite,
    /// Zero-based occurrence of the site at which to fire: instances of
    /// the statement for `S<id>`, chunk rotations for the recorder
    /// sites, operations (saves, loads, deadline checks) elsewhere.
    pub occurrence: u32,
    pub action: FaultAction,
}

impl FaultEntry {
    /// A statement entry: `action` at the `occurrence`-th instance of
    /// `stmt` in a switched run.
    pub fn at_stmt(stmt: StmtId, occurrence: u32, action: FaultAction) -> FaultEntry {
        FaultEntry {
            site: FaultSite::Stmt(stmt),
            occurrence,
            action,
        }
    }
}

/// A deterministic fault plan: the `--fault-plan` flag and the served
/// `fault_plan` field.
///
/// Every entry can fire: the parser rejects a repeated (site,
/// occurrence) pair, a second `deadline` entry, and a second statement
/// entry (a switched run carries one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// Parses `S4:2=panic,builder=panic,save:1=enospc` style plans.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut entries: Vec<FaultEntry> = Vec::new();
        let mut parts: Vec<&str> = Vec::new();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (lhs, action_text) = part.split_once('=').ok_or_else(|| {
                format!("bad fault plan entry `{part}` (expected <site>[:occ]=<action>)")
            })?;
            let (site_text, occurrence) = match lhs.split_once(':') {
                Some((s, o)) => (
                    s.trim(),
                    o.trim()
                        .parse::<u32>()
                        .map_err(|_| format!("bad occurrence in fault plan entry `{part}`"))?,
                ),
                None => (lhs.trim(), 0),
            };
            let site = parse_site(site_text)?;
            let action_text = action_text.trim();
            let action = ACTIONS
                .iter()
                .find(|(_, n)| *n == action_text)
                .map(|(a, _)| *a)
                .ok_or_else(|| {
                    format!(
                        "unknown fault action `{action_text}` (expected one of: {})",
                        ACTIONS.map(|(_, n)| n).join(", ")
                    )
                })?;
            if !compatible(site, action) {
                return Err(format!(
                    "fault action `{action_text}` does not apply to site `{site_text}`"
                ));
            }
            let entry = FaultEntry {
                site,
                occurrence,
                action,
            };
            let clash = entries
                .iter()
                .zip(&parts)
                .find_map(|(e, first)| Some((first, never_both(e, &entry)?)));
            if let Some((first, why)) = clash {
                return Err(format!(
                    "fault plan entry `{part}` can never fire next to `{first}`: {why}"
                ));
            }
            entries.push(entry);
            parts.push(part);
        }
        if entries.is_empty() {
            return Err("empty fault plan".to_string());
        }
        Ok(FaultPlan { entries })
    }

    /// The statement entry, which the verifier's switched runs carry.
    pub fn stmt_entry(&self) -> Option<FaultEntry> {
        self.entries
            .iter()
            .copied()
            .find(|e| matches!(e.site, FaultSite::Stmt(_)))
    }

    /// The forced-expiry check index, when the plan injects a deadline
    /// expiry.
    fn forced_deadline(&self) -> Option<u32> {
        self.entries
            .iter()
            .find(|e| e.site == FaultSite::Deadline)
            .map(|e| e.occurrence)
    }
}

/// Why two entries cannot share a plan, if they cannot: the later one
/// would never fire.
fn never_both(first: &FaultEntry, later: &FaultEntry) -> Option<&'static str> {
    match (first.site, later.site) {
        (FaultSite::Stmt(_), FaultSite::Stmt(_)) => {
            Some("a switched run carries one statement entry")
        }
        (FaultSite::Deadline, FaultSite::Deadline) => Some("the deadline expires once"),
        (a, b) if a == b && first.occurrence == later.occurrence => {
            Some("one entry fires per site and occurrence")
        }
        _ => None,
    }
}

/// A site's spelling: `S<id>` exactly, or a pipeline site's name.
fn parse_site(text: &str) -> Result<FaultSite, String> {
    if let Some(digits) = text.strip_prefix('S') {
        return match digits.parse::<u32>() {
            Ok(id) if digits.bytes().all(|b| b.is_ascii_digit()) => Ok(FaultSite::Stmt(StmtId(id))),
            _ => Err(format!(
                "bad statement site `{text}` in fault plan (expected S<id>)"
            )),
        };
    }
    SITES
        .iter()
        .find(|(_, n)| *n == text)
        .map(|(s, _)| *s)
        .ok_or_else(|| {
            format!(
                "unknown fault site `{text}` (expected S<id> or one of: {})",
                SITES.map(|(_, n)| n).join(", ")
            )
        })
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match e.site {
                FaultSite::Stmt(id) => write!(f, "{id}")?,
                site => f.write_str(SITES[site.index().expect("listed")].1)?,
            }
            if e.occurrence != 0 {
                write!(f, ":{}", e.occurrence)?;
            }
            let (_, action) = ACTIONS
                .iter()
                .find(|(a, _)| *a == e.action)
                .expect("listed");
            write!(f, "={action}")?;
        }
        Ok(())
    }
}

struct ActiveFaults {
    /// The plan's pipeline entries, each paired with a fired flag: every
    /// entry injects exactly once so that post-recovery retries run
    /// clean.
    entries: Vec<(FaultEntry, bool)>,
    /// Per-site occurrence counters.
    counts: [u32; SITES.len()],
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveFaults>> = const { RefCell::new(None) };
    static SCOPED_DEADLINE: RefCell<Option<Deadline>> = const { RefCell::new(None) };
}

/// Consults the active fault plan at a pipeline injection site. Counts
/// the occurrence and returns the action to perform when an un-fired
/// entry matches. One thread-local read when no plan is installed;
/// statement sites never match here.
pub fn fault_hit(site: FaultSite) -> Option<FaultAction> {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let active = a.as_mut()?;
        let i = site.index()?;
        let occ = active.counts[i];
        active.counts[i] = occ.saturating_add(1);
        for (entry, fired) in &mut active.entries {
            if !*fired && entry.site == site && entry.occurrence == occ {
                *fired = true;
                return Some(entry.action);
            }
        }
        None
    })
}

/// Installs a plan's pipeline entries (and optionally a deadline visible
/// to the recorder's chunk boundaries) on the current thread for the
/// guard's lifetime. The previous state is restored on drop, so scopes
/// nest.
pub struct FaultScope {
    prev: Option<ActiveFaults>,
    prev_deadline: Option<Deadline>,
}

impl FaultScope {
    pub fn install(plan: Option<&FaultPlan>, deadline: Option<&Deadline>) -> FaultScope {
        let entries: Vec<(FaultEntry, bool)> = plan
            .iter()
            .flat_map(|p| &p.entries)
            .filter(|e| e.site.index().is_some())
            .map(|&e| (e, false))
            .collect();
        let next = (!entries.is_empty()).then_some(ActiveFaults {
            entries,
            counts: [0; SITES.len()],
        });
        let prev = ACTIVE.with(|a| a.replace(next));
        let prev_deadline = SCOPED_DEADLINE.with(|d| d.replace(deadline.cloned()));
        FaultScope {
            prev,
            prev_deadline,
        }
    }
}

impl Drop for FaultScope {
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

/// Appends `log` — drained with [`take_recovery`] on a helper thread
/// that worked for this one — to the current thread's log. (Its
/// `recovery.*` counters already reached the recorder when noted.)
pub fn absorb_recovery(log: &RecoveryLog) {
    RECOVERY.with(|r| r.borrow_mut().absorb(log));
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
/// Expiry is sticky. A `deadline[:K]=expire` fault pins expiry to the
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

    /// A deadline that never expires on its own (a fault plan can still
    /// force it).
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
/// fault plan's pipeline entries and the scoped deadline around the
/// initial trace, and wraps save/load with retry ladders.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    plan: Option<FaultPlan>,
    deadline: Option<Deadline>,
}

impl Supervisor {
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// Takes a whole fault plan. Its pipeline entries fire inside
    /// [`Supervisor::run`]; a `deadline[:K]=expire` entry forces an
    /// (otherwise unlimited) deadline to expire at its K-th counted
    /// check; the statement entry is for the verifier
    /// ([`Supervisor::stmt_fault`]).
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Supervisor {
        if let Some(forced) = plan.as_ref().and_then(FaultPlan::forced_deadline) {
            let base = self.deadline.take().unwrap_or_else(Deadline::unlimited);
            self.deadline = Some(base.with_force_expire(forced));
        }
        self.plan = plan;
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

    /// The plan's statement entry, for wiring into the verifier's
    /// switched runs the way [`Supervisor::deadline`] wires the deadline.
    pub fn stmt_fault(&self) -> Option<FaultEntry> {
        self.plan.as_ref().and_then(FaultPlan::stmt_entry)
    }

    /// Whether the shared deadline has already expired.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.as_ref().is_some_and(|d| d.expired())
    }

    /// Runs `f` with the plan's pipeline entries and the scoped deadline
    /// installed on the current thread. Use for the supervised initial
    /// trace.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let _scope = FaultScope::install(self.plan.as_ref(), self.deadline.as_ref());
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

    fn parse_err(text: &str) -> String {
        FaultPlan::parse(text).expect_err(text)
    }

    #[test]
    fn plans_parse_and_render() {
        let plan = FaultPlan::parse("builder=panic, save:1=enospc,decode=corrupt").unwrap();
        assert_eq!(plan.entries.len(), 3);
        assert_eq!(
            plan.to_string(),
            "builder=panic,save:1=enospc,decode=corrupt"
        );
        assert_eq!(plan.entries[1].occurrence, 1);
        assert_eq!(plan.entries[1].action, FaultAction::Enospc);
        let plan = FaultPlan::parse("S4:2=panic").unwrap();
        assert_eq!(
            plan.stmt_entry(),
            Some(FaultEntry::at_stmt(StmtId(4), 2, FaultAction::Panic))
        );
    }

    #[test]
    fn mixed_plans_round_trip_through_display() {
        let plan = FaultPlan::parse(
            "S10:3=corrupt-checkpoint, builder=panic,save:1=enospc,save=short-write,\
             deadline:2=expire,handler=panic",
        )
        .unwrap();
        assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan.clone()));
        assert_eq!(
            plan.stmt_entry(),
            Some(FaultEntry::at_stmt(
                StmtId(10),
                3,
                FaultAction::CorruptCheckpoint
            ))
        );
        assert_eq!(plan.forced_deadline(), Some(2));
    }

    #[test]
    fn bad_plans_are_rejected() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse(" , ").is_err());
        assert!(FaultPlan::parse("builder").is_err());
        assert!(FaultPlan::parse("nowhere=panic").is_err());
        assert!(FaultPlan::parse("builder=explode").is_err());
        assert!(FaultPlan::parse("builder:x=panic").is_err());
        assert!(FaultPlan::parse("S1:y=oob").is_err());
        // Incompatible site/action pairs are caught at parse time.
        assert!(FaultPlan::parse("builder=corrupt").is_err());
        assert!(FaultPlan::parse("save=panic").is_err());
        assert!(FaultPlan::parse("S1=stall").is_err());
        assert!(FaultPlan::parse("mmap=oob").is_err());
    }

    #[test]
    fn entries_are_trimmed() {
        assert_eq!(
            FaultPlan::parse(" S4 = oob , queue : 1 = stall "),
            FaultPlan::parse("S4=oob,queue:1=stall")
        );
        assert!(FaultPlan::parse("S4=oob ").is_ok());
    }

    #[test]
    fn repeated_site_and_occurrence_is_rejected() {
        let e = parse_err("save=enospc,save=short-write");
        assert!(
            e.contains("`save=short-write`") && e.contains("`save=enospc`"),
            "{e}"
        );
        assert!(parse_err("queue=stall,queue:0=stall").contains("per site and occurrence"));
        assert!(FaultPlan::parse("save=enospc,save:1=short-write").is_ok());
    }

    #[test]
    fn second_deadline_entry_is_rejected() {
        let e = parse_err("deadline=expire,deadline:3=expire");
        assert!(e.contains("deadline expires once"), "{e}");
    }

    #[test]
    fn second_statement_entry_is_rejected() {
        let e = parse_err("S4=oob,builder=panic,S5:2=panic");
        assert!(e.contains("one statement entry"), "{e}");
        assert!(parse_err("S4=oob,S4:1=oob").contains("one statement entry"));
    }

    #[test]
    fn statement_sites_are_exactly_s_digits() {
        for text in [
            "4=oob", "SS4=oob", "S=oob", "Sx=oob", "S+4=oob", "S-1=oob", "s4=oob",
        ] {
            assert!(FaultPlan::parse(text).is_err(), "{text} must be rejected");
        }
        assert!(parse_err("SS4=oob").contains("bad statement site `SS4`"));
        assert!(parse_err("4=oob").contains("unknown fault site `4`"));
        assert!(FaultPlan::parse("S007=oob").is_ok());
    }

    #[test]
    fn handler_site_parses_and_fires() {
        let plan = FaultPlan::parse("handler=panic").unwrap();
        assert!(FaultPlan::parse("handler=corrupt").is_err());
        let _scope = FaultScope::install(Some(&plan), None);
        assert_eq!(fault_hit(FaultSite::Handler), Some(FaultAction::Panic));
        assert_eq!(fault_hit(FaultSite::Handler), None); // fired already
    }

    #[test]
    fn entries_fire_once_at_their_occurrence() {
        let plan = FaultPlan::parse("queue:2=stall").unwrap();
        let _scope = FaultScope::install(Some(&plan), None);
        assert_eq!(fault_hit(FaultSite::Queue), None); // occ 0
        assert_eq!(fault_hit(FaultSite::Builder), None); // other site
        assert_eq!(fault_hit(FaultSite::Queue), None); // occ 1
        assert_eq!(fault_hit(FaultSite::Queue), Some(FaultAction::Stall)); // occ 2
        assert_eq!(fault_hit(FaultSite::Queue), None); // fired already
    }

    #[test]
    fn statement_entries_stay_out_of_the_pipeline_scope() {
        let plan = FaultPlan::parse("S2=panic").unwrap();
        let _scope = FaultScope::install(Some(&plan), None);
        assert!(ACTIVE.with(|a| a.borrow().is_none()));
        assert_eq!(fault_hit(FaultSite::Stmt(StmtId(2))), None);
        let sup = Supervisor::new().with_fault_plan(Some(plan));
        assert_eq!(
            sup.stmt_fault(),
            Some(FaultEntry::at_stmt(StmtId(2), 0, FaultAction::Panic))
        );
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(fault_hit(FaultSite::Save), None);
        let outer = FaultPlan::parse("save=enospc").unwrap();
        let _o = FaultScope::install(Some(&outer), None);
        {
            let inner = FaultPlan::parse("mmap=fail").unwrap();
            let _i = FaultScope::install(Some(&inner), None);
            assert_eq!(fault_hit(FaultSite::Save), None);
            assert_eq!(fault_hit(FaultSite::Mmap), Some(FaultAction::Fail));
        }
        // Outer plan restored, its counts untouched by the inner scope.
        assert_eq!(fault_hit(FaultSite::Save), Some(FaultAction::Enospc));
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
    fn helper_thread_recovery_is_absorbed_after_the_callers_own() {
        let _ = take_recovery();
        note_recovery(RecoveryKind::SaveRetry);
        let helper = std::thread::spawn(|| {
            note_recovery(RecoveryKind::InlineFallback);
            take_recovery()
        })
        .join()
        .unwrap();
        absorb_recovery(&helper);
        let log = take_recovery();
        assert_eq!(
            log.events(),
            ["recovery.save_retries", "recovery.inline_fallbacks"]
        );
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
