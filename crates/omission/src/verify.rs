//! Implicit-dependence verification — `VerifyDep` of the paper's
//! Algorithm 2, grounded in Definitions 2 (implicit dependence) and 4
//! (strong implicit dependence).
//!
//! To test whether use `u` implicitly depends on predicate instance `p`,
//! the program is re-executed with `p`'s branch outcome switched, the two
//! executions are aligned (Algorithm 1), and the verdict is:
//!
//! * **StrongId** — the failure point has a counterpart in the switched
//!   run and it produced the expected correct value `v_exp` (the switch
//!   *fixed* the output);
//! * **Id** — `u` has no counterpart in the switched run (case (i) of
//!   Definition 2), or the definition now reaching `u`'s counterpart lies
//!   inside the region headed by the switched instance (the *edge-based*
//!   check the paper chooses over full dependence paths);
//! * **NotId** — otherwise, including switched runs that exhaust the step
//!   budget (the paper's expired timer: "we aggressively conclude the
//!   verification fails").
//!
//! [`VerifierMode`] selects the edge-based check (the paper's algorithm),
//! the safe path-based variant it discusses and rejects as too expensive,
//! or a value-comparison extension — the latter two exist for the
//! ablation study.
//!
//! ## Execution strategy: the checkpoint trie
//!
//! Switched runs dominate the cost of verification, so the engine avoids
//! and shortens them aggressively:
//!
//! * switched runs and checkpoints are memoized per [`SwitchSpec`] in a
//!   persistent, size-bounded [`VerifyMemo`] shared across locate
//!   iterations and (opt-in) across verifiers and corpus jobs, and the
//!   verifier caches its verdicts per `(p, u, var)` — verifying `p`
//!   against many uses re-executes once, and iteration N+1 reuses
//!   iteration N's runs;
//! * a batch's switch specs are organized by shared execution prefix
//!   into a **checkpoint trie** (with a single base execution the
//!   prefix-sharing order is total, so the trie is a chain of divergence
//!   points): the deepest uncaptured spec becomes the *spine*, one
//!   switched run whose pre-switch prefix is the original execution
//!   verbatim, so it snapshots a [`Checkpoint`] at every other planned
//!   divergence point en route;
//! * every other leaf *resumes* from the deepest checkpoint at or before
//!   its own position — its own if captured, otherwise an ancestor's,
//!   re-executing only the gap (see
//!   `omislice_interp::resume_switched`);
//! * leaves are dispatched across threads ([`Verifier::with_jobs`]):
//!   each worker claims the next leaf, longest remaining suffix first,
//!   off one shared cursor; results land in per-candidate slots and are
//!   merged in candidate order, so verdicts, memo contents, and
//!   counters are identical to a serial run;
//! * a batch is prepared and judged in fixed waves of request order, so
//!   at most one wave's switched runs are live at once; every request
//!   is judged, since Algorithm 2 keeps every strong dependence;
//! * each switched run executes once, at the full step budget (the
//!   paper's timer);
//! * each switched run records only until the base trace's last
//!   instance is aligned, then executes on unrecorded (see
//!   [`descent_chain`]).
//!
//! Resumed and from-scratch switched runs are byte-identical (see
//! `omislice_interp::snapshot`). [`ResumeMode::Disabled`] runs every
//! candidate from scratch without any checkpoint — `VerifyDep` taken
//! literally, one full re-execution per switched predicate — and is the
//! differential oracle for the trie: verdicts and normalized journals
//! are byte-identical across thread counts, resume modes, and capture
//! thresholds.

use crate::memo::{RunEntry, VerifyMemo};
use omislice_align::{descent_chain, Aligner, MatchMemo};
use omislice_analysis::ProgramAnalysis;
use omislice_interp::{
    resume_switched, run_switched, Checkpoint, ResumeError, ResumeMode, RunConfig, SwitchSpec,
    TracedRun,
};
use omislice_lang::{Program, VarId};
use omislice_slicing::DepGraph;
use omislice_trace::{
    CrashKind, Deadline, FaultAction, FaultEntry, InstId, RunOutcome, Termination, Trace, Value,
    VerificationStats,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default capture break-even, in gap events: a checkpoint is captured
/// only when resuming from the best otherwise-available donor would
/// re-execute at least this many extra events. The constant is a static
/// estimate of one snapshot's cost (state clone ≈ a few µs) divided by
/// the per-event execution cost (~0.1 µs). It is deliberately static:
/// the decision must replay identically run to run (capture choices
/// change resume counters, and those are part of the determinism
/// contract within a configuration).
pub const DEFAULT_CAPTURE_THRESHOLD: usize = 32;

/// Wave size of `verify_all`: a batch's candidates are prepared, judged,
/// and released in fixed-size waves so no more than this many switched
/// runs (each pinning O(trace) bytes of columns and region tree) are
/// live at once. Checkpoints captured by earlier waves persist in the
/// memo, so a later wave's spine resumes instead of replaying from
/// scratch. Wave boundaries depend only on the request order, never on
/// the thread count.
const VERIFY_WAVE: usize = 32;

/// Outcome of one implicit-dependence verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verdict {
    /// No implicit dependence was observed.
    NotId,
    /// An implicit dependence exists (Definition 2).
    Id,
    /// A strong implicit dependence: switching also produced the expected
    /// value at the failure point (Definition 4 / Algorithm 2 line 28).
    StrongId,
}

impl Verdict {
    /// Whether the verdict adds an edge to the dependence graph.
    pub fn is_dependence(self) -> bool {
        self != Verdict::NotId
    }
}

/// How condition (ii) of Definition 2 is tested on the switched run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifierMode {
    /// The paper's choice: `u'`'s reaching definition must lie inside the
    /// region headed by `p'` (a single data-dependence edge). Unsafe in
    /// rare nested-predicate situations, but keeps fault candidate sets
    /// small (§3.2).
    #[default]
    Edge,
    /// The safe variant: any explicit dependence *path* from `u'` back to
    /// `p'` counts. More edges are verified as dependences, inflating the
    /// candidate set — the trade-off the paper declines.
    Path,
    /// Extension: additionally accept the dependence when the value at
    /// `u'` differs from the value at `u` (direct observability).
    ValueChange,
}

impl VerifierMode {
    /// Parses the mode's text form, shared by the CLI `--mode` flag and
    /// serve request bodies: `edge`, `path` or `value`.
    ///
    /// # Errors
    ///
    /// Names the unknown mode.
    pub fn parse(text: &str) -> Result<VerifierMode, String> {
        match text {
            "edge" => Ok(VerifierMode::Edge),
            "path" => Ok(VerifierMode::Path),
            "value" => Ok(VerifierMode::ValueChange),
            other => Err(format!("unknown mode `{other}` (edge|path|value)")),
        }
    }
}

/// A cached verification result with its evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verification {
    /// The verdict.
    pub verdict: Verdict,
    /// How the switched re-execution behind this verdict ended. Anything
    /// other than [`RunOutcome::Completed`] forced the verdict to
    /// [`Verdict::NotId`] (the paper's aggressive timer rule, extended to
    /// crashes and isolated panics).
    pub outcome: RunOutcome,
    /// `u`'s counterpart in the switched run, if any.
    pub matched_use: Option<InstId>,
    /// The failure point's counterpart, if any.
    pub matched_failure: Option<InstId>,
    /// The value observed at the failure counterpart.
    pub failure_value: Option<Value>,
}

impl Verification {
    fn not_id(outcome: RunOutcome) -> Self {
        Verification {
            verdict: Verdict::NotId,
            outcome,
            matched_use: None,
            matched_failure: None,
            failure_value: None,
        }
    }
}

/// One `VerifyDep(p, u, o×, v_exp)` query for [`Verifier::verify_all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyRequest {
    /// The predicate instance to switch.
    pub p: InstId,
    /// The use whose implicit dependence on `p` is tested.
    pub u: InstId,
    /// The variable used at `u`.
    pub var: VarId,
    /// The failure point `o×`.
    pub wrong_output: InstId,
    /// `v_exp`, when the user knows the correct value.
    pub expected: Option<Value>,
}

/// The result of one (possibly resumed, possibly fault-isolated)
/// switched execution, with the per-run bookkeeping the merge step folds
/// into [`VerificationStats`].
struct ComputedRun {
    /// The memoized run; `None` when the switch never landed (budget
    /// cut-off, crash, isolated panic, or a path change).
    run: Option<Arc<Trace>>,
    /// How the execution ended.
    outcome: RunOutcome,
    /// Prefix events skipped when the run resumed from a checkpoint.
    saved: Option<usize>,
    /// The spec's checkpoint failed validation or its resumption
    /// failed/panicked, forcing a from-scratch execution.
    invalid_checkpoint: bool,
    /// The planned donor was refused as an expected shape
    /// ([`ResumeError::NotResumable`] or [`ResumeError::FaultInPrefix`]),
    /// and the run went from scratch.
    resume_refused: bool,
    /// The run handed its unrecorded rest to the tail sink.
    tail_handoff: bool,
    /// A host panic was caught at the isolation boundary.
    panic_isolated: bool,
    /// The candidate was cancelled by an expired deadline before its
    /// switched run was dispatched (it never executed).
    deadline_cancelled: bool,
    /// `input()` underflows of the run.
    input_underflows: u64,
}

impl ComputedRun {
    /// The degraded result recorded for a candidate whose *harness-level*
    /// computation panicked (anywhere outside the interpreter's own
    /// isolation, e.g. while building the switched run's region tree) or
    /// whose worker thread died before delivering a result: no memoized
    /// run, outcome [`RunOutcome::Crashed`]([`CrashKind::Panic`]), and
    /// the isolation counted in `panics_isolated`.
    fn harness_panic() -> Self {
        ComputedRun {
            run: None,
            outcome: RunOutcome::Crashed(CrashKind::Panic),
            saved: None,
            invalid_checkpoint: false,
            resume_refused: false,
            tail_handoff: false,
            panic_isolated: true,
            deadline_cancelled: false,
            input_underflows: 0,
        }
    }

    /// The result recorded for a candidate cancelled by an expired
    /// deadline before dispatch: no run, outcome
    /// [`RunOutcome::BudgetExhausted`] — the paper's expired-timer rule
    /// ("we aggressively conclude the verification fails") applied at
    /// the batch level.
    fn cancelled() -> Self {
        ComputedRun {
            run: None,
            outcome: RunOutcome::BudgetExhausted,
            saved: None,
            invalid_checkpoint: false,
            resume_refused: false,
            tail_handoff: false,
            panic_isolated: false,
            deadline_cancelled: true,
            input_underflows: 0,
        }
    }
}

/// Verifies implicit dependences for one failing execution by re-running
/// the program with predicates switched.
///
/// Results are memoized per `(p, u, var)`, and the switched *traces* and
/// checkpoints are memoized per switch spec in a size-bounded
/// [`VerifyMemo`] — private by default, shareable across verifiers and
/// corpus jobs via [`Verifier::with_memo`] — so verifying `p` against
/// many uses (Algorithm 2 lines 12–18) re-executes the program only
/// once, and later locate iterations reuse earlier ones' runs. Batches
/// submitted through [`Verifier::verify_all`] additionally resume
/// switched runs from checkpoints and fan them out across threads.
///
/// Each switched run records only until the base trace's last instance
/// is aligned (`omislice_interp::run_switched`): every use of the
/// base trace is decided by then. `locate_fault` builds its verifier on
/// the view of the failing trace through the first wrong output, so its
/// switched runs stop recording at that output's counterpart.
pub struct Verifier<'a> {
    program: &'a Program,
    analysis: &'a ProgramAnalysis,
    config: RunConfig,
    trace: &'a Trace,
    mode: VerifierMode,
    resume: ResumeMode,
    jobs: usize,
    /// Cooperative deadline, checked only at serial batch boundaries so
    /// cancellation decisions are identical for any thread count.
    deadline: Option<Deadline>,
    /// The persistent run/checkpoint store, with the configuration
    /// fingerprint this verifier's entries live under.
    memo: Arc<VerifyMemo>,
    memo_key: u64,
    /// The current batch's pinned view of its switched runs: every run
    /// the batch needs is held here from preparation to judging, so a
    /// concurrent memo eviction can never invalidate a result mid-batch.
    /// Cleared at each [`Verifier::verify_all`] entry — the memo, not
    /// this map, owns entry lifetime. Candidates cancelled by the
    /// deadline also land here, and *only* here: their synthetic
    /// expired-timer outcomes must never poison the shared memo.
    runs: HashMap<SwitchSpec, RunEntry>,
    /// Region correspondences found while aligning against each pinned
    /// run, so a batch's verifications of one switch point share their
    /// descents. Cleared with `runs`.
    matches: HashMap<SwitchSpec, MatchMemo>,
    /// Capture break-even in gap events; `None` uses the static
    /// estimate [`DEFAULT_CAPTURE_THRESHOLD`].
    capture_threshold: Option<usize>,
    /// Memoized verdicts keyed by (p, u, var, strong-check-enabled).
    cache: HashMap<(InstId, InstId, VarId, bool), Verification>,
    stats: VerificationStats,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier for the failing run `trace` of `program`
    /// obtained under `config` (without a switch).
    pub fn new(
        program: &'a Program,
        analysis: &'a ProgramAnalysis,
        config: &RunConfig,
        trace: &'a Trace,
        mode: VerifierMode,
    ) -> Self {
        let config = RunConfig {
            inputs: config.inputs.clone(),
            step_budget: config.step_budget,
            switch: None,
            value_override: None,
            fault: config.fault,
        };
        Verifier {
            memo_key: VerifyMemo::fingerprint(program, &config, trace.len()),
            program,
            analysis,
            config,
            trace,
            mode,
            resume: ResumeMode::default(),
            jobs: 1,
            deadline: None,
            memo: VerifyMemo::shared(),
            runs: HashMap::new(),
            matches: HashMap::new(),
            capture_threshold: None,
            cache: HashMap::new(),
            stats: VerificationStats::default(),
        }
    }

    /// Sets how many threads [`Verifier::verify_all`] may use for the
    /// switched executions of one batch (default 1: fully serial). The
    /// workers claim leaves off one shared cursor, longest remaining
    /// suffix first; with one worker the same loop runs inline on the
    /// calling thread.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets whether switched runs may resume from checkpoints (default
    /// [`ResumeMode::Auto`]).
    pub fn with_resume(mut self, resume: ResumeMode) -> Self {
        self.resume = resume;
        self
    }

    /// Shares a persistent run/checkpoint memo with this verifier
    /// (default: a private one). Entries are keyed by configuration
    /// fingerprint, so sharing one memo across different programs,
    /// inputs, or fault plans is always safe — they simply never
    /// collide.
    pub fn with_memo(mut self, memo: Arc<VerifyMemo>) -> Self {
        self.memo = memo;
        self
    }

    /// Overrides the capture break-even (minimum gap, in events, between
    /// a checkpoint and its best otherwise-available donor for the
    /// capture to pay for itself; default
    /// [`DEFAULT_CAPTURE_THRESHOLD`]).
    pub fn with_capture_threshold(mut self, threshold: Option<usize>) -> Self {
        self.capture_threshold = threshold;
        self
    }

    /// Sets a cooperative deadline (default none). Checks are counted
    /// and happen only at serial points — batch entry and per-candidate
    /// dispatch — so under a fault-plan-forced expiry the set of cancelled
    /// candidates is deterministic across thread counts and resume
    /// modes. Cancelled candidates never execute; their verdict follows
    /// the paper's expired-timer rule
    /// ([`RunOutcome::BudgetExhausted`] ⇒ NotId).
    pub fn with_deadline(mut self, deadline: Option<Deadline>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the fault plan's statement entry, applied to every switched
    /// re-execution (default none). Every action but
    /// `corrupt-checkpoint` ends the run where it fires, so checkpoints
    /// the spine captured before it still snapshot the original
    /// execution, and a leaf whose resumed prefix would contain the
    /// planned instance runs from scratch. `panic-harness` entries fire
    /// in the verifier itself, just before the switched run whose spec
    /// matches the planned statement/occurrence, exercising
    /// per-candidate isolation of the harness (not just the
    /// interpreter).
    pub fn with_fault(mut self, fault: Option<FaultEntry>) -> Self {
        self.config.fault = fault;
        self.memo_key = VerifyMemo::fingerprint(self.program, &self.config, self.trace.len());
        self
    }

    /// The paper's "# of verifications" counter.
    pub fn verification_count(&self) -> usize {
        self.stats.verifications
    }

    /// How many switched re-executions actually ran (resumed or from
    /// scratch; the split is in [`Verifier::stats`]).
    pub fn reexecution_count(&self) -> usize {
        self.stats.reexecutions
    }

    /// Instrumentation counters for this verifier's lifetime.
    pub fn stats(&self) -> &VerificationStats {
        &self.stats
    }

    /// The memoized switched run of predicate instance `p`, if one was
    /// executed, its switch landed, and the memo still holds it: what
    /// the run recorded, which ends once the base trace's last instance
    /// is aligned. Reading it counts as a use in the memo's eviction
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a predicate instance of the base trace.
    pub fn switched_trace(&self, p: InstId) -> Option<Arc<Trace>> {
        self.memo.get_run(self.memo_key, self.spec_of(p))?.0
    }

    /// `VerifyDep(p, u, o×, v_exp)` for the use of `var` at instance `u`.
    ///
    /// `wrong_output` is the failure point `o×`; `expected` is `v_exp`
    /// when the user knows the correct value.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a predicate instance of the original trace.
    pub fn verify(
        &mut self,
        p: InstId,
        u: InstId,
        var: VarId,
        wrong_output: InstId,
        expected: Option<Value>,
    ) -> Verification {
        self.verify_all(&[VerifyRequest {
            p,
            u,
            var,
            wrong_output,
            expected,
        }])[0]
    }

    /// Answers a batch of verification queries.
    ///
    /// The batch's distinct, not-yet-memoized switch specs are executed
    /// together through the checkpoint trie: the persistent memo is
    /// probed first (a hit pins the run for the batch without executing
    /// anything), the trie then captures missing checkpoints on the
    /// spine run and resumes every other leaf from its deepest available
    /// checkpoint, fanning out across up to `jobs` threads that claim
    /// leaves longest remaining suffix first. Verdicts are judged
    /// serially in request order, so results, memo contents, and
    /// counters are identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if any `p` is not a predicate instance of the original
    /// trace.
    pub fn verify_all(&mut self, requests: &[VerifyRequest]) -> Vec<Verification> {
        let _span = omislice_obs::span("verify");
        // One counted deadline check per batch; expiry cancels the whole
        // batch's executions (verdicts still resolve, as NotId).
        if let Some(d) = &self.deadline {
            d.check();
        }
        // The batch re-pins everything it needs from the memo; stale
        // pins from earlier batches would keep evicted entries alive.
        self.runs.clear();
        self.matches.clear();
        // Waves bound the batch's live memory: each switched run pins
        // O(trace) bytes (its trace plus region tree), so a 256-candidate
        // batch over a 200k-event trace would otherwise hold gigabytes at
        // once. Judging and releasing per wave keeps at most
        // `VERIFY_WAVE` runs live (plus whatever the memo retains under
        // its byte cap), while checkpoints persist in the memo so later
        // waves' spines resume from earlier waves' captures rather than
        // replaying from scratch. Wave boundaries depend only on the
        // request order, so verdicts and counters stay identical across
        // jobs, resume modes, and capture thresholds.
        let mut out = Vec::with_capacity(requests.len());
        // One wave-boundary id per batch: the recorder's sequence counter
        // only advances while recording and resets with it, so wave ids
        // are stable across jobs and resume modes.
        let batch = omislice_obs::enabled().then(omislice_obs::profile::next_seq);
        for (w, wave) in requests.chunks(VERIFY_WAVE).enumerate() {
            if w > 0 {
                self.runs.clear();
                self.matches.clear();
            }
            if let Some(b) = batch {
                omislice_obs::profile::mark(
                    omislice_obs::profile::EventKind::Wave,
                    "verify.wave",
                    (b << 16) | w as u64,
                );
            }
            let missing = self.missing_specs(wave);
            self.prepare_runs(&missing);
            out.append(&mut self.judge(wave));
        }
        let snap = self.memo.snapshot();
        self.stats.checkpoint_bytes = self.stats.checkpoint_bytes.max(snap.checkpoint_bytes);
        // Per-batch gauge samples: the counter tracks in the Chrome trace
        // show how live bytes evolve wave over wave, and the exported
        // counters are their maxima.
        omislice_obs::gauge("verify.checkpoint.bytes", snap.checkpoint_bytes as u64);
        omislice_obs::gauge(
            "verify.memo.bytes",
            (snap.run_bytes + snap.checkpoint_bytes) as u64,
        );
        out
    }

    /// The batch's distinct switch specs with no usable run yet: verdict
    /// cache, batch pins, and the persistent memo are consulted in that
    /// order (a memo hit pins the run and counts in `memo_hits`).
    fn missing_specs(&mut self, requests: &[VerifyRequest]) -> Vec<(SwitchSpec, InstId)> {
        let mut missing: Vec<(SwitchSpec, InstId)> = Vec::new();
        for r in requests {
            if self
                .cache
                .contains_key(&(r.p, r.u, r.var, r.expected.is_some()))
            {
                continue;
            }
            let spec = self.spec_of(r.p);
            if self.runs.contains_key(&spec) || missing.iter().any(|&(s, _)| s == spec) {
                continue;
            }
            if let Some(entry) = self.memo.get_run(self.memo_key, spec) {
                self.stats.memo_hits += 1;
                omislice_obs::profile::mark(
                    omislice_obs::profile::EventKind::MemoHit,
                    "verify.memo",
                    r.p.0 as u64,
                );
                self.runs.insert(spec, entry);
                continue;
            }
            omislice_obs::profile::mark(
                omislice_obs::profile::EventKind::MemoMiss,
                "verify.memo",
                r.p.0 as u64,
            );
            missing.push((spec, r.p));
        }
        missing
    }

    /// Judges `requests` serially in order against the pinned runs.
    fn judge(&mut self, requests: &[VerifyRequest]) -> Vec<Verification> {
        let verdict_start = Instant::now();
        let mut out = Vec::with_capacity(requests.len());
        for r in requests {
            let key = (r.p, r.u, r.var, r.expected.is_some());
            if let Some(&hit) = self.cache.get(&key) {
                self.stats.cache_hits += 1;
                out.push(hit);
                continue;
            }
            self.stats.verifications += 1;
            let result = self.verify_uncached(r.p, r.u, r.var, r.wrong_output, r.expected);
            self.cache.insert(key, result);
            out.push(result);
        }
        self.stats.verdict_wall += verdict_start.elapsed();
        out
    }

    /// The switch spec selecting exactly the instance `p`.
    fn spec_of(&self, p: InstId) -> SwitchSpec {
        let ev = self.trace.event(p);
        assert!(ev.is_predicate(), "{p} is not a predicate instance");
        SwitchSpec::new(ev.stmt, self.trace.occurrence_index(p) as u32)
    }

    /// Executes (and memoizes) the switched runs for `missing` through
    /// the checkpoint trie.
    ///
    /// With one base execution every divergence point lies on a single
    /// prefix chain, so the trie's structure reduces to positions along
    /// the original trace. Phase A runs the *spine* — the deepest
    /// uncaptured divergence point — as an ordinary switched run whose
    /// pre-switch prefix replays the original execution and therefore
    /// snapshots checkpoints at every planned shallower divergence point
    /// en route (see `Tracer::maybe_capture`: captures are valid only
    /// before the switch fires). Phase B resumes every remaining leaf
    /// from the deepest checkpoint at or before its own position (its
    /// own, a phase-A capture, or an earlier iteration's via the memo)
    /// and dispatches them across workers, which claim leaves longest
    /// remaining suffix first off one shared cursor. Under
    /// [`ResumeMode::Disabled`] there is no spine and no donor: every
    /// leaf runs from scratch.
    fn prepare_runs(&mut self, missing: &[(SwitchSpec, InstId)]) {
        if missing.is_empty() {
            return;
        }
        // Stable task-id base for this dispatch: `seq << 16 | candidate`.
        // Allocated after the empty-batch early return, so ids agree
        // across thread counts and resume modes.
        let seq = omislice_obs::enabled()
            .then(omislice_obs::profile::next_seq)
            .unwrap_or(0);
        let expired = self.deadline.as_ref().is_some_and(|d| d.expired());
        // The cancellation mask is decided serially *before* any
        // execution: one counted deadline check per candidate, in
        // candidate order, so a fault-plan-forced expiry cancels the identical
        // set of candidates for any thread count and resume mode.
        let cancelled: Vec<bool> = missing
            .iter()
            .map(|_| self.deadline.as_ref().is_some_and(|d| d.check()))
            .collect();
        let resume_on = self.resume == ResumeMode::Auto && !expired;
        let threshold = self.capture_threshold.unwrap_or(DEFAULT_CAPTURE_THRESHOLD);
        let start = Instant::now();
        // Checkpoints already known for this configuration, ascending by
        // prefix length (poisoned cursors sort past the trace end and are
        // excluded from ancestor donation below; an exact-spec match
        // still finds them, so corrupt-checkpoint plans keep exercising
        // the validate-and-fall-back path).
        let mut avail: Vec<Arc<Checkpoint>> = if resume_on {
            self.memo.checkpoints_for(self.memo_key)
        } else {
            Vec::new()
        };
        // Capture plan: walk the batch's uncaptured divergence points in
        // ascending position and capture only where resuming from the
        // best otherwise-available donor (a known checkpoint or an
        // earlier planned capture) would re-execute at least `threshold`
        // extra events. The decision is static, so it replays
        // identically run to run.
        let mut capture_list: Vec<SwitchSpec> = Vec::new();
        let mut min_capture_pos = usize::MAX;
        let mut spine: Option<usize> = None;
        if resume_on {
            let mut uncaptured: Vec<usize> = (0..missing.len())
                .filter(|&i| !cancelled[i] && !avail.iter().any(|cp| cp.spec == missing[i].0))
                .collect();
            uncaptured.sort_by_key(|&i| missing[i].1 .0);
            spine = uncaptured.last().copied();
            let known: Vec<usize> = avail
                .iter()
                .map(|cp| cp.prefix_len())
                .filter(|&p| p <= self.trace.len())
                .collect();
            let mut planned_pos: Option<usize> = None;
            for &i in &uncaptured {
                let pos = missing[i].1 .0 as usize;
                let donor = known
                    .iter()
                    .rev()
                    .find(|&&p| p <= pos)
                    .copied()
                    .into_iter()
                    .chain(planned_pos)
                    .max();
                if pos - donor.unwrap_or(0) >= threshold {
                    capture_list.push(missing[i].0);
                    min_capture_pos = min_capture_pos.min(pos);
                    planned_pos = Some(pos);
                } else {
                    self.stats.captures_skipped += 1;
                    omislice_obs::profile::mark(
                        omislice_obs::profile::EventKind::CaptureSkip,
                        "verify.capture",
                        pos as u64,
                    );
                }
            }
            if capture_list.is_empty() {
                // Nothing worth capturing: no spine, every candidate is
                // an ordinary phase-B leaf.
                spine = None;
            }
        }
        let mut slots: Vec<Option<ComputedRun>> = (0..missing.len()).map(|_| None).collect();
        // Phase A: the spine run captures the planned checkpoints while
        // computing its own switched run. Its donor must not replay past
        // the shallowest planned capture (captures never fire inside a
        // resumed prefix — that segment is restored, not executed).
        if let Some(si) = spine {
            let donor = avail
                .iter()
                .filter(|cp| {
                    cp.prefix_len() <= self.trace.len() && cp.prefix_len() <= min_capture_pos
                })
                .last()
                .cloned();
            // The spine runs on the coordinating thread; it shows up on
            // the scheduler track, not a worker track.
            let (run, captured) = self.run_candidate(
                seq,
                omislice_obs::profile::WORKER_MAIN,
                missing,
                si,
                donor.as_deref(),
                &capture_list,
            );
            slots[si] = Some(run);
            for cp in captured {
                // Recursion through a condition can capture the same spec
                // more than once; any of them resumes to the identical
                // switched run, keep the first.
                if avail.iter().any(|have| have.spec == cp.spec) {
                    continue;
                }
                let cp = Arc::new(cp);
                self.stats.inline_captures += 1;
                omislice_obs::profile::mark(
                    omislice_obs::profile::EventKind::Capture,
                    "verify.capture",
                    cp.prefix_len() as u64,
                );
                self.stats.memo_evictions +=
                    self.memo.insert_checkpoint(self.memo_key, Arc::clone(&cp)) as usize;
                avail.push(cp);
            }
            avail.sort_by_key(|cp| (cp.prefix_len(), cp.spec.pred.0, cp.spec.occurrence));
        }
        // Phase B: plan donors serially (the memo's LRU clock must tick
        // in a deterministic order, so workers never touch it), then
        // dispatch.
        let mut leaves: Vec<(usize, Option<Arc<Checkpoint>>)> = Vec::new();
        for (i, &(spec, p)) in missing.iter().enumerate() {
            if slots[i].is_some() {
                continue;
            }
            if cancelled[i] {
                slots[i] = Some(ComputedRun::cancelled());
                continue;
            }
            let pos = p.0 as usize;
            let donor = if resume_on {
                avail
                    .iter()
                    .find(|cp| cp.spec == spec)
                    .cloned()
                    .or_else(|| {
                        avail
                            .iter()
                            .filter(|cp| {
                                cp.prefix_len() <= self.trace.len() && cp.prefix_len() <= pos
                            })
                            .last()
                            .cloned()
                    })
            } else {
                None
            };
            leaves.push((i, donor));
        }
        // Longest remaining suffix first; ties break on batch order, so
        // the claim order is deterministic (execution order affects
        // nothing observable, but determinism is cheap here).
        let mut order: Vec<usize> = (0..leaves.len()).collect();
        order.sort_by_key(|&k| {
            let saved = leaves[k]
                .1
                .as_ref()
                .map_or(0, |cp| cp.prefix_len().min(self.trace.len()));
            (std::cmp::Reverse(self.trace.len().saturating_sub(saved)), k)
        });
        let workers = self.jobs.min(leaves.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let this: &Verifier<'_> = self;
        // One worker's loop: claim the next leaf of `order` until none
        // is left. Each claim is one `fetch_add`, so every leaf runs
        // exactly once whichever worker takes it. `Relaxed` suffices:
        // the cursor publishes no data (`order` and `leaves` are built
        // before any worker spawns, and results return through `join`).
        let drain = |w: usize| {
            let mut local = Vec::new();
            while let Some(&k) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let (i, donor) = &leaves[k];
                let (run, _) =
                    this.run_candidate(seq, w as u32, missing, *i, donor.as_deref(), &[]);
                local.push((*i, run));
            }
            local
        };
        let results = if workers == 1 {
            // One worker claims every leaf in order on the calling
            // thread: nothing to spawn.
            drain(0)
        } else {
            let mut results = Vec::new();
            std::thread::scope(|s| {
                let drain = &drain;
                let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || drain(w))).collect();
                for h in handles {
                    // Per-candidate isolation makes a worker-level panic
                    // all but impossible, but if one does die its claimed
                    // slots must degrade per candidate, not abort the
                    // batch: leave them empty and let the merge below
                    // fill them in.
                    if let Ok(r) = h.join() {
                        results.extend(r);
                    }
                }
            });
            results
        };
        for (i, r) in results {
            slots[i] = Some(r);
        }
        self.merge_slots(missing, slots);
        self.stats.execution_wall += start.elapsed();
    }

    /// Merges computed runs into stats, the batch's pinned view, and the
    /// persistent memo — in candidate order, so memo contents and
    /// counters do not depend on which thread finished first. A slot left
    /// empty by a dead worker surfaces as an isolated harness panic for
    /// that candidate alone.
    fn merge_slots(&mut self, missing: &[(SwitchSpec, InstId)], slots: Vec<Option<ComputedRun>>) {
        for (slot, &(spec, _)) in slots.into_iter().zip(missing) {
            let c = slot.unwrap_or_else(ComputedRun::harness_panic);
            if c.deadline_cancelled {
                // The candidate never ran: record the expired-timer
                // outcome without touching the execution counters, and
                // only in the per-batch view — a synthetic verdict must
                // never poison the shared memo.
                self.stats.deadline_cancelled += 1;
                self.runs.insert(spec, (c.run, c.outcome));
                continue;
            }
            self.stats.reexecutions += 1;
            match c.saved {
                Some(n) => {
                    self.stats.resumed_runs += 1;
                    self.stats.steps_saved += n;
                }
                None => self.stats.scratch_runs += 1,
            }
            if c.invalid_checkpoint {
                self.stats.invalid_checkpoints += 1;
            }
            self.stats.resume_refused += usize::from(c.resume_refused);
            self.stats.tail_handoffs += usize::from(c.tail_handoff);
            if c.panic_isolated {
                self.stats.panics_isolated += 1;
            }
            self.stats.input_underflows += c.input_underflows as usize;
            match c.outcome {
                RunOutcome::Completed => self.stats.completed_runs += 1,
                RunOutcome::BudgetExhausted => self.stats.budget_exhausted_runs += 1,
                RunOutcome::Crashed(_) => self.stats.crashed_runs += 1,
                RunOutcome::SwitchNotLanded => self.stats.switch_not_landed_runs += 1,
                // An invalid checkpoint always falls back to a
                // from-scratch run whose own outcome is recorded instead;
                // the event itself is counted in `invalid_checkpoints`.
                RunOutcome::CheckpointInvalid => {}
            }
            let entry: RunEntry = (c.run, c.outcome);
            self.stats.memo_evictions +=
                self.memo.insert_run(self.memo_key, spec, entry.clone()) as usize;
            self.runs.insert(spec, entry);
        }
    }

    /// Runs candidate `i`'s switched execution as one `verify.candidate`
    /// task on lane `worker` — the one dispatch path for the spine, the
    /// inline single-worker drain, and every spawned worker.
    fn run_candidate(
        &self,
        seq: u64,
        worker: u32,
        missing: &[(SwitchSpec, InstId)],
        i: usize,
        donor: Option<&Checkpoint>,
        capture: &[SwitchSpec],
    ) -> (ComputedRun, Vec<Checkpoint>) {
        let (spec, p) = missing[i];
        let _task = omislice_obs::task("verify.candidate", worker, (seq << 16) | i as u64);
        self.compute_switched_isolated(spec, p, donor, capture)
    }

    /// [`Verifier::compute_switched`] behind a per-candidate
    /// `catch_unwind`: a panic anywhere in the harness work for this
    /// candidate — not just inside the interpreter — degrades to a
    /// [`ComputedRun::harness_panic`] instead of unwinding the worker
    /// (which would take that worker's whole claimed batch with it and
    /// make results scheduling-dependent). `panic-harness` fault plans
    /// fire here, before the switched run starts. Checkpoints captured
    /// before a caught panic are lost with it — losing a capture is
    /// always safe (the leaf falls back to a deeper donor or scratch);
    /// keeping a possibly-torn one would not be.
    fn compute_switched_isolated(
        &self,
        spec: SwitchSpec,
        p: InstId,
        donor: Option<&Checkpoint>,
        capture: &[SwitchSpec],
    ) -> (ComputedRun, Vec<Checkpoint>) {
        catch_unwind(AssertUnwindSafe(|| {
            let planted =
                FaultEntry::at_stmt(spec.pred, spec.occurrence, FaultAction::PanicHarness);
            if self.config.fault == Some(planted) {
                panic!(
                    "injected harness panic for switch {}:{}",
                    spec.pred, spec.occurrence
                );
            }
            self.compute_switched(spec, p, donor, capture)
        }))
        .unwrap_or_else(|_| (ComputedRun::harness_panic(), Vec::new()))
    }

    /// Executes one switched run, once, at the full step budget: resumes
    /// from the planned `donor` checkpoint when given (its own or an
    /// ancestor's — the resumed segment between the donor and the switch
    /// point replays the original execution by determinism, so the switch
    /// lands at its exact original position either way; falls back to
    /// from-scratch execution if the checkpoint is invalid or the resume
    /// fails), captures a [`Checkpoint`] at each spec in `capture` passed
    /// on the way to the switch (the spine's phase-A role), and isolates
    /// any panic *of the interpreter* behind `catch_unwind`; panics in the
    /// harness work around it are caught one level up by
    /// [`Verifier::compute_switched_isolated`].
    fn compute_switched(
        &self,
        spec: SwitchSpec,
        p: InstId,
        donor: Option<&Checkpoint>,
        capture: &[SwitchSpec],
    ) -> (ComputedRun, Vec<Checkpoint>) {
        let cfg = self.config.switched(spec);
        // Record only until the base trace's last instance is aligned:
        // every use the verifier can be asked about is decided by then.
        let last = InstId(self.trace.len() as u32 - 1);
        let chain = descent_chain(self.trace, p, last);
        let mut out = ComputedRun {
            run: None,
            outcome: RunOutcome::BudgetExhausted,
            saved: None,
            invalid_checkpoint: false,
            resume_refused: false,
            tail_handoff: false,
            panic_isolated: false,
            deadline_cancelled: false,
            input_underflows: 0,
        };
        let mut resumed: Option<(TracedRun, Vec<Checkpoint>)> = None;
        if let Some(cp) = donor {
            match catch_unwind(AssertUnwindSafe(|| {
                resume_switched(
                    self.program,
                    self.analysis,
                    &cfg,
                    cp,
                    self.trace,
                    capture,
                    Some(chain.clone()),
                )
            })) {
                Ok(Ok(run)) => {
                    out.saved = Some(cp.prefix_len());
                    resumed = Some(run);
                }
                // Expected shapes (an expression-position call frame, or
                // a fault plan firing inside the prefix): run from
                // scratch; the checkpoint itself is not at fault.
                Ok(Err(ResumeError::NotResumable | ResumeError::FaultInPrefix)) => {
                    out.resume_refused = true;
                }
                // The checkpoint is corrupt (failed validation) or its
                // resumption blew up: record it and fall back.
                Ok(Err(ResumeError::Invalid(_))) | Err(_) => out.invalid_checkpoint = true,
            }
        }
        let (run, captured) = match resumed {
            Some(r) => r,
            None => match catch_unwind(AssertUnwindSafe(|| {
                run_switched(self.program, self.analysis, &cfg, capture, Some(chain))
            })) {
                Ok(r) => r,
                Err(_) => {
                    // The from-scratch execution itself panicked (an
                    // injected host fault): isolate it. Its captures
                    // unwound with it.
                    out.panic_isolated = true;
                    out.outcome = RunOutcome::Crashed(CrashKind::Panic);
                    return (out, Vec::new());
                }
            },
        };
        out.input_underflows = run.input_underflows;
        out.tail_handoff = run.tail_handoff;
        out.outcome = match run.trace.termination() {
            Termination::Normal if run.switched == Some(p) => RunOutcome::Completed,
            Termination::Normal => RunOutcome::SwitchNotLanded,
            Termination::BudgetExhausted => RunOutcome::BudgetExhausted,
            Termination::RuntimeError(kind, _) => RunOutcome::Crashed(*kind),
        };
        // The switch must land at the same timestamp (identical prefix);
        // if the run was cut off before reaching it, treat the whole
        // re-execution as failed.
        out.run = match run.switched {
            Some(inst) if inst == p => {
                // The aligner walks the run's region tree: build it here,
                // on the worker, not in the serial judging pass.
                run.trace.regions();
                Some(Arc::new(run.trace))
            }
            _ => None,
        };
        (out, captured)
    }

    /// Judges one request against its pinned run. Only [`Verifier::judge`]
    /// calls it, after `missing_specs` and `prepare_runs` pinned the spec
    /// of every request the verdict cache could not answer.
    fn verify_uncached(
        &mut self,
        p: InstId,
        u: InstId,
        var: VarId,
        wrong_output: InstId,
        expected: Option<Value>,
    ) -> Verification {
        let mode = self.mode;
        let orig = self.trace;
        let spec = self.spec_of(p);
        let (memo, outcome) = self
            .runs
            .get(&spec)
            .expect("the batch pinned this spec before judging");
        let outcome = *outcome;
        let Some(run) = memo else {
            return Verification::not_id(outcome);
        };
        let run = Arc::clone(run);
        let switched: &Trace = &run;
        // The paper's timer, extended to crashes: a switched run that
        // does not terminate normally fails verification.
        if !switched.termination().is_normal() {
            return Verification::not_id(outcome);
        }
        // The span covers alignment and verdict judging: everything after
        // the switched execution itself.
        let _span = omislice_obs::span("align");
        let aligner = Aligner::new(orig, switched);
        let matches = self.matches.entry(spec).or_default();

        // Line 27-28: does the switch produce the expected value at o×?
        let matched_failure = aligner.match_inst_memo(matches, p, wrong_output);
        let failure_value = matched_failure.and_then(|m| switched.event(m).value);
        if let (Some(v), Some(exp)) = (failure_value, expected) {
            if v == exp {
                return Verification {
                    verdict: Verdict::StrongId,
                    outcome,
                    matched_use: aligner.match_inst_memo(matches, p, u),
                    matched_failure,
                    failure_value,
                };
            }
        }

        // Line 29-30: u unmatched ⇒ implicit dependence (case (i)).
        let Some(u2) = aligner.match_inst_memo(matches, p, u) else {
            return Verification {
                verdict: Verdict::Id,
                outcome,
                matched_use: None,
                matched_failure,
                failure_value,
            };
        };

        // Lines 31-35: the definition feeding u' for `var`.
        let verdict = match mode {
            VerifierMode::Edge | VerifierMode::ValueChange => {
                let d2 = switched
                    .event(u2)
                    .data_deps
                    .iter()
                    .copied()
                    .filter(|&d| switched.event(d).def_var == Some(var))
                    .max();
                let in_region = d2.is_some_and(|d| switched.regions().in_region(p, d));
                let value_changed = mode == VerifierMode::ValueChange
                    && switched.event(u2).value != orig.event(u).value;
                if in_region || value_changed {
                    Verdict::Id
                } else {
                    Verdict::NotId
                }
            }
            VerifierMode::Path => {
                // Safe variant: any explicit dependence path u' →* p'.
                let slice = DepGraph::new(switched).backward_slice(u2);
                if slice.contains(p) {
                    Verdict::Id
                } else {
                    Verdict::NotId
                }
            }
        };
        Verification {
            verdict,
            outcome,
            matched_use: Some(u2),
            matched_failure,
            failure_value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_interp::run_traced;
    use omislice_lang::{compile, StmtId};

    struct Setup {
        program: Program,
        analysis: ProgramAnalysis,
        config: RunConfig,
        trace: Trace,
    }

    fn setup(src: &str, inputs: Vec<i64>) -> Setup {
        let program = compile(src).unwrap();
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig::with_inputs(inputs);
        let trace = run_traced(&program, &analysis, &config).trace;
        Setup {
            program,
            analysis,
            config,
            trace,
        }
    }

    /// Figure 1 miniature: flags misses its redefinition because the guard
    /// is (wrongly) not taken.
    const FIG1: &str = "\
        global flags = 0;\
        global save = 0;\
        fn main() {\
            save = input();\
            flags = 1;\
            if save == 1 { flags = 2; }\
            print(flags);\
        }";

    #[test]
    fn strong_id_when_switch_fixes_the_output() {
        let s = setup(FIG1, vec![0]);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let guard = s.trace.instances_of(StmtId(2))[0];
        let out = s.trace.outputs()[0].inst;
        let flags = s.analysis.index().vars().global("flags").unwrap();
        let r = v.verify(guard, out, flags, out, Some(Value::Int(2)));
        assert_eq!(r.verdict, Verdict::StrongId);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.failure_value, Some(Value::Int(2)));
        assert_eq!(v.verification_count(), 1);
        assert_eq!(v.stats().completed_runs, 1);
    }

    #[test]
    fn plain_id_without_expected_value() {
        let s = setup(FIG1, vec![0]);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let guard = s.trace.instances_of(StmtId(2))[0];
        let out = s.trace.outputs()[0].inst;
        let flags = s.analysis.index().vars().global("flags").unwrap();
        let r = v.verify(guard, out, flags, out, None);
        // Without v_exp the strong check cannot fire, but the definition
        // in the switched run lies in the guard's region → Id.
        assert_eq!(r.verdict, Verdict::Id);
        assert!(r.matched_use.is_some());
    }

    /// Figure 1's false dependence: the conditional store writes a cell
    /// the output never reads, so the verification must reject it.
    const FIG1_FALSE_DEP: &str = "\
        global buf = [0; 4];\
        global save = 0;\
        fn main() {\
            save = input();\
            buf[0] = 7;\
            if save == 1 { buf[1] = 9; }\
            print(buf[0]);\
        }";

    #[test]
    fn not_id_for_false_potential_dependence() {
        let s = setup(FIG1_FALSE_DEP, vec![0]);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let guard = s.trace.instances_of(StmtId(2))[0];
        let out = s.trace.outputs()[0].inst;
        let buf = s.analysis.index().vars().global("buf").unwrap();
        let r = v.verify(guard, out, buf, out, Some(Value::Int(5)));
        assert_eq!(r.verdict, Verdict::NotId, "S7→S10 of the paper is false");
        assert!(r.matched_use.is_some(), "the print still executes");
    }

    #[test]
    fn id_when_use_vanishes_in_switched_run() {
        // Switching the guard makes the loop break before the use.
        let src = "\
            global x = 5; global c0 = 0;\
            fn main() {\
                let i = 0;\
                c0 = input();\
                while i < 2 {\
                    if c0 == 1 { break; }\
                    print(x);\
                    i = i + 1;\
                }\
            }";
        let s = setup(src, vec![0]);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let inner_if = s.trace.instances_of(StmtId(3))[0];
        let use_inst = s.trace.instances_of(StmtId(5))[0];
        let x = s.analysis.index().vars().global("x").unwrap();
        let out = s.trace.outputs().last().unwrap().inst;
        let r = v.verify(inner_if, use_inst, x, out, None);
        assert_eq!(r.verdict, Verdict::Id, "unmatched use is case (i)");
        assert_eq!(r.matched_use, None);
    }

    #[test]
    fn nonterminating_switch_is_not_id() {
        // Switching the guard leaves `bound` at 0 and the loop counts up
        // forever; the budget expires and the verification fails (the
        // paper's timer rule).
        let src = "\
            global bound = 0;\
            fn main() {\
                let c = input();\
                if c == 1 { bound = 4; }\
                let i = 1;\
                while i != bound { i = i + 1; }\
                print(i);\
            }";
        let program = compile(src).unwrap();
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig {
            inputs: vec![1],
            step_budget: 10_000,
            switch: None,
            value_override: None,
            fault: None,
        };
        let trace = run_traced(&program, &analysis, &config).trace;
        assert!(trace.termination().is_normal());
        let mut v = Verifier::new(&program, &analysis, &config, &trace, VerifierMode::Edge);
        let guard = trace.instances_of(StmtId(1))[0];
        let out = trace.outputs()[0].inst;
        let bound = analysis.index().vars().global("bound").unwrap();
        let r = v.verify(guard, out, bound, out, Some(Value::Int(99)));
        assert_eq!(r.verdict, Verdict::NotId);
        assert_eq!(r.outcome, RunOutcome::BudgetExhausted);
        assert_eq!(v.stats().budget_exhausted_runs, 1);
    }

    #[test]
    fn verdict_cache_avoids_reexecution() {
        let s = setup(FIG1, vec![0]);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let guard = s.trace.instances_of(StmtId(2))[0];
        let out = s.trace.outputs()[0].inst;
        let flags = s.analysis.index().vars().global("flags").unwrap();
        let r1 = v.verify(guard, out, flags, out, None);
        let r2 = v.verify(guard, out, flags, out, None);
        assert_eq!(r1, r2);
        assert_eq!(v.verification_count(), 1, "second call is a cache hit");
        assert_eq!(v.reexecution_count(), 1);
        // Counter invariants: the hit is visible in the stats, the single
        // re-execution is classified exactly once, and a lone spec never
        // captures a checkpoint (nothing to amortize it).
        let st = v.stats();
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.verifications, 1);
        assert_eq!(st.resumed_runs + st.scratch_runs, st.reexecutions);
        assert_eq!(st.inline_captures, 0);
        assert_eq!(st.steps_saved, 0);
    }

    #[test]
    fn shared_switched_trace_across_uses() {
        // Verifying the same predicate against two uses re-executes once.
        let src = "\
            global x = 0; global y = 0;\
            fn main() {\
                let c = input();\
                if c == 1 { x = 1; y = 1; }\
                print(x);\
                print(y);\
            }";
        let s = setup(src, vec![0]);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let guard = s.trace.instances_of(StmtId(1))[0];
        let outs = s.trace.outputs();
        let x = s.analysis.index().vars().global("x").unwrap();
        let y = s.analysis.index().vars().global("y").unwrap();
        let r1 = v.verify(guard, outs[0].inst, x, outs[0].inst, None);
        let r2 = v.verify(guard, outs[1].inst, y, outs[0].inst, None);
        assert_eq!(r1.verdict, Verdict::Id);
        assert_eq!(r2.verdict, Verdict::Id);
        assert_eq!(v.verification_count(), 2);
        assert_eq!(v.reexecution_count(), 1, "switched run shared");
        // Counter invariants: two distinct queries, zero verdict-cache
        // hits, and the one re-execution accounted for exactly once.
        let st = v.stats();
        assert_eq!(st.cache_hits, 0);
        assert_eq!(st.verifications, 2);
        assert_eq!(st.resumed_runs + st.scratch_runs, st.reexecutions);
    }

    /// A loopy program with several candidate guards, used by the batch
    /// tests: each guard conditionally feeds the printed sums.
    const BATCH: &str = "\
        global a = 0; global b = 0; global c0 = 0;\
        fn main() {\
            c0 = input();\
            let i = 0;\
            while i < 6 {\
                if c0 == 1 { a = a + i; }\
                if i == 3 { b = b + 10; }\
                b = b + 1;\
                i = i + 1;\
            }\
            print(a);\
            print(b);\
        }";

    fn batch_requests(s: &Setup) -> Vec<VerifyRequest> {
        let a = s.analysis.index().vars().global("a").unwrap();
        let b = s.analysis.index().vars().global("b").unwrap();
        let outs = s.trace.outputs();
        let (out_a, out_b) = (outs[0].inst, outs[1].inst);
        let mut requests = Vec::new();
        for &g in s.trace.instances_of(StmtId(3)) {
            requests.push(VerifyRequest {
                p: g,
                u: out_a,
                var: a,
                wrong_output: out_a,
                expected: Some(Value::Int(15)),
            });
        }
        for &g in s.trace.instances_of(StmtId(5)) {
            requests.push(VerifyRequest {
                p: g,
                u: out_b,
                var: b,
                wrong_output: out_a,
                expected: None,
            });
        }
        requests
    }

    #[test]
    fn verify_all_is_identical_across_thread_counts_and_resume_modes() {
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        assert!(requests.len() >= 8, "enough candidates to fan out");
        let mut reference: Option<Vec<Verification>> = None;
        let mut reference_counts: Option<(usize, usize, usize)> = None;
        // Three workers leave the claim loop an uneven tail: the leaves
        // do not divide evenly among them.
        for jobs in [1usize, 2, 3, 4] {
            for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
                let mut v = Verifier::new(
                    &s.program,
                    &s.analysis,
                    &s.config,
                    &s.trace,
                    VerifierMode::Edge,
                )
                .with_jobs(jobs)
                .with_resume(resume)
                // BATCH's trace is short; force the break-even so the
                // capture/resume machinery actually engages.
                .with_capture_threshold(Some(1));
                let results = v.verify_all(&requests);
                let counts = (
                    v.verification_count(),
                    v.reexecution_count(),
                    v.stats().cache_hits,
                );
                // Every claimed leaf ran exactly once, resumed or not.
                assert_eq!(
                    v.stats().resumed_runs + v.stats().scratch_runs,
                    v.reexecution_count(),
                    "jobs={jobs} resume={resume:?}"
                );
                match (&reference, &reference_counts) {
                    (Some(r), Some(c)) => {
                        assert_eq!(*r, results, "jobs={jobs} resume={resume:?}");
                        assert_eq!(*c, counts, "jobs={jobs} resume={resume:?}");
                    }
                    _ => {
                        reference = Some(results);
                        reference_counts = Some(counts);
                    }
                }
                if resume == ResumeMode::Disabled {
                    assert_eq!(v.stats().resumed_runs, 0);
                    assert_eq!(v.stats().inline_captures, 0, "no checkpoints at all");
                } else {
                    assert!(v.stats().inline_captures > 0, "the spine captured en route");
                    assert!(v.stats().resumed_runs > 0, "checkpoints are used");
                    assert!(v.stats().steps_saved > 0, "prefixes are skipped");
                }
            }
        }
    }

    #[test]
    fn batch_resumption_saves_prefix_work() {
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_capture_threshold(Some(1));
        let _ = v.verify_all(&requests);
        let st = v.stats();
        // Later loop iterations carry most of the trace as their prefix:
        // resumption must skip a substantial share of the re-executed
        // events. (Total from-scratch work is reexecutions × trace len,
        // minus the suffix divergence — steps_saved counts the verbatim
        // prefixes.)
        assert_eq!(
            st.resumed_runs,
            st.reexecutions - 1,
            "every leaf but the spine resumes"
        );
        assert!(
            st.steps_saved > s.trace.len(),
            "saved {} events over {} runs (trace len {})",
            st.steps_saved,
            st.reexecutions,
            s.trace.len()
        );
    }

    #[test]
    fn verify_and_verify_all_share_their_memos() {
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let batch = v.verify_all(&requests);
        let reexec = v.reexecution_count();
        // Re-asking any request individually is a pure cache hit.
        let r = requests[0];
        let single = v.verify(r.p, r.u, r.var, r.wrong_output, r.expected);
        assert_eq!(single, batch[0]);
        assert_eq!(v.reexecution_count(), reexec, "no new execution");
        assert_eq!(v.stats().cache_hits, 1);
    }

    #[test]
    fn shared_memo_answers_later_verifiers_without_reexecution() {
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        let memo = VerifyMemo::shared();
        let mut a = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_memo(Arc::clone(&memo))
        .with_capture_threshold(Some(1));
        let first = a.verify_all(&requests);
        assert!(a.reexecution_count() > 0);
        assert_eq!(a.stats().memo_hits, 0, "a cold memo has nothing to offer");
        assert!(
            a.stats().checkpoint_bytes > 0,
            "the gauge sees the captures"
        );

        // A second verifier over the same configuration answers every
        // switched run from the memo: zero executions.
        let mut b = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_memo(Arc::clone(&memo));
        let second = b.verify_all(&requests);
        assert_eq!(first, second);
        assert_eq!(b.reexecution_count(), 0, "all runs came from the memo");
        assert_eq!(b.stats().memo_hits, a.reexecution_count());

        // A different fault plan changes runs, so it is a different
        // fingerprint: the shared memo never answers across
        // configurations that could disagree.
        let mut d = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_memo(Arc::clone(&memo))
        .with_fault(Some(switched_only_fault(FaultAction::Crash(
            CrashKind::DivByZero,
        ))));
        let _ = d.verify_all(&requests);
        assert_eq!(d.stats().memo_hits, 0, "fingerprints separate configs");
        assert!(d.reexecution_count() > 0);
    }

    #[test]
    fn ancestor_checkpoints_substitute_for_skipped_captures() {
        // A high capture threshold declines most snapshots; leaves then
        // resume from the nearest *ancestor* checkpoint and re-execute
        // the gap. Verdicts must match the densely-captured engine
        // exactly (resumed and from-scratch runs are byte-identical).
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        let mut dense = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_capture_threshold(Some(1));
        let expected = dense.verify_all(&requests);

        let mut sparse = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_capture_threshold(Some(10));
        let results = sparse.verify_all(&requests);
        assert_eq!(results, expected);
        let st = sparse.stats();
        assert!(st.captures_skipped > 0, "the break-even declined captures");
        assert!(
            st.inline_captures < dense.stats().inline_captures,
            "fewer snapshots taken ({} vs {})",
            st.inline_captures,
            dense.stats().inline_captures
        );
        assert!(st.resumed_runs > 0, "ancestor donors still resume leaves");
        assert!(
            st.steps_saved < dense.stats().steps_saved,
            "shallower donors save less ({} vs {})",
            st.steps_saved,
            dense.stats().steps_saved
        );
    }

    #[test]
    fn path_mode_finds_chained_dependence_edge_mode_misses() {
        // The paper's §3.2 example: switching P introduces the path
        // 2 →cd 3 →dd 6 →dd/cd 7 →dd 15, but no single edge from the use's
        // definition into P's region. Edge mode answers NotId for (P, use)
        // while Path mode answers Id.
        let src = "\
            global t = 0; global x = 0; global p1 = 0;\
            fn main() {\
                p1 = input();\
                if p1 == 1 { t = 1; }\
                let i = 0;\
                while i < t {\
                    x = 9;\
                    i = i + 1;\
                }\
                print(x);\
            }";
        let s = setup(src, vec![0]);
        let guard = s.trace.instances_of(StmtId(1))[0];
        let out = s.trace.outputs()[0].inst;
        let x = s.analysis.index().vars().global("x").unwrap();

        let mut edge = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let r_edge = edge.verify(guard, out, x, out, None);
        assert_eq!(
            r_edge.verdict,
            Verdict::NotId,
            "x=9 is in the while's region, not the if's"
        );

        let mut path = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Path,
        );
        let r_path = path.verify(guard, out, x, out, None);
        assert_eq!(r_path.verdict, Verdict::Id, "the dependence path exists");
    }

    /// In BATCH, `a = a + i` (S4) executes only when an S3 switch forces
    /// the guard taken — a fault planted there fires in exactly the
    /// switched runs and never in the base run or a spine's prefix.
    fn switched_only_fault(action: FaultAction) -> FaultEntry {
        FaultEntry::at_stmt(StmtId(4), 0, action)
    }

    #[test]
    fn injected_crash_is_isolated_and_deterministic() {
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        let n_crashing = s.trace.instances_of(StmtId(3)).len();
        assert!(n_crashing >= 2);
        let mut reference: Option<(Vec<Verification>, Vec<usize>)> = None;
        for jobs in [1usize, 4] {
            for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
                let mut v = Verifier::new(
                    &s.program,
                    &s.analysis,
                    &s.config,
                    &s.trace,
                    VerifierMode::Edge,
                )
                .with_jobs(jobs)
                .with_resume(resume)
                .with_fault(Some(switched_only_fault(FaultAction::Crash(
                    CrashKind::DivByZero,
                ))));
                let results = v.verify_all(&requests);
                for (r, req) in results.iter().zip(&requests) {
                    if s.trace.event(req.p).stmt == StmtId(3) {
                        assert_eq!(r.verdict, Verdict::NotId);
                        assert_eq!(r.outcome, RunOutcome::Crashed(CrashKind::DivByZero));
                    } else {
                        assert!(r.outcome.is_usable(), "S5 runs are unaffected");
                    }
                }
                let st = v.stats();
                assert_eq!(st.crashed_runs, n_crashing);
                assert_eq!(st.panics_isolated, 0);
                // Verdicts and every mode-independent counter are
                // identical across thread counts and resume modes.
                let counters = vec![
                    st.verifications,
                    st.reexecutions,
                    st.cache_hits,
                    st.completed_runs,
                    st.budget_exhausted_runs,
                    st.crashed_runs,
                    st.switch_not_landed_runs,
                    st.panics_isolated,
                    st.input_underflows,
                ];
                match &reference {
                    Some((r, c)) => {
                        assert_eq!(*r, results, "jobs={jobs} resume={resume:?}");
                        assert_eq!(*c, counters, "jobs={jobs} resume={resume:?}");
                    }
                    None => reference = Some((results, counters)),
                }
            }
        }
    }

    #[test]
    fn injected_panic_never_escapes_verify_all() {
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        let n_panicking = s.trace.instances_of(StmtId(3)).len();
        for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
            let mut v = Verifier::new(
                &s.program,
                &s.analysis,
                &s.config,
                &s.trace,
                VerifierMode::Edge,
            )
            .with_jobs(4)
            .with_resume(resume)
            .with_capture_threshold(Some(1))
            .with_fault(Some(switched_only_fault(FaultAction::Panic)));
            // The assertion is that this call returns at all: every host
            // panic is caught at the per-candidate isolation boundary.
            let results = v.verify_all(&requests);
            for (r, req) in results.iter().zip(&requests) {
                if s.trace.event(req.p).stmt == StmtId(3) {
                    assert_eq!(r.verdict, Verdict::NotId);
                    assert_eq!(r.outcome, RunOutcome::Crashed(CrashKind::Panic));
                }
            }
            let st = v.stats();
            assert_eq!(st.panics_isolated, n_panicking, "resume={resume:?}");
            assert_eq!(st.crashed_runs, n_panicking);
            if resume == ResumeMode::Auto {
                // The resume attempt panicked first; it was written off
                // as an invalid checkpoint and fell back to scratch.
                assert_eq!(st.invalid_checkpoints, n_panicking);
            }
        }
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_scratch() {
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        let mut clean = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        );
        let expected = clean.verify_all(&requests);

        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_capture_threshold(Some(1))
        .with_fault(Some(FaultEntry::at_stmt(
            StmtId(3),
            2,
            FaultAction::CorruptCheckpoint,
        )));
        let results = v.verify_all(&requests);
        // The poisoned checkpoint is detected, its run re-executes from
        // scratch, and every verdict matches the fault-free engine.
        assert_eq!(results, expected);
        let st = v.stats();
        assert_eq!(st.invalid_checkpoints, 1);
        assert_eq!(
            st.resumed_runs,
            st.reexecutions - 2,
            "the spine and the poisoned leaf run from scratch"
        );
        assert_eq!(st.panics_isolated, 0);
    }

    /// The guard runs inside `step`, which `main` calls in expression
    /// position: a checkpoint captured at it suspends below that call.
    const EXPR_CALL: &str = "\
        global a = 0; global c0 = 0;\
        fn step(i) { if c0 == 1 { a = a + i; } return i + 1; }\
        fn main() {\
            c0 = input();\
            let i = 0;\
            while i < 6 { i = step(i); }\
            print(a);\
        }";

    #[test]
    fn a_donor_below_an_expression_position_call_is_refused_and_counted() {
        let s = setup(EXPR_CALL, vec![0]);
        let a = s.analysis.index().vars().global("a").unwrap();
        let out = s.trace.outputs()[0].inst;
        let guards: Vec<InstId> = s
            .trace
            .insts()
            .filter(|&i| s.trace.event(i).is_predicate() && s.trace.event(i).call_depth == 1)
            .collect();
        assert_eq!(guards.len(), 6);
        // Two switches of the guard: the deeper one's run (the spine)
        // captures a checkpoint for the other on its way, below `step`.
        let requests: Vec<VerifyRequest> = [guards[1], guards[4]]
            .iter()
            .map(|&p| VerifyRequest {
                p,
                u: out,
                var: a,
                wrong_output: out,
                expected: Some(Value::Int(15)),
            })
            .collect();
        let mut scratch = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_resume(ResumeMode::Disabled);
        let expected = scratch.verify_all(&requests);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_capture_threshold(Some(1));
        let results = v.verify_all(&requests);
        assert_eq!(results, expected);
        let st = v.stats();
        assert!(st.inline_captures >= 1, "the spine captured the donor");
        assert_eq!(st.resume_refused, 1, "the donor is refused");
        assert_eq!(st.reexecutions, 2);
        assert_eq!(st.scratch_runs, 2, "both runs went from scratch");
        assert_eq!(st.resumed_runs + st.scratch_runs, st.reexecutions);
        assert_eq!(scratch.stats().resume_refused, 0);
    }

    /// The base run (input 1) takes the guard, shrinking the loop bound
    /// to 30; switching it leaves `lim` at 300, so the switched run is
    /// ~10× longer than the base, yet completes comfortably within the
    /// full budget.
    const LONG_SWITCH: &str = "\
        global n = 0; global i = 0; global lim = 300;\
        fn main() {\
            let c = input();\
            if c == 1 { n = 270; }\
            lim = lim - n;\
            while i < lim { i = i + 1; }\
            print(i);\
        }";

    #[test]
    fn long_switched_run_completes_at_the_full_budget() {
        let program = compile(LONG_SWITCH).unwrap();
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig {
            inputs: vec![1],
            step_budget: 10_000,
            switch: None,
            value_override: None,
            fault: None,
        };
        let trace = run_traced(&program, &analysis, &config).trace;
        assert!(trace.termination().is_normal());
        let mut v = Verifier::new(&program, &analysis, &config, &trace, VerifierMode::Edge);
        let guard = trace.instances_of(StmtId(1))[0];
        let out = trace.outputs()[0].inst;
        let i = analysis.index().vars().global("i").unwrap();
        let r = v.verify(guard, out, i, out, None);
        // The run at the full budget completes and yields a judgeable
        // run.
        assert_eq!(r.outcome, RunOutcome::Completed);
        let st = v.stats();
        assert_eq!(st.completed_runs, 1);
        assert_eq!(st.budget_exhausted_runs, 0);
    }

    #[test]
    fn long_switched_run_executes_once() {
        // LONG_SWITCH's switched run, ~10× the base run, executes once,
        // at the full budget: one traced run on the recorder.
        let program = compile(LONG_SWITCH).unwrap();
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig {
            inputs: vec![1],
            step_budget: 10_000,
            ..RunConfig::default()
        };
        let trace = run_traced(&program, &analysis, &config).trace;
        let mut v = Verifier::new(&program, &analysis, &config, &trace, VerifierMode::Edge);
        let guard = trace.instances_of(StmtId(1))[0];
        let out = trace.outputs()[0].inst;
        let i = analysis.index().vars().global("i").unwrap();
        // The recorder is process-global and other tests run
        // concurrently, so only this thread's events count: the window
        // span names its thread, and each traced run opens one `trace`
        // span (where it also adds 1 to `tracer.runs`).
        omislice_obs::reset();
        omislice_obs::set_enabled(true);
        let window = omislice_obs::span("test.window");
        let r = v.verify(guard, out, i, out, None);
        drop(window);
        omislice_obs::set_enabled(false);
        let rec = omislice_obs::drain();
        assert_eq!(r.outcome, RunOutcome::Completed);
        let thread = rec
            .events
            .iter()
            .find(|e| e.name == "test.window")
            .expect("the window span was recorded")
            .thread;
        let runs = rec
            .events
            .iter()
            .filter(|e| e.name == "trace" && e.thread == thread)
            .count();
        assert_eq!(runs, 1, "tracer.runs for the switched run");
    }

    #[test]
    fn nonterminating_switched_run_exhausts_the_full_budget() {
        // The nonterminating switch from `nonterminating_switch_is_not_id`,
        // verified without an expected value: the one execution expires
        // at the configured budget and settles as budget-exhausted.
        let src = "\
            global bound = 0;\
            fn main() {\
                let c = input();\
                if c == 1 { bound = 4; }\
                let i = 1;\
                while i != bound { i = i + 1; }\
                print(i);\
            }";
        let program = compile(src).unwrap();
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig {
            inputs: vec![1],
            step_budget: 10_000,
            switch: None,
            value_override: None,
            fault: None,
        };
        let trace = run_traced(&program, &analysis, &config).trace;
        let mut v = Verifier::new(&program, &analysis, &config, &trace, VerifierMode::Edge);
        let guard = trace.instances_of(StmtId(1))[0];
        let out = trace.outputs()[0].inst;
        let bound = analysis.index().vars().global("bound").unwrap();
        let r = v.verify(guard, out, bound, out, None);
        assert_eq!(r.verdict, Verdict::NotId);
        assert_eq!(r.outcome, RunOutcome::BudgetExhausted);
        let st = v.stats();
        assert_eq!(st.reexecutions, 1);
        assert_eq!(st.budget_exhausted_runs, 1);
    }

    #[test]
    fn injected_budget_fault_exhausts_every_switched_run() {
        // S7 (`b = b + 1`) runs in every switched re-execution, so a
        // budget fault there makes each one expire; the engine settles on
        // BudgetExhausted without disturbing determinism.
        let s = setup(BATCH, vec![0]);
        let requests = batch_requests(&s);
        let mut v = Verifier::new(
            &s.program,
            &s.analysis,
            &s.config,
            &s.trace,
            VerifierMode::Edge,
        )
        .with_jobs(2)
        .with_fault(Some(FaultEntry::at_stmt(
            StmtId(7),
            0,
            FaultAction::ExhaustBudget,
        )));
        let results = v.verify_all(&requests);
        for r in &results {
            assert_eq!(r.verdict, Verdict::NotId);
            assert_eq!(r.outcome, RunOutcome::BudgetExhausted);
        }
        let st = v.stats();
        assert_eq!(st.budget_exhausted_runs, st.reexecutions);
    }
}
