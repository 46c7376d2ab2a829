//! The evaluator: the one interpreter of the mini-language, generic over
//! a private `Sink` that decides what a run keeps beyond its outputs —
//! the way a Valgrind tool decides what to keep of the events its core
//! reports. Three sinks:
//!
//! * the no-op sink keeps nothing ([`run_plain`]): the paper's "Plain"
//!   configuration, also used for cheap output-only re-executions such as
//!   the critical-predicate search;
//! * the value sink keeps each statement's values ([`run_values`]): what
//!   a reader that compares values and nothing else needs (the
//!   ground-truth oracle's reference run, value profiles), at a fraction
//!   of a trace's bytes;
//! * the full sink records the dynamic dependence graph — data
//!   dependences, dynamic control dependences, region nesting, timestamps
//!   ([`run_traced`]), the paper's "Graph" configuration — and captures
//!   the checkpoints switched runs resume from.
//!
//! Every run keeps frames, globals and cells, the occurrence counters
//! behind *predicate switching* (forcing a chosen dynamic predicate
//! instance to take the opposite branch), value overrides and injected
//! faults, the input cursor, the outputs and the instance counter. A
//! plain run is the trace erasure of a traced one: the three agree by
//! construction.

use crate::snapshot::Checkpoint;
use crate::store::{Cell, Defs, Frame, Globals, Provenance, Slot};
use crate::{OverrideSpec, RunConfig, SwitchSpec};
use omislice_analysis::ProgramAnalysis;
use omislice_lang::{
    BinOp, Block, Expr, ExprId, ExprKind, FnDecl, FnId, FnInfo, Program, ProgramIndex, Stmt,
    StmtId, StmtKind, UnOp, VarId,
};
use omislice_trace::{
    CrashKind, DescentChain, FaultAction, FaultEntry, FaultSite, InstId, OutputRecord, RawEvent,
    Recorder, Termination, Trace, Value,
};

/// Maximum call depth; deeper recursion is reported as a runtime error
/// rather than overflowing the host stack.
pub const MAX_CALL_DEPTH: usize = 96;

/// Result of an untraced execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainRun {
    /// Values printed, in order.
    pub outputs: Vec<Value>,
    /// How the run ended.
    pub termination: Termination,
    /// Number of statements executed.
    pub steps: u64,
    /// How many `input()` calls ran past the end of the input stream
    /// (each yielded `0`).
    pub input_underflows: u64,
}

impl PlainRun {
    /// Whether the run terminated normally.
    pub fn is_normal(&self) -> bool {
        self.termination.is_normal()
    }
}

/// Executes `program` under `config` without building a trace.
///
/// Builds the program's [`ProgramIndex`] first; a caller that already
/// holds one (every analyzed program does) should use
/// [`run_plain_indexed`] instead.
///
/// # Examples
///
/// ```
/// use omislice_interp::{run_plain, RunConfig};
/// use omislice_lang::compile;
/// use omislice_trace::Value;
///
/// let program = compile("fn main() { print(2 * input()); }")?;
/// let run = run_plain(&program, &RunConfig::with_inputs(vec![21]));
/// assert_eq!(run.outputs, vec![Value::Int(42)]);
/// # Ok::<(), omislice_lang::FrontendError>(())
/// ```
pub fn run_plain(program: &Program, config: &RunConfig) -> PlainRun {
    run_plain_indexed(program, &ProgramIndex::build(program), config)
}

/// Executes `program` under `config` without building a trace, resolving
/// names, calls and slots through `index`, which must have been built
/// for the same program.
///
/// The run is bounded by its own step count: one per statement entry
/// and one per `while` condition ([`PlainRun::steps`]), which stops a
/// loop earlier than a traced run's instance count would.
pub fn run_plain_indexed(program: &Program, index: &ProgramIndex, config: &RunConfig) -> PlainRun {
    let mut e = Eval::new(program, index, config, ());
    let termination = termination(e.run_main());
    PlainRun {
        outputs: e.outputs.into_iter().map(|o| o.value).collect(),
        termination,
        steps: e.ticks,
        input_underflows: e.input_underflows,
    }
}

/// The values one run computed, per statement, in execution order: the
/// assigned, stored, printed and returned values and the predicate
/// outcomes the tracer records in its events' `value` field. Whether an
/// instance has a value depends only on its statement's kind, so the
/// `k`-th value of a statement is the value of its `k`-th instance.
/// Nine bytes per valued instance: the payload, and whether it is a
/// boolean, grouped by statement behind one offset per statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmtValues {
    /// Where each statement's values start: `stmt_count + 1` offsets
    /// into `words` and `bools`.
    off: Vec<u32>,
    /// Payloads, grouped by statement, each group in execution order
    /// (booleans as 0/1).
    words: Vec<i64>,
    /// Whether each payload is a boolean, parallel to `words`.
    bools: Vec<bool>,
}

impl StmtValues {
    /// The index range of `stmt`'s values, empty past the program.
    fn range(&self, stmt: StmtId) -> std::ops::Range<usize> {
        let s = stmt.index();
        match (self.off.get(s), self.off.get(s + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    fn value(&self, i: usize) -> Value {
        if self.bools[i] {
            Value::Bool(self.words[i] != 0)
        } else {
            Value::Int(self.words[i])
        }
    }

    /// The value of the `k`-th (0-based) valued instance of `stmt`, if
    /// it ran that often.
    pub fn get(&self, stmt: StmtId, k: usize) -> Option<Value> {
        let range = self.range(stmt);
        (k < range.len()).then(|| self.value(range.start + k))
    }

    /// The values of `stmt`'s instances, in execution order.
    pub fn of(&self, stmt: StmtId) -> impl Iterator<Item = Value> + '_ {
        self.range(stmt).map(|i| self.value(i))
    }

    /// Statements covered (the program's statement count).
    pub fn stmt_count(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Bytes the values occupy: nine per valued instance.
    pub fn bytes(&self) -> usize {
        9 * self.words.len()
    }
}

/// The value sink: a value run logs each value with its statement in
/// execution order, then groups the log by statement once, at the end —
/// no per-statement vectors to set up, grow or shrink. The log is a
/// list of chunks, so it grows without copying what it holds.
#[derive(Default)]
struct ValueLog {
    /// Filled chunks, in execution order.
    full: Vec<(Vec<u32>, Vec<i64>)>,
    /// The chunk being filled: statement per value, its top bit set when
    /// the value is a boolean, and payload per value (booleans as 0/1).
    tags: Vec<u32>,
    words: Vec<i64>,
}

/// The boolean flag in a [`ValueLog`] tag.
const BOOL_TAG: u32 = 1 << 31;

/// Entries of a value log's first chunk; each next chunk doubles, up to
/// [`MAX_CHUNK`].
const FIRST_CHUNK: usize = 1 << 10;
const MAX_CHUNK: usize = 1 << 16;

impl ValueLog {
    #[inline]
    fn push(&mut self, tag: u32, word: i64) {
        if self.tags.len() == self.tags.capacity() {
            let cap = (2 * self.tags.capacity()).clamp(FIRST_CHUNK, MAX_CHUNK);
            let tags = std::mem::replace(&mut self.tags, Vec::with_capacity(cap));
            let words = std::mem::replace(&mut self.words, Vec::with_capacity(cap));
            if !tags.is_empty() {
                self.full.push((tags, words));
            }
        }
        self.tags.push(tag);
        self.words.push(word);
    }

    /// Groups the log by statement (a counting sort, stable within each
    /// statement) over a program of `stmts` statements.
    fn into_values(self, stmts: usize) -> StmtValues {
        let chunks = || {
            let last = std::iter::once((&self.tags, &self.words));
            self.full.iter().map(|(t, w)| (t, w)).chain(last)
        };
        let mut off = vec![0u32; stmts + 1];
        for (tags, _) in chunks() {
            for &t in tags {
                off[(t & !BOOL_TAG) as usize + 1] += 1;
            }
        }
        for s in 1..off.len() {
            off[s] += off[s - 1];
        }
        let n = off[stmts] as usize;
        let mut words = vec![0i64; n];
        let mut bools = vec![false; n];
        // `off[s]` serves as statement `s`'s cursor, which leaves it at
        // the start of `s + 1`; one rotation restores the offsets.
        for (tags, chunk) in chunks() {
            for (&t, &w) in tags.iter().zip(chunk) {
                let cursor = &mut off[(t & !BOOL_TAG) as usize];
                words[*cursor as usize] = w;
                bools[*cursor as usize] = t & BOOL_TAG != 0;
                *cursor += 1;
            }
        }
        off.rotate_right(1);
        off[0] = 0;
        StmtValues { off, words, bools }
    }
}

/// Result of a value run ([`run_values`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueRun {
    /// Values printed, in order.
    pub outputs: Vec<Value>,
    /// How the run ended.
    pub termination: Termination,
    /// The values each statement computed, in execution order.
    pub values: StmtValues,
}

/// Executes `program` under `config` keeping only values: the outputs,
/// the termination, and per statement the values [`run_traced`] records
/// in its events, with no dependences, regions or event columns.
///
/// The run stops exactly where `run_traced` would: the step budget caps
/// the instances recorded (not [`run_plain`]'s steps, which also count
/// each `while` entry), checked before an injected fault fires. A value
/// run is never scoped by a [`Supervisor`](omislice_trace::Supervisor)
/// deadline, which only the failing run's recording observes.
pub fn run_values(program: &Program, index: &ProgramIndex, config: &RunConfig) -> ValueRun {
    let mut e = Eval::new(program, index, config, ValueLog::default());
    let termination = termination(e.run_main());
    ValueRun {
        outputs: e.outputs.into_iter().map(|o| o.value).collect(),
        termination,
        values: e.sink.into_values(program.stmt_count() as usize),
    }
}

/// Result of a traced execution.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The full trace (dynamic dependence graph).
    pub trace: Trace,
    /// The instance whose branch outcome was forcibly switched, if a
    /// [`SwitchSpec`] was supplied and that instance was reached.
    pub switched: Option<InstId>,
    /// The instance whose value was overridden, if an [`OverrideSpec`]
    /// was supplied and that instance was reached.
    pub overridden: Option<InstId>,
    /// How many `input()` calls ran past the end of the input stream
    /// (each yielded `0`). Nonzero means the workload was silently
    /// truncated — worth surfacing instead of hiding behind zeros.
    pub input_underflows: u64,
}

/// Executes `program` under `config`, producing a full trace.
///
/// The `analysis` must have been built for the same program: the
/// interpreter consults its per-statement static control-dependence
/// parents to attribute dynamic control dependences.
///
/// # Examples
///
/// ```
/// use omislice_analysis::ProgramAnalysis;
/// use omislice_interp::{run_traced, RunConfig};
/// use omislice_lang::compile;
/// use omislice_trace::Value;
///
/// let program = compile("fn main() { print(input() + 1); }")?;
/// let analysis = ProgramAnalysis::build(&program);
/// let run = run_traced(&program, &analysis, &RunConfig::with_inputs(vec![41]));
/// assert_eq!(run.trace.output_values(), vec![Value::Int(42)]);
/// # Ok::<(), omislice_lang::FrontendError>(())
/// ```
pub fn run_traced(program: &Program, analysis: &ProgramAnalysis, config: &RunConfig) -> TracedRun {
    run_traced_capturing(program, analysis, config, &[], None).0
}

/// Like [`run_traced`], but additionally captures a [`Checkpoint`] of the
/// interpreter state at every requested predicate instance it reaches —
/// the first half of the checkpoint-resume verification engine. The run
/// itself is unaffected: traces are identical with or without capture.
///
/// If the occurrence counter of a requested predicate is bumped during
/// its own condition evaluation (recursion through a call in the
/// condition), more than one checkpoint can carry the same spec; every
/// one of them is a consistent suspension at or before the switch point,
/// so resuming from any of them reproduces the switched run.
///
/// With a `chain`, the run stops recording once the chain's target is
/// recorded or ruled out (see [`crate::run_switched`]).
pub(crate) fn run_traced_capturing(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    capture: &[SwitchSpec],
    chain: Option<DescentChain>,
) -> (TracedRun, Vec<Checkpoint>) {
    let sink = Full::new(
        analysis,
        Recorder::new(),
        Vec::new(),
        program,
        capture,
        chain,
    );
    let mut e = Eval::new(program, analysis.index(), config, sink);
    // The recorder guard sits outside the event-append loop: one
    // `enabled()` check and one counter flush per run, never per event.
    let span = omislice_obs::span("trace");
    let result = e.run_main();
    let (run, captured) = e.into_traced(result);
    if omislice_obs::enabled() {
        let cols = run.trace.columns();
        omislice_obs::counter_add("tracer.events", cols.len() as u64);
        omislice_obs::counter_add("tracer.runs", 1);
        omislice_obs::counter_add("columnar.bytes", cols.bytes() as u64);
    }
    drop(span);
    (run, captured)
}

/// Resumes the suspended base run from `checkpoint` with `config.switch`
/// armed (falling back to the checkpoint's own spec when unset),
/// re-executing only the suffix. The armed switch is allowed to sit
/// *deeper* in the trace than the checkpoint: the segment between the
/// suspension point and the switch replays the original execution by
/// determinism, which is what lets one checkpoint serve every candidate
/// downstream of it (the checkpoint-trie ancestor resume) and lets that
/// replayed segment capture further checkpoints en route (`capture`).
/// Returns `None` when the suspended call stack cannot be re-entered (a
/// frame's function or the static path to its suspension point no longer
/// resolves, or a frame's tables do not fit its function) — the caller
/// reports the checkpoint invalid and falls back to a from-scratch run.
/// Resumability and structural validity are checked by the caller
/// ([`crate::resume_switched`]) before this runs.
///
/// The resumed trace is byte-identical to `run_traced` under
/// `config.switched(checkpoint.spec)`: the recorded prefix of `base` is
/// reused verbatim (instance numbering continues from the cursor), the
/// restored interpreter state equals the from-scratch state at the switch
/// point by determinism, and the step budget still counts prefix events,
/// so budget semantics are preserved exactly. An injected fault entry
/// keeps the same alignment: the occurrence counter it fires on is seeded
/// with `fault_seen`, the prefix instances of the fault statement (the
/// caller refuses resumption when the fault would have fired inside the
/// prefix).
/// The dependence buffer needs no restoring: it is empty at every
/// resumable capture point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resume_switched_impl(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    checkpoint: &Checkpoint,
    base: &Trace,
    capture: &[SwitchSpec],
    fault_seen: u32,
    chain: Option<DescentChain>,
) -> Option<(TracedRun, Vec<Checkpoint>)> {
    let rec = Recorder::from_prefix(&base.columns_arc(), checkpoint.trace_len);
    let regions = checkpoint.region_stack.clone();
    let sink = Full::new(analysis, rec, regions, program, capture, chain);
    let mut e = Eval::new(program, analysis.index(), config, sink);
    // Reconstruct, per frame, the static path from the function body to
    // the statement the frame is suspended at: the call site of the next
    // frame, or the switched predicate itself for the innermost frame.
    let mut paths = Vec::with_capacity(checkpoint.frames.len());
    for (k, frame) in checkpoint.frames.iter().enumerate() {
        let target = match checkpoint.frames.get(k + 1) {
            Some(next) => next.call_site.expect("is_resumable checked call sites"),
            None => checkpoint.spec.pred,
        };
        let decl = e.fns.get(frame.func.index())?;
        let info = analysis.index().function(frame.func);
        if frame.locals.len() != info.locals.len() || frame.preds.len() != info.preds as usize {
            return None;
        }
        let mut steps = Vec::new();
        if !find_path(&decl.body, target, &mut steps) {
            return None;
        }
        paths.push(steps);
    }
    // The state the base run had at the suspension, with the
    // checkpoint's own switch armed unless the config arms one.
    e.input_pos = checkpoint.input_pos;
    e.input_underflows = checkpoint.input_underflows;
    e.next = checkpoint.trace_len as u32;
    e.switch = e.switch.or(Some(checkpoint.spec));
    e.value_override = None;
    e.fault_seen = fault_seen;
    e.occ.clone_from(&checkpoint.occ);
    e.outputs = base.outputs()[..checkpoint.outputs_len].to_vec();
    e.globals = checkpoint.globals.clone();
    e.frames = vec![checkpoint.frames[0].clone()];
    let result = e.resume_main(checkpoint, &paths);
    Some(e.into_traced(result))
}

/// Capture requests indexed by predicate statement, each list sorted for
/// binary search; empty when nothing is requested.
fn capture_table(program: &Program, capture: &[SwitchSpec]) -> Vec<Vec<u32>> {
    if capture.is_empty() {
        return Vec::new();
    }
    let mut table = vec![Vec::new(); program.stmt_count() as usize];
    for spec in capture {
        if let Some(occs) = table.get_mut(spec.pred.index()) {
            occs.push(spec.occurrence);
        }
    }
    for occs in &mut table {
        occs.sort_unstable();
    }
    table
}

// --- sinks -----------------------------------------------------------

/// What a run keeps beyond what the evaluator keeps for every run. The
/// evaluator reports each instance it completes, the operand sources it
/// reads, the calls and regions it enters and the predicates it may
/// capture a checkpoint at; every hook but [`record`](Self::record)
/// defaults to doing nothing, so a sink pays only for what it keeps and
/// monomorphization removes the rest.
trait Sink {
    /// Whether the evaluator's tick count (one per statement entry and
    /// per `while` condition) bounds the run. Otherwise the admitted
    /// instances do, checked before an injected fault fires.
    const TICKS: bool;

    /// What the run's cells keep of the instances that defined them.
    type Defs: Provenance;

    /// Whether the next instance may run, once it fits the step budget.
    /// `false` stops the run as budget-exhausted.
    #[inline]
    fn admit(&mut self) -> bool {
        true
    }

    /// Keeps the admitted instance `inst`: its event, the window of the
    /// dependence buffer from `mark`, and its call depth.
    fn record(&mut self, inst: InstId, ev: Ev, mark: usize, depth: u32);

    /// Sets the defined variable of the instance just recorded.
    #[inline]
    fn def_var(&mut self, _var: VarId) {}

    /// The length of the dependence buffer, where a window starts.
    #[inline]
    fn mark(&self) -> usize {
        0
    }

    /// Appends an operand's defining instances to the dependence buffer.
    #[inline]
    fn read(&mut self, _defs: &[InstId]) {}

    /// Truncates the dependence buffer back to `mark`.
    #[inline]
    fn truncate(&mut self, _mark: usize) {}

    /// The distinct sources in the dependence buffer from `start` to
    /// `end` (its end when `None`): what an expression-position call's
    /// parameter inherits from its argument.
    #[inline]
    fn sources(&mut self, _start: usize, _end: Option<usize>) -> Self::Defs {
        Self::Defs::default()
    }

    /// The dynamic control-dependence parent of `stmt`, about to execute
    /// in the innermost of `frames`.
    #[inline]
    fn cd_of(&self, _frames: &[Frame<Self::Defs>], _stmt: StmtId) -> Option<InstId> {
        None
    }

    /// Prepares a freshly entered frame of a function described by `info`.
    #[inline]
    fn enter(&self, _frame: &mut Frame<Self::Defs>, _info: &FnInfo) {}

    /// Notes the instance and outcome of a predicate statement in the
    /// innermost of the frames.
    #[inline]
    fn predicate(&self, _: &mut [Frame<Self::Defs>], _: StmtId, _: InstId, _outcome: bool) {}

    /// Opens the region of predicate instance `inst`.
    #[inline]
    fn push_region(&mut self, _inst: InstId) {}

    /// Closes the innermost open region.
    #[inline]
    fn pop_region(&mut self) {}

    /// Whether to capture a checkpoint at entry to the next instance of
    /// predicate `stmt`, given the occurrence counters `occ`.
    #[inline]
    fn captures(&self, _stmt: StmtId, _occ: &[u32]) -> bool {
        false
    }

    /// Keeps a checkpoint the evaluator captured, adding the open regions.
    #[inline]
    fn keep(&mut self, _checkpoint: Checkpoint<Self::Defs>) {}
}

/// The no-op sink: a plain run keeps nothing and is bounded by its ticks.
impl Sink for () {
    const TICKS: bool = true;
    type Defs = ();

    #[inline]
    fn record(&mut self, _: InstId, _: Ev, _: usize, _: u32) {}
}

/// The value sink: a value run keeps each statement's values.
impl Sink for ValueLog {
    const TICKS: bool = false;
    type Defs = ();

    #[inline]
    fn record(&mut self, _: InstId, ev: Ev, _: usize, _: u32) {
        match ev.value {
            None => {}
            Some(Value::Int(n)) => self.push(ev.stmt.0, n),
            Some(Value::Bool(b)) => self.push(ev.stmt.0 | BOOL_TAG, b as i64),
        }
    }
}

/// The full sink: records the trace and captures checkpoints.
struct Full<'a> {
    analysis: &'a ProgramAnalysis,
    /// The column writer the run appends into, polled for the
    /// supervisor's deadline.
    rec: Recorder,
    /// The run's one dependence buffer. Evaluating an expression appends
    /// the defining instances of the operands it reads, in evaluation
    /// order (index before cell, lhs before rhs, arguments in order); a
    /// statement records the window it opened, deduplicated in place, and
    /// truncates the buffer back. Windows of callers suspended in an
    /// expression-position call sit below the callee's.
    deps: Vec<InstId>,
    /// Scratch for deduplicating long dependence windows.
    scratch: Vec<(InstId, u32)>,
    /// Innermost guarding predicate instances (region nesting), crossing
    /// call boundaries.
    region_stack: Vec<InstId>,
    /// Predicate occurrences at which to capture a [`Checkpoint`],
    /// indexed by statement, sorted. Empty on ordinary and resumed runs.
    capture: Vec<Vec<u32>>,
    captured: Vec<Checkpoint>,
    /// The descent chain a switched run follows, if it stops recording
    /// once the chain's target is decided.
    horizon: Option<Horizon>,
    /// Whether events are still recorded: cleared once `horizon` is
    /// passed, after which every hook but the recorder's deadline cadence
    /// does nothing.
    live: bool,
}

/// Where a switched run stands on its [`DescentChain`]: the region the
/// walk is in and how many of its sub-regions have begun.
struct Horizon {
    chain: DescentChain,
    /// Whether the switch point has been recorded.
    armed: bool,
    /// Index of the step being looked for.
    level: usize,
    /// The switched counterpart of the region the step lies in (`None`:
    /// the whole execution).
    head: Option<InstId>,
    /// Sub-regions of `head` begun so far.
    seen: u32,
}

impl Horizon {
    fn new(chain: DescentChain) -> Self {
        Horizon {
            head: chain.root,
            seen: chain.started,
            chain,
            armed: false,
            level: 0,
        }
    }

    /// Advances over the just-recorded `inst` (statement `stmt`, branch
    /// `branch`, region parent `parent`); true once the chain's target
    /// has been recorded or ruled out. A region is an interval, so while
    /// `head`'s stays open an event lies in it exactly when its parent
    /// does not precede `head`.
    fn passed(
        &mut self,
        inst: InstId,
        stmt: StmtId,
        branch: Option<bool>,
        parent: Option<InstId>,
    ) -> bool {
        if !self.armed {
            self.armed = inst == self.chain.switch;
            return self.armed && self.chain.steps.is_empty();
        }
        if let Some(h) = self.head {
            if parent.is_none_or(|rp| rp < h) {
                return true; // `head` closed before the position came
            }
        }
        if parent != self.head {
            return false;
        }
        let step = self.chain.steps[self.level];
        self.seen += 1;
        if self.seen <= step.position {
            return false;
        }
        if stmt != step.stmt || self.level + 1 == self.chain.steps.len() || branch != step.branch {
            return true;
        }
        self.level += 1;
        self.head = Some(inst);
        self.seen = 0;
        false
    }
}

impl<'a> Full<'a> {
    fn new(
        analysis: &'a ProgramAnalysis,
        rec: Recorder,
        region_stack: Vec<InstId>,
        program: &Program,
        capture: &[SwitchSpec],
        chain: Option<DescentChain>,
    ) -> Self {
        Full {
            analysis,
            rec,
            deps: Vec::new(),
            scratch: Vec::new(),
            region_stack,
            capture: capture_table(program, capture),
            captured: Vec::new(),
            horizon: chain.map(Horizon::new),
            live: true,
        }
    }
}

impl Sink for Full<'_> {
    const TICKS: bool = false;
    type Defs = Defs;

    /// Refuses once a scoped deadline expired at the recorder's last
    /// counted check (the paper's expired-timer rule: the run terminates
    /// as budget-exhausted).
    #[inline]
    fn admit(&mut self) -> bool {
        !self.rec.deadline_hit()
    }

    /// Records the event with its timestamp, region parent and call depth
    /// and the deduplicated window as its data dependences, then advances
    /// the horizon; once it is passed, later events are only counted.
    #[inline]
    fn record(&mut self, inst: InstId, ev: Ev, mark: usize, depth: u32) {
        if !self.live {
            self.rec.tick();
            return;
        }
        let n = dedup_in_place(&mut self.deps[mark..], &mut self.scratch);
        let region_parent = self.region_stack.last().copied();
        let recorded = self.rec.push(RawEvent {
            stmt: ev.stmt,
            value: ev.value,
            branch: ev.branch,
            deps: &self.deps[mark..mark + n],
            cd_parent: ev.cd_parent,
            region_parent,
            def_var: ev.def_var,
            cell_index: ev.cell_index,
            call_depth: depth,
        });
        debug_assert_eq!(recorded, inst, "the evaluator counts what is recorded");
        self.deps.truncate(mark);
        if let Some(h) = &mut self.horizon {
            self.live = !h.passed(inst, ev.stmt, ev.branch, region_parent);
        }
    }

    #[inline]
    fn def_var(&mut self, var: VarId) {
        if self.live {
            self.rec.set_def_var_last(var);
        }
    }

    #[inline]
    fn mark(&self) -> usize {
        self.deps.len()
    }

    #[inline]
    fn read(&mut self, defs: &[InstId]) {
        if self.live {
            self.deps.extend_from_slice(defs);
        }
    }

    #[inline]
    fn truncate(&mut self, mark: usize) {
        self.deps.truncate(mark);
    }

    fn sources(&mut self, start: usize, end: Option<usize>) -> Defs {
        if !self.live {
            return Defs::default();
        }
        let end = end.unwrap_or(self.deps.len());
        let window = &mut self.deps[start..end];
        let n = dedup_in_place(window, &mut self.scratch);
        Defs::from_distinct(&window[..n])
    }

    /// The most recent instance in `frame` of a static CD parent whose
    /// branch outcome matches, falling back to the parent inherited from
    /// the call site for statements at the top level of their function.
    fn cd_of(&self, frames: &[Frame], stmt: StmtId) -> Option<InstId> {
        if !self.live {
            return None;
        }
        let frame = frames.last().expect("at least one frame");
        let index = self.analysis.index();
        let mut best: Option<InstId> = None;
        for cp in self.analysis.cd_parents(stmt) {
            if let Some(Some((inst, outcome))) = frame.preds.get(index.pred_slot(cp.pred)) {
                if *outcome == cp.branch {
                    best = Some(best.map_or(*inst, |b| b.max(*inst)));
                }
            }
        }
        best.or(frame.inherited_cd)
    }

    /// Clears the frame's predicate table and inherits the innermost open
    /// region as the control-dependence parent of the callee's top level.
    fn enter(&self, frame: &mut Frame, info: &FnInfo) {
        if !self.live {
            return;
        }
        frame.preds.clear();
        frame.preds.resize(info.preds as usize, None);
        frame.inherited_cd = self.region_stack.last().copied();
    }

    #[inline]
    fn predicate(&self, frames: &mut [Frame], stmt: StmtId, inst: InstId, outcome: bool) {
        if !self.live {
            return;
        }
        let frame = frames.last_mut().expect("at least one frame");
        frame.preds[self.analysis.index().pred_slot(stmt)] = Some((inst, outcome));
    }

    #[inline]
    fn push_region(&mut self, inst: InstId) {
        if self.live {
            self.region_stack.push(inst);
        }
    }

    #[inline]
    fn pop_region(&mut self) {
        if self.live {
            self.region_stack.pop();
        }
    }

    #[inline]
    fn captures(&self, stmt: StmtId, occ: &[u32]) -> bool {
        let occs = self.capture.get(stmt.index());
        occs.is_some_and(|occs| occs.binary_search(&occ[stmt.index()]).is_ok())
    }

    fn keep(&mut self, mut checkpoint: Checkpoint) {
        checkpoint.region_stack = self.region_stack.clone();
        self.captured.push(checkpoint);
    }
}

// --- the evaluator ---------------------------------------------------

/// Why execution stopped abnormally.
enum Stop {
    Budget,
    Crash(CrashKind, String),
}

/// How a run that stopped with `result` terminated.
fn termination(result: Result<(), Stop>) -> Termination {
    match result {
        Ok(()) => Termination::Normal,
        Err(Stop::Budget) => Termination::BudgetExhausted,
        Err(Stop::Crash(kind, msg)) => Termination::RuntimeError(kind, msg),
    }
}

/// Intra-procedural control flow signal.
enum Flow {
    Normal,
    Break,
    Continue,
    /// A returned value and the `return` instance that defined it (`None`
    /// for a bare `return;`).
    Return(Value, Option<InstId>),
}

type ExecResult = Result<Flow, Stop>;
type EvalResult = Result<Value, Stop>;

/// The fields of an event about to be recorded, short of its data
/// dependences (a window of the dependence buffer) and of what the
/// recorder derives itself (timestamp, region parent, call depth).
#[derive(Clone, Copy)]
struct Ev {
    stmt: StmtId,
    cd_parent: Option<InstId>,
    value: Option<Value>,
    branch: Option<bool>,
    def_var: Option<VarId>,
    cell_index: Option<i64>,
}

impl Ev {
    fn new(stmt: StmtId, cd_parent: Option<InstId>) -> Self {
        Ev {
            stmt,
            cd_parent,
            value: None,
            branch: None,
            def_var: None,
            cell_index: None,
        }
    }
}

struct Eval<'a, S: Sink> {
    index: &'a ProgramIndex,
    /// Function declarations by [`FnId`].
    fns: Vec<&'a FnDecl>,
    inputs: &'a [i64],
    input_pos: usize,
    /// `input()` calls that ran past the end of the stream (yielding 0).
    input_underflows: u64,
    budget: u64,
    /// Statement entries and `while` conditions so far, counted only
    /// when the sink's ticks bound the run.
    ticks: u64,
    /// The instance the next event gets: the events so far, a resumed
    /// run's prefix included.
    next: u32,
    switch: Option<SwitchSpec>,
    switched: Option<InstId>,
    value_override: Option<OverrideSpec>,
    overridden: Option<InstId>,
    /// Deterministic fault to inject, if any.
    fault: Option<FaultEntry>,
    /// Instances of the fault statement seen so far (the plan fires on
    /// its `occurrence`-th). Seeded from the prefix on resumed runs.
    fault_seen: u32,
    /// Per-statement execution counters (for switch occurrence matching),
    /// dense over `StmtId`.
    occ: Vec<u32>,
    outputs: Vec<OutputRecord>,
    globals: Globals<S::Defs>,
    frames: Vec<Frame<S::Defs>>,
    /// Popped frames kept for reuse: once the call stack has been this
    /// deep, a call allocates nothing.
    spare: Vec<Frame<S::Defs>>,
    /// Argument values of calls being bound, each with the start of its
    /// sources' window in the dependence buffer; a stack like it.
    args: Vec<(Value, u32)>,
    sink: S,
}

impl<'a, S: Sink> Eval<'a, S> {
    fn new(program: &'a Program, index: &'a ProgramIndex, config: &'a RunConfig, sink: S) -> Self {
        Eval {
            index,
            fns: program.functions().collect(),
            inputs: &config.inputs,
            input_pos: 0,
            input_underflows: 0,
            budget: config.step_budget,
            ticks: 0,
            next: 0,
            switch: config.switch,
            switched: None,
            value_override: config.value_override,
            overridden: None,
            fault: config.fault,
            fault_seen: 0,
            occ: vec![0; program.stmt_count() as usize],
            outputs: Vec::new(),
            globals: Globals::init(program, index),
            frames: Vec::new(),
            spare: Vec::new(),
            args: Vec::new(),
            sink,
        }
    }

    fn run_main(&mut self) -> Result<(), Stop> {
        let main = self
            .index
            .function_id("main")
            .ok_or_else(|| missing_callee("main"))?;
        let info = self.index.function(main);
        let mut frame = Frame::default();
        frame.enter(main, info, None);
        self.sink.enter(&mut frame, info);
        self.frames.push(frame);
        match self.exec_block(&self.fns[main.index()].body)? {
            Flow::Normal | Flow::Return(..) => Ok(()),
            Flow::Break | Flow::Continue => {
                unreachable!("checker rejects break/continue outside loops")
            }
        }
    }

    /// Counts a statement entry or a `while` condition when the sink's
    /// ticks bound the run, stopping it once they exceed the budget.
    #[inline]
    fn tick(&mut self) -> Result<(), Stop> {
        if S::TICKS {
            self.ticks += 1;
            if self.ticks > self.budget {
                return Err(Stop::Budget);
            }
        }
        Ok(())
    }

    /// Completes the next instance, whose data dependences are the
    /// operand sources from `mark` in the dependence buffer. Fails when
    /// the sink refuses it, when it would exceed a budget that instances
    /// bound, or when an injected fault fires at this instance. Forced
    /// inline like `exec_stmt_inner`, so a sink that keeps nothing builds
    /// no event.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn record(&mut self, ev: Ev, mark: usize) -> Result<InstId, Stop> {
        if !S::TICKS && (u64::from(self.next) >= self.budget || !self.sink.admit()) {
            return Err(Stop::Budget);
        }
        fault_fires(&mut self.fault_seen, self.fault, ev.stmt)?;
        let inst = InstId(self.next);
        self.next += 1;
        let depth = (self.frames.len() - 1) as u32;
        self.sink.record(inst, ev, mark, depth);
        Ok(inst)
    }

    /// Applies a pending value override if this is the chosen instance
    /// of the chosen statement; counts occurrences of that statement.
    fn maybe_override(&mut self, stmt: StmtId, computed: Value) -> (Value, bool) {
        let Some(o) = self.value_override else {
            return (computed, false);
        };
        if o.stmt != stmt || self.overridden.is_some() {
            return (computed, false);
        }
        let occurrence = self.occ[stmt.index()];
        self.occ[stmt.index()] += 1;
        if occurrence == o.occurrence {
            (o.value, true)
        } else {
            (computed, false)
        }
    }

    /// Looks a `Var`/`Load` expression's name up in the parse-time
    /// resolution table ([`ProgramIndex::resolved_var`]); one array load
    /// instead of two string-hash lookups per read.
    #[inline]
    fn resolved(&self, id: ExprId, name: &str) -> Result<VarId, Stop> {
        self.index.resolved_var(id).ok_or_else(|| unknown_var(name))
    }

    /// Reads a scalar, reporting its defining instances to the sink.
    /// Globals are numbered first, so a global needs no frame lookup.
    fn read_var(&mut self, id: ExprId, name: &str) -> EvalResult {
        let var = self.resolved(id, name)?;
        let cell = match self.globals.get(var) {
            Some(Slot::Scalar(cell)) => Some(cell),
            Some(Slot::Array(_)) => {
                return Err(Stop::Crash(
                    CrashKind::TypeError,
                    format!("array `{name}` used as a scalar"),
                ))
            }
            None => {
                let frame = self.frames.last().expect("at least one frame");
                frame.local(self.index, var)
            }
        };
        let cell = cell.ok_or_else(|| uninit_read(name))?;
        let value = cell.value.ok_or_else(|| uninit_read(name))?;
        self.sink.read(cell.defs.as_slice());
        Ok(value)
    }

    /// Writes a scalar through its pre-resolved slot, defined by the
    /// single instance `inst`; `name` is only for error messages.
    #[inline]
    fn write_scalar(
        &mut self,
        var: VarId,
        name: &str,
        value: Value,
        inst: InstId,
    ) -> Result<(), Stop> {
        let cell = Cell::new(value, S::Defs::one(inst));
        let slot = match self.globals.get_mut(var) {
            Some(Slot::Scalar(c)) => c,
            Some(Slot::Array(_)) => {
                return Err(Stop::Crash(
                    CrashKind::TypeError,
                    format!("cannot assign whole array `{name}`"),
                ))
            }
            None => {
                let frame = self.frames.last_mut().expect("at least one frame");
                let local = frame.local_mut(self.index, var);
                local.expect("a defined variable is a local or a global")
            }
        };
        *slot = cell;
        Ok(())
    }

    // --- expression evaluation ---------------------------------------

    /// Evaluates `expr`, reporting the defining instances of every
    /// operand it reads to the sink.
    fn eval(&mut self, expr: &Expr) -> EvalResult {
        match &expr.kind {
            ExprKind::Int(n) => Ok(Value::Int(*n)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Var(name) => self.read_var(expr.id, name),
            ExprKind::Load { name, index } => {
                let iv = self.eval(index)?;
                let idx = int_operand(iv, "array index")?;
                let var = self.resolved(expr.id, name)?;
                let cell = element(&self.globals, var, name, idx)?;
                let value = cell.value.expect("array cells are initialized");
                self.sink.read(cell.defs.as_slice());
                Ok(value)
            }
            ExprKind::Call { callee, args } => {
                let mark = self.sink.mark();
                let arg_mark = self.args.len();
                for a in args {
                    let start = self.sink.mark() as u32;
                    let v = self.eval(a)?;
                    self.args.push((v, start));
                }
                let target = self.index.expr_callee(expr.id);
                let (value, def) = self.call_function(target, callee, mark, arg_mark, None)?;
                self.sink.read(def.as_slice());
                Ok(value)
            }
            ExprKind::Input => {
                let v = match self.inputs.get(self.input_pos) {
                    Some(&v) => v,
                    None => {
                        self.input_underflows += 1;
                        0
                    }
                };
                self.input_pos += 1;
                Ok(Value::Int(v))
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand)?;
                apply_unary(*op, v)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                apply_binary(*op, l, r)
            }
        }
    }

    /// Calls `target` (`callee` names it for error messages) with the
    /// argument values `args[arg_mark..]`, then truncates `args` back to
    /// `arg_mark` and the dependence buffer back to `mark` before the
    /// body runs. A statement-position call passes its recorded instance
    /// as `through`, which defines every parameter; an expression-position
    /// call binds each parameter to its argument's sources, the window of
    /// the dependence buffer from that argument's start. Returns the
    /// value and the `return` instance that defined it.
    fn call_function(
        &mut self,
        target: Option<FnId>,
        callee: &str,
        mark: usize,
        arg_mark: usize,
        through: Option<(InstId, StmtId)>,
    ) -> Result<(Value, Option<InstId>), Stop> {
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(Stop::Crash(
                CrashKind::StackOverflow,
                format!("call depth limit ({MAX_CALL_DEPTH}) exceeded calling `{callee}`"),
            ));
        }
        let func = target.ok_or_else(|| missing_callee(callee))?;
        let info = self.index.function(func);
        let mut frame = self.spare.pop().unwrap_or_default();
        frame.enter(func, info, through.map(|(_, site)| site));
        self.sink.enter(&mut frame, info);
        let nargs = self.args.len() - arg_mark;
        for (k, &param) in info.params.iter().enumerate().take(nargs) {
            let (value, start) = self.args[arg_mark + k];
            let defs = match through {
                Some((inst, _)) => S::Defs::one(inst),
                None => {
                    let end = self.args.get(arg_mark + k + 1).map(|&(_, n)| n as usize);
                    self.sink.sources(start as usize, end)
                }
            };
            frame.locals[(param.0 - info.locals.start) as usize] = Cell::new(value, defs);
        }
        self.args.truncate(arg_mark);
        self.sink.truncate(mark);
        self.frames.push(frame);
        let decl = self.fns[func.index()];
        let flow = self.exec_block(&decl.body);
        let frame = self.frames.pop().expect("the callee frame");
        self.spare.push(frame);
        match flow? {
            Flow::Return(v, def) => Ok((v, def)),
            Flow::Normal => Ok((Value::Int(0), None)),
            Flow::Break | Flow::Continue => {
                unreachable!("checker rejects break/continue outside loops")
            }
        }
    }

    // --- statement execution -----------------------------------------

    fn exec_block(&mut self, block: &Block) -> ExecResult {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    #[inline]
    fn exec_stmt(&mut self, stmt: &Stmt) -> ExecResult {
        let result = self.exec_stmt_inner(stmt);
        Self::decorate(stmt, result)
    }

    /// Attributes a bare runtime error to the statement it escaped from.
    /// Shared by normal execution and checkpoint resume so error messages
    /// (part of [`Termination::RuntimeError`], hence of trace identity)
    /// match between the two.
    #[inline]
    fn decorate(stmt: &Stmt, result: ExecResult) -> ExecResult {
        match result {
            Err(Stop::Crash(kind, msg)) if !msg.contains(" in S") => Err(Stop::Crash(
                kind,
                format!(
                    "{msg} in {} `{}`",
                    stmt.id,
                    omislice_lang::printer::stmt_head(stmt)
                ),
            )),
            other => other,
        }
    }

    // Forced into `exec_block` in optimized builds, where a plain run
    // spends much of its time crossing this call; debug builds keep the
    // frames of deep recursion small.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn exec_stmt_inner(&mut self, stmt: &Stmt) -> ExecResult {
        self.tick()?;
        let cd = self.sink.cd_of(&self.frames, stmt.id);
        // This statement's window of the dependence buffer starts here.
        let mark = self.sink.mark();
        match &stmt.kind {
            StmtKind::Let { name, expr } | StmtKind::Assign { name, expr } => {
                let computed = self.eval(expr)?;
                let (v, overridden_here) = self.maybe_override(stmt.id, computed);
                let ev = Ev {
                    value: Some(v),
                    ..Ev::new(stmt.id, cd)
                };
                let inst = self.record(ev, mark)?;
                if overridden_here {
                    self.overridden = Some(inst);
                }
                let var = self
                    .index
                    .stmt(stmt.id)
                    .def
                    .ok_or_else(|| unknown_var(name))?;
                self.write_scalar(var, name, v, inst)?;
                self.sink.def_var(var);
                Ok(Flow::Normal)
            }
            StmtKind::Store { name, index, value } => {
                let iv = self.eval(index)?;
                let idx = int_operand(iv, "array index")?;
                let v = self.eval(value)?;
                let var = self
                    .index
                    .stmt(stmt.id)
                    .def
                    .ok_or_else(|| unknown_var(name))?;
                element(&self.globals, var, name, idx)?;
                let ev = Ev {
                    value: Some(v),
                    def_var: Some(var),
                    cell_index: Some(idx),
                    ..Ev::new(stmt.id, cd)
                };
                let inst = self.record(ev, mark)?;
                let Some(Slot::Array(cells)) = self.globals.get_mut(var) else {
                    unreachable!("`element` verified the slot");
                };
                cells[idx as usize] = Cell::new(v, S::Defs::one(inst));
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => self.run_if(stmt.id, cond, then_blk, else_blk.as_ref(), cd),
            StmtKind::While { cond, body } => self.run_while(stmt.id, cond, body, false),
            StmtKind::Break => {
                self.record(Ev::new(stmt.id, cd), mark)?;
                Ok(Flow::Break)
            }
            StmtKind::Continue => {
                self.record(Ev::new(stmt.id, cd), mark)?;
                Ok(Flow::Continue)
            }
            StmtKind::Return(expr) => {
                let value = match expr {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                let ev = Ev {
                    value,
                    def_var: value.and(self.index.stmt(stmt.id).def),
                    ..Ev::new(stmt.id, cd)
                };
                let inst = self.record(ev, mark)?;
                Ok(Flow::Return(
                    value.unwrap_or(Value::Int(0)),
                    value.map(|_| inst),
                ))
            }
            StmtKind::Print(expr) => {
                let v = self.eval(expr)?;
                let ev = Ev {
                    value: Some(v),
                    ..Ev::new(stmt.id, cd)
                };
                let inst = self.record(ev, mark)?;
                self.outputs.push(OutputRecord { inst, value: v });
                Ok(Flow::Normal)
            }
            StmtKind::CallStmt { callee, args } => {
                let arg_mark = self.args.len();
                for a in args {
                    let v = self.eval(a)?;
                    self.args.push((v, 0));
                }
                // The call statement is the conduit for its arguments:
                // its event depends on every argument's sources, and
                // parameters are defined by the call instance, keeping
                // the uses of the argument variables (and their potential
                // dependences) inside the slice. Calls in expressions
                // cannot do this (their statement's event is recorded
                // after the callee runs), so there the argument sources
                // flow into the parameters directly. Recording first
                // also leaves the dependence buffer empty on entry.
                let inst = self.record(Ev::new(stmt.id, cd), mark)?;
                let target = self.index.stmt_callee(stmt.id);
                self.call_function(target, callee, mark, arg_mark, Some((inst, stmt.id)))?;
                Ok(Flow::Normal)
            }
        }
    }

    /// Executes an `if` statement from its predicate evaluation on.
    fn run_if(
        &mut self,
        stmt: StmtId,
        cond: &Expr,
        then_blk: &Block,
        else_blk: Option<&Block>,
        cd: Option<InstId>,
    ) -> ExecResult {
        let (outcome, inst) = self.eval_predicate(stmt, cond, cd, None)?;
        self.sink.push_region(inst);
        let flow = if outcome {
            self.exec_block(then_blk)
        } else if let Some(e) = else_blk {
            self.exec_block(e)
        } else {
            Ok(Flow::Normal)
        };
        self.sink.pop_region();
        flow
    }

    /// Executes a `while` statement from a condition evaluation on.
    /// `pushed` says whether an iteration of this loop already holds the
    /// innermost open region: `false` on normal entry, `true` when a
    /// checkpoint resume re-enters mid-loop.
    fn run_while(
        &mut self,
        stmt: StmtId,
        cond: &Expr,
        body: &Block,
        mut pushed: bool,
    ) -> ExecResult {
        let result = loop {
            let cd_now = self.sink.cd_of(&self.frames, stmt);
            let step = self
                .tick()
                .and_then(|()| self.eval_predicate(stmt, cond, cd_now, Some(pushed)));
            let (outcome, inst) = match step {
                Ok(x) => x,
                Err(e) => break Err(e),
            };
            if !outcome {
                break Ok(Flow::Normal);
            }
            // Chain iterations: this instance's region replaces the
            // previous iteration's; the *recording* above already nested
            // it under the previous instance.
            if pushed {
                self.sink.pop_region();
            }
            self.sink.push_region(inst);
            pushed = true;
            match self.exec_block(body) {
                Ok(Flow::Normal) | Ok(Flow::Continue) => continue,
                Ok(Flow::Break) => break Ok(Flow::Normal),
                Ok(ret @ Flow::Return(..)) => break Ok(ret),
                Err(e) => break Err(e),
            }
        };
        if pushed {
            self.sink.pop_region();
        }
        result
    }

    /// Evaluates a predicate, applies a pending switch if this is the
    /// chosen instance, and records the instance and its outcome.
    /// `loop_ctx` is `None` for `if` predicates and `Some(pushed)` for
    /// `while` condition evaluations; it is snapshotted so a resume can
    /// re-enter the loop correctly.
    fn eval_predicate(
        &mut self,
        stmt: StmtId,
        cond: &Expr,
        cd: Option<InstId>,
        loop_ctx: Option<bool>,
    ) -> Result<(bool, InstId), Stop> {
        self.maybe_capture(stmt, loop_ctx);
        let mark = self.sink.mark();
        let v = self.eval(cond)?;
        let mut outcome = v.truthy();
        // 0-based occurrence index of this predicate instance; every
        // `while` iteration re-enters here and counts separately.
        let occurrence = self.occ[stmt.index()];
        self.occ[stmt.index()] += 1;
        let is_switch_target = self.switch.is_some_and(|s| {
            s.pred == stmt && s.occurrence == occurrence && self.switched.is_none()
        });
        if is_switch_target {
            outcome = !outcome;
        }
        let ev = Ev {
            value: Some(Value::Bool(outcome)),
            branch: Some(outcome),
            ..Ev::new(stmt, cd)
        };
        let inst = self.record(ev, mark)?;
        if is_switch_target {
            self.switched = Some(inst);
        }
        self.sink.predicate(&mut self.frames, stmt, inst, outcome);
        Ok((outcome, inst))
    }

    /// Captures a checkpoint at predicate entry when the sink asks for
    /// this statement's current occurrence. Runs before the condition is
    /// evaluated, so the snapshot precedes every side effect of this
    /// predicate instance.
    ///
    /// Captures stop the moment a switch has fired: past the divergence
    /// point the state no longer equals the original run's, so a snapshot
    /// there would resume into the wrong execution. The guard is what
    /// lets a *switched* run double as a capture run for every checkpoint
    /// position before its own switch point (the trie spine), because its
    /// pre-switch prefix is the original execution verbatim.
    fn maybe_capture(&mut self, stmt: StmtId, loop_ctx: Option<bool>) {
        if self.switched.is_some() || !self.sink.captures(stmt, &self.occ) {
            return;
        }
        let entry_occ = self.occ[stmt.index()];
        // Only statement-position calls stand between a resumable
        // suspension and `main`, and each records before entering its
        // callee: no operand or argument is pending, so the snapshot
        // needs no part of the dependence buffer.
        debug_assert!(
            (self.sink.mark() == 0 && self.args.is_empty())
                || self.frames.iter().skip(1).any(|f| f.call_site.is_none()),
            "pending operands at a resumable capture point"
        );
        // Fault injection: a `corrupt-checkpoint` entry poisons the
        // snapshot captured at its target instance with out-of-range
        // cursors, exercising the validate-then-fall-back path.
        let corrupt = self.fault
            == Some(FaultEntry::at_stmt(
                stmt,
                entry_occ,
                FaultAction::CorruptCheckpoint,
            ));
        let (trace_len, outputs_len) = if corrupt {
            (usize::MAX, usize::MAX)
        } else {
            (self.next as usize, self.outputs.len())
        };
        self.sink.keep(Checkpoint {
            spec: SwitchSpec::new(stmt, entry_occ),
            globals: self.globals.clone(),
            frames: self.frames.clone(),
            occ: self.occ.clone(),
            region_stack: Vec::new(),
            input_pos: self.input_pos,
            input_underflows: self.input_underflows,
            trace_len,
            outputs_len,
            loop_pushed: loop_ctx,
        });
    }
}

impl Eval<'_, Full<'_>> {
    /// Closes a traced run that ended with `result`, returning it and the
    /// checkpoints it captured.
    /// A run that stopped recording keeps the outputs of what it
    /// recorded.
    fn into_traced(mut self, result: Result<(), Stop>) -> (TracedRun, Vec<Checkpoint>) {
        let cols = self.sink.rec.finish();
        let recorded = self
            .outputs
            .partition_point(|o| o.inst.index() < cols.len());
        self.outputs.truncate(recorded);
        let run = TracedRun {
            trace: Trace::from_recorded(cols, self.outputs, termination(result)),
            switched: self.switched,
            overridden: self.overridden,
            input_underflows: self.input_underflows,
        };
        (run, self.sink.captured)
    }

    // --- checkpoint resume -------------------------------------------

    /// Re-enters the suspended call stack: frame 0 is already in place;
    /// deeper frames are pushed as the descent crosses their call sites.
    fn resume_main(&mut self, cp: &Checkpoint, paths: &[Vec<Step>]) -> Result<(), Stop> {
        let main = self.fns[cp.frames[0].func.index()];
        match self.resume_block(&main.body, &paths[0], cp, paths, 0)? {
            Flow::Normal | Flow::Return(..) => Ok(()),
            Flow::Break | Flow::Continue => {
                unreachable!("checker rejects break/continue outside loops")
            }
        }
    }

    /// Resumes inside `block`: re-enters the statement the path points
    /// at, then executes the rest of the block normally.
    fn resume_block(
        &mut self,
        block: &Block,
        steps: &[Step],
        cp: &Checkpoint,
        paths: &[Vec<Step>],
        k: usize,
    ) -> ExecResult {
        let step = &steps[0];
        let stmt = &block.stmts[step.index];
        let inner = self.resume_step(stmt, step, &steps[1..], cp, paths, k);
        match Self::decorate(stmt, inner)? {
            Flow::Normal => {}
            other => return Ok(other),
        }
        for s in &block.stmts[step.index + 1..] {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Resumes one path step. Intermediate steps re-enter a construct the
    /// suspension lies inside without re-recording its already-traced
    /// events (the restored regions and frames carry that context); the
    /// final step re-executes the suspended predicate with the switch
    /// armed.
    fn resume_step(
        &mut self,
        stmt: &Stmt,
        step: &Step,
        rest: &[Step],
        cp: &Checkpoint,
        paths: &[Vec<Step>],
        k: usize,
    ) -> ExecResult {
        match (&step.descend, &stmt.kind) {
            (
                None,
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                },
            ) => {
                let cd = self.sink.cd_of(&self.frames, stmt.id);
                self.run_if(stmt.id, cond, then_blk, else_blk.as_ref(), cd)
            }
            (None, StmtKind::While { cond, body }) => {
                let pushed = cp.loop_pushed.unwrap_or(false);
                self.run_while(stmt.id, cond, body, pushed)
            }
            (None, StmtKind::CallStmt { callee, .. }) => {
                // The call executing at suspension: its event and argument
                // binding are in the prefix, so push the restored callee
                // frame and resume inside it. A call statement discards
                // the return value.
                let func = self
                    .index
                    .stmt_callee(stmt.id)
                    .ok_or_else(|| missing_callee(callee))?;
                self.frames.push(cp.frames[k + 1].clone());
                let decl = self.fns[func.index()];
                let flow = self.resume_block(&decl.body, &paths[k + 1], cp, paths, k + 1);
                self.frames.pop();
                match flow? {
                    Flow::Normal | Flow::Return(..) => Ok(Flow::Normal),
                    Flow::Break | Flow::Continue => {
                        unreachable!("checker rejects break/continue outside loops")
                    }
                }
            }
            (Some(Descend::Then), StmtKind::If { then_blk, .. }) => {
                let flow = self.resume_block(then_blk, rest, cp, paths, k);
                self.sink.pop_region();
                flow
            }
            (Some(Descend::Else), StmtKind::If { else_blk, .. }) => {
                let blk = else_blk.as_ref().expect("path descends into else");
                let flow = self.resume_block(blk, rest, cp, paths, k);
                self.sink.pop_region();
                flow
            }
            (Some(Descend::Body), StmtKind::While { cond, body }) => {
                match self.resume_block(body, rest, cp, paths, k) {
                    // The body of the current iteration finished: keep
                    // looping from the next condition evaluation, with
                    // this iteration's region instance still pushed.
                    Ok(Flow::Normal) | Ok(Flow::Continue) => {
                        self.run_while(stmt.id, cond, body, true)
                    }
                    Ok(Flow::Break) => {
                        self.sink.pop_region();
                        Ok(Flow::Normal)
                    }
                    Ok(ret @ Flow::Return(..)) => {
                        self.sink.pop_region();
                        Ok(ret)
                    }
                    Err(e) => {
                        self.sink.pop_region();
                        Err(e)
                    }
                }
            }
            _ => unreachable!("resume path shape matches statement kinds"),
        }
    }
}

/// One step of a static resume path: which statement of the current block
/// the suspension lies at, and how execution descends into it (`None`
/// marks the suspension statement itself).
struct Step {
    index: usize,
    descend: Option<Descend>,
}

enum Descend {
    Then,
    Else,
    Body,
}

/// Depth-first search for the unique static path from `block` to the
/// statement `target`, recorded as [`Step`]s.
fn find_path(block: &Block, target: StmtId, out: &mut Vec<Step>) -> bool {
    for (index, stmt) in block.stmts.iter().enumerate() {
        if stmt.id == target {
            out.push(Step {
                index,
                descend: None,
            });
            return true;
        }
        match &stmt.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                out.push(Step {
                    index,
                    descend: Some(Descend::Then),
                });
                if find_path(then_blk, target, out) {
                    return true;
                }
                out.pop();
                if let Some(e) = else_blk {
                    out.push(Step {
                        index,
                        descend: Some(Descend::Else),
                    });
                    if find_path(e, target, out) {
                        return true;
                    }
                    out.pop();
                }
            }
            StmtKind::While { body, .. } => {
                out.push(Step {
                    index,
                    descend: Some(Descend::Body),
                });
                if find_path(body, target, out) {
                    return true;
                }
                out.pop();
            }
            _ => {}
        }
    }
    false
}

/// Keeps the first occurrence of each instance in `window`, in order, and
/// returns how many remain at its front. Dependence windows are almost
/// always a handful of operands, so a quadratic scan beats any set; a
/// long window sorts `(instance, position)` pairs in `scratch` instead.
fn dedup_in_place(window: &mut [InstId], scratch: &mut Vec<(InstId, u32)>) -> usize {
    if window.len() <= 32 {
        let mut w = 0;
        for r in 0..window.len() {
            let d = window[r];
            if !window[..w].contains(&d) {
                window[w] = d;
                w += 1;
            }
        }
        return w;
    }
    scratch.clear();
    scratch.extend(window.iter().enumerate().map(|(i, &d)| (d, i as u32)));
    scratch.sort_unstable();
    scratch.dedup_by_key(|&mut (d, _)| d);
    scratch.sort_unstable_by_key(|&(_, i)| i);
    for (slot, &(d, _)) in window.iter_mut().zip(scratch.iter()) {
        *slot = d;
    }
    scratch.len()
}

/// Counts instances of the fault entry's statement in `seen` and, at the
/// planned occurrence, stops the run the way the entry says (or panics,
/// for [`FaultAction::Panic`]). `corrupt-checkpoint` and `panic-harness`
/// entries never fire here — the former acts at checkpoint capture time,
/// the latter in the verifier harness; both leave execution untouched.
#[inline]
fn fault_fires(seen: &mut u32, fault: Option<FaultEntry>, stmt: StmtId) -> Result<(), Stop> {
    match fault {
        Some(fault) if fault.site == FaultSite::Stmt(stmt) => fire(seen, fault, stmt),
        _ => Ok(()),
    }
}

#[cold]
fn fire(seen: &mut u32, fault: FaultEntry, stmt: StmtId) -> Result<(), Stop> {
    if matches!(
        fault.action,
        FaultAction::CorruptCheckpoint | FaultAction::PanicHarness
    ) {
        return Ok(());
    }
    let n = *seen;
    *seen += 1;
    if n != fault.occurrence {
        return Ok(());
    }
    match fault.action {
        FaultAction::Crash(kind) => Err(Stop::Crash(kind, format!("injected {kind} fault"))),
        FaultAction::ExhaustBudget => Err(Stop::Budget),
        FaultAction::Panic => panic!("injected panic at {stmt} (occurrence {n})"),
        _ => Ok(()),
    }
}

/// The element `index` of the pre-resolved global array `var`;
/// `name` is only for error messages. Forced inline: every array load
/// and store of every run goes through it.
#[inline(always)]
fn element<'g, D>(
    globals: &'g Globals<D>,
    var: VarId,
    name: &str,
    index: i64,
) -> Result<&'g Cell<D>, Stop> {
    let Some(Slot::Array(cells)) = globals.get(var) else {
        return Err(not_an_array(name));
    };
    match usize::try_from(index).ok().and_then(|i| cells.get(i)) {
        Some(cell) => Ok(cell),
        None => Err(oob(index, name, cells.len())),
    }
}

fn not_an_array(name: &str) -> Stop {
    Stop::Crash(CrashKind::TypeError, format!("`{name}` is not an array"))
}

fn oob(index: i64, name: &str, len: usize) -> Stop {
    let msg = format!("index {index} out of bounds for `{name}` (len {len})");
    Stop::Crash(CrashKind::OobIndex, msg)
}

fn uninit_read(name: &str) -> Stop {
    Stop::Crash(
        CrashKind::UninitRead,
        format!("`{name}` used before initialization"),
    )
}

fn missing_callee(name: &str) -> Stop {
    Stop::Crash(CrashKind::MissingCallee, format!("no function `{name}`"))
}

fn unknown_var(name: &str) -> Stop {
    Stop::Crash(CrashKind::TypeError, format!("unknown variable `{name}`"))
}

fn int_operand(v: Value, what: &str) -> Result<i64, Stop> {
    v.as_int().ok_or_else(|| {
        Stop::Crash(
            CrashKind::TypeError,
            format!("{what} must be an integer, got `{v}`"),
        )
    })
}

fn apply_unary(op: UnOp, v: Value) -> Result<Value, Stop> {
    match (op, v) {
        (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        _ => Err(Stop::Crash(
            CrashKind::TypeError,
            format!("invalid operand `{v}` for `{op}`"),
        )),
    }
}

fn apply_binary(op: BinOp, l: Value, r: Value) -> Result<Value, Stop> {
    use BinOp::*;
    let type_err = || {
        Stop::Crash(
            CrashKind::TypeError,
            format!("invalid operands `{l}` {op} `{r}`"),
        )
    };
    match op {
        Add | Sub | Mul | Div | Rem => {
            let (Value::Int(a), Value::Int(b)) = (l, r) else {
                return Err(type_err());
            };
            let out = match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        return Err(Stop::Crash(
                            CrashKind::DivByZero,
                            "division by zero".to_string(),
                        ));
                    }
                    a.wrapping_div(b)
                }
                Rem => {
                    if b == 0 {
                        return Err(Stop::Crash(
                            CrashKind::DivByZero,
                            "remainder by zero".to_string(),
                        ));
                    }
                    a.wrapping_rem(b)
                }
                _ => unreachable!(),
            };
            Ok(Value::Int(out))
        }
        Lt | Le | Gt | Ge => {
            let (Value::Int(a), Value::Int(b)) = (l, r) else {
                return Err(type_err());
            };
            let out = match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            };
            Ok(Value::Bool(out))
        }
        Eq | Ne => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Bool((a == b) == (op == Eq))),
            (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool((a == b) == (op == Eq))),
            _ => Err(type_err()),
        },
        And | Or => {
            let (Value::Bool(a), Value::Bool(b)) = (l, r) else {
                return Err(type_err());
            };
            Ok(Value::Bool(if op == And { a && b } else { a || b }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First occurrences in order: the reference the in-place pass must
    /// reproduce on both of its paths.
    fn first_occurrences(deps: &[InstId]) -> Vec<InstId> {
        let mut out = Vec::new();
        for &d in deps {
            if !out.contains(&d) {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn window_dedup_keeps_first_occurrences_in_order() {
        let mut scratch = Vec::new();
        for len in [0usize, 1, 5, 32, 33, 200] {
            // Repeats at several strides, so both short and long windows
            // see duplicates before and after their first occurrence.
            let deps: Vec<InstId> = (0..len)
                .map(|i| InstId(((i * 7) % (len / 3 + 1)) as u32))
                .collect();
            let mut window = deps.clone();
            let n = dedup_in_place(&mut window, &mut scratch);
            assert_eq!(window[..n], first_occurrences(&deps)[..], "len {len}");
        }
    }
}
