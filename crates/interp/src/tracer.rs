//! The tracing interpreter: executes a program while building the dynamic
//! dependence graph (data dependences, dynamic control dependences, region
//! nesting, timestamps, outputs) — the role Valgrind instrumentation plays
//! in the paper — and implements *predicate switching*: forcing a chosen
//! dynamic predicate instance to take the opposite branch.

use crate::snapshot::Checkpoint;
use crate::store::{Cell, Defs, Frame, Globals, Slot};
use crate::{OverrideSpec, RunConfig, SwitchSpec};
use omislice_analysis::ProgramAnalysis;
use omislice_lang::{
    BinOp, Block, Expr, ExprId, ExprKind, FnDecl, FnId, Program, ProgramIndex, Stmt, StmtId,
    StmtKind, UnOp, VarId,
};
use omislice_trace::{
    CrashKind, FaultAction, FaultEntry, FaultSite, InstId, OutputRecord, RawEvent, Recorder,
    Termination, Trace, Value,
};

/// Maximum call depth; deeper recursion is reported as a runtime error
/// rather than overflowing the host stack.
pub const MAX_CALL_DEPTH: usize = 96;

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

thread_local! {
    static LAST_DEMAND: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The *demand* of the calling thread's most recent traced run, from
/// scratch or resumed: how many events it asked to record, its replayed
/// prefix included. A run that completes asks for exactly its events; one
/// stopped at its step budget, or by an injected fault at an event, also
/// asked for that one refused event. So the same run under a smaller
/// budget `b` would have stopped budget-exhausted exactly when its demand
/// exceeds `b`.
///
/// The value is published when the run returns and also while a panic
/// unwinds out of it, so a caller that isolates the panic with
/// `catch_unwind` still learns how far the run got.
pub fn last_demand() -> u64 {
    LAST_DEMAND.with(std::cell::Cell::get)
}

/// A run's demand counter; publishes it to [`last_demand`] when dropped,
/// which happens on return and during unwinding alike.
struct Demand(std::cell::Cell<u64>);

impl Drop for Demand {
    fn drop(&mut self) {
        // `try_with`: a drop during thread teardown must not panic.
        let _ = LAST_DEMAND.try_with(|d| d.set(self.0.get()));
    }
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
    run_traced_capturing(program, analysis, config, &[]).0
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
pub(crate) fn run_traced_capturing(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    capture: &[SwitchSpec],
) -> (TracedRun, Vec<Checkpoint>) {
    let demand = Demand(std::cell::Cell::new(0));
    let mut t = Tracer {
        analysis,
        index: analysis.index(),
        fns: program.functions().collect(),
        inputs: &config.inputs,
        input_pos: 0,
        input_underflows: 0,
        budget: config.step_budget,
        switch: config.switch,
        switched: None,
        value_override: config.value_override,
        overridden: None,
        fault: config.fault,
        fault_seen: 0,
        occ: vec![0; program.stmt_count() as usize],
        rec: Recorder::new(),
        outputs: Vec::new(),
        globals: Globals::init(program, analysis.index()),
        region_stack: Vec::new(),
        frames: Vec::new(),
        spare: Vec::new(),
        deps: Vec::new(),
        args: Vec::new(),
        scratch: Vec::new(),
        capture: capture_table(program, capture),
        captured: Vec::new(),
        demand: &demand.0,
    };
    // The recorder guard sits outside the event-append loop: one
    // `enabled()` check and one counter flush per run, never per event.
    let span = omislice_obs::span("trace");
    let termination = match t.run_main() {
        Ok(()) => Termination::Normal,
        Err(Stop::Budget) => Termination::BudgetExhausted,
        Err(Stop::Crash(kind, msg)) => Termination::RuntimeError(kind, msg),
    };
    let cols = t.rec.finish();
    if omislice_obs::enabled() {
        omislice_obs::counter_add("tracer.events", cols.len() as u64);
        omislice_obs::counter_add("tracer.runs", 1);
        omislice_obs::counter_add("columnar.bytes", cols.bytes() as u64);
    }
    drop(span);
    let run = TracedRun {
        trace: Trace::from_recorded(cols, t.outputs, termination),
        switched: t.switched,
        overridden: t.overridden,
        input_underflows: t.input_underflows,
    };
    (run, t.captured)
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
/// with the number of prefix instances of the fault statement (the caller
/// refuses resumption when the fault would have fired inside the prefix).
/// The dependence buffer needs no restoring: it is empty at every
/// resumable capture point.
pub(crate) fn resume_switched_impl(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    checkpoint: &Checkpoint,
    base: &Trace,
    capture: &[SwitchSpec],
) -> Option<(TracedRun, Vec<Checkpoint>)> {
    let fns: Vec<&FnDecl> = program.functions().collect();
    // Reconstruct, per frame, the static path from the function body to
    // the statement the frame is suspended at: the call site of the next
    // frame, or the switched predicate itself for the innermost frame.
    let mut paths = Vec::with_capacity(checkpoint.frames.len());
    for (k, frame) in checkpoint.frames.iter().enumerate() {
        let target = match checkpoint.frames.get(k + 1) {
            Some(next) => next.call_site.expect("is_resumable checked call sites"),
            None => checkpoint.spec.pred,
        };
        let decl = fns.get(frame.func.index())?;
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
    let cols = base.columns();
    let fault_seen = match config.fault {
        Some(fault) => (0..checkpoint.trace_len)
            .filter(|&i| FaultSite::Stmt(cols.stmt_of(InstId(i as u32))) == fault.site)
            .count() as u32,
        None => 0,
    };
    let demand = Demand(std::cell::Cell::new(checkpoint.trace_len as u64));
    let mut t = Tracer {
        analysis,
        index: analysis.index(),
        fns,
        inputs: &config.inputs,
        input_pos: checkpoint.input_pos,
        input_underflows: checkpoint.input_underflows,
        budget: config.step_budget,
        switch: config.switch.or(Some(checkpoint.spec)),
        switched: None,
        value_override: None,
        overridden: None,
        fault: config.fault,
        fault_seen,
        occ: checkpoint.occ.clone(),
        rec: Recorder::from_prefix(&base.columns_arc(), checkpoint.trace_len),
        outputs: base.outputs()[..checkpoint.outputs_len].to_vec(),
        globals: checkpoint.globals.clone(),
        region_stack: checkpoint.region_stack.clone(),
        frames: vec![checkpoint.frames[0].clone()],
        spare: Vec::new(),
        deps: Vec::new(),
        args: Vec::new(),
        scratch: Vec::new(),
        capture: capture_table(program, capture),
        captured: Vec::new(),
        demand: &demand.0,
    };
    let termination = match t.resume_main(checkpoint, &paths) {
        Ok(()) => Termination::Normal,
        Err(Stop::Budget) => Termination::BudgetExhausted,
        Err(Stop::Crash(kind, msg)) => Termination::RuntimeError(kind, msg),
    };
    Some((
        TracedRun {
            trace: Trace::from_recorded(t.rec.finish(), t.outputs, termination),
            switched: t.switched,
            overridden: t.overridden,
            input_underflows: t.input_underflows,
        },
        t.captured,
    ))
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

/// Why execution stopped abnormally.
enum Stop {
    Budget,
    Crash(CrashKind, String),
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
/// dependences (a window of [`Tracer::deps`]) and of what the recorder
/// derives itself (timestamp, region parent, call depth).
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

struct Tracer<'a> {
    analysis: &'a ProgramAnalysis,
    index: &'a ProgramIndex,
    /// Function declarations by [`FnId`].
    fns: Vec<&'a FnDecl>,
    inputs: &'a [i64],
    input_pos: usize,
    /// `input()` calls that ran past the end of the stream (yielding 0).
    input_underflows: u64,
    budget: u64,
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
    /// The streaming columnar recorder the run appends into.
    rec: Recorder,
    outputs: Vec<OutputRecord>,
    globals: Globals,
    /// Innermost guarding predicate instances (region nesting), crossing
    /// call boundaries.
    region_stack: Vec<InstId>,
    frames: Vec<Frame>,
    /// Popped frames kept for reuse: once the call stack has been this
    /// deep, a call allocates nothing.
    spare: Vec<Frame>,
    /// The run's one dependence buffer. Evaluating an expression appends
    /// the defining instances of the operands it reads, in evaluation
    /// order (index before cell, lhs before rhs, arguments in order); a
    /// statement records the window it opened, deduplicated in place, and
    /// truncates the buffer back. Windows of callers suspended in an
    /// expression-position call sit below the callee's.
    deps: Vec<InstId>,
    /// Argument values of calls being bound, each with the start of its
    /// sources' window in `deps`; a stack like `deps`.
    args: Vec<(Value, u32)>,
    /// Scratch for deduplicating long dependence windows.
    scratch: Vec<(InstId, u32)>,
    /// Predicate occurrences at which to capture a [`Checkpoint`],
    /// indexed by statement, sorted. Empty on ordinary and resumed runs.
    capture: Vec<Vec<u32>>,
    captured: Vec<Checkpoint>,
    /// Events asked for so far, refused ones included (see
    /// [`last_demand`]).
    demand: &'a std::cell::Cell<u64>,
}

impl<'a> Tracer<'a> {
    fn run_main(&mut self) -> Result<(), Stop> {
        let main = self
            .index
            .function_id("main")
            .ok_or_else(|| missing_callee("main"))?;
        let mut frame = Frame::default();
        frame.enter(main, self.index.function(main), None, None);
        self.frames.push(frame);
        match self.exec_block(&self.fns[main.index()].body)? {
            Flow::Normal | Flow::Return(..) => Ok(()),
            Flow::Break | Flow::Continue => {
                unreachable!("checker rejects break/continue outside loops")
            }
        }
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("at least one frame")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("at least one frame")
    }

    /// Records an event whose data dependences are the operand sources
    /// in `deps[mark..]`, assigning its timestamp, region parent, and
    /// call depth, then truncates the buffer back to `mark`. Fails when
    /// the step budget is exhausted, a scoped deadline expired at the
    /// recorder's last counted check (the paper's expired-timer rule: the
    /// run terminates as budget-exhausted), or an injected fault fires at
    /// this instance.
    fn record(&mut self, ev: Ev, mark: usize) -> Result<InstId, Stop> {
        self.demand.set(self.rec.len() as u64 + 1);
        if self.rec.len() as u64 >= self.budget || self.rec.deadline_hit() {
            return Err(Stop::Budget);
        }
        check_fault(&mut self.fault_seen, self.fault, ev.stmt)?;
        let n = dedup_in_place(&mut self.deps[mark..], &mut self.scratch);
        let inst = self.rec.push(RawEvent {
            stmt: ev.stmt,
            value: ev.value,
            branch: ev.branch,
            deps: &self.deps[mark..mark + n],
            cd_parent: ev.cd_parent,
            region_parent: self.region_stack.last().copied(),
            def_var: ev.def_var,
            cell_index: ev.cell_index,
            call_depth: (self.frames.len() - 1) as u32,
        });
        self.deps.truncate(mark);
        Ok(inst)
    }

    /// Dynamic control-dependence parent for a statement about to execute:
    /// the most recent instance in this frame of a static CD parent whose
    /// branch outcome matches, falling back to the parent inherited from
    /// the call site for statements at the top level of their function.
    fn cd_of(&self, stmt: StmtId) -> Option<InstId> {
        let frame = self.frame();
        let mut best: Option<InstId> = None;
        for cp in self.analysis.cd_parents(stmt) {
            if let Some(Some((inst, outcome))) = frame.preds.get(self.index.pred_slot(cp.pred)) {
                if *outcome == cp.branch {
                    best = Some(best.map_or(*inst, |b| b.max(*inst)));
                }
            }
        }
        best.or(frame.inherited_cd)
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
        let c = &mut self.occ[stmt.0 as usize];
        let occurrence = *c;
        *c += 1;
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

    /// The current frame's slot for a local variable of its function,
    /// `None` for globals.
    #[inline]
    fn local_slot(&self, var: VarId) -> Option<usize> {
        let locals = &self.index.function(self.frame().func).locals;
        locals
            .contains(&var.0)
            .then(|| (var.0 - locals.start) as usize)
    }

    /// Reads a scalar, appending its defining instances to the
    /// dependence buffer.
    fn read_var(&mut self, id: ExprId, name: &str) -> EvalResult {
        let var = self.resolved(id, name)?;
        let cell = match self.local_slot(var) {
            Some(slot) => &self.frames.last().expect("at least one frame").locals[slot],
            None => match self.globals.get(var) {
                Some(Slot::Scalar(cell)) => cell,
                Some(Slot::Array(_)) => {
                    return Err(Stop::Crash(
                        CrashKind::TypeError,
                        format!("array `{name}` used as a scalar"),
                    ))
                }
                None => return Err(uninit_read(name)),
            },
        };
        let value = cell.value.ok_or_else(|| uninit_read(name))?;
        self.deps.extend_from_slice(cell.defs.as_slice());
        Ok(value)
    }

    /// Writes a scalar through its pre-resolved slot, defined by the
    /// single instance `inst`; `name` is only for error messages.
    fn write_scalar(
        &mut self,
        var: VarId,
        name: &str,
        value: Value,
        inst: InstId,
    ) -> Result<(), Stop> {
        let cell = Cell::new(value, Defs::One(inst));
        if let Some(slot) = self.local_slot(var) {
            self.frame_mut().locals[slot] = cell;
            return Ok(());
        }
        match self.globals.get_mut(var) {
            Some(Slot::Scalar(c)) => {
                *c = cell;
                Ok(())
            }
            Some(Slot::Array(_)) => Err(Stop::Crash(
                CrashKind::TypeError,
                format!("cannot assign whole array `{name}`"),
            )),
            None => unreachable!("a defined variable is a local or a global"),
        }
    }

    /// Bounds-checks an element access on a pre-resolved array variable;
    /// `name` is only for error messages.
    fn array_index(&self, var: VarId, name: &str, index: i64) -> Result<usize, Stop> {
        let Some(Slot::Array(cells)) = self.globals.get(var) else {
            return Err(Stop::Crash(
                CrashKind::TypeError,
                format!("`{name}` is not an array"),
            ));
        };
        if index < 0 || index as usize >= cells.len() {
            return Err(Stop::Crash(
                CrashKind::OobIndex,
                format!(
                    "index {index} out of bounds for `{name}` (len {})",
                    cells.len()
                ),
            ));
        }
        Ok(index as usize)
    }

    // --- expression evaluation ---------------------------------------

    /// Evaluates `expr`, appending the defining instances of every
    /// operand it reads to the dependence buffer.
    fn eval(&mut self, expr: &Expr) -> EvalResult {
        match &expr.kind {
            ExprKind::Int(n) => Ok(Value::Int(*n)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Var(name) => self.read_var(expr.id, name),
            ExprKind::Load { name, index } => {
                let iv = self.eval(index)?;
                let idx = int_operand(iv, "array index")?;
                let var = self.resolved(expr.id, name)?;
                let i = self.array_index(var, name, idx)?;
                let Some(Slot::Array(cells)) = self.globals.get(var) else {
                    unreachable!("array_index verified the slot");
                };
                let cell = &cells[i];
                self.deps.extend_from_slice(cell.defs.as_slice());
                Ok(cell.value.expect("array cells are initialized"))
            }
            ExprKind::Call { callee, args } => {
                let mark = self.deps.len();
                let arg_mark = self.args.len();
                for a in args {
                    let start = self.deps.len() as u32;
                    let v = self.eval(a)?;
                    self.args.push((v, start));
                }
                let target = self.index.expr_callee(expr.id);
                let (value, def) = self.call_function(target, callee, mark, arg_mark, None)?;
                self.deps.extend(def);
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
    /// `deps` from that argument's start. Returns the value and the
    /// `return` instance that defined it.
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
        frame.enter(
            func,
            info,
            self.region_stack.last().copied(),
            through.map(|(_, site)| site),
        );
        let nargs = self.args.len() - arg_mark;
        for (k, &param) in info.params.iter().enumerate().take(nargs) {
            let (value, start) = self.args[arg_mark + k];
            let defs = match through {
                Some((inst, _)) => Defs::One(inst),
                None => {
                    let end = match self.args.get(arg_mark + k + 1) {
                        Some(&(_, next)) => next as usize,
                        None => self.deps.len(),
                    };
                    let window = &mut self.deps[start as usize..end];
                    let n = dedup_in_place(window, &mut self.scratch);
                    Defs::from_distinct(&window[..n])
                }
            };
            frame.locals[(param.0 - info.locals.start) as usize] = Cell::new(value, defs);
        }
        self.args.truncate(arg_mark);
        self.deps.truncate(mark);
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

    fn exec_stmt(&mut self, stmt: &Stmt) -> ExecResult {
        let result = self.exec_stmt_inner(stmt);
        Self::decorate(stmt, result)
    }

    /// Attributes a bare runtime error to the statement it escaped from.
    /// Shared by normal execution and checkpoint resume so error messages
    /// (part of [`Termination::RuntimeError`], hence of trace identity)
    /// match between the two.
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

    fn exec_stmt_inner(&mut self, stmt: &Stmt) -> ExecResult {
        let cd = self.cd_of(stmt.id);
        // This statement's window of the dependence buffer starts here.
        let mark = self.deps.len();
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
                self.rec.set_def_var_last(var);
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
                let i = self.array_index(var, name, idx)?;
                let ev = Ev {
                    value: Some(v),
                    def_var: Some(var),
                    cell_index: Some(idx),
                    ..Ev::new(stmt.id, cd)
                };
                let inst = self.record(ev, mark)?;
                let Some(Slot::Array(cells)) = self.globals.get_mut(var) else {
                    unreachable!("array_index verified the slot");
                };
                cells[i] = Cell::new(v, Defs::One(inst));
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
        self.region_stack.push(inst);
        let flow = if outcome {
            self.exec_block(then_blk)
        } else if let Some(e) = else_blk {
            self.exec_block(e)
        } else {
            Ok(Flow::Normal)
        };
        self.region_stack.pop();
        flow
    }

    /// Executes a `while` statement from a condition evaluation on.
    /// `pushed` says whether an iteration of this loop already holds the
    /// top of the region stack: `false` on normal entry, `true` when a
    /// checkpoint resume re-enters mid-loop.
    fn run_while(
        &mut self,
        stmt: StmtId,
        cond: &Expr,
        body: &Block,
        mut pushed: bool,
    ) -> ExecResult {
        let result = loop {
            let cd_now = self.cd_of(stmt);
            let step = self.eval_predicate(stmt, cond, cd_now, Some(pushed));
            let (outcome, inst) = match step {
                Ok(x) => x,
                Err(e) => break Err(e),
            };
            if !outcome {
                break Ok(Flow::Normal);
            }
            // Chain iterations: this instance's region replaces the
            // previous iteration's on the stack; the *recording*
            // above already nested it under the previous instance.
            if pushed {
                self.region_stack.pop();
            }
            self.region_stack.push(inst);
            pushed = true;
            match self.exec_block(body) {
                Ok(Flow::Normal) | Ok(Flow::Continue) => continue,
                Ok(Flow::Break) => break Ok(Flow::Normal),
                Ok(ret @ Flow::Return(..)) => break Ok(ret),
                Err(e) => break Err(e),
            }
        };
        if pushed {
            self.region_stack.pop();
        }
        result
    }

    /// Evaluates a predicate, applies a pending switch if this is the
    /// chosen instance, records the event, and registers the outcome in
    /// the frame's predicate table. `loop_ctx` is `None` for `if`
    /// predicates and `Some(pushed)` for `while` condition evaluations;
    /// it is snapshotted so a resume can re-enter the loop correctly.
    fn eval_predicate(
        &mut self,
        stmt: StmtId,
        cond: &Expr,
        cd: Option<InstId>,
        loop_ctx: Option<bool>,
    ) -> Result<(bool, InstId), Stop> {
        self.maybe_capture(stmt, loop_ctx);
        let mark = self.deps.len();
        let v = self.eval(cond)?;
        let mut outcome = v.truthy();
        // 0-based occurrence index of this predicate instance; every
        // `while` iteration re-enters here and counts separately.
        let occurrence = {
            let c = &mut self.occ[stmt.0 as usize];
            let occurrence = *c;
            *c += 1;
            occurrence
        };
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
        let slot = self.index.pred_slot(stmt);
        self.frame_mut().preds[slot] = Some((inst, outcome));
        Ok((outcome, inst))
    }

    /// Captures a checkpoint at predicate entry when this statement's
    /// current occurrence count is a requested capture point. Runs before
    /// the condition is evaluated, so the snapshot precedes every side
    /// effect of this predicate instance.
    ///
    /// Captures stop the moment a switch has fired: past the divergence
    /// point the state no longer equals the original run's, so a snapshot
    /// there would resume into the wrong execution. The guard is what
    /// lets a *switched* run double as a capture run for every checkpoint
    /// position before its own switch point (the trie spine), because its
    /// pre-switch prefix is the original execution verbatim.
    fn maybe_capture(&mut self, stmt: StmtId, loop_ctx: Option<bool>) {
        if self.capture.is_empty() || self.switched.is_some() {
            return;
        }
        let entry_occ = self.occ[stmt.0 as usize];
        if self.capture[stmt.index()]
            .binary_search(&entry_occ)
            .is_err()
        {
            return;
        }
        // Only statement-position calls stand between a resumable
        // suspension and `main`, and each records before entering its
        // callee: no operand or argument is pending, so the snapshot
        // needs no part of the dependence buffer.
        debug_assert!(
            (self.deps.is_empty() && self.args.is_empty())
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
            (self.rec.len(), self.outputs.len())
        };
        self.captured.push(Checkpoint {
            spec: SwitchSpec::new(stmt, entry_occ),
            globals: self.globals.clone(),
            frames: self.frames.clone(),
            occ: self.occ.clone(),
            region_stack: self.region_stack.clone(),
            input_pos: self.input_pos,
            input_underflows: self.input_underflows,
            trace_len,
            outputs_len,
            loop_pushed: loop_ctx,
        });
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
    /// events (the restored region stack and frames carry that context);
    /// the final step re-executes the suspended predicate with the switch
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
                let cd = self.cd_of(stmt.id);
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
                self.region_stack.pop();
                flow
            }
            (Some(Descend::Else), StmtKind::If { else_blk, .. }) => {
                let blk = else_blk.as_ref().expect("path descends into else");
                let flow = self.resume_block(blk, rest, cp, paths, k);
                self.region_stack.pop();
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
                        self.region_stack.pop();
                        Ok(Flow::Normal)
                    }
                    Ok(ret @ Flow::Return(..)) => {
                        self.region_stack.pop();
                        Ok(ret)
                    }
                    Err(e) => {
                        self.region_stack.pop();
                        Err(e)
                    }
                }
            }
            _ => unreachable!("resume path shape matches statement kinds"),
        }
    }
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

/// Translates a fired fault entry into this interpreter's [`Stop`].
fn check_fault(seen: &mut u32, fault: Option<FaultEntry>, stmt: StmtId) -> Result<(), Stop> {
    match crate::fault_fires(seen, fault, stmt) {
        None => Ok(()),
        Some(crate::InjectedFault::Budget) => Err(Stop::Budget),
        Some(crate::InjectedFault::Crash(kind, msg)) => Err(Stop::Crash(kind, msg)),
    }
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
