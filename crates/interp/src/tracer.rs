//! The tracing interpreter: executes a program while building the dynamic
//! dependence graph (data dependences, dynamic control dependences, region
//! nesting, timestamps, outputs) — the role Valgrind instrumentation plays
//! in the paper — and implements *predicate switching*: forcing a chosen
//! dynamic predicate instance to take the opposite branch.

use crate::snapshot::Checkpoint;
use crate::store::{Cell, Frame, Globals, Slot};
use crate::{OverrideSpec, RunConfig, SwitchSpec};
use omislice_analysis::ProgramAnalysis;
use omislice_lang::{
    BinOp, Block, Expr, ExprId, ExprKind, Program, Stmt, StmtId, StmtKind, UnOp, VarId,
};
use omislice_trace::{
    CrashKind, Event, FaultAction, FaultEntry, FaultSite, InstId, OutputRecord, RawEvent, Recorder,
    Termination, Trace, Value,
};
use std::collections::HashMap;

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
    let mut capture_specs: HashMap<StmtId, Vec<u32>> = HashMap::new();
    for spec in capture {
        capture_specs
            .entry(spec.pred)
            .or_default()
            .push(spec.occurrence);
    }
    let demand = Demand(std::cell::Cell::new(0));
    let mut t = Tracer {
        program,
        analysis,
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
        capture_specs,
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
/// resolves) — the caller reports the checkpoint invalid and falls back
/// to a from-scratch run. Resumability and structural validity are
/// checked by the caller ([`crate::resume_switched`]) before this runs.
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
pub(crate) fn resume_switched_impl(
    program: &Program,
    analysis: &ProgramAnalysis,
    config: &RunConfig,
    checkpoint: &Checkpoint,
    base: &Trace,
    capture: &[SwitchSpec],
) -> Option<(TracedRun, Vec<Checkpoint>)> {
    // Reconstruct, per frame, the static path from the function body to
    // the statement the frame is suspended at: the call site of the next
    // frame, or the switched predicate itself for the innermost frame.
    let mut paths = Vec::with_capacity(checkpoint.frames.len());
    for (k, frame) in checkpoint.frames.iter().enumerate() {
        let target = match checkpoint.frames.get(k + 1) {
            Some(next) => next.call_site.expect("is_resumable checked call sites"),
            None => checkpoint.spec.pred,
        };
        let decl = program.function(&frame.func)?;
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
    let mut capture_specs: HashMap<StmtId, Vec<u32>> = HashMap::new();
    for spec in capture {
        capture_specs
            .entry(spec.pred)
            .or_default()
            .push(spec.occurrence);
    }
    let demand = Demand(std::cell::Cell::new(checkpoint.trace_len as u64));
    let mut t = Tracer {
        program,
        analysis,
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
        capture_specs,
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
    Return(Value, Vec<InstId>),
}

type ExecResult = Result<Flow, Stop>;
type EvalResult = Result<(Value, Vec<InstId>), Stop>;

struct Tracer<'a> {
    program: &'a Program,
    analysis: &'a ProgramAnalysis,
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
    /// dense over `StmtId` — indexed on every recorded predicate, so a
    /// flat array beats hashing.
    occ: Vec<u32>,
    /// The streaming columnar recorder the run appends into.
    rec: Recorder,
    outputs: Vec<OutputRecord>,
    globals: Globals,
    /// Innermost guarding predicate instances (region nesting), crossing
    /// call boundaries.
    region_stack: Vec<InstId>,
    frames: Vec<Frame>,
    /// Predicate occurrences at which to capture a [`Checkpoint`], keyed
    /// by statement. Empty on ordinary and resumed runs.
    capture_specs: HashMap<StmtId, Vec<u32>>,
    captured: Vec<Checkpoint>,
    /// Events asked for so far, refused ones included (see
    /// [`last_demand`]).
    demand: &'a std::cell::Cell<u64>,
}

impl<'a> Tracer<'a> {
    fn run_main(&mut self) -> Result<(), Stop> {
        let main = self
            .program
            .function("main")
            .ok_or_else(|| missing_callee("main"))?;
        self.frames.push(Frame {
            func: "main".to_string(),
            ..Frame::default()
        });
        match self.exec_block(&main.body)? {
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

    /// Records an event, assigning its timestamp, region parent, and call
    /// depth. Fails when the step budget is exhausted, a scoped deadline
    /// expired at the recorder's last counted check (the paper's expired-timer
    /// rule: the run terminates as budget-exhausted), or an injected
    /// fault fires at this instance.
    fn record(&mut self, ev: Event) -> Result<InstId, Stop> {
        self.demand.set(self.rec.len() as u64 + 1);
        if self.rec.len() as u64 >= self.budget || self.rec.deadline_hit() {
            return Err(Stop::Budget);
        }
        check_fault(&mut self.fault_seen, self.fault, ev.stmt)?;
        Ok(self.rec.push(RawEvent {
            stmt: ev.stmt,
            value: ev.value,
            branch: ev.branch,
            deps: &ev.data_deps,
            cd_parent: ev.cd_parent,
            region_parent: self.region_stack.last().copied(),
            def_var: ev.def_var,
            cell_index: ev.cell_index,
            call_depth: (self.frames.len() - 1) as u32,
        }))
    }

    /// Dynamic control-dependence parent for a statement about to execute:
    /// the most recent instance in this frame of a static CD parent whose
    /// branch outcome matches, falling back to the parent inherited from
    /// the call site for statements at the top level of their function.
    fn cd_of(&self, stmt: StmtId) -> Option<InstId> {
        let frame = self.frame();
        let mut best: Option<InstId> = None;
        for cp in self.analysis.cd_parents(stmt) {
            if let Some(&(inst, outcome)) = frame.preds.get(&cp.pred) {
                if outcome == cp.branch {
                    best = Some(best.map_or(inst, |b| b.max(inst)));
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
        self.analysis
            .index()
            .resolved_var(id)
            .ok_or_else(|| unknown_var(name))
    }

    fn read_var(&self, id: ExprId, name: &str) -> EvalResult {
        let var = self.resolved(id, name)?;
        if let Some(cell) = self.frame().locals.get(&var) {
            let value = cell.value.ok_or_else(|| {
                Stop::Crash(
                    CrashKind::UninitRead,
                    format!("`{name}` used before initialization"),
                )
            })?;
            return Ok((value, cell.defs.clone()));
        }
        match self.globals.get(var) {
            Some(Slot::Scalar(cell)) => {
                let value = cell
                    .value
                    .expect("global scalars are initialized at declaration");
                Ok((value, cell.defs.clone()))
            }
            Some(Slot::Array(_)) => Err(Stop::Crash(
                CrashKind::TypeError,
                format!("array `{name}` used as a scalar"),
            )),
            None => Err(Stop::Crash(
                CrashKind::UninitRead,
                format!("`{name}` used before initialization"),
            )),
        }
    }

    /// Writes a scalar through its pre-resolved slot; `name` is only for
    /// error messages.
    fn write_scalar(&mut self, var: VarId, name: &str, cell: Cell) -> Result<VarId, Stop> {
        if self.analysis.index().vars().is_global(var) {
            match self.globals.get_mut(var) {
                Some(Slot::Scalar(c)) => {
                    *c = cell;
                    Ok(var)
                }
                Some(Slot::Array(_)) => Err(Stop::Crash(
                    CrashKind::TypeError,
                    format!("cannot assign whole array `{name}`"),
                )),
                None => unreachable!("globals are initialized at startup"),
            }
        } else {
            self.frame_mut().locals.insert(var, cell);
            Ok(var)
        }
    }

    /// Bounds-checks an element access on a pre-resolved array variable;
    /// `name` is only for error messages.
    fn array_index(&self, var: VarId, name: &str, index: i64) -> Result<(VarId, usize), Stop> {
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
        Ok((var, index as usize))
    }

    // --- expression evaluation ---------------------------------------

    fn eval(&mut self, expr: &Expr) -> EvalResult {
        match &expr.kind {
            ExprKind::Int(n) => Ok((Value::Int(*n), Vec::new())),
            ExprKind::Bool(b) => Ok((Value::Bool(*b), Vec::new())),
            ExprKind::Var(name) => self.read_var(expr.id, name),
            ExprKind::Load { name, index } => {
                let (iv, mut deps) = self.eval(index)?;
                let idx = int_operand(iv, "array index")?;
                let arr = self.resolved(expr.id, name)?;
                let (var, i) = self.array_index(arr, name, idx)?;
                let Some(Slot::Array(cells)) = self.globals.get(var) else {
                    unreachable!("array_index verified the slot");
                };
                let cell = &cells[i];
                deps.extend(cell.defs.iter().copied());
                Ok((cell.value.expect("array cells are initialized"), deps))
            }
            ExprKind::Call { callee, args } => self.eval_call(callee, args),
            ExprKind::Input => {
                let v = match self.inputs.get(self.input_pos) {
                    Some(&v) => v,
                    None => {
                        self.input_underflows += 1;
                        0
                    }
                };
                self.input_pos += 1;
                Ok((Value::Int(v), Vec::new()))
            }
            ExprKind::Unary { op, operand } => {
                let (v, deps) = self.eval(operand)?;
                Ok((apply_unary(*op, v)?, deps))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let (l, mut deps) = self.eval(lhs)?;
                let (r, rdeps) = self.eval(rhs)?;
                deps.extend(rdeps);
                Ok((apply_binary(*op, l, r)?, deps))
            }
        }
    }

    fn eval_args(&mut self, args: &[Expr]) -> Result<Vec<(Value, Vec<InstId>)>, Stop> {
        args.iter().map(|a| self.eval(a)).collect()
    }

    fn eval_call(&mut self, callee: &str, args: &[Expr]) -> EvalResult {
        let evaluated = self.eval_args(args)?;
        self.call_function(callee, evaluated, None)
    }

    fn call_function(
        &mut self,
        callee: &str,
        args: Vec<(Value, Vec<InstId>)>,
        call_site: Option<StmtId>,
    ) -> EvalResult {
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(Stop::Crash(
                CrashKind::StackOverflow,
                format!("call depth limit ({MAX_CALL_DEPTH}) exceeded calling `{callee}`"),
            ));
        }
        let decl = self
            .program
            .function(callee)
            .ok_or_else(|| missing_callee(callee))?;
        let mut frame = Frame {
            func: callee.to_string(),
            inherited_cd: self.region_stack.last().copied(),
            call_site,
            ..Frame::default()
        };
        for (&var, (value, deps)) in self.analysis.index().param_ids(callee).iter().zip(args) {
            frame.locals.insert(var, Cell::new(value, deps));
        }
        self.frames.push(frame);
        let flow = self.exec_block(&decl.body);
        self.frames.pop();
        match flow? {
            Flow::Return(v, deps) => Ok((v, deps)),
            Flow::Normal => Ok((Value::Int(0), Vec::new())),
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
        match &stmt.kind {
            StmtKind::Let { name, expr } | StmtKind::Assign { name, expr } => {
                let (computed, deps) = self.eval(expr)?;
                let (v, overridden_here) = self.maybe_override(stmt.id, computed);
                let mut ev = Event::new(stmt.id);
                ev.value = Some(v);
                ev.data_deps = dedup(deps);
                ev.cd_parent = cd;
                let inst_placeholder = self.record(ev)?;
                if overridden_here {
                    self.overridden = Some(inst_placeholder);
                }
                let var = match self.analysis.index().stmt(stmt.id).def {
                    Some(var) => var,
                    None => return Err(unknown_var(name)),
                };
                self.write_scalar(var, name, Cell::new(v, vec![inst_placeholder]))?;
                self.rec.set_def_var_last(var);
                Ok(Flow::Normal)
            }
            StmtKind::Store { name, index, value } => {
                let (iv, ideps) = self.eval(index)?;
                let idx = int_operand(iv, "array index")?;
                let (v, vdeps) = self.eval(value)?;
                let arr = self
                    .analysis
                    .index()
                    .stmt(stmt.id)
                    .def
                    .ok_or_else(|| unknown_var(name))?;
                let (var, i) = self.array_index(arr, name, idx)?;
                let mut ev = Event::new(stmt.id);
                ev.value = Some(v);
                ev.data_deps = dedup(ideps.into_iter().chain(vdeps).collect());
                ev.cd_parent = cd;
                ev.def_var = Some(var);
                ev.cell_index = Some(idx);
                let inst = self.record(ev)?;
                let Some(Slot::Array(cells)) = self.globals.get_mut(var) else {
                    unreachable!("array_index verified the slot");
                };
                cells[i] = Cell::new(v, vec![inst]);
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => self.run_if(stmt.id, cond, then_blk, else_blk.as_ref(), cd),
            StmtKind::While { cond, body } => self.run_while(stmt.id, cond, body, false),
            StmtKind::Break => {
                let mut ev = Event::new(stmt.id);
                ev.cd_parent = cd;
                self.record(ev)?;
                Ok(Flow::Break)
            }
            StmtKind::Continue => {
                let mut ev = Event::new(stmt.id);
                ev.cd_parent = cd;
                self.record(ev)?;
                Ok(Flow::Continue)
            }
            StmtKind::Return(expr) => {
                let (value, deps) = match expr {
                    Some(e) => {
                        let (v, deps) = self.eval(e)?;
                        (Some(v), deps)
                    }
                    None => (None, Vec::new()),
                };
                let mut ev = Event::new(stmt.id);
                ev.value = value;
                ev.data_deps = dedup(deps);
                ev.cd_parent = cd;
                if value.is_some() {
                    ev.def_var = self.analysis.index().stmt(stmt.id).def;
                }
                let inst = self.record(ev)?;
                match value {
                    Some(v) => Ok(Flow::Return(v, vec![inst])),
                    None => Ok(Flow::Return(Value::Int(0), Vec::new())),
                }
            }
            StmtKind::Print(expr) => {
                let (v, deps) = self.eval(expr)?;
                let mut ev = Event::new(stmt.id);
                ev.value = Some(v);
                ev.data_deps = dedup(deps);
                ev.cd_parent = cd;
                let inst = self.record(ev)?;
                self.outputs.push(OutputRecord { inst, value: v });
                Ok(Flow::Normal)
            }
            StmtKind::CallStmt { callee, args } => {
                let evaluated = self.eval_args(args)?;
                let mut ev = Event::new(stmt.id);
                ev.data_deps = dedup(
                    evaluated
                        .iter()
                        .flat_map(|(_, d)| d.iter().copied())
                        .collect(),
                );
                ev.cd_parent = cd;
                let inst = self.record(ev)?;
                // The call statement is the conduit for its arguments:
                // parameters are defined by the call instance, keeping the
                // uses of the argument variables (and their potential
                // dependences) inside the slice. Calls in expressions
                // cannot do this (their statement's event is recorded
                // after the callee runs), so there the argument sources
                // flow into the parameters directly.
                let through_call: Vec<(Value, Vec<InstId>)> = evaluated
                    .into_iter()
                    .map(|(v, _)| (v, vec![inst]))
                    .collect();
                self.call_function(callee, through_call, Some(stmt.id))?;
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
    /// the frame's predicate map. `loop_ctx` is `None` for `if`
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
        let (v, deps) = self.eval(cond)?;
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
        let mut ev = Event::new(stmt);
        ev.value = Some(Value::Bool(outcome));
        ev.branch = Some(outcome);
        ev.data_deps = dedup(deps);
        ev.cd_parent = cd;
        let inst = self.record(ev)?;
        if is_switch_target {
            self.switched = Some(inst);
        }
        self.frame_mut().preds.insert(stmt, (inst, outcome));
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
        if self.capture_specs.is_empty() || self.switched.is_some() {
            return;
        }
        let entry_occ = self.occ[stmt.0 as usize];
        let requested = self
            .capture_specs
            .get(&stmt)
            .is_some_and(|occs| occs.contains(&entry_occ));
        if !requested {
            return;
        }
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
        let main = self
            .program
            .function("main")
            .ok_or_else(|| missing_callee("main"))?;
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
                self.frames.push(cp.frames[k + 1].clone());
                let decl = self
                    .program
                    .function(callee)
                    .ok_or_else(|| missing_callee(callee))?;
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

fn dedup(mut deps: Vec<InstId>) -> Vec<InstId> {
    // Dependence lists are almost always a handful of operands, so an
    // in-place first-occurrence scan beats allocating a hash set per
    // recorded event; fall back to hashing for the rare long list.
    if deps.len() > 32 {
        let mut seen = std::collections::HashSet::new();
        deps.retain(|d| seen.insert(*d));
        return deps;
    }
    let mut w = 0;
    for r in 0..deps.len() {
        let d = deps[r];
        if !deps[..w].contains(&d) {
            deps[w] = d;
            w += 1;
        }
    }
    deps.truncate(w);
    deps
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
