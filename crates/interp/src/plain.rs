//! The plain evaluator: same semantics as the tracing interpreter, but no
//! dependence tracking, no events, no regions — just values and outputs.
//!
//! This is the "Plain" configuration of the paper's Table 4: the baseline
//! against which the cost of dependence-graph construction is measured.
//! It also powers cheap output-only re-executions (e.g. the ICSE 2006
//! critical-predicate search, which only compares final outputs).
//!
//! [`run_values`] is the same evaluator with a value sink: it keeps, per
//! statement, the values the tracer records at its events, and stops
//! where the tracer would — what a reader that only compares values (the
//! ground-truth oracle's reference run, value profiles) needs of a run,
//! at a fraction of a trace's bytes.
//!
//! Property tests in this crate assert the two interpreters produce
//! identical outputs on randomized programs, and that a value run's
//! outputs, termination and per-statement values equal a traced run's.

use crate::{OverrideSpec, RunConfig, SwitchSpec};
use omislice_lang::{
    BinOp, Block, Expr, ExprId, ExprKind, FnDecl, FnId, GlobalInit, Program, ProgramIndex, Stmt,
    StmtId, StmtKind, UnOp, VarId,
};
use omislice_trace::{CrashKind, Termination, Value};

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
/// for the same program — the same parse-time resolution the tracing
/// interpreter uses, so both resolve every name identically.
pub fn run_plain_indexed(program: &Program, index: &ProgramIndex, config: &RunConfig) -> PlainRun {
    let (e, termination) = evaluate(program, index, config, ());
    PlainRun {
        outputs: e.outputs,
        termination,
        steps: e.steps,
        input_underflows: e.input_underflows,
    }
}

/// The values one run computed, per statement, in execution order: the
/// assigned, stored, printed and returned values and the predicate
/// outcomes the tracer records in its events' `value` field. Whether an
/// instance has a value depends only on its statement's kind, so the
/// `k`-th value of a statement is the value of its `k`-th instance.
/// Nine bytes per valued instance: the payload, and whether it is a
/// boolean.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmtValues {
    /// Payload per statement and instance (booleans as 0/1).
    words: Vec<Vec<i64>>,
    /// Whether each payload is a boolean, parallel to `words`.
    bools: Vec<Vec<bool>>,
}

impl StmtValues {
    fn with_stmts(stmts: usize) -> Self {
        StmtValues {
            words: vec![Vec::new(); stmts],
            bools: vec![Vec::new(); stmts],
        }
    }

    #[inline]
    fn push(&mut self, stmt: StmtId, value: Value) {
        let (word, is_bool) = match value {
            Value::Int(n) => (n, false),
            Value::Bool(b) => (b as i64, true),
        };
        self.words[stmt.index()].push(word);
        self.bools[stmt.index()].push(is_bool);
    }

    /// The value of the `k`-th (0-based) valued instance of `stmt`, if
    /// it ran that often.
    pub fn get(&self, stmt: StmtId, k: usize) -> Option<Value> {
        let word = *self.words.get(stmt.index())?.get(k)?;
        Some(if self.bools[stmt.index()][k] {
            Value::Bool(word != 0)
        } else {
            Value::Int(word)
        })
    }

    /// The values of `stmt`'s instances, in execution order.
    pub fn of(&self, stmt: StmtId) -> impl Iterator<Item = Value> + '_ {
        let i = stmt.index();
        let words = self.words.get(i).map_or(&[][..], Vec::as_slice);
        let bools = self.bools.get(i).map_or(&[][..], Vec::as_slice);
        words.iter().zip(bools).map(|(&w, &b)| {
            if b {
                Value::Bool(w != 0)
            } else {
                Value::Int(w)
            }
        })
    }

    /// Statements covered (the program's statement count).
    pub fn stmt_count(&self) -> usize {
        self.words.len()
    }

    /// Bytes the values occupy: nine per valued instance.
    pub fn bytes(&self) -> usize {
        9 * self.words.iter().map(Vec::len).sum::<usize>()
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
/// the termination, and per statement the values [`crate::run_traced`]
/// records in its events, with no dependences, regions or event columns.
///
/// The run stops exactly where `run_traced` would: the step budget caps
/// the instances recorded (not [`run_plain`]'s steps, which also count
/// each `while` entry), checked before an injected fault fires. A value
/// run is never scoped by a [`Supervisor`](omislice_trace::Supervisor)
/// deadline, which only the failing run's recording observes.
pub fn run_values(program: &Program, index: &ProgramIndex, config: &RunConfig) -> ValueRun {
    let sink = ValueSink {
        events: 0,
        values: StmtValues::with_stmts(program.stmt_count() as usize),
    };
    let (e, termination) = evaluate(program, index, config, sink);
    let mut values = e.sink.values;
    for (words, bools) in values.words.iter_mut().zip(&mut values.bools) {
        words.shrink_to_fit();
        bools.shrink_to_fit();
    }
    ValueRun {
        outputs: e.outputs,
        termination,
        values,
    }
}

/// Where the evaluator reports each statement instance it completes, at
/// the points where the tracing interpreter records an event.
trait Sink {
    /// Whether the evaluator's own step count (one per statement and per
    /// `while` condition) bounds the run; otherwise the sink does.
    const TICKS: bool;

    /// Admits the next instance, or stops the run at `budget`.
    fn admit(&mut self, budget: u64) -> Result<(), Stop>;

    /// Records the admitted instance of `stmt` and the value it computed.
    fn record(&mut self, stmt: StmtId, value: Option<Value>);
}

/// The plain run: nothing kept, bounded by its own step count.
impl Sink for () {
    const TICKS: bool = true;

    #[inline]
    fn admit(&mut self, _: u64) -> Result<(), Stop> {
        Ok(())
    }

    #[inline]
    fn record(&mut self, _: StmtId, _: Option<Value>) {}
}

/// A value run: bounded, like the tracer, by the instances recorded.
struct ValueSink {
    events: u64,
    values: StmtValues,
}

impl Sink for ValueSink {
    const TICKS: bool = false;

    #[inline]
    fn admit(&mut self, budget: u64) -> Result<(), Stop> {
        if self.events >= budget {
            Err(Stop::Budget)
        } else {
            Ok(())
        }
    }

    #[inline]
    fn record(&mut self, stmt: StmtId, value: Option<Value>) {
        self.events += 1;
        if let Some(v) = value {
            self.values.push(stmt, v);
        }
    }
}

fn evaluate<'a, S: Sink>(
    program: &'a Program,
    index: &'a ProgramIndex,
    config: &'a RunConfig,
    sink: S,
) -> (Evaluator<'a, S>, Termination) {
    let mut e = Evaluator {
        index,
        fns: program.functions().collect(),
        inputs: &config.inputs,
        input_pos: 0,
        input_underflows: 0,
        budget: config.step_budget,
        steps: 0,
        switch: config.switch,
        switch_done: false,
        value_override: config.value_override,
        override_done: false,
        fault: config.fault,
        fault_seen: 0,
        occ: vec![0; program.stmt_count() as usize],
        globals: init_globals(program),
        locals: Vec::new(),
        frames: Vec::new(),
        args: Vec::new(),
        outputs: Vec::new(),
        sink,
    };
    let termination = match e.run_main() {
        Ok(()) => Termination::Normal,
        Err(Stop::Budget) => Termination::BudgetExhausted,
        Err(Stop::Crash(kind, msg)) => Termination::RuntimeError(kind, msg),
    };
    (e, termination)
}

enum Stop {
    Budget,
    Crash(CrashKind, String),
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

enum PlainSlot {
    Scalar(Value),
    Array(Vec<Value>),
}

/// Global values, indexed by [`VarId`] (globals are numbered first, in
/// declaration order).
fn init_globals(program: &Program) -> Vec<PlainSlot> {
    program
        .globals()
        .map(|g| match &g.init {
            GlobalInit::Int(n) => PlainSlot::Scalar(Value::Int(*n)),
            GlobalInit::Bool(b) => PlainSlot::Scalar(Value::Bool(*b)),
            GlobalInit::Array { elem, len } => PlainSlot::Array(vec![Value::Int(*elem); *len]),
        })
        .collect()
}

struct Evaluator<'a, S> {
    index: &'a ProgramIndex,
    /// Function declarations by [`FnId`].
    fns: Vec<&'a FnDecl>,
    inputs: &'a [i64],
    input_pos: usize,
    /// `input()` calls that ran past the end of the stream (yielding 0).
    input_underflows: u64,
    budget: u64,
    steps: u64,
    switch: Option<SwitchSpec>,
    switch_done: bool,
    value_override: Option<OverrideSpec>,
    override_done: bool,
    /// Deterministic fault to inject, if any.
    fault: Option<omislice_trace::FaultEntry>,
    /// Instances of the fault statement seen so far.
    fault_seen: u32,
    /// Per-statement execution counters, dense over `StmtId`.
    occ: Vec<u32>,
    globals: Vec<PlainSlot>,
    /// The local values of every active call, one slot per local of its
    /// function (`None` until written); each frame owns a window.
    locals: Vec<Option<Value>>,
    /// One frame per active call: its function and the start of its
    /// window in `locals`.
    frames: Vec<(FnId, usize)>,
    /// Argument values of calls being bound.
    args: Vec<Value>,
    outputs: Vec<Value>,
    sink: S,
}

impl<'a, S: Sink> Evaluator<'a, S> {
    fn run_main(&mut self) -> Result<(), Stop> {
        let main = self
            .index
            .function_id("main")
            .ok_or_else(|| missing_callee("main"))?;
        self.locals
            .resize(self.index.function(main).locals.len(), None);
        self.frames.push((main, 0));
        self.exec_block(&self.fns[main.index()].body).map(|_| ())
    }

    /// Completes an instance of `stmt` that computed `value`. Called
    /// exactly where the tracing interpreter records the statement's
    /// event, so both interpreters fail at the same logical point: the
    /// sink's budget check first, then an injected fault at this
    /// statement's next dynamic instance when the plan says so.
    #[inline]
    fn event(&mut self, stmt: StmtId, value: Option<Value>) -> Result<(), Stop> {
        self.sink.admit(self.budget)?;
        match crate::fault_fires(&mut self.fault_seen, self.fault, stmt) {
            None => {}
            Some(crate::InjectedFault::Budget) => return Err(Stop::Budget),
            Some(crate::InjectedFault::Crash(kind, msg)) => return Err(Stop::Crash(kind, msg)),
        }
        self.sink.record(stmt, value);
        Ok(())
    }

    /// The slot in `locals` of a local variable of the current frame's
    /// function, `None` for globals.
    #[inline]
    fn local_slot(&self, var: VarId) -> Option<usize> {
        let &(func, base) = self.frames.last().expect("at least one frame");
        let locals = &self.index.function(func).locals;
        locals
            .contains(&var.0)
            .then(|| base + (var.0 - locals.start) as usize)
    }

    fn tick(&mut self) -> Result<(), Stop> {
        if !S::TICKS {
            return Ok(());
        }
        self.steps += 1;
        if self.steps > self.budget {
            Err(Stop::Budget)
        } else {
            Ok(())
        }
    }

    fn read_var(&self, id: ExprId, name: &str) -> Result<Value, Stop> {
        let var = self
            .index
            .resolved_var(id)
            .ok_or_else(|| unknown_var(name))?;
        if let Some(slot) = self.local_slot(var) {
            return self.locals[slot].ok_or_else(|| uninit_read(name));
        }
        match self.globals.get(var.index()) {
            Some(PlainSlot::Scalar(v)) => Ok(*v),
            Some(PlainSlot::Array(_)) => Err(Stop::Crash(
                CrashKind::TypeError,
                format!("array `{name}` used as a scalar"),
            )),
            None => Err(uninit_read(name)),
        }
    }

    fn write_var(&mut self, stmt: StmtId, name: &str, value: Value) -> Result<(), Stop> {
        let var = self.index.stmt(stmt).def.ok_or_else(|| unknown_var(name))?;
        if let Some(slot) = self.local_slot(var) {
            self.locals[slot] = Some(value);
            return Ok(());
        }
        match self.globals.get_mut(var.index()) {
            Some(PlainSlot::Scalar(v)) => {
                *v = value;
                Ok(())
            }
            Some(PlainSlot::Array(_)) => Err(Stop::Crash(
                CrashKind::TypeError,
                format!("cannot assign whole array `{name}`"),
            )),
            None => Err(unknown_var(name)),
        }
    }

    /// The global array `var` names, `None` when it is not one.
    fn array(&mut self, var: Option<VarId>) -> Option<&mut Vec<Value>> {
        match self.globals.get_mut(var?.index()) {
            Some(PlainSlot::Array(cells)) => Some(cells),
            _ => None,
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, Stop> {
        match &expr.kind {
            ExprKind::Int(n) => Ok(Value::Int(*n)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Var(name) => self.read_var(expr.id, name),
            ExprKind::Load { name, index } => {
                let idx = self.eval(index)?.as_int().ok_or_else(|| {
                    Stop::Crash(
                        CrashKind::TypeError,
                        "array index must be an integer".to_string(),
                    )
                })?;
                let var = self.index.resolved_var(expr.id);
                let Some(cells) = self.array(var) else {
                    return Err(not_an_array(name));
                };
                if idx < 0 || idx as usize >= cells.len() {
                    return Err(oob(idx, name, cells.len()));
                }
                Ok(cells[idx as usize])
            }
            ExprKind::Call { callee, args } => {
                let arg_mark = self.args.len();
                for a in args {
                    let v = self.eval(a)?;
                    self.args.push(v);
                }
                self.call(self.index.expr_callee(expr.id), callee, arg_mark)
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
    /// argument values `args[arg_mark..]`.
    fn call(&mut self, target: Option<FnId>, callee: &str, arg_mark: usize) -> Result<Value, Stop> {
        if self.frames.len() >= crate::tracer::MAX_CALL_DEPTH {
            return Err(Stop::Crash(
                CrashKind::StackOverflow,
                format!(
                    "call depth limit ({}) exceeded calling `{callee}`",
                    crate::tracer::MAX_CALL_DEPTH
                ),
            ));
        }
        let func = target.ok_or_else(|| missing_callee(callee))?;
        let info = self.index.function(func);
        let base = self.locals.len();
        self.locals.resize(base + info.locals.len(), None);
        let nargs = self.args.len() - arg_mark;
        for (k, &param) in info.params.iter().enumerate().take(nargs) {
            self.locals[base + (param.0 - info.locals.start) as usize] =
                Some(self.args[arg_mark + k]);
        }
        self.args.truncate(arg_mark);
        self.frames.push((func, base));
        let flow = self.exec_block(&self.fns[func.index()].body);
        self.frames.pop();
        self.locals.truncate(base);
        match flow? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Int(0)),
            Flow::Break | Flow::Continue => {
                unreachable!("checker rejects break/continue outside loops")
            }
        }
    }

    fn exec_block(&mut self, block: &Block) -> Result<Flow, Stop> {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn predicate(&mut self, stmt: StmtId, cond: &Expr) -> Result<bool, Stop> {
        let v = self.eval(cond)?;
        let mut outcome = v.truthy();
        let c = &mut self.occ[stmt.index()];
        let occurrence = *c;
        *c += 1;
        if !self.switch_done
            && self
                .switch
                .is_some_and(|s| s.pred == stmt && s.occurrence == occurrence)
        {
            outcome = !outcome;
            self.switch_done = true;
        }
        self.event(stmt, Some(Value::Bool(outcome)))?;
        Ok(outcome)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, Stop> {
        match self.exec_stmt_inner(stmt) {
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

    fn exec_stmt_inner(&mut self, stmt: &Stmt) -> Result<Flow, Stop> {
        self.tick()?;
        match &stmt.kind {
            StmtKind::Let { name, expr } | StmtKind::Assign { name, expr } => {
                let mut v = self.eval(expr)?;
                if let Some(o) = self.value_override {
                    if o.stmt == stmt.id && !self.override_done {
                        let c = &mut self.occ[stmt.id.index()];
                        let occurrence = *c;
                        *c += 1;
                        if occurrence == o.occurrence {
                            v = o.value;
                            self.override_done = true;
                        }
                    }
                }
                self.event(stmt.id, Some(v))?;
                self.write_var(stmt.id, name, v)?;
                Ok(Flow::Normal)
            }
            StmtKind::Store { name, index, value } => {
                let idx = self.eval(index)?.as_int().ok_or_else(|| {
                    Stop::Crash(
                        CrashKind::TypeError,
                        "array index must be an integer".to_string(),
                    )
                })?;
                let v = self.eval(value)?;
                let var = self.index.stmt(stmt.id).def;
                let Some(cells) = self.array(var) else {
                    return Err(not_an_array(name));
                };
                let len = cells.len();
                if idx < 0 || idx as usize >= len {
                    return Err(oob(idx, name, len));
                }
                self.event(stmt.id, Some(v))?;
                let cells = self.array(var).expect("checked just above");
                cells[idx as usize] = v;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.predicate(stmt.id, cond)? {
                    self.exec_block(then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => loop {
                self.tick()?;
                if !self.predicate(stmt.id, cond)? {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            },
            StmtKind::Break => {
                self.event(stmt.id, None)?;
                Ok(Flow::Break)
            }
            StmtKind::Continue => {
                self.event(stmt.id, None)?;
                Ok(Flow::Continue)
            }
            StmtKind::Return(expr) => {
                let v = match expr {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                self.event(stmt.id, v)?;
                Ok(Flow::Return(v.unwrap_or(Value::Int(0))))
            }
            StmtKind::Print(expr) => {
                let v = self.eval(expr)?;
                self.event(stmt.id, Some(v))?;
                self.outputs.push(v);
                Ok(Flow::Normal)
            }
            StmtKind::CallStmt { callee, args } => {
                let arg_mark = self.args.len();
                for a in args {
                    let v = self.eval(a)?;
                    self.args.push(v);
                }
                self.event(stmt.id, None)?;
                self.call(self.index.stmt_callee(stmt.id), callee, arg_mark)?;
                Ok(Flow::Normal)
            }
        }
    }
}

fn missing_callee(name: &str) -> Stop {
    Stop::Crash(CrashKind::MissingCallee, format!("no function `{name}`"))
}

fn unknown_var(name: &str) -> Stop {
    Stop::Crash(CrashKind::TypeError, format!("unknown variable `{name}`"))
}

fn uninit_read(name: &str) -> Stop {
    Stop::Crash(
        CrashKind::UninitRead,
        format!("`{name}` used before initialization"),
    )
}

fn not_an_array(name: &str) -> Stop {
    Stop::Crash(CrashKind::TypeError, format!("`{name}` is not an array"))
}

fn oob(idx: i64, name: &str, len: usize) -> Stop {
    Stop::Crash(
        CrashKind::OobIndex,
        format!("index {idx} out of bounds for `{name}` (len {len})"),
    )
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
            Ok(Value::Bool(match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            }))
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
