//! The plain evaluator: same semantics as the tracing interpreter, but no
//! dependence tracking, no events, no regions — just values and outputs.
//!
//! This is the "Plain" configuration of the paper's Table 4: the baseline
//! against which the cost of dependence-graph construction is measured.
//! It also powers cheap output-only re-executions (e.g. the ICSE 2006
//! critical-predicate search, which only compares final outputs).
//!
//! A property test in this crate asserts the two interpreters produce
//! identical outputs on randomized programs.

use crate::{OverrideSpec, RunConfig, SwitchSpec};
use omislice_lang::{
    BinOp, Block, Expr, ExprKind, GlobalInit, Program, Stmt, StmtId, StmtKind, UnOp,
};
use omislice_trace::{CrashKind, Termination, Value};
use std::collections::HashMap;

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
    let mut e = Evaluator {
        program,
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
        occ: HashMap::new(),
        globals: init_globals(program),
        local_names: collect_local_names(program),
        frames: Vec::new(),
        outputs: Vec::new(),
    };
    let termination = match e.run_main() {
        Ok(()) => Termination::Normal,
        Err(Stop::Budget) => Termination::BudgetExhausted,
        Err(Stop::Crash(kind, msg)) => Termination::RuntimeError(kind, msg),
    };
    PlainRun {
        outputs: e.outputs,
        termination,
        steps: e.steps,
        input_underflows: e.input_underflows,
    }
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

/// Names that are function-local (parameters or `let`s anywhere in the
/// body) per function — the same flat function scoping the variable table
/// uses, so both interpreters resolve names identically.
fn collect_local_names(program: &Program) -> HashMap<String, std::collections::HashSet<String>> {
    fn walk(block: &Block, out: &mut std::collections::HashSet<String>) {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::Let { name, .. } => {
                    out.insert(name.clone());
                }
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, out);
                    if let Some(e) = else_blk {
                        walk(e, out);
                    }
                }
                StmtKind::While { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    program
        .functions()
        .map(|f| {
            let mut names: std::collections::HashSet<String> = f.params.iter().cloned().collect();
            walk(&f.body, &mut names);
            (f.name.clone(), names)
        })
        .collect()
}

fn init_globals(program: &Program) -> HashMap<String, PlainSlot> {
    program
        .globals()
        .map(|g| {
            let slot = match &g.init {
                GlobalInit::Int(n) => PlainSlot::Scalar(Value::Int(*n)),
                GlobalInit::Bool(b) => PlainSlot::Scalar(Value::Bool(*b)),
                GlobalInit::Array { elem, len } => PlainSlot::Array(vec![Value::Int(*elem); *len]),
            };
            (g.name.clone(), slot)
        })
        .collect()
}

struct Evaluator<'a> {
    program: &'a Program,
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
    occ: HashMap<StmtId, u32>,
    globals: HashMap<String, PlainSlot>,
    local_names: HashMap<String, std::collections::HashSet<String>>,
    /// One frame per active call: function name plus local values.
    frames: Vec<(String, HashMap<String, Value>)>,
    outputs: Vec<Value>,
}

impl<'a> Evaluator<'a> {
    fn run_main(&mut self) -> Result<(), Stop> {
        let main = self
            .program
            .function("main")
            .ok_or_else(|| missing_callee("main"))?;
        self.frames.push(("main".to_string(), HashMap::new()));
        self.exec_block(&main.body).map(|_| ())
    }

    /// Fires an injected fault at this statement's next dynamic instance
    /// when the plan says so. Called exactly where the tracing
    /// interpreter records the statement's event, so both interpreters
    /// fail at the same logical point.
    fn check_fault(&mut self, stmt: StmtId) -> Result<(), Stop> {
        match crate::fault_fires(&mut self.fault_seen, self.fault, stmt) {
            None => Ok(()),
            Some(crate::InjectedFault::Budget) => Err(Stop::Budget),
            Some(crate::InjectedFault::Crash(kind, msg)) => Err(Stop::Crash(kind, msg)),
        }
    }

    /// Whether `name` is a local of the currently executing function.
    fn is_local(&self, name: &str) -> bool {
        let (func, _) = self.frames.last().expect("at least one frame");
        self.local_names.get(func).is_some_and(|s| s.contains(name))
    }

    fn tick(&mut self) -> Result<(), Stop> {
        self.steps += 1;
        if self.steps > self.budget {
            Err(Stop::Budget)
        } else {
            Ok(())
        }
    }

    fn read_var(&self, name: &str) -> Result<Value, Stop> {
        if self.is_local(name) {
            let (_, locals) = self.frames.last().expect("at least one frame");
            return locals.get(name).copied().ok_or_else(|| {
                Stop::Crash(
                    CrashKind::UninitRead,
                    format!("`{name}` used before initialization"),
                )
            });
        }
        match self.globals.get(name) {
            Some(PlainSlot::Scalar(v)) => Ok(*v),
            Some(PlainSlot::Array(_)) => Err(Stop::Crash(
                CrashKind::TypeError,
                format!("array `{name}` used as a scalar"),
            )),
            None => Err(Stop::Crash(
                CrashKind::TypeError,
                format!("unknown variable `{name}`"),
            )),
        }
    }

    fn write_var(&mut self, name: &str, value: Value) -> Result<(), Stop> {
        if self.is_local(name) {
            self.frames
                .last_mut()
                .expect("at least one frame")
                .1
                .insert(name.to_string(), value);
            return Ok(());
        }
        match self.globals.get_mut(name) {
            Some(PlainSlot::Scalar(v)) => {
                *v = value;
                Ok(())
            }
            Some(PlainSlot::Array(_)) => Err(Stop::Crash(
                CrashKind::TypeError,
                format!("cannot assign whole array `{name}`"),
            )),
            None => Err(Stop::Crash(
                CrashKind::TypeError,
                format!("unknown variable `{name}`"),
            )),
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, Stop> {
        match &expr.kind {
            ExprKind::Int(n) => Ok(Value::Int(*n)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Var(name) => self.read_var(name),
            ExprKind::Load { name, index } => {
                let idx = self.eval(index)?.as_int().ok_or_else(|| {
                    Stop::Crash(
                        CrashKind::TypeError,
                        "array index must be an integer".to_string(),
                    )
                })?;
                match self.globals.get(name) {
                    Some(PlainSlot::Array(cells)) => {
                        if idx < 0 || idx as usize >= cells.len() {
                            return Err(oob(idx, name, cells.len()));
                        }
                        Ok(cells[idx as usize])
                    }
                    _ => Err(Stop::Crash(
                        CrashKind::TypeError,
                        format!("`{name}` is not an array"),
                    )),
                }
            }
            ExprKind::Call { callee, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<_, _>>()?;
                self.call(callee, vals)
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

    fn call(&mut self, callee: &str, args: Vec<Value>) -> Result<Value, Stop> {
        if self.frames.len() >= crate::tracer::MAX_CALL_DEPTH {
            return Err(Stop::Crash(
                CrashKind::StackOverflow,
                format!(
                    "call depth limit ({}) exceeded calling `{callee}`",
                    crate::tracer::MAX_CALL_DEPTH
                ),
            ));
        }
        let decl = self
            .program
            .function(callee)
            .ok_or_else(|| missing_callee(callee))?;
        let locals: HashMap<String, Value> = decl.params.iter().cloned().zip(args).collect();
        self.frames.push((callee.to_string(), locals));
        let flow = self.exec_block(&decl.body);
        self.frames.pop();
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
        let c = self.occ.entry(stmt).or_insert(0);
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
        self.check_fault(stmt)?;
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
                        let c = self.occ.entry(stmt.id).or_insert(0);
                        let occurrence = *c;
                        *c += 1;
                        if occurrence == o.occurrence {
                            v = o.value;
                            self.override_done = true;
                        }
                    }
                }
                self.check_fault(stmt.id)?;
                self.write_var(name, v)?;
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
                let len = match self.globals.get(name) {
                    Some(PlainSlot::Array(cells)) => cells.len(),
                    _ => {
                        return Err(Stop::Crash(
                            CrashKind::TypeError,
                            format!("`{name}` is not an array"),
                        ))
                    }
                };
                if idx < 0 || idx as usize >= len {
                    return Err(oob(idx, name, len));
                }
                self.check_fault(stmt.id)?;
                let Some(PlainSlot::Array(cells)) = self.globals.get_mut(name) else {
                    unreachable!("checked just above");
                };
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
                self.check_fault(stmt.id)?;
                Ok(Flow::Break)
            }
            StmtKind::Continue => {
                self.check_fault(stmt.id)?;
                Ok(Flow::Continue)
            }
            StmtKind::Return(expr) => {
                let v = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                self.check_fault(stmt.id)?;
                Ok(Flow::Return(v))
            }
            StmtKind::Print(expr) => {
                let v = self.eval(expr)?;
                self.check_fault(stmt.id)?;
                self.outputs.push(v);
                Ok(Flow::Normal)
            }
            StmtKind::CallStmt { callee, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<_, _>>()?;
                self.check_fault(stmt.id)?;
                self.call(callee, vals)?;
                Ok(Flow::Normal)
            }
        }
    }
}

fn missing_callee(name: &str) -> Stop {
    Stop::Crash(CrashKind::MissingCallee, format!("no function `{name}`"))
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
