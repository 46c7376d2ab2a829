//! Program index: dense variable numbering and per-statement def/use facts.
//!
//! Every static analysis and the tracing interpreter consult the same
//! [`ProgramIndex`], so they agree on what each statement defines and uses:
//!
//! * scalars (`let`/assignment) define their variable and use the variables
//!   read by the right-hand side;
//! * array stores *weakly* define the array variable (they do not kill
//!   earlier definitions — the mini-language's stand-in for the paper's
//!   points-to facts);
//! * `return e;` defines a synthetic per-function *return variable*, and
//!   every call site uses it, which threads data dependences through calls;
//! * predicates (`if`/`while`) define nothing.
//!
//! Name resolution: globals are visible everywhere; `let`s and parameters
//! are function-scoped (a single flat scope per function, checked to be
//! consistent by construction of the table).

use crate::ast::*;
use crate::printer::stmt_head;
use crate::span::Span;
use std::collections::HashMap;
use std::fmt;

/// Dense identifier of a program variable (global, function-local, or a
/// synthetic per-function return slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Dense identifier of a function: its position among
/// [`Program::functions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FnId(pub u32);

impl FnId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Call-resolution facts for one function, computed once at index build
/// so the interpreters bind a call without a name lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnInfo {
    /// Parameter slots in declaration order.
    pub params: Vec<VarId>,
    /// The function's locals (parameters and `let`s): the dense
    /// [`VarId`] range `locals.start..locals.end`, so `var.0 -
    /// locals.start` is a local's slot in a frame.
    pub locals: std::ops::Range<u32>,
    /// Number of predicates (`if`/`while`) in the body;
    /// [`ProgramIndex::pred_slot`] numbers them `0..preds`.
    pub preds: u32,
}

/// What kind of storage a [`VarId`] names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarKind {
    /// A global scalar or array.
    Global {
        /// Whether the global is an array.
        is_array: bool,
    },
    /// A parameter or `let`-bound local of `func`.
    Local {
        /// Owning function.
        func: String,
    },
    /// The synthetic return slot of `func`.
    Ret {
        /// Owning function.
        func: String,
    },
}

/// Metadata for one variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Source-level name (`"<ret:f>"` for return slots).
    pub name: String,
    /// Storage kind.
    pub kind: VarKind,
}

/// Maps source names to dense [`VarId`]s, with function-scoped locals.
///
/// Globals are numbered first, in declaration order (`0..global_count`);
/// then, per function in source order, its return slot followed by its
/// locals, so each function's locals form one dense range
/// ([`FnInfo::locals`]).
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    vars: Vec<VarInfo>,
    globals: HashMap<String, VarId>,
    /// Locals nested per function, so lookups borrow both keys.
    locals: HashMap<String, HashMap<String, VarId>>,
    rets: HashMap<String, VarId>,
}

impl VarTable {
    fn add(&mut self, info: VarInfo) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(info);
        id
    }

    /// Number of variables in the table.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Metadata for a variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this table.
    pub fn info(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Display name of a variable (e.g. `flags` or `<ret:f>`).
    pub fn name(&self, id: VarId) -> &str {
        &self.vars[id.index()].name
    }

    /// Resolves `name` as seen from inside `func`: locals shadow globals.
    pub fn resolve(&self, func: &str, name: &str) -> Option<VarId> {
        self.locals
            .get(func)
            .and_then(|m| m.get(name))
            .or_else(|| self.globals.get(name))
            .copied()
    }

    /// Number of globals; their ids are `0..global_count`.
    pub fn global_count(&self) -> usize {
        self.globals.len()
    }

    /// The id of a global variable, if one with this name exists.
    pub fn global(&self, name: &str) -> Option<VarId> {
        self.globals.get(name).copied()
    }

    /// The synthetic return slot of `func`, if `func` exists.
    pub fn ret_slot(&self, func: &str) -> Option<VarId> {
        self.rets.get(func).copied()
    }

    /// Whether `id` names a global.
    pub fn is_global(&self, id: VarId) -> bool {
        matches!(self.info(id).kind, VarKind::Global { .. })
    }

    /// Whether `id` names an array.
    pub fn is_array(&self, id: VarId) -> bool {
        matches!(self.info(id).kind, VarKind::Global { is_array: true })
    }

    /// Iterates over all `(VarId, VarInfo)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i as u32), v))
    }
}

/// Coarse classification of a statement, mirroring [`StmtKind`] without
/// payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StmtRole {
    /// `let x = e;`
    Let,
    /// `x = e;`
    Assign,
    /// `a[i] = e;`
    Store,
    /// `if c { ... }`
    If,
    /// `while c { ... }`
    While,
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return;` / `return e;`
    Return,
    /// `print(e);`
    Print,
    /// `f(args);`
    Call,
}

/// Def/use facts and presentation data for one statement.
#[derive(Debug, Clone)]
pub struct StmtInfo {
    /// The statement's id.
    pub id: StmtId,
    /// Name of the enclosing function.
    pub func: String,
    /// Coarse statement kind.
    pub role: StmtRole,
    /// Source span.
    pub span: Span,
    /// One-line rendering (blocks omitted), for reports.
    pub head: String,
    /// Variable defined here, if any. Array stores set this to the array
    /// variable with [`StmtInfo::weak_def`] true.
    pub def: Option<VarId>,
    /// True when the definition does not kill earlier definitions
    /// (array stores).
    pub weak_def: bool,
    /// Variables read by this statement, in evaluation order, including
    /// synthetic return slots of called functions (appended at the end).
    pub uses: Vec<VarId>,
    /// Functions invoked anywhere in this statement.
    pub calls: Vec<String>,
    /// Whether evaluation reads the test input stream.
    pub reads_input: bool,
    /// Whether the defining expression is an *invertible* (one-to-one)
    /// function of each used variable — the confidence-analysis notion
    /// from PLDI 2006 (see Figure 4 of the paper).
    pub invertible: bool,
}

impl StmtInfo {
    /// Whether this statement is a predicate (`if`/`while`).
    pub fn is_predicate(&self) -> bool {
        matches!(self.role, StmtRole::If | StmtRole::While)
    }

    /// Whether this statement emits observable output.
    pub fn is_output(&self) -> bool {
        self.role == StmtRole::Print
    }
}

/// Index over a checked program: variable table plus per-statement facts.
///
/// # Examples
///
/// ```
/// use omislice_lang::{compile, ProgramIndex};
///
/// let program = compile("global g = 0; fn main() { g = input(); print(g + 1); }")?;
/// let index = ProgramIndex::build(&program);
/// assert_eq!(index.outputs().len(), 1);
/// # Ok::<(), omislice_lang::FrontendError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProgramIndex {
    vars: VarTable,
    stmts: Vec<StmtInfo>,
    outputs: Vec<StmtId>,
    predicates: Vec<StmtId>,
    /// Parse-time name resolution: for every [`ExprId`], the [`VarId`] its
    /// `Var`/`Load` name resolves to in the enclosing function (`None` for
    /// non-name expressions and names that don't resolve — the latter stay
    /// runtime errors). Indexed by `ExprId`; lets the interpreters replace
    /// two string-hash lookups per variable read with one array load.
    resolved_vars: Vec<Option<VarId>>,
    /// Per-function call-resolution facts, indexed by [`FnId`].
    fns: Vec<FnInfo>,
    /// Function ids by name, for entry points resolved once per run.
    fn_ids: HashMap<String, FnId>,
    /// For every [`ExprId`] of a `Call` expression, the callee it names
    /// (`None` elsewhere and for unknown functions).
    expr_callees: Vec<Option<FnId>>,
    /// For every call statement, the callee it names, indexed by
    /// [`StmtId`] (`None` elsewhere and for unknown functions).
    stmt_callees: Vec<Option<FnId>>,
    /// For every predicate, its position among its function's
    /// predicates, indexed by [`StmtId`] (`u32::MAX` elsewhere).
    pred_slots: Vec<u32>,
}

impl ProgramIndex {
    /// Builds the index for a program that passed
    /// [`check_program`](crate::check_program).
    ///
    /// # Panics
    ///
    /// May panic on programs that fail semantic checking (e.g. calls to
    /// unknown functions).
    pub fn build(program: &Program) -> Self {
        let vars = build_var_table(program);
        let mut stmts: Vec<Option<StmtInfo>> = vec![None; program.stmt_count() as usize];
        for f in program.functions() {
            index_block(&f.body, f, &vars, &mut stmts);
        }
        let stmts: Vec<StmtInfo> = stmts
            .into_iter()
            .map(|s| s.expect("every StmtId below stmt_count occurs in some function body"))
            .collect();
        let outputs = stmts
            .iter()
            .filter(|s| s.is_output())
            .map(|s| s.id)
            .collect();
        let predicates = stmts
            .iter()
            .filter(|s| s.is_predicate())
            .map(|s| s.id)
            .collect();
        let fn_ids: HashMap<String, FnId> = program
            .functions()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FnId(i as u32)))
            .collect();
        let mut resolved_vars: Vec<Option<VarId>> = vec![None; program.expr_count() as usize];
        let mut expr_callees: Vec<Option<FnId>> = vec![None; program.expr_count() as usize];
        let mut stmt_callees: Vec<Option<FnId>> = vec![None; stmts.len()];
        let mut pred_slots = vec![u32::MAX; stmts.len()];
        let mut fns = Vec::new();
        for f in program.functions() {
            let mut preds = 0;
            visit_block(&f.body, &mut |stmt| {
                match &stmt.kind {
                    StmtKind::If { .. } | StmtKind::While { .. } => {
                        pred_slots[stmt.id.index()] = preds;
                        preds += 1;
                    }
                    StmtKind::CallStmt { callee, .. } => {
                        stmt_callees[stmt.id.index()] = fn_ids.get(callee).copied();
                    }
                    _ => {}
                }
                for_each_expr(stmt, &mut |expr| match &expr.kind {
                    ExprKind::Var(name) | ExprKind::Load { name, .. } => {
                        if let Some(slot) = resolved_vars.get_mut(expr.id.index()) {
                            *slot = vars.resolve(&f.name, name);
                        }
                    }
                    ExprKind::Call { callee, .. } => {
                        if let Some(slot) = expr_callees.get_mut(expr.id.index()) {
                            *slot = fn_ids.get(callee).copied();
                        }
                    }
                    _ => {}
                });
            });
            let params = f
                .params
                .iter()
                .map(|p| {
                    vars.resolve(&f.name, p)
                        .expect("parameters are in the table")
                })
                .collect();
            // The return slot is followed by the function's locals.
            let first = vars
                .ret_slot(&f.name)
                .expect("every function has a return slot")
                .0
                + 1;
            let count = vars.locals.get(&f.name).map_or(0, HashMap::len) as u32;
            fns.push(FnInfo {
                params,
                locals: first..first + count,
                preds,
            });
        }
        ProgramIndex {
            vars,
            stmts,
            outputs,
            predicates,
            resolved_vars,
            fns,
            fn_ids,
            expr_callees,
            stmt_callees,
            pred_slots,
        }
    }

    /// The variable table.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Facts for one statement.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn stmt(&self, id: StmtId) -> &StmtInfo {
        &self.stmts[id.index()]
    }

    /// Number of statements.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// All statements in id order.
    pub fn stmts(&self) -> &[StmtInfo] {
        &self.stmts
    }

    /// All `print` statements in id order.
    pub fn outputs(&self) -> &[StmtId] {
        &self.outputs
    }

    /// All predicates (`if`/`while`) in id order.
    pub fn predicates(&self) -> &[StmtId] {
        &self.predicates
    }

    /// The variable a `Var` or `Load` expression resolves to, from the
    /// parse-time resolution table. `None` for other expression kinds,
    /// for names that don't resolve in their enclosing function, and for
    /// [`ExprId::DUMMY`] nodes built outside the parser.
    #[inline]
    pub fn resolved_var(&self, id: ExprId) -> Option<VarId> {
        self.resolved_vars.get(id.index()).copied().flatten()
    }

    /// Call-resolution facts of a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn function(&self, id: FnId) -> &FnInfo {
        &self.fns[id.index()]
    }

    /// The id of the function named `name`, if it exists.
    pub fn function_id(&self, name: &str) -> Option<FnId> {
        self.fn_ids.get(name).copied()
    }

    /// The callee of a `Call` expression, resolved at index build.
    /// `None` for other expressions, unknown functions, and
    /// [`ExprId::DUMMY`] nodes.
    #[inline]
    pub fn expr_callee(&self, id: ExprId) -> Option<FnId> {
        self.expr_callees.get(id.index()).copied().flatten()
    }

    /// The callee of a call statement, resolved at index build. `None`
    /// for other statements and unknown functions.
    #[inline]
    pub fn stmt_callee(&self, id: StmtId) -> Option<FnId> {
        self.stmt_callees.get(id.index()).copied().flatten()
    }

    /// A predicate's position among its function's predicates
    /// (`0..FnInfo::preds`): a frame keeps one slot per predicate.
    /// Meaningless for statements that are not predicates.
    #[inline]
    pub fn pred_slot(&self, id: StmtId) -> usize {
        self.pred_slots[id.index()] as usize
    }
}

/// Visits every statement in a block, recursing into nested blocks.
fn visit_block<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        match &stmt.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                visit_block(then_blk, f);
                if let Some(e) = else_blk {
                    visit_block(e, f);
                }
            }
            StmtKind::While { body, .. } => visit_block(body, f),
            _ => {}
        }
    }
}

/// Visits every expression node belonging to `stmt` itself (not to
/// statements nested in its blocks).
fn for_each_expr<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::Let { expr, .. } | StmtKind::Assign { expr, .. } | StmtKind::Print(expr) => {
            expr.visit(f)
        }
        StmtKind::Store { index, value, .. } => {
            index.visit(f);
            value.visit(f);
        }
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => cond.visit(f),
        StmtKind::Return(expr) => {
            if let Some(e) = expr {
                e.visit(f);
            }
        }
        StmtKind::CallStmt { args, .. } => {
            for a in args {
                a.visit(f);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
    }
}

fn build_var_table(program: &Program) -> VarTable {
    let mut table = VarTable::default();
    for g in program.globals() {
        let is_array = matches!(g.init, GlobalInit::Array { .. });
        let id = table.add(VarInfo {
            name: g.name.clone(),
            kind: VarKind::Global { is_array },
        });
        table.globals.insert(g.name.clone(), id);
    }
    for f in program.functions() {
        let ret = table.add(VarInfo {
            name: format!("<ret:{}>", f.name),
            kind: VarKind::Ret {
                func: f.name.clone(),
            },
        });
        table.rets.insert(f.name.clone(), ret);
        for p in &f.params {
            let id = table.add(VarInfo {
                name: p.clone(),
                kind: VarKind::Local {
                    func: f.name.clone(),
                },
            });
            table
                .locals
                .entry(f.name.clone())
                .or_default()
                .insert(p.clone(), id);
        }
        collect_locals(&f.body, f, &mut table);
    }
    table
}

fn collect_locals(block: &Block, f: &FnDecl, table: &mut VarTable) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Let { name, .. } => {
                let known = table
                    .locals
                    .get(&f.name)
                    .is_some_and(|m| m.contains_key(name));
                if !known {
                    let id = table.add(VarInfo {
                        name: name.clone(),
                        kind: VarKind::Local {
                            func: f.name.clone(),
                        },
                    });
                    table
                        .locals
                        .entry(f.name.clone())
                        .or_default()
                        .insert(name.clone(), id);
                }
            }
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                collect_locals(then_blk, f, table);
                if let Some(e) = else_blk {
                    collect_locals(e, f, table);
                }
            }
            StmtKind::While { body, .. } => collect_locals(body, f, table),
            _ => {}
        }
    }
}

fn resolve_uses(expr: &Expr, func: &str, vars: &VarTable) -> Vec<VarId> {
    let mut out: Vec<VarId> = expr
        .used_vars()
        .iter()
        .filter_map(|name| vars.resolve(func, name))
        .collect();
    for callee in expr.called_fns() {
        if let Some(ret) = vars.ret_slot(callee) {
            out.push(ret);
        }
    }
    out
}

/// Whether `expr` is a one-to-one function of each variable it reads, in
/// the conservative sense used by confidence analysis: only copies,
/// negation, element loads, and `+`/`-` chains where the *other* operand
/// is independent qualify. Calls, `input()`, and many-to-one operators
/// (`*`, `/`, `%`, comparisons, `&&`, `||`) disqualify the expression.
pub fn is_invertible_expr(expr: &Expr) -> bool {
    match &expr.kind {
        ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Var(_) => true,
        ExprKind::Load { index, .. } => {
            // Invertible in the cell value provided the index itself reads
            // no variables non-trivially; a variable index is fine (the
            // cell read is still a copy of the cell).
            is_invertible_expr(index)
        }
        ExprKind::Input | ExprKind::Call { .. } => false,
        ExprKind::Unary { op, operand } => match op {
            UnOp::Neg | UnOp::Not => is_invertible_expr(operand),
        },
        ExprKind::Binary { op, lhs, rhs } => {
            op.is_invertible() && is_invertible_expr(lhs) && is_invertible_expr(rhs)
        }
    }
}

fn index_block(block: &Block, f: &FnDecl, vars: &VarTable, out: &mut Vec<Option<StmtInfo>>) {
    for stmt in &block.stmts {
        index_stmt(stmt, f, vars, out);
    }
}

fn index_stmt(stmt: &Stmt, f: &FnDecl, vars: &VarTable, out: &mut Vec<Option<StmtInfo>>) {
    let func = f.name.as_str();
    let mut info = StmtInfo {
        id: stmt.id,
        func: func.to_string(),
        role: StmtRole::Let,
        span: stmt.span,
        head: stmt_head(stmt),
        def: None,
        weak_def: false,
        uses: Vec::new(),
        calls: Vec::new(),
        reads_input: false,
        invertible: false,
    };
    match &stmt.kind {
        StmtKind::Let { name, expr } | StmtKind::Assign { name, expr } => {
            info.role = if matches!(stmt.kind, StmtKind::Let { .. }) {
                StmtRole::Let
            } else {
                StmtRole::Assign
            };
            info.def = vars.resolve(func, name);
            info.uses = resolve_uses(expr, func, vars);
            info.calls = expr.called_fns().iter().map(|s| s.to_string()).collect();
            info.reads_input = expr.reads_input();
            info.invertible = is_invertible_expr(expr);
        }
        StmtKind::Store { name, index, value } => {
            info.role = StmtRole::Store;
            info.def = vars.resolve(func, name);
            info.weak_def = true;
            info.uses = resolve_uses(index, func, vars);
            info.uses.extend(resolve_uses(value, func, vars));
            info.calls = index
                .called_fns()
                .into_iter()
                .chain(value.called_fns())
                .map(str::to_string)
                .collect();
            info.reads_input = index.reads_input() || value.reads_input();
            info.invertible = is_invertible_expr(value);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            info.role = StmtRole::If;
            info.uses = resolve_uses(cond, func, vars);
            info.calls = cond.called_fns().iter().map(|s| s.to_string()).collect();
            info.reads_input = cond.reads_input();
            out[stmt.id.index()] = Some(info);
            index_block(then_blk, f, vars, out);
            if let Some(e) = else_blk {
                index_block(e, f, vars, out);
            }
            return;
        }
        StmtKind::While { cond, body } => {
            info.role = StmtRole::While;
            info.uses = resolve_uses(cond, func, vars);
            info.calls = cond.called_fns().iter().map(|s| s.to_string()).collect();
            info.reads_input = cond.reads_input();
            out[stmt.id.index()] = Some(info);
            index_block(body, f, vars, out);
            return;
        }
        StmtKind::Break => info.role = StmtRole::Break,
        StmtKind::Continue => info.role = StmtRole::Continue,
        StmtKind::Return(expr) => {
            info.role = StmtRole::Return;
            info.def = vars.ret_slot(func);
            if let Some(e) = expr {
                info.uses = resolve_uses(e, func, vars);
                info.calls = e.called_fns().iter().map(|s| s.to_string()).collect();
                info.reads_input = e.reads_input();
                info.invertible = is_invertible_expr(e);
            } else {
                info.def = None;
            }
        }
        StmtKind::Print(expr) => {
            info.role = StmtRole::Print;
            info.uses = resolve_uses(expr, func, vars);
            info.calls = expr.called_fns().iter().map(|s| s.to_string()).collect();
            info.reads_input = expr.reads_input();
            info.invertible = is_invertible_expr(expr);
        }
        StmtKind::CallStmt { callee, args } => {
            info.role = StmtRole::Call;
            for a in args {
                info.uses.extend(resolve_uses(a, func, vars));
                info.reads_input |= a.reads_input();
            }
            info.calls.push(callee.clone());
            for a in args {
                info.calls
                    .extend(a.called_fns().into_iter().map(str::to_string));
            }
        }
    }
    out[stmt.id.index()] = Some(info);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn index_of(src: &str) -> ProgramIndex {
        ProgramIndex::build(&compile(src).unwrap())
    }

    #[test]
    fn globals_and_locals_get_distinct_ids() {
        let idx = index_of("global g = 0; fn f(x) { let y = x; return y; } fn main() { g = 1; }");
        let vars = idx.vars();
        let g = vars.global("g").unwrap();
        let x = vars.resolve("f", "x").unwrap();
        let y = vars.resolve("f", "y").unwrap();
        assert!(g != x && x != y && g != y);
        assert!(vars.is_global(g));
        assert!(!vars.is_global(x));
    }

    #[test]
    fn locals_shadow_globals() {
        let idx = index_of("global v = 0; fn main() { let v = 1; print(v); }");
        let vars = idx.vars();
        let global_v = vars.global("v").unwrap();
        let local_v = vars.resolve("main", "v").unwrap();
        assert_ne!(global_v, local_v);
        // The print statement's use resolves to the local.
        let print_info = idx.stmt(StmtId(1));
        assert_eq!(print_info.uses, vec![local_v]);
    }

    #[test]
    fn assignment_defs_and_uses() {
        let idx = index_of("global a = 0; global b = 0; fn main() { a = b + 1; }");
        let info = idx.stmt(StmtId(0));
        assert_eq!(info.def, idx.vars().global("a"));
        assert_eq!(info.uses, vec![idx.vars().global("b").unwrap()]);
        assert!(!info.weak_def);
        assert!(info.invertible);
    }

    #[test]
    fn array_store_is_weak_def() {
        let idx = index_of("global buf = [0; 4]; global i = 0; fn main() { buf[i] = i + 1; }");
        let info = idx.stmt(StmtId(0));
        assert_eq!(info.def, idx.vars().global("buf"));
        assert!(info.weak_def);
        assert!(idx.vars().is_array(info.def.unwrap()));
    }

    #[test]
    fn return_defines_ret_slot_and_calls_use_it() {
        let idx = index_of("fn f() { return 3; } fn main() { let x = f(); }");
        let ret = idx.vars().ret_slot("f").unwrap();
        assert_eq!(idx.stmt(StmtId(0)).def, Some(ret));
        assert!(idx.stmt(StmtId(1)).uses.contains(&ret));
        assert_eq!(idx.stmt(StmtId(1)).calls, vec!["f".to_string()]);
    }

    #[test]
    fn bare_return_defines_nothing() {
        let idx = index_of("fn f() { return; } fn main() { f(); }");
        assert_eq!(idx.stmt(StmtId(0)).def, None);
    }

    #[test]
    fn predicates_and_outputs_are_collected() {
        let idx =
            index_of("fn main() { if 1 < 2 { print(1); } while false { print(2); } print(3); }");
        assert_eq!(idx.predicates(), &[StmtId(0), StmtId(2)]);
        assert_eq!(idx.outputs(), &[StmtId(1), StmtId(3), StmtId(4)]);
        assert!(idx.stmt(StmtId(0)).is_predicate());
        assert!(idx.stmt(StmtId(1)).is_output());
    }

    #[test]
    fn reads_input_flag() {
        let idx = index_of("fn main() { let x = input(); let y = 2; }");
        assert!(idx.stmt(StmtId(0)).reads_input);
        assert!(!idx.stmt(StmtId(1)).reads_input);
    }

    #[test]
    fn invertibility_matches_figure_4() {
        // Figure 4 of the paper: b = a % 2 is many-to-one; c = a + 2 is
        // one-to-one.
        let idx = index_of(
            "global a = 0; global b = 0; global c = 0; fn main() { b = a % 2; c = a + 2; }",
        );
        assert!(!idx.stmt(StmtId(0)).invertible);
        assert!(idx.stmt(StmtId(1)).invertible);
    }

    #[test]
    fn calls_disable_invertibility() {
        let idx = index_of("fn f() { return 1; } fn main() { let x = f() + 1; }");
        assert!(!idx.stmt(StmtId(1)).invertible);
    }

    #[test]
    fn every_stmt_has_info() {
        let idx = index_of(
            "fn main() { let i = 0; while i < 3 { if i == 1 { break; } i = i + 1; } print(i); }",
        );
        assert_eq!(idx.stmt_count(), 6);
        for (i, info) in idx.stmts().iter().enumerate() {
            assert_eq!(info.id, StmtId(i as u32));
            assert!(!info.head.is_empty());
            assert_eq!(info.func, "main");
        }
    }

    #[test]
    fn call_stmt_collects_arg_uses() {
        let idx = index_of("global g = 0; fn f(x) { g = x; } fn main() { f(g + 1); }");
        let info = idx.stmt(StmtId(1));
        assert_eq!(info.role, StmtRole::Call);
        assert_eq!(info.uses, vec![idx.vars().global("g").unwrap()]);
        assert_eq!(info.calls, vec!["f".to_string()]);
    }

    #[test]
    fn calls_resolve_to_functions_with_dense_local_ranges() {
        let idx = index_of(
            "global g = 0; fn f(a, b) { let c = a; if c > b { g = c; } return c; } \
             fn main() { let x = f(1, 2); f(x, 3); while x < 0 { x = x + 1; } }",
        );
        let f = idx.function_id("f").unwrap();
        let main = idx.function_id("main").unwrap();
        assert_eq!((f, main), (FnId(0), FnId(1)));
        let info = idx.function(f);
        let vars = idx.vars();
        let (a, b, c) = (
            vars.resolve("f", "a").unwrap(),
            vars.resolve("f", "b").unwrap(),
            vars.resolve("f", "c").unwrap(),
        );
        assert_eq!(info.params, vec![a, b]);
        assert_eq!(info.locals, a.0..c.0 + 1);
        assert_eq!(vars.global_count(), 1);
        assert_eq!(info.preds, 1);
        // S4 `let x = f(1, 2);` calls in expression position, S5 in
        // statement position; both predicates are slot 0 of their function.
        assert_eq!(idx.stmt_callee(StmtId(5)), Some(f));
        assert_eq!(idx.stmt_callee(StmtId(4)), None);
        assert_eq!(idx.pred_slot(StmtId(1)), 0);
        assert_eq!(idx.pred_slot(StmtId(6)), 0);
        assert_eq!(idx.function(main).preds, 1);
    }

    #[test]
    fn var_table_iteration_and_display() {
        let idx = index_of("global g = 0; fn main() { let x = g; }");
        let names: Vec<&str> = idx.vars().iter().map(|(_, v)| v.name.as_str()).collect();
        assert!(names.contains(&"g"));
        assert!(names.contains(&"x"));
        assert!(names.contains(&"<ret:main>"));
        assert_eq!(VarId(3).to_string(), "v3");
    }
}
