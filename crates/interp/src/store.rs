//! Value storage with definition provenance.
//!
//! Every scalar cell and array element carries, besides its value, its
//! provenance: in traced runs ([`Defs`]) the set of trace instances that
//! defined it, in runs that record no dependences nothing at all.
//! Writes, array stores and returns define a cell with exactly one
//! instance, held inline; only a parameter bound from an
//! expression-position call whose argument has two or more sources
//! inherits them all (compressing the paper's register/stack copy chains)
//! and spills them to the heap.
//!
//! Storage is index-addressed: globals by their [`VarId`] (globals are
//! numbered first), a frame's locals by their slot in the function's
//! dense local range, and a frame's predicates by
//! [`ProgramIndex::pred_slot`].

use omislice_lang::{FnId, FnInfo, GlobalInit, Program, ProgramIndex, StmtId, VarId};
use omislice_trace::{InstId, Value};

/// The instances that defined a cell's value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Defs {
    /// No defining instance (initial values and uninitialized locals).
    #[default]
    None,
    /// The common case: one defining instance, held inline.
    One(InstId),
    /// Two or more distinct sources, in first-use order.
    Many(Box<[InstId]>),
}

impl Defs {
    /// The defining instances of a window of operand sources that is
    /// already free of duplicates; allocates only for two or more.
    pub fn from_distinct(insts: &[InstId]) -> Self {
        match insts {
            [] => Defs::None,
            [one] => Defs::One(*one),
            many => Defs::Many(many.into()),
        }
    }

    /// Heap bytes held by a spilled list.
    fn heap_bytes(&self) -> usize {
        match self {
            Defs::Many(insts) => std::mem::size_of_val(&**insts),
            _ => 0,
        }
    }
}

/// What a cell keeps of the instances that defined its value: [`Defs`]
/// in traced runs, nothing (`()`) in runs that record no dependences, so
/// their writes move a bare value.
pub(crate) trait Provenance: Clone + Default {
    /// Defined by the single instance `inst`.
    fn one(inst: InstId) -> Self;

    /// The defining instances.
    fn as_slice(&self) -> &[InstId];
}

impl Provenance for () {
    #[inline]
    fn one(_: InstId) {}

    #[inline]
    fn as_slice(&self) -> &[InstId] {
        &[]
    }
}

impl Provenance for Defs {
    #[inline]
    fn one(inst: InstId) -> Self {
        Defs::One(inst)
    }

    #[inline]
    fn as_slice(&self) -> &[InstId] {
        match self {
            Defs::None => &[],
            Defs::One(inst) => std::slice::from_ref(inst),
            Defs::Many(insts) => insts,
        }
    }
}

/// A storage cell: a value plus the instances that defined it.
#[derive(Debug, Clone, Default)]
pub struct Cell<D = Defs> {
    /// Current value (`None` before first write for locals).
    pub value: Option<Value>,
    /// Instances whose execution produced this value.
    pub defs: D,
}

impl<D> Cell<D> {
    /// A cell holding `value` defined by `defs`.
    pub fn new(value: Value, defs: D) -> Self {
        Cell {
            value: Some(value),
            defs,
        }
    }

    /// This cell's value without its provenance.
    fn erased(&self) -> Cell<()> {
        Cell {
            value: self.value,
            defs: (),
        }
    }
}

impl Cell {
    /// Approximate heap + inline footprint in bytes, used for the
    /// checkpoint store's size-bounded eviction. Deterministic: derived
    /// from element counts and `size_of`, never from allocator state.
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Cell>() + self.defs.heap_bytes()
    }
}

/// A global slot: scalar or array.
#[derive(Debug, Clone)]
pub enum Slot<D = Defs> {
    /// A scalar global.
    Scalar(Cell<D>),
    /// A fixed-size integer array.
    Array(Vec<Cell<D>>),
}

/// Global storage, indexed by [`VarId`] (globals hold ids
/// `0..global_count`).
#[derive(Debug, Clone, Default)]
pub struct Globals<D = Defs> {
    slots: Vec<Slot<D>>,
}

impl<D: Clone + Default> Globals<D> {
    /// Initializes globals from the program's declarations. Initial
    /// values have no defining instance (they exist before the trace).
    pub(crate) fn init(program: &Program, index: &ProgramIndex) -> Self {
        let mut slots = Vec::with_capacity(index.vars().global_count());
        for g in program.globals() {
            let var = index
                .vars()
                .global(&g.name)
                .expect("declared global is in the table");
            debug_assert_eq!(var.index(), slots.len(), "globals are numbered first");
            slots.push(match &g.init {
                GlobalInit::Int(n) => Slot::Scalar(Cell::new(Value::Int(*n), D::default())),
                GlobalInit::Bool(b) => Slot::Scalar(Cell::new(Value::Bool(*b), D::default())),
                GlobalInit::Array { elem, len } => {
                    Slot::Array(vec![Cell::new(Value::Int(*elem), D::default()); *len])
                }
            });
        }
        Globals { slots }
    }
}

impl<D> Globals<D> {
    /// The slot for `var`, if it is a global.
    #[inline]
    pub(crate) fn get(&self, var: VarId) -> Option<&Slot<D>> {
        self.slots.get(var.index())
    }

    /// Mutable access to the slot for `var`.
    #[inline]
    pub(crate) fn get_mut(&mut self, var: VarId) -> Option<&mut Slot<D>> {
        self.slots.get_mut(var.index())
    }

    /// These globals' values without their provenance: the state a run
    /// that records no dependences goes on from.
    pub(crate) fn erased(&self) -> Globals<()> {
        let slots = self.slots.iter().map(|slot| match slot {
            Slot::Scalar(cell) => Slot::Scalar(cell.erased()),
            Slot::Array(cells) => Slot::Array(cells.iter().map(Cell::erased).collect()),
        });
        Globals {
            slots: slots.collect(),
        }
    }
}

impl Globals {
    /// Approximate footprint in bytes (see [`Cell::approx_bytes`]).
    pub(crate) fn approx_bytes(&self) -> usize {
        let slots: usize = self
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Scalar(c) => c.approx_bytes(),
                Slot::Array(cells) => cells.iter().map(Cell::approx_bytes).sum(),
            })
            .sum();
        std::mem::size_of::<Globals>() + self.slots.len() * std::mem::size_of::<Slot>() + slots
    }
}

/// One call frame: local cells plus dynamic-control-dependence context.
#[derive(Debug, Clone, Default)]
pub struct Frame<D = Defs> {
    /// The function this frame executes.
    pub func: FnId,
    /// Local variable cells (parameters and `let`s), one per slot of the
    /// function's local range ([`FnInfo::locals`]).
    pub locals: Vec<Cell<D>>,
    /// Last instance and outcome of each predicate executed in this
    /// frame, one per [`ProgramIndex::pred_slot`], used to resolve
    /// dynamic control-dependence parents; kept by traced runs only.
    pub preds: Vec<Option<(InstId, bool)>>,
    /// Control-dependence parent inherited from the call site, used for
    /// statements with no static CD parent inside this function.
    pub inherited_cd: Option<InstId>,
    /// The `CallStmt` that pushed this frame, when the call appeared in
    /// statement position. Expression-position calls leave this `None`,
    /// which marks a checkpoint taken below them as non-resumable (their
    /// continuation includes a pending expression value the snapshot
    /// cannot capture).
    pub call_site: Option<StmtId>,
}

impl<D: Default> Frame<D> {
    /// Re-initializes this frame (possibly a recycled one, keeping its
    /// buffers) for a fresh call of `func` from `call_site`: every local
    /// uninitialized. The control-dependence context (`preds`,
    /// `inherited_cd`) is the tracing sink's to reset.
    pub(crate) fn enter(&mut self, func: FnId, info: &FnInfo, call_site: Option<StmtId>) {
        self.func = func;
        self.locals.clear();
        self.locals.resize_with(info.locals.len(), Cell::default);
        self.call_site = call_site;
    }
}

impl<D> Frame<D> {
    /// This frame without provenance or control-dependence context: what
    /// a run that records no dependences goes on from.
    pub(crate) fn erased(&self) -> Frame<()> {
        Frame {
            func: self.func,
            locals: self.locals.iter().map(Cell::erased).collect(),
            preds: Vec::new(),
            inherited_cd: None,
            call_site: self.call_site,
        }
    }

    /// The cell of `var` when it is a local of this frame's function.
    #[inline]
    pub(crate) fn local(&self, index: &ProgramIndex, var: VarId) -> Option<&Cell<D>> {
        let slot = var.0.checked_sub(index.function(self.func).locals.start)?;
        self.locals.get(slot as usize)
    }

    /// Mutable access to the cell of `var` when it is a local of this
    /// frame's function.
    #[inline]
    pub(crate) fn local_mut(&mut self, index: &ProgramIndex, var: VarId) -> Option<&mut Cell<D>> {
        let slot = var.0.checked_sub(index.function(self.func).locals.start)?;
        self.locals.get_mut(slot as usize)
    }
}

impl Frame {
    /// Approximate footprint in bytes (see [`Cell::approx_bytes`]).
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Frame>()
            + self.locals.iter().map(Cell::approx_bytes).sum::<usize>()
            + self.preds.len() * std::mem::size_of::<Option<(InstId, bool)>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_lang::compile;

    #[test]
    fn globals_initialize_from_declarations() {
        let p =
            compile("global g = 7; global flag = true; global a = [9; 3]; fn main() { }").unwrap();
        let idx = ProgramIndex::build(&p);
        let globals: Globals = Globals::init(&p, &idx);
        let g = idx.vars().global("g").unwrap();
        match globals.get(g) {
            Some(Slot::Scalar(c)) => assert_eq!(c.value, Some(Value::Int(7))),
            other => panic!("unexpected slot {other:?}"),
        }
        let flag = idx.vars().global("flag").unwrap();
        match globals.get(flag) {
            Some(Slot::Scalar(c)) => assert_eq!(c.value, Some(Value::Bool(true))),
            other => panic!("unexpected slot {other:?}"),
        }
        let a = idx.vars().global("a").unwrap();
        match globals.get(a) {
            Some(Slot::Array(cells)) => {
                assert_eq!(cells.len(), 3);
                assert!(cells.iter().all(|c| c.value == Some(Value::Int(9))));
                assert!(cells.iter().all(|c| c.defs.as_slice().is_empty()));
            }
            other => panic!("unexpected slot {other:?}"),
        }
        let ret_main = idx.vars().ret_slot("main").unwrap();
        assert!(globals.get(ret_main).is_none());
    }

    #[test]
    fn cell_records_provenance() {
        let c = Cell::new(Value::Int(1), Defs::from_distinct(&[InstId(4), InstId(7)]));
        assert_eq!(c.value, Some(Value::Int(1)));
        assert_eq!(c.defs.as_slice(), &[InstId(4), InstId(7)]);
        assert_eq!(Defs::from_distinct(&[InstId(3)]), Defs::One(InstId(3)));
        assert_eq!(Defs::from_distinct(&[]), Defs::None);
        let d: Cell = Cell::default();
        assert_eq!(d.value, None);
        assert!(d.defs.as_slice().is_empty());
        // Only a spilled list adds heap bytes.
        let one = Cell::new(Value::Int(1), Defs::One(InstId(2)));
        assert_eq!(one.approx_bytes(), std::mem::size_of::<Cell>());
        assert_eq!(c.approx_bytes(), std::mem::size_of::<Cell>() + 8);
    }
}
