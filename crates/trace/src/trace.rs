//! The execution trace: the dynamic dependence graph of one run.

use crate::columnar::{ColumnarTrace, RawEvent};
use crate::event::{Event, EventRef, InstId, OutputRecord};
use crate::index::TraceIndex;
use crate::outcome::CrashKind;
use crate::region::{region_sizes, RegionTree};
use crate::value::Value;
use omislice_lang::StmtId;
use std::sync::{Arc, OnceLock};

/// A complete execution trace.
///
/// The events *are* the dynamic dependence graph: each event carries its
/// data-dependence edges and its dynamic control-dependence parent. The
/// trace additionally records the observable outputs and how the run
/// ended. Events live in a columnar store ([`ColumnarTrace`]); queries
/// go through the [`EventRef`] view, which borrows the columns.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Shared so checkpoint resumes can borrow this trace's columns as
    /// their prefix ([`ColumnarTrace::share_prefix`]) instead of
    /// copying them; the store is immutable once the trace exists.
    cols: Arc<ColumnarTrace>,
    outputs: Vec<OutputRecord>,
    /// Lazily built statement → instances map. Switched re-executions
    /// (hundreds per verification batch) never query it — only the base
    /// trace and test oracles do — so building it eagerly would cost an
    /// O(trace) pass per verified candidate for nothing.
    by_stmt: OnceLock<ByStmt>,
    termination: Termination,
    /// Lazily built query index (Euler-tour CD timestamps + predicate
    /// postings). Only a queried trace — the failing run that relevant
    /// slicing walks — ever builds it.
    index: OnceLock<TraceIndex>,
    /// Lazily built region subtree sizes, one per instance: only traces
    /// the aligner walks (the failing run and switched runs) build them.
    regions: OnceLock<Vec<u32>>,
}

/// Statement → instances, as a CSR over dense statement ids (statement
/// ids are dense per program, so a flat offset table replaces the old
/// per-statement `HashMap<StmtId, Vec<InstId>>` of heap-allocated
/// vectors).
#[derive(Debug, Clone, Default)]
struct ByStmt {
    off: Vec<u32>,
    insts: Vec<InstId>,
}

impl ByStmt {
    /// Counting sort of instance ids by statement; preserves execution
    /// order within each statement.
    fn build(cols: &ColumnarTrace) -> ByStmt {
        let n = cols.len();
        let mut n_stmts = 0usize;
        cols.for_each_stmt(n, &mut |_, s| n_stmts = n_stmts.max(s.0 as usize + 1));
        let mut off = vec![0u32; n_stmts + 1];
        cols.for_each_stmt(n, &mut |_, s| off[s.0 as usize + 1] += 1);
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut insts = vec![InstId(0); n];
        let mut cursor = off.clone();
        cols.for_each_stmt(n, &mut |i, s| {
            let c = &mut cursor[s.0 as usize];
            insts[*c as usize] = InstId(i as u32);
            *c += 1;
        });
        ByStmt { off, insts }
    }

    fn instances_of(&self, stmt: StmtId) -> &[InstId] {
        let s = stmt.0 as usize;
        if s + 1 >= self.off.len() {
            return &[];
        }
        &self.insts[self.off[s] as usize..self.off[s + 1] as usize]
    }
}

/// How an execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// `main` returned normally.
    Normal,
    /// The step budget was exhausted (the paper's verification timer).
    BudgetExhausted,
    /// A runtime error: the structured failure class plus a
    /// human-readable message attributed to the crashing statement.
    RuntimeError(CrashKind, String),
}

impl Termination {
    /// Whether the run completed without error or timeout.
    pub fn is_normal(&self) -> bool {
        *self == Termination::Normal
    }

    /// The failure class, for crashed runs.
    pub fn crash_kind(&self) -> Option<CrashKind> {
        match self {
            Termination::RuntimeError(kind, _) => Some(*kind),
            _ => None,
        }
    }
}

impl Trace {
    /// Assembles a trace from owned events — the legacy row-major
    /// builder, kept as the differential oracle for the columnar path
    /// (see the `columnar_equivalence` property tests) and as the
    /// convenient constructor for hand-written test traces. Hidden from
    /// docs: product code records through [`Recorder`](crate::Recorder)
    /// and loads through [`load_trace`](crate::load_trace).
    #[doc(hidden)]
    pub fn from_parts(
        events: Vec<Event>,
        outputs: Vec<OutputRecord>,
        termination: Termination,
    ) -> Self {
        let mut cols = ColumnarTrace::with_capacity(events.len(), 0);
        for e in &events {
            cols.push(RawEvent::from(e));
        }
        Trace::from_recorded(cols, outputs, termination)
    }

    /// Assembles a trace directly from a columnar store. The query index
    /// is built on first use.
    pub fn from_recorded(
        cols: ColumnarTrace,
        outputs: Vec<OutputRecord>,
        termination: Termination,
    ) -> Self {
        Trace {
            cols: Arc::new(cols),
            outputs,
            by_stmt: OnceLock::new(),
            termination,
            index: OnceLock::new(),
            regions: OnceLock::new(),
        }
    }

    /// A view of the first `len` events: their columns are shared with
    /// this trace ([`ColumnarTrace::share_prefix`], O(1)), its outputs
    /// are those the events emitted, and its termination is the whole
    /// run's. Index, region column and statement map are built afresh
    /// on first use and cover only the view. What Algorithm 2 runs on
    /// once the failure point `o×` is known: the view of `o× + 1` events
    /// holds every instance that can reach the report.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the trace.
    pub fn prefix(&self, len: usize) -> Trace {
        let outputs = &self.outputs[..self.outputs.partition_point(|o| o.inst.index() < len)];
        Trace::from_recorded(
            ColumnarTrace::share_prefix(&self.cols, len),
            outputs.to_vec(),
            self.termination.clone(),
        )
    }

    /// Heap bytes the trace holds: its own columns with their spare
    /// capacity, its outputs, and the query index, region column and
    /// statement map if built.
    pub fn heap_bytes(&self) -> usize {
        self.cols.heap_bytes()
            + self.outputs.capacity() * std::mem::size_of::<OutputRecord>()
            + self.index.get().map_or(0, TraceIndex::heap_bytes)
            + self.regions.get().map_or(0, |r| r.capacity() * 4)
            + self
                .by_stmt
                .get()
                .map_or(0, |m| (m.off.capacity() + m.insts.capacity()) * 4)
    }

    /// The columnar event store.
    pub fn columns(&self) -> &ColumnarTrace {
        &self.cols
    }

    /// The columnar store behind its shared handle — what a checkpoint
    /// resume passes to [`ColumnarTrace::share_prefix`] so the resumed
    /// run borrows this trace's head instead of copying it.
    pub fn columns_arc(&self) -> Arc<ColumnarTrace> {
        Arc::clone(&self.cols)
    }

    /// The query index over this trace, built serially on first use.
    pub fn index(&self) -> &TraceIndex {
        self.index.get_or_init(|| TraceIndex::build(self))
    }

    /// [`Trace::index`] under its older name. The build is serial and
    /// ignores the job count; omibench still calls `build_index(1)`.
    pub fn build_index(&self, _jobs: usize) -> &TraceIndex {
        self.index()
    }

    /// The region tree of this trace (Definition 3), its subtree-size
    /// column built serially on first use.
    ///
    /// # Panics
    ///
    /// Panics on first use if a region parent pointer refers to a later
    /// instance.
    pub fn regions(&self) -> RegionTree<'_> {
        let size = self.regions.get_or_init(|| region_sizes(&self.cols));
        RegionTree::new(self, size)
    }

    /// Number of statement instances.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The event for instance `inst`, as a borrowed columnar view.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range.
    pub fn event(&self, inst: InstId) -> EventRef<'_> {
        self.cols.event(inst)
    }

    /// Iterates all events in execution order.
    pub fn iter_events(&self) -> impl Iterator<Item = EventRef<'_>> {
        (0..self.cols.len() as u32).map(|i| self.cols.event(InstId(i)))
    }

    /// Materializes all events as owned rows (tests and oracles; the
    /// query paths use [`Trace::event`] / [`Trace::iter_events`]).
    pub fn events_vec(&self) -> Vec<Event> {
        self.cols.to_events()
    }

    /// Iterates instance ids in execution order.
    pub fn insts(&self) -> impl Iterator<Item = InstId> {
        (0..self.cols.len() as u32).map(InstId)
    }

    /// The instances of a statement, in execution order. The underlying
    /// map is built serially on first use.
    pub fn instances_of(&self, stmt: StmtId) -> &[InstId] {
        self.by_stmt
            .get_or_init(|| ByStmt::build(&self.cols))
            .instances_of(stmt)
    }

    /// The k-th (0-based) instance of a statement, if it executed that
    /// often.
    pub fn nth_instance(&self, stmt: StmtId, k: usize) -> Option<InstId> {
        self.instances_of(stmt).get(k).copied()
    }

    /// Which occurrence of its statement `inst` is (0-based): the inverse
    /// of [`Trace::nth_instance`].
    pub fn occurrence_index(&self, inst: InstId) -> usize {
        let stmt = self.cols.stmt_of(inst);
        self.instances_of(stmt)
            .binary_search(&inst)
            .expect("instance belongs to its statement's list")
    }

    /// Observable outputs in emission order.
    pub fn outputs(&self) -> &[OutputRecord] {
        &self.outputs
    }

    /// The output emitted by instance `inst`, if it was a `print`.
    pub fn output_of(&self, inst: InstId) -> Option<Value> {
        self.outputs
            .iter()
            .find(|o| o.inst == inst)
            .map(|o| o.value)
    }

    /// How the run ended.
    pub fn termination(&self) -> &Termination {
        &self.termination
    }

    /// The dynamic control-dependence ancestors of `inst` (the `cd_parent`
    /// chain), nearest first.
    pub fn cd_ancestors(&self, inst: InstId) -> Vec<InstId> {
        let mut out = Vec::new();
        let mut cur = self.cols.cd_parent_of(inst);
        while let Some(p) = cur {
            out.push(p);
            cur = self.cols.cd_parent_of(p);
        }
        out
    }

    /// Whether `inst` is (transitively) dynamically control dependent on
    /// `pred_inst`. O(1) via the Euler-tour timestamps of
    /// [`Trace::index`].
    pub fn cd_depends_on(&self, inst: InstId, pred_inst: InstId) -> bool {
        self.index().cd_is_ancestor(pred_inst, inst)
    }

    /// Reference implementation of [`Trace::cd_depends_on`]: the original
    /// parent-pointer walk. Kept as the oracle for the index equivalence
    /// property tests.
    #[doc(hidden)]
    pub fn cd_depends_on_naive(&self, inst: InstId, pred_inst: InstId) -> bool {
        let mut cur = self.cols.cd_parent_of(inst);
        while let Some(p) = cur {
            if p == pred_inst {
                return true;
            }
            // Parents always have smaller timestamps; stop early.
            if p < pred_inst {
                return false;
            }
            cur = self.cols.cd_parent_of(p);
        }
        false
    }

    /// Printed values as a plain vector — the "program output" used to
    /// compare runs.
    pub fn output_values(&self) -> Vec<Value> {
        self.outputs.iter().map(|o| o.value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_event(stmt: u32, cd_parent: Option<u32>) -> Event {
        let mut e = Event::new(StmtId(stmt));
        e.cd_parent = cd_parent.map(InstId);
        e
    }

    fn sample() -> Trace {
        // t0: S0 (pred), t1: S1 under t0, t2: S0 again, t3: S1 under t2
        let events = vec![
            mk_event(0, None),
            mk_event(1, Some(0)),
            mk_event(0, None),
            mk_event(1, Some(2)),
        ];
        let outputs = vec![OutputRecord {
            inst: InstId(3),
            value: Value::Int(9),
        }];
        Trace::from_parts(events, outputs, Termination::Normal)
    }

    #[test]
    fn instances_are_grouped_by_statement() {
        let t = sample();
        assert_eq!(t.instances_of(StmtId(0)), &[InstId(0), InstId(2)]);
        assert_eq!(t.instances_of(StmtId(1)), &[InstId(1), InstId(3)]);
        assert_eq!(t.instances_of(StmtId(9)), &[] as &[InstId]);
    }

    #[test]
    fn nth_instance_and_occurrence_are_inverse() {
        let t = sample();
        assert_eq!(t.nth_instance(StmtId(1), 1), Some(InstId(3)));
        assert_eq!(t.nth_instance(StmtId(1), 2), None);
        assert_eq!(t.occurrence_index(InstId(3)), 1);
        assert_eq!(t.occurrence_index(InstId(0)), 0);
    }

    #[test]
    fn cd_ancestors_chain() {
        let t = sample();
        assert_eq!(t.cd_ancestors(InstId(3)), vec![InstId(2)]);
        assert!(t.cd_depends_on(InstId(3), InstId(2)));
        assert!(!t.cd_depends_on(InstId(3), InstId(0)));
        assert!(!t.cd_depends_on(InstId(0), InstId(0)));
        // The indexed test agrees with the parent-pointer walk.
        for u in t.insts() {
            for p in t.insts() {
                assert_eq!(t.cd_depends_on(u, p), t.cd_depends_on_naive(u, p));
            }
        }
    }

    #[test]
    fn outputs_are_recorded() {
        let t = sample();
        assert_eq!(t.output_values(), vec![Value::Int(9)]);
        assert_eq!(t.output_of(InstId(3)), Some(Value::Int(9)));
        assert_eq!(t.output_of(InstId(0)), None);
    }

    #[test]
    fn termination_flags() {
        assert!(Termination::Normal.is_normal());
        assert!(!Termination::BudgetExhausted.is_normal());
        let crash = Termination::RuntimeError(CrashKind::DivByZero, "x".into());
        assert!(!crash.is_normal());
        assert_eq!(crash.crash_kind(), Some(CrashKind::DivByZero));
        assert_eq!(Termination::Normal.crash_kind(), None);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::from_parts(vec![], vec![], Termination::Normal);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.insts().count(), 0);
    }

    #[test]
    fn events_round_trip_through_columns() {
        let t = sample();
        let events = t.events_vec();
        assert_eq!(events.len(), 4);
        let rebuilt = Trace::from_parts(events.clone(), t.outputs().to_vec(), Termination::Normal);
        assert_eq!(rebuilt.events_vec(), events);
        assert_eq!(
            t.iter_events().map(|e| e.stmt).collect::<Vec<_>>(),
            events.iter().map(|e| e.stmt).collect::<Vec<_>>()
        );
    }
}
