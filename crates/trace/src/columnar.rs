//! Columnar (structure-of-arrays) event storage.
//!
//! The trace used to be a `Vec<Event>`: ~90 bytes per instance plus one
//! heap allocation per event for its `data_deps`. At production scales
//! (hundreds of thousands of instances per run, and the verifier
//! re-executing dozens of runs per batch) the allocator traffic of that
//! layout dominated tracing cost. [`ColumnarTrace`] stores each event
//! field in its own dense parallel array and the variable-length
//! dependence lists in one shared CSR arena, so recording an event is a
//! handful of `Vec::push`es with amortized-zero allocation, cloning a
//! checkpoint prefix is a few `memcpy`s, and the whole trace serializes
//! to the `omitrace/v1` on-disk format column by column.
//!
//! Instance ids stay *absolute* `u32`s in memory so dependence lists can
//! be returned as `&[InstId]` slices without decoding; delta compression
//! is applied only at the serialization boundary (see
//! [`crate::format`]).

use crate::event::{Event, EventRef, InstId};
use crate::value::Value;
use omislice_lang::{StmtId, VarId};
use std::sync::Arc;

/// Sentinel for "no instance" in the optional-parent columns.
pub(crate) const NONE_U32: u32 = u32::MAX;

// `meta` column bit layout.
const VALUE_TAG_MASK: u8 = 0b0000_0011; // 0=None, 1=Int, 2=Bool
const VALUE_INT: u8 = 1;
const VALUE_BOOL: u8 = 2;
const BRANCH_SHIFT: u8 = 2; // 2-bit field: 0=None, 1=false, 2=true
const BRANCH_MASK: u8 = 0b0000_1100;
const HAS_CELL: u8 = 0b0001_0000;

/// A borrowed, allocation-free event record: what the interpreter hands
/// the recorder for each executed instance.
#[derive(Debug, Clone, Copy)]
pub struct RawEvent<'a> {
    /// The statement that executed.
    pub stmt: StmtId,
    /// The value this instance computed, if any.
    pub value: Option<Value>,
    /// For predicates: the branch outcome taken.
    pub branch: Option<bool>,
    /// Dynamic data dependences, in evaluation order, deduplicated.
    pub deps: &'a [InstId],
    /// Dynamic control-dependence parent.
    pub cd_parent: Option<InstId>,
    /// Region-nesting parent.
    pub region_parent: Option<InstId>,
    /// Variable defined by this instance.
    pub def_var: Option<VarId>,
    /// For array stores: the concrete cell index written.
    pub cell_index: Option<i64>,
    /// Call depth at which the instance executed.
    pub call_depth: u32,
}

impl<'a> From<&'a Event> for RawEvent<'a> {
    fn from(e: &'a Event) -> Self {
        RawEvent {
            stmt: e.stmt,
            value: e.value,
            branch: e.branch,
            deps: &e.data_deps,
            cd_parent: e.cd_parent,
            region_parent: e.region_parent,
            def_var: e.def_var,
            cell_index: e.cell_index,
            call_depth: e.call_depth,
        }
    }
}

/// A shared checkpoint prefix: the head of this store is the first
/// `len` events of a donor trace, held by reference count instead of
/// copied. Resuming a switched re-execution from a deep checkpoint used
/// to memcpy every column of the prefix (megabytes per verification
/// leaf at production scales); sharing makes seeding a resumed recorder
/// O(1) regardless of checkpoint depth. The donor's columns are
/// immutable once its run finishes, so the borrow is sound by
/// construction — all writes land in the owning store's tail columns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Prefix {
    /// Donor columns. May itself be prefix-shared; chains stay shallow
    /// because [`ColumnarTrace::share_prefix`] collapses onto the
    /// donor's own prefix whenever the requested length fits inside it.
    cols: Arc<ColumnarTrace>,
    /// Events taken from the donor.
    len: u32,
    /// Dependence edges within those events (the logical CSR base of
    /// the tail's `deps_off`, which stays tail-local).
    deps: u32,
}

/// The columnar event store: one dense array per event field, a CSR
/// arena for dependence lists, and a sparse sorted column for the rare
/// array-store cell indices. Optionally the first events are a shared
/// `Prefix` into a donor trace (checkpoint resume); the dense arrays
/// then hold only the tail recorded past the prefix, and every accessor
/// routes prefix instances to the donor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnarTrace {
    /// Shared immutable head, if this store was seeded from a
    /// checkpoint prefix of another trace.
    prefix: Option<Prefix>,
    /// Statement id per instance.
    pub(crate) stmt: Vec<StmtId>,
    /// Packed value/branch/cell tags per instance.
    pub(crate) meta: Vec<u8>,
    /// Value payload per instance (int value, or bool as 0/1; 0 if none).
    pub(crate) value: Vec<i64>,
    /// Call depth per instance.
    pub(crate) call_depth: Vec<u32>,
    /// Dynamic CD parent per instance ([`NONE_U32`] = none).
    pub(crate) cd_parent: Vec<u32>,
    /// Region-nesting parent per instance ([`NONE_U32`] = none).
    pub(crate) region_parent: Vec<u32>,
    /// Defined variable per instance ([`NONE_U32`] = none).
    pub(crate) def_var: Vec<u32>,
    /// CSR offsets into `deps`; `tail len + 1` entries, tail-local (the
    /// shared prefix's edge count is cached in [`Prefix::deps`]).
    pub(crate) deps_off: Vec<u32>,
    /// CSR arena of data-dependence edges (absolute instance ids).
    pub(crate) deps: Vec<InstId>,
    /// Sparse `(inst, cell)` pairs for array stores, sorted by instance
    /// (absolute ids, also when a prefix is shared).
    pub(crate) cell_index: Vec<(u32, i64)>,
}

impl ColumnarTrace {
    /// An empty store.
    pub fn new() -> Self {
        let mut c = ColumnarTrace::default();
        c.deps_off.push(0);
        c
    }

    /// An empty store with room for `events` instances and `deps` edges.
    pub fn with_capacity(events: usize, deps: usize) -> Self {
        let mut c = ColumnarTrace {
            prefix: None,
            stmt: Vec::with_capacity(events),
            meta: Vec::with_capacity(events),
            value: Vec::with_capacity(events),
            call_depth: Vec::with_capacity(events),
            cd_parent: Vec::with_capacity(events),
            region_parent: Vec::with_capacity(events),
            def_var: Vec::with_capacity(events),
            deps_off: Vec::with_capacity(events + 1),
            deps: Vec::with_capacity(deps),
            cell_index: Vec::new(),
        };
        c.deps_off.push(0);
        c
    }

    /// Number of stored instances (shared prefix included).
    #[inline]
    pub fn len(&self) -> usize {
        self.prefix_len() + self.stmt.len()
    }

    /// Whether no instance is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total dependence edges across all instances.
    pub fn deps_len(&self) -> usize {
        self.prefix_deps() + self.deps.len()
    }

    /// Events held by the shared prefix (0 when the store is flat).
    #[inline]
    fn prefix_len(&self) -> usize {
        self.prefix.as_ref().map_or(0, |p| p.len as usize)
    }

    /// Dependence edges held by the shared prefix.
    #[inline]
    fn prefix_deps(&self) -> usize {
        self.prefix.as_ref().map_or(0, |p| p.deps as usize)
    }

    /// Whether this store shares its head with a donor trace.
    pub(crate) fn has_prefix(&self) -> bool {
        self.prefix.is_some()
    }

    /// Dependence edges recorded before event `i` (the logical CSR
    /// offset; `i` may equal `len()`).
    fn deps_start(&self, i: usize) -> usize {
        match &self.prefix {
            Some(p) if i <= p.len as usize => p.cols.deps_start(i),
            _ => self.prefix_deps() + self.deps_off[i - self.prefix_len()] as usize,
        }
    }

    /// Appends one event. Ids are assigned densely in push order.
    pub fn push(&mut self, ev: RawEvent<'_>) -> InstId {
        let id = InstId(self.len() as u32);
        let mut meta = match ev.value {
            None => 0,
            Some(Value::Int(_)) => VALUE_INT,
            Some(Value::Bool(_)) => VALUE_BOOL,
        };
        meta |= match ev.branch {
            None => 0,
            Some(false) => 1 << BRANCH_SHIFT,
            Some(true) => 2 << BRANCH_SHIFT,
        };
        let payload = match ev.value {
            None => 0,
            Some(Value::Int(n)) => n,
            Some(Value::Bool(b)) => b as i64,
        };
        if let Some(cell) = ev.cell_index {
            meta |= HAS_CELL;
            self.cell_index.push((id.0, cell));
        }
        self.stmt.push(ev.stmt);
        self.meta.push(meta);
        self.value.push(payload);
        self.call_depth.push(ev.call_depth);
        self.cd_parent.push(ev.cd_parent.map_or(NONE_U32, |p| p.0));
        self.region_parent
            .push(ev.region_parent.map_or(NONE_U32, |p| p.0));
        self.def_var.push(ev.def_var.map_or(NONE_U32, |v| v.0));
        self.deps.extend_from_slice(ev.deps);
        self.deps_off.push(self.deps.len() as u32);
        id
    }

    /// Overwrites the defined-variable column of the most recent event
    /// (the interpreter learns the resolved variable only after the
    /// assignment's side effect lands).
    pub fn set_def_var_last(&mut self, var: VarId) {
        *self.def_var.last_mut().expect("set_def_var on empty trace") = var.0;
    }

    /// The event at `inst`, as a borrowed view.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range.
    pub fn event(&self, inst: InstId) -> EventRef<'_> {
        let i = inst.index();
        if let Some(p) = &self.prefix {
            if i < p.len as usize {
                return p.cols.event(inst);
            }
        }
        let i = i - self.prefix_len();
        let meta = self.meta[i];
        let value = match meta & VALUE_TAG_MASK {
            VALUE_INT => Some(Value::Int(self.value[i])),
            VALUE_BOOL => Some(Value::Bool(self.value[i] != 0)),
            _ => None,
        };
        let branch = match (meta & BRANCH_MASK) >> BRANCH_SHIFT {
            1 => Some(false),
            2 => Some(true),
            _ => None,
        };
        let cell_index = if meta & HAS_CELL != 0 {
            self.cell_of(inst.0)
        } else {
            None
        };
        let deps = &self.deps[self.deps_off[i] as usize..self.deps_off[i + 1] as usize];
        EventRef {
            stmt: self.stmt[i],
            value,
            branch,
            data_deps: deps,
            cd_parent: opt(self.cd_parent[i]),
            region_parent: opt(self.region_parent[i]),
            def_var: match self.def_var[i] {
                NONE_U32 => None,
                v => Some(VarId(v)),
            },
            cell_index,
            call_depth: self.call_depth[i],
        }
    }

    /// Routes `inst` to its home store: the donor for prefix instances
    /// (`Err`), the local tail index otherwise (`Ok`).
    #[inline]
    fn route(&self, inst: InstId) -> Result<usize, &ColumnarTrace> {
        let i = inst.index();
        if let Some(p) = &self.prefix {
            if i < p.len as usize {
                return Err(&p.cols);
            }
        }
        Ok(i - self.prefix_len())
    }

    /// The statement of `inst` (cheaper than materializing the full view).
    pub fn stmt_of(&self, inst: InstId) -> StmtId {
        match self.route(inst) {
            Ok(i) => self.stmt[i],
            Err(donor) => donor.stmt_of(inst),
        }
    }

    /// The variable defined by `inst`, if any.
    pub fn def_var_of(&self, inst: InstId) -> Option<VarId> {
        match self.route(inst) {
            Ok(i) => match self.def_var[i] {
                NONE_U32 => None,
                v => Some(VarId(v)),
            },
            Err(donor) => donor.def_var_of(inst),
        }
    }

    /// The branch outcome of `inst`, if it is a predicate instance.
    pub fn branch_of(&self, inst: InstId) -> Option<bool> {
        match self.route(inst) {
            Ok(i) => match (self.meta[i] & BRANCH_MASK) >> BRANCH_SHIFT {
                1 => Some(false),
                2 => Some(true),
                _ => None,
            },
            Err(donor) => donor.branch_of(inst),
        }
    }

    /// The CD parent of `inst`.
    pub fn cd_parent_of(&self, inst: InstId) -> Option<InstId> {
        match self.route(inst) {
            Ok(i) => opt(self.cd_parent[i]),
            Err(donor) => donor.cd_parent_of(inst),
        }
    }

    /// The region parent of `inst`.
    pub fn region_parent_of(&self, inst: InstId) -> Option<InstId> {
        match self.route(inst) {
            Ok(i) => opt(self.region_parent[i]),
            Err(donor) => donor.region_parent_of(inst),
        }
    }

    /// The dependence list of `inst`.
    pub fn deps_of(&self, inst: InstId) -> &[InstId] {
        match self.route(inst) {
            Ok(i) => &self.deps[self.deps_off[i] as usize..self.deps_off[i + 1] as usize],
            Err(donor) => donor.deps_of(inst),
        }
    }

    fn cell_of(&self, inst: u32) -> Option<i64> {
        if let Some(p) = &self.prefix {
            if inst < p.len {
                return p.cols.cell_of(inst);
            }
        }
        self.cell_index
            .binary_search_by_key(&inst, |&(i, _)| i)
            .ok()
            .map(|k| self.cell_index[k].1)
    }

    /// A new *flat* store holding the first `len` events (a checkpoint
    /// prefix): column-wise truncating copies, no per-event work. On a
    /// prefix-shared store the donor's head is materialized too, so the
    /// result always owns its columns (the serializer and the oracle
    /// tests want contiguous arrays).
    pub fn clone_prefix(&self, len: usize) -> ColumnarTrace {
        assert!(len <= self.len(), "prefix beyond trace");
        let Some(p) = &self.prefix else {
            let deps_end = self.deps_off[len] as usize;
            let cells = self
                .cell_index
                .partition_point(|&(i, _)| (i as usize) < len);
            return ColumnarTrace {
                prefix: None,
                stmt: self.stmt[..len].to_vec(),
                meta: self.meta[..len].to_vec(),
                value: self.value[..len].to_vec(),
                call_depth: self.call_depth[..len].to_vec(),
                cd_parent: self.cd_parent[..len].to_vec(),
                region_parent: self.region_parent[..len].to_vec(),
                def_var: self.def_var[..len].to_vec(),
                deps_off: self.deps_off[..len + 1].to_vec(),
                deps: self.deps[..deps_end].to_vec(),
                cell_index: self.cell_index[..cells].to_vec(),
            };
        };
        let plen = p.len as usize;
        let mut out = p.cols.clone_prefix(len.min(plen));
        if len > plen {
            let t = len - plen; // tail events to copy
            let deps_end = self.deps_off[t] as usize;
            let cells = self
                .cell_index
                .partition_point(|&(i, _)| (i as usize) < len);
            out.stmt.extend_from_slice(&self.stmt[..t]);
            out.meta.extend_from_slice(&self.meta[..t]);
            out.value.extend_from_slice(&self.value[..t]);
            out.call_depth.extend_from_slice(&self.call_depth[..t]);
            out.cd_parent.extend_from_slice(&self.cd_parent[..t]);
            out.region_parent
                .extend_from_slice(&self.region_parent[..t]);
            out.def_var.extend_from_slice(&self.def_var[..t]);
            let base = out.deps.len() as u32;
            out.deps.extend_from_slice(&self.deps[..deps_end]);
            out.deps_off
                .extend(self.deps_off[1..=t].iter().map(|&o| o + base));
            out.cell_index.extend_from_slice(&self.cell_index[..cells]);
        }
        out
    }

    /// A new store whose first `len` events are *shared* with `base` by
    /// reference count instead of copied — how a resumed recorder is
    /// seeded. O(1) regardless of prefix depth, where [`clone_prefix`]
    /// memcpys every column (megabytes per verification leaf at
    /// production scales).
    ///
    /// When `base` itself shares a prefix and the requested length fits
    /// inside it, the new store references the deeper donor directly,
    /// so chains stay as shallow as the checkpoint trie allows and
    /// access cost does not grow with resume generations.
    ///
    /// [`clone_prefix`]: ColumnarTrace::clone_prefix
    pub fn share_prefix(base: &Arc<ColumnarTrace>, len: usize) -> ColumnarTrace {
        assert!(len <= base.len(), "prefix beyond trace");
        if len == 0 {
            return ColumnarTrace::new();
        }
        if let Some(p) = &base.prefix {
            if len <= p.len as usize {
                return ColumnarTrace::share_prefix(&p.cols, len);
            }
        }
        let deps = base.deps_start(len) as u32;
        let mut c = ColumnarTrace {
            prefix: Some(Prefix {
                cols: Arc::clone(base),
                len: len as u32,
                deps,
            }),
            ..ColumnarTrace::default()
        };
        c.deps_off.push(0);
        c
    }

    /// Calls `f(i, raw_region_parent)` for the first `n` instances in
    /// reverse execution order ([`NONE_U32`] = top level): the
    /// prefix-aware replacement for iterating the raw column backwards,
    /// used by the region-size build.
    pub(crate) fn for_each_region_parent_rev(&self, n: usize, f: &mut impl FnMut(usize, u32)) {
        let plen = self.prefix_len();
        for (j, &rp) in self.region_parent[..n.saturating_sub(plen)]
            .iter()
            .enumerate()
            .rev()
        {
            f(plen + j, rp);
        }
        if let Some(p) = &self.prefix {
            p.cols.for_each_region_parent_rev(n.min(plen), f);
        }
    }

    /// Calls `f(i, stmt)` for the first `n` instances in execution
    /// order: the prefix-aware replacement for iterating the raw
    /// statement column (statement → instances map construction).
    pub(crate) fn for_each_stmt(&self, n: usize, f: &mut impl FnMut(usize, StmtId)) {
        let plen = self.prefix_len();
        if let Some(p) = &self.prefix {
            p.cols.for_each_stmt(n.min(plen), f);
        }
        for (j, &s) in self.stmt[..n.saturating_sub(plen)].iter().enumerate() {
            f(plen + j, s);
        }
    }

    /// Calls `f(stmt, value)` for every instance that computed a value,
    /// in execution order, straight off the statement, meta and value
    /// columns (prefix-aware): what a value profile folds, without
    /// materializing an event view per instance.
    pub fn for_each_value(&self, f: &mut impl FnMut(StmtId, Value)) {
        self.for_each_value_upto(self.len(), f);
    }

    /// Like [`for_each_value`](Self::for_each_value), over the first `n`
    /// instances only.
    pub fn for_each_value_upto(&self, n: usize, f: &mut impl FnMut(StmtId, Value)) {
        let plen = self.prefix_len();
        if let Some(p) = &self.prefix {
            p.cols.for_each_value_upto(n.min(plen), f);
        }
        let t = n.saturating_sub(plen);
        for ((&s, &m), &v) in self.stmt[..t]
            .iter()
            .zip(&self.meta[..t])
            .zip(&self.value[..t])
        {
            match m & VALUE_TAG_MASK {
                VALUE_INT => f(s, Value::Int(v)),
                VALUE_BOOL => f(s, Value::Bool(v != 0)),
                _ => {}
            }
        }
    }

    /// Materializes the legacy owned-event representation (tests and the
    /// equivalence oracle; not a hot path).
    pub fn to_events(&self) -> Vec<Event> {
        (0..self.len() as u32)
            .map(|i| self.event(InstId(i)).to_owned())
            .collect()
    }

    /// Heap bytes the store's own columns hold, spare capacity
    /// included: what keeping the store resident costs, where
    /// [`ColumnarTrace::bytes`] counts the recorded data alone.
    pub fn heap_bytes(&self) -> usize {
        self.stmt.capacity() * std::mem::size_of::<StmtId>()
            + self.meta.capacity()
            + self.value.capacity() * 8
            + self.call_depth.capacity() * 4
            + self.cd_parent.capacity() * 4
            + self.region_parent.capacity() * 4
            + self.def_var.capacity() * 4
            + self.deps_off.capacity() * 4
            + self.deps.capacity() * 4
            + self.cell_index.capacity() * 16
    }

    /// Resident column bytes *owned by this store* (the
    /// `columnar.bytes` observability counter). A shared checkpoint
    /// prefix is charged to its donor, not double-counted: the memo's
    /// capacity accounting would otherwise bill the same resident
    /// arrays once per resumed run that borrows them.
    pub fn bytes(&self) -> usize {
        self.stmt.len() * std::mem::size_of::<StmtId>()
            + self.meta.len()
            + self.value.len() * 8
            + self.call_depth.len() * 4
            + self.cd_parent.len() * 4
            + self.region_parent.len() * 4
            + self.def_var.len() * 4
            + self.deps_off.len() * 4
            + self.deps.len() * 4
            + self.cell_index.len() * 12
    }
}

fn opt(raw: u32) -> Option<InstId> {
    if raw == NONE_U32 {
        None
    } else {
        Some(InstId(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let mut a = Event::new(StmtId(0));
        a.value = Some(Value::Bool(true));
        a.branch = Some(true);
        let mut b = Event::new(StmtId(3));
        b.value = Some(Value::Int(-7));
        b.data_deps = vec![InstId(0)];
        b.cd_parent = Some(InstId(0));
        b.region_parent = Some(InstId(0));
        b.def_var = Some(VarId(2));
        b.call_depth = 1;
        let mut c = Event::new(StmtId(4));
        c.cell_index = Some(9);
        c.data_deps = vec![InstId(0), InstId(1)];
        vec![a, b, c]
    }

    fn build(events: &[Event]) -> ColumnarTrace {
        let mut cols = ColumnarTrace::new();
        for e in events {
            cols.push(RawEvent::from(e));
        }
        cols
    }

    #[test]
    fn push_then_view_round_trips() {
        let events = sample_events();
        let cols = build(&events);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.deps_len(), 3);
        assert_eq!(cols.to_events(), events);
        assert_eq!(cols.event(InstId(1)).data_deps, &[InstId(0)]);
        assert_eq!(cols.event(InstId(2)).cell_index, Some(9));
        assert_eq!(cols.event(InstId(0)).cell_index, None);
        assert!(cols.event(InstId(0)).is_predicate());
    }

    #[test]
    fn prefix_clone_is_column_exact() {
        let events = sample_events();
        let cols = build(&events);
        for len in 0..=events.len() {
            let prefix = cols.clone_prefix(len);
            assert_eq!(prefix.to_events(), events[..len].to_vec());
        }
    }

    #[test]
    fn shared_prefix_matches_cloned_prefix() {
        let events = sample_events();
        let base = Arc::new(build(&events));
        for len in 0..=events.len() {
            let shared = ColumnarTrace::share_prefix(&base, len);
            assert_eq!(shared.len(), len);
            assert_eq!(shared.to_events(), events[..len].to_vec());
            assert_eq!(shared.deps_len(), base.clone_prefix(len).deps_len());
            // Flattening a shared store reproduces the owned copy.
            assert_eq!(shared.clone_prefix(len), base.clone_prefix(len));
        }
    }

    #[test]
    fn shared_prefix_extends_like_a_flat_store() {
        let events = sample_events();
        let base = Arc::new(build(&events));
        for cut in 0..events.len() {
            let mut shared = ColumnarTrace::share_prefix(&base, cut);
            let mut flat = base.clone_prefix(cut);
            for e in &events[cut..] {
                assert_eq!(shared.push(RawEvent::from(e)), flat.push(RawEvent::from(e)));
            }
            assert_eq!(shared.to_events(), events);
            assert_eq!(shared.len(), flat.len());
            assert_eq!(shared.deps_len(), flat.deps_len());
            for i in 0..events.len() as u32 {
                let inst = InstId(i);
                assert_eq!(shared.stmt_of(inst), flat.stmt_of(inst));
                assert_eq!(shared.deps_of(inst), flat.deps_of(inst));
                assert_eq!(shared.def_var_of(inst), flat.def_var_of(inst));
                assert_eq!(shared.branch_of(inst), flat.branch_of(inst));
                assert_eq!(shared.cd_parent_of(inst), flat.cd_parent_of(inst));
                assert_eq!(shared.region_parent_of(inst), flat.region_parent_of(inst));
            }
            // Mid-prefix re-cuts (an ancestor resume off a resumed run).
            for recut in 0..=events.len() {
                assert_eq!(
                    shared.clone_prefix(recut).to_events(),
                    events[..recut].to_vec()
                );
            }
        }
    }

    #[test]
    fn nested_share_collapses_onto_deepest_donor() {
        let events = sample_events();
        let base = Arc::new(build(&events));
        let mut mid = ColumnarTrace::share_prefix(&base, 2);
        mid.push(RawEvent::from(&events[2]));
        let mid = Arc::new(mid);
        // Cut inside mid's own prefix: the new store must reference the
        // base columns directly, not chain through mid.
        let leaf = ColumnarTrace::share_prefix(&mid, 1);
        assert!(Arc::ptr_eq(&leaf.prefix.as_ref().unwrap().cols, &base));
        assert_eq!(leaf.to_events(), events[..1].to_vec());
        // Cut past mid's prefix: chains one level through mid.
        let deep = ColumnarTrace::share_prefix(&mid, 3);
        assert_eq!(deep.to_events(), events[..3].to_vec());
        assert_eq!(deep.deps_len(), base.clone_prefix(3).deps_len());
    }

    #[test]
    fn def_var_patch_hits_last_event() {
        let mut cols = build(&sample_events());
        cols.set_def_var_last(VarId(11));
        assert_eq!(cols.event(InstId(2)).def_var, Some(VarId(11)));
    }

    #[test]
    fn bytes_grow_with_events() {
        let cols = build(&sample_events());
        assert!(cols.bytes() > 0);
        assert!(cols.bytes() < 400);
    }
}
