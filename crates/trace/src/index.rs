//! Indexed queries over a [`Trace`] — the layer that makes slicing and
//! potential-dependence discovery scale to very large traces.
//!
//! Two sub-indexes, each built in one O(n) pass:
//!
//! * an **Euler-tour timestamp index** over the dynamic control-dependence
//!   forest (the `cd_parent` pointers): every instance gets an entry/exit
//!   interval, and `p` is a CD ancestor of `u` iff `p`'s interval strictly
//!   contains `u`'s — an O(1) test replacing the parent-pointer walk in
//!   [`Trace::cd_depends_on`];
//! * **predicate postings**: for every `(statement, taken-branch)` pair,
//!   the sorted list of instances that evaluated that predicate to that
//!   outcome, so "instances of `p` with branch `b` in the window
//!   `[def, u)`" (Definition 1, conditions (i)+(iii)+(iv)) is a binary
//!   search plus a contiguous range scan.
//!
//! The index is built on demand, once per trace, and only for a trace
//! that is queried: relevant slicing over the failing run is its one
//! reader. Both passes run on the calling thread: at the trace lengths a
//! localization indexes, a second thread costs more to start than it
//! saves.

use crate::columnar::ColumnarTrace;
use crate::event::InstId;
use crate::trace::Trace;
use omislice_lang::StmtId;
use std::collections::HashMap;

/// Query index over one trace. Built once, by the first call to
/// [`Trace::index`]; all queries are read-only.
#[derive(Debug, Clone)]
pub struct TraceIndex {
    /// Euler-tour entry timestamps over the dynamic CD forest.
    cd_tin: Vec<u32>,
    /// Euler-tour exit timestamps over the dynamic CD forest.
    cd_tout: Vec<u32>,
    /// Sorted instances of each predicate statement that took branch `b`.
    preds: HashMap<(StmtId, bool), Vec<InstId>>,
}

impl TraceIndex {
    /// Builds the index: the Euler tour, then the predicate postings.
    ///
    /// # Panics
    ///
    /// Panics if an event's `cd_parent` does not precede it (the
    /// interpreter records parents before children by construction).
    pub fn build(trace: &Trace) -> Self {
        let _span = omislice_obs::span("index");
        let cols = trace.columns();
        let (cd_tin, cd_tout) = euler_tour(cols);
        TraceIndex {
            cd_tin,
            cd_tout,
            preds: postings(cols),
        }
    }

    /// Heap bytes the index holds: both timestamp columns, every
    /// postings list, and the postings table's buckets, spare capacity
    /// included.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.cd_tin.capacity() + self.cd_tout.capacity()) * 4
            + self.preds.values().map(|v| v.capacity() * 4).sum::<usize>()
            + self.preds.capacity() * (std::mem::size_of::<((StmtId, bool), Vec<InstId>)>() + 1)
    }

    /// Whether `anc` is a *proper* CD ancestor of `desc` — i.e. `desc` is
    /// (transitively) dynamically control dependent on `anc`. O(1).
    #[inline]
    pub fn cd_is_ancestor(&self, anc: InstId, desc: InstId) -> bool {
        self.cd_tin[anc.index()] < self.cd_tin[desc.index()]
            && self.cd_tout[desc.index()] <= self.cd_tout[anc.index()]
    }

    /// All instances of predicate `stmt` whose evaluation took branch
    /// `taken`, sorted by timestamp.
    pub fn pred_instances(&self, stmt: StmtId, taken: bool) -> &[InstId] {
        self.preds.get(&(stmt, taken)).map_or(&[], Vec::as_slice)
    }

    /// The instances of predicate `stmt` with branch `taken` inside the
    /// half-open timestamp window `[lo, hi)` — a binary search on each
    /// end of the postings list.
    pub fn pred_instances_between(
        &self,
        stmt: StmtId,
        taken: bool,
        lo: InstId,
        hi: InstId,
    ) -> &[InstId] {
        let list = self.pred_instances(stmt, taken);
        let a = list.partition_point(|&i| i < lo);
        let b = list.partition_point(|&i| i < hi);
        &list[a..b]
    }
}

/// Entry/exit timestamps of an iterative DFS over the CD forest. One
/// global clock across the roots (in trace order) gives disjoint
/// intervals to separate trees, so the containment test needs no
/// root bookkeeping.
fn euler_tour(cols: &ColumnarTrace) -> (Vec<u32>, Vec<u32>) {
    let n = cols.len();
    // Children in CSR form: counting pass, prefix sums, fill pass.
    let mut counts = vec![0u32; n];
    for i in 0..n {
        if let Some(p) = cols.cd_parent_of(InstId(i as u32)) {
            counts[p.index()] += 1;
        }
    }
    let mut offsets = vec![0u32; n + 1];
    for i in 0..n {
        offsets[i + 1] = offsets[i] + counts[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut children = vec![0u32; offsets[n] as usize];
    let mut roots: Vec<u32> = Vec::new();
    for i in 0..n {
        match cols.cd_parent_of(InstId(i as u32)) {
            Some(p) => {
                assert!(p.index() < i, "cd parent {p} not before child t{i}");
                children[cursor[p.index()] as usize] = i as u32;
                cursor[p.index()] += 1;
            }
            None => roots.push(i as u32),
        }
    }
    let mut tin = vec![0u32; n];
    let mut tout = vec![0u32; n];
    let mut clock = 0u32;
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for &r in &roots {
        tin[r as usize] = clock;
        clock += 1;
        stack.push((r, offsets[r as usize]));
        while let Some(top) = stack.last_mut() {
            let node = top.0 as usize;
            if top.1 < offsets[node + 1] {
                let c = children[top.1 as usize] as usize;
                top.1 += 1;
                tin[c] = clock;
                clock += 1;
                stack.push((c as u32, offsets[c]));
            } else {
                tout[node] = clock;
                clock += 1;
                stack.pop();
            }
        }
    }
    (tin, tout)
}

/// Predicate postings: each predicate instance, in trace order, under
/// its `(statement, taken-branch)` key.
fn postings(cols: &ColumnarTrace) -> HashMap<(StmtId, bool), Vec<InstId>> {
    let mut preds: HashMap<(StmtId, bool), Vec<InstId>> = HashMap::new();
    for i in 0..cols.len() {
        let inst = InstId(i as u32);
        if let Some(b) = cols.branch_of(inst) {
            preds.entry((cols.stmt_of(inst), b)).or_default().push(inst);
        }
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::trace::Termination;

    fn mk(stmt: u32, cd_parent: Option<u32>, branch: Option<bool>) -> Event {
        let mut e = Event::new(StmtId(stmt));
        e.cd_parent = cd_parent.map(InstId);
        e.branch = branch;
        e
    }

    /// t0:S0(T) ─ t1:S1, t2:S0(F), t3:S1 under t2, t4:S2 under t3's chain.
    fn sample() -> Trace {
        let events = vec![
            mk(0, None, Some(true)),
            mk(1, Some(0), None),
            mk(0, None, Some(false)),
            mk(1, Some(2), Some(true)),
            mk(2, Some(3), None),
        ];
        Trace::from_parts(events, vec![], Termination::Normal)
    }

    #[test]
    fn euler_matches_ancestor_walk() {
        let t = sample();
        let idx = TraceIndex::build(&t);
        for u in t.insts() {
            let ancestors = t.cd_ancestors(u);
            for p in t.insts() {
                assert_eq!(
                    idx.cd_is_ancestor(p, u),
                    ancestors.contains(&p),
                    "p={p} u={u}"
                );
            }
        }
    }

    #[test]
    fn self_is_not_an_ancestor() {
        let t = sample();
        let idx = TraceIndex::build(&t);
        for u in t.insts() {
            assert!(!idx.cd_is_ancestor(u, u));
        }
    }

    #[test]
    fn predicate_postings_split_by_branch() {
        let t = sample();
        let idx = TraceIndex::build(&t);
        assert_eq!(idx.pred_instances(StmtId(0), true), &[InstId(0)]);
        assert_eq!(idx.pred_instances(StmtId(0), false), &[InstId(2)]);
        assert_eq!(idx.pred_instances(StmtId(1), true), &[InstId(3)]);
        assert_eq!(idx.pred_instances(StmtId(7), true), &[] as &[InstId]);
    }

    #[test]
    fn window_queries_are_half_open() {
        let t = sample();
        let idx = TraceIndex::build(&t);
        let w = idx.pred_instances_between(StmtId(0), false, InstId(0), InstId(2));
        assert!(w.is_empty(), "hi bound is exclusive");
        let w = idx.pred_instances_between(StmtId(0), false, InstId(2), InstId(5));
        assert_eq!(w, &[InstId(2)], "lo bound is inclusive");
    }

    #[test]
    fn parallel_build_is_identical() {
        // A job count leaves the index as the plain build makes it: a
        // chain of nested regions plus alternating predicates.
        let n = 10_000u32;
        let events: Vec<Event> = (0..n)
            .map(|i| {
                let mut e = Event::new(StmtId(i % 7));
                if i % 3 == 0 {
                    e.branch = Some(i % 2 == 0);
                }
                if i > 0 {
                    e.cd_parent = Some(InstId(i / 2));
                }
                e
            })
            .collect();
        let t = Trace::from_parts(events, vec![], Termination::Normal);
        let serial = TraceIndex::build(&t);
        let with_jobs = t.build_index(4);
        assert_eq!(serial.cd_tin, with_jobs.cd_tin);
        assert_eq!(serial.cd_tout, with_jobs.cd_tout);
        assert_eq!(serial.preds, with_jobs.preds);
    }

    #[test]
    #[should_panic(expected = "cd parent")]
    fn forward_cd_parent_panics() {
        let events = vec![mk(0, Some(1), None), mk(1, None, None)];
        let t = Trace::from_parts(events, vec![], Termination::Normal);
        let _ = TraceIndex::build(&t);
    }
}
