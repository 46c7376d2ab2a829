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
//! reader. Construction parallelizes with the same `std::thread::scope`
//! fan-out the verification engine uses: one worker owns the Euler tour,
//! the rest build postings over contiguous trace chunks that are merged
//! in trace order, so the result is identical for any thread count.

use crate::columnar::ColumnarTrace;
use crate::event::InstId;
use crate::trace::Trace;
use omislice_lang::StmtId;
use std::collections::HashMap;

/// Below this trace length the serial build wins; above it, chunked
/// postings construction amortizes the thread spawns.
const PARALLEL_BUILD_THRESHOLD: usize = 4096;

/// Query index over one trace. Built once (lazily via [`Trace::index`] or
/// eagerly via [`Trace::build_index`]); all queries are read-only.
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
    /// Builds the index serially.
    pub fn build(trace: &Trace) -> Self {
        Self::build_with_jobs(trace, 1)
    }

    /// Builds the index using up to `jobs` worker threads. The result is
    /// identical for any `jobs`; only the wall time changes.
    ///
    /// # Panics
    ///
    /// Panics if an event's `cd_parent` does not precede it (the
    /// interpreter records parents before children by construction).
    pub fn build_with_jobs(trace: &Trace, jobs: usize) -> Self {
        let _span = omislice_obs::span("index");
        let n = trace.len();
        let jobs = jobs.max(1).min(n.max(1));
        if jobs == 1 || n < PARALLEL_BUILD_THRESHOLD {
            let (cd_tin, cd_tout) = euler_tour(trace.columns());
            let preds = postings(trace.columns(), 0, n);
            return TraceIndex {
                cd_tin,
                cd_tout,
                preds,
            };
        }
        std::thread::scope(|s| {
            let euler = s.spawn(|| euler_tour(trace.columns()));
            let chunk = n.div_ceil(jobs);
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| {
                    let end = (start + chunk).min(n);
                    s.spawn(move || postings(trace.columns(), start, end))
                })
                .collect();
            // Chunks join in trace order, so every postings list stays
            // sorted and the merged map is thread-count independent.
            let mut preds: HashMap<(StmtId, bool), Vec<InstId>> = HashMap::new();
            for h in handles {
                for (k, mut v) in h.join().expect("postings workers do not panic") {
                    preds.entry(k).or_default().append(&mut v);
                }
            }
            let (cd_tin, cd_tout) = euler.join().expect("euler worker does not panic");
            TraceIndex {
                cd_tin,
                cd_tout,
                preds,
            }
        })
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

/// Predicate postings for the chunk `[start, end)`.
fn postings(
    cols: &ColumnarTrace,
    start: usize,
    end: usize,
) -> HashMap<(StmtId, bool), Vec<InstId>> {
    let mut preds: HashMap<(StmtId, bool), Vec<InstId>> = HashMap::new();
    for i in start..end {
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
        // Big enough to cross the parallel threshold: a chain of nested
        // regions plus alternating predicates.
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
        let parallel = TraceIndex::build_with_jobs(&t, 4);
        assert_eq!(serial.cd_tin, parallel.cd_tin);
        assert_eq!(serial.cd_tout, parallel.cd_tout);
        assert_eq!(serial.preds, parallel.preds);
    }

    #[test]
    #[should_panic(expected = "cd parent")]
    fn forward_cd_parent_panics() {
        let events = vec![mk(0, Some(1), None), mk(1, None, None)];
        let t = Trace::from_parts(events, vec![], Termination::Normal);
        let _ = TraceIndex::build(&t);
    }
}
