//! The (augmentable) dynamic dependence graph and backward slicing.
//!
//! A [`DepGraph`] wraps a trace with a set of *extra edges* — the verified
//! implicit dependence edges that the demand-driven locator adds
//! (Algorithm 2, line 15: `G = G + p → t`). Classic dynamic slicing is a
//! backward closure over data dependences, dynamic control dependences,
//! and any extra edges.
//!
//! The trace's own edges are frozen into a CSR adjacency (flat offset +
//! edge arrays) at construction, so slicing traverses contiguous memory
//! with a bitset visited-set instead of hashing every instance; only the
//! mutable extra edges stay in a map.

use omislice_analysis::bitset::BitSet;
use omislice_trace::{InstId, Trace};
use std::collections::{HashMap, HashSet, VecDeque};

use omislice_lang::StmtId;

/// Extra dependence edges `from → to` (both in the same trace), where
/// `to` precedes `from` in execution order — e.g. an implicit dependence
/// from a use back to the predicate that suppressed its real definition.
pub type ExtraEdges = HashMap<InstId, Vec<InstId>>;

/// A dynamic dependence graph: a trace plus augmenting edges.
#[derive(Debug, Clone)]
pub struct DepGraph<'a> {
    trace: &'a Trace,
    /// CSR offsets: instance `i`'s base edges live at
    /// `edges[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Flat base-edge array: each instance's data dependences in
    /// evaluation order, then its dynamic control-dependence parent.
    edges: Vec<InstId>,
    extra: ExtraEdges,
}

impl<'a> DepGraph<'a> {
    /// A graph with only the trace's own dependences. The CSR adjacency
    /// is filled in one serial append pass: each instance's data
    /// dependences, then its control-dependence parent, then its offset.
    /// The edge array is reserved from the trace's own dependence count,
    /// so a [`Trace::prefix`] view never reserves its donor's size.
    pub fn new(trace: &'a Trace) -> Self {
        let _span = omislice_obs::span("graph");
        let n = trace.len();
        let cols = trace.columns();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(cols.deps_len() + n);
        offsets.push(0u32);
        for i in 0..n {
            let inst = InstId(i as u32);
            edges.extend_from_slice(cols.deps_of(inst));
            edges.extend(cols.cd_parent_of(inst));
            offsets.push(edges.len() as u32);
        }
        // One guarded counter flush per fill, outside the per-event loop.
        if omislice_obs::enabled() {
            omislice_obs::counter_add("csr.fill.edges", edges.len() as u64);
        }
        DepGraph {
            trace,
            offsets,
            edges,
            extra: ExtraEdges::new(),
        }
    }

    /// [`DepGraph::new`] under its older name. The fill is serial and
    /// ignores the job count; omibench still calls `with_jobs(&trace, 1)`.
    pub fn with_jobs(trace: &'a Trace, _jobs: usize) -> Self {
        Self::new(trace)
    }

    /// The underlying trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Adds an extra (e.g. implicit) dependence edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `to` does not precede
    /// `from` (dependences point backwards in time).
    pub fn add_edge(&mut self, from: InstId, to: InstId) {
        assert!(
            from.index() < self.trace.len() && to.index() < self.trace.len(),
            "edge endpoints must be trace instances"
        );
        assert!(to < from, "dependence edges point backwards in time");
        let targets = self.extra.entry(from).or_default();
        // Sorted + binary-search insert keeps repeated Algorithm-2 edge
        // additions O(log n) instead of a linear containment scan.
        if let Err(pos) = targets.binary_search(&to) {
            targets.insert(pos, to);
        }
    }

    /// Number of extra edges added so far.
    pub fn extra_edge_count(&self) -> usize {
        self.extra.values().map(Vec::len).sum()
    }

    /// The extra edges out of `from`.
    pub fn extra_edges_of(&self, from: InstId) -> &[InstId] {
        self.extra.get(&from).map_or(&[], Vec::as_slice)
    }

    /// The trace's own backward dependences of `inst` (data dependences
    /// in evaluation order, then the dynamic control-dependence parent)
    /// as a contiguous CSR slice — no allocation.
    pub fn base_deps(&self, inst: InstId) -> &[InstId] {
        let i = inst.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// All backward dependences of `inst` — base CSR edges followed by
    /// extra edges — without allocating.
    pub fn deps(&self, inst: InstId) -> impl Iterator<Item = InstId> + '_ {
        self.base_deps(inst)
            .iter()
            .copied()
            .chain(self.extra_edges_of(inst).iter().copied())
    }

    /// All backward dependences of `inst`: data, dynamic control, extra.
    ///
    /// Allocates a fresh `Vec`; prefer [`DepGraph::deps`] in loops.
    pub fn backward_deps(&self, inst: InstId) -> Vec<InstId> {
        self.deps(inst).collect()
    }

    /// The classic dynamic slice: the backward closure from `criterion`.
    pub fn backward_slice(&self, criterion: InstId) -> Slice {
        let mut seen = BitSet::new(self.trace.len());
        let mut stack = vec![criterion];
        seen.insert(criterion.index());
        while let Some(i) = stack.pop() {
            for d in self.deps(i) {
                if seen.insert(d.index()) {
                    stack.push(d);
                }
            }
        }
        Slice::from_insts(self.trace, seen.iter().map(|i| InstId(i as u32)))
    }

    /// Dependence distance (in edges) from `criterion` to every instance
    /// in its backward slice; the criterion itself has distance 0.
    pub fn distances_from(&self, criterion: InstId) -> HashMap<InstId, u32> {
        let mut dist: HashMap<InstId, u32> = HashMap::new();
        let mut queue: VecDeque<InstId> = VecDeque::new();
        dist.insert(criterion, 0);
        queue.push_back(criterion);
        while let Some(i) = queue.pop_front() {
            let d = dist[&i];
            for dep in self.deps(i) {
                dist.entry(dep).or_insert_with(|| {
                    queue.push_back(dep);
                    d + 1
                });
            }
        }
        dist
    }

    /// Forward adjacency: for each instance, the instances that depend on
    /// it (reversal of all backward edges). Used by confidence analysis.
    pub fn forward_adjacency(&self) -> Vec<Vec<InstId>> {
        let mut fwd: Vec<Vec<InstId>> = vec![Vec::new(); self.trace.len()];
        for inst in self.trace.insts() {
            for dep in self.deps(inst) {
                fwd[dep.index()].push(inst);
            }
        }
        fwd
    }

    /// A shortest dependence path from `from` back to `to`, if one exists
    /// (used to extract the failure-inducing chain once the root cause is
    /// reachable).
    pub fn path_between(&self, from: InstId, to: InstId) -> Option<Vec<InstId>> {
        let mut parent: HashMap<InstId, InstId> = HashMap::new();
        let mut queue: VecDeque<InstId> = VecDeque::new();
        parent.insert(from, from);
        queue.push_back(from);
        while let Some(i) = queue.pop_front() {
            if i == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse(); // from ... to
                return Some(path);
            }
            for dep in self.deps(i) {
                parent.entry(dep).or_insert_with(|| {
                    queue.push_back(dep);
                    i
                });
            }
        }
        None
    }
}

/// A set of statement instances, with both the paper's size metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    insts: Vec<InstId>,
    stmts: HashSet<StmtId>,
}

impl Slice {
    /// Builds a slice from a set of instances.
    pub fn from_insts(trace: &Trace, insts: impl IntoIterator<Item = InstId>) -> Self {
        let mut insts: Vec<InstId> = insts.into_iter().collect();
        insts.sort();
        insts.dedup();
        let stmts = insts.iter().map(|&i| trace.columns().stmt_of(i)).collect();
        Slice { insts, stmts }
    }

    /// The instances, in execution order.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }

    /// Number of dynamic statement instances (the paper's "dynamic" size).
    pub fn dynamic_size(&self) -> usize {
        self.insts.len()
    }

    /// Number of unique static statements (the paper's "static" size).
    pub fn static_size(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the slice contains any instance of `stmt` — the fault-
    /// capture criterion used throughout the evaluation.
    pub fn contains_stmt(&self, stmt: StmtId) -> bool {
        self.stmts.contains(&stmt)
    }

    /// Whether the slice contains the instance `inst`.
    pub fn contains(&self, inst: InstId) -> bool {
        self.insts.binary_search(&inst).is_ok()
    }

    /// The unique statements in the slice.
    pub fn stmts(&self) -> &HashSet<StmtId> {
        &self.stmts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_analysis::ProgramAnalysis;
    use omislice_interp::{run_traced, RunConfig};
    use omislice_lang::compile;

    fn trace_of(src: &str, inputs: Vec<i64>) -> Trace {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        run_traced(&p, &a, &RunConfig::with_inputs(inputs)).trace
    }

    #[test]
    fn slice_follows_data_dependences() {
        // S0 x=input, S1 y=x+1, S2 z=input, S3 print(y)
        let t = trace_of(
            "fn main() { let x = input(); let y = x + 1; let z = input(); print(y); }",
            vec![1, 2],
        );
        let g = DepGraph::new(&t);
        let out = t.outputs()[0].inst;
        let s = g.backward_slice(out);
        assert!(s.contains_stmt(StmtId(0)));
        assert!(s.contains_stmt(StmtId(1)));
        assert!(!s.contains_stmt(StmtId(2)), "unrelated stmt excluded");
        assert_eq!(s.dynamic_size(), 3);
        assert_eq!(s.static_size(), 3);
    }

    #[test]
    fn slice_follows_control_dependences() {
        let t = trace_of(
            "global x = 0; fn main() { let c = input(); if c > 0 { x = 1; } print(x); }",
            vec![5],
        );
        let g = DepGraph::new(&t);
        let out = t.outputs()[0].inst;
        let s = g.backward_slice(out);
        // print <- x=1 <- (cd) if <- c=input
        for stmt in 0..4 {
            assert!(s.contains_stmt(StmtId(stmt)), "missing S{stmt}");
        }
    }

    #[test]
    fn omission_error_shape_misses_root_cause() {
        // The defining phenomenon: when the branch is NOT taken, the
        // classic dynamic slice misses the predicate and its inputs.
        let t = trace_of(
            "global x = 0; fn main() { let c = input(); if c > 0 { x = 1; } print(x); }",
            vec![-5],
        );
        let g = DepGraph::new(&t);
        let out = t.outputs()[0].inst;
        let s = g.backward_slice(out);
        assert!(!s.contains_stmt(StmtId(0)), "input excluded");
        assert!(!s.contains_stmt(StmtId(1)), "if excluded");
        assert!(!s.contains_stmt(StmtId(2)), "untaken assign excluded");
        assert_eq!(s.dynamic_size(), 1, "only the print itself");
    }

    #[test]
    fn extra_edges_extend_the_slice() {
        let t = trace_of(
            "global x = 0; fn main() { let c = input(); if c > 0 { x = 1; } print(x); }",
            vec![-5],
        );
        let mut g = DepGraph::new(&t);
        let out = t.outputs()[0].inst;
        let if_inst = t.instances_of(StmtId(1))[0];
        g.add_edge(out, if_inst);
        assert_eq!(g.extra_edge_count(), 1);
        let s = g.backward_slice(out);
        assert!(s.contains_stmt(StmtId(1)));
        assert!(s.contains_stmt(StmtId(0)), "reaches through the predicate");
    }

    #[test]
    #[should_panic(expected = "backwards in time")]
    fn forward_extra_edge_rejected() {
        let t = trace_of("fn main() { print(1); print(2); }", vec![]);
        let mut g = DepGraph::new(&t);
        g.add_edge(InstId(0), InstId(1));
    }

    #[test]
    fn distances_count_edges() {
        let t = trace_of(
            "fn main() { let a = input(); let b = a + 1; let c = b + 1; print(c); }",
            vec![0],
        );
        let g = DepGraph::new(&t);
        let out = t.outputs()[0].inst;
        let d = g.distances_from(out);
        assert_eq!(d[&out], 0);
        assert_eq!(d[&InstId(2)], 1);
        assert_eq!(d[&InstId(1)], 2);
        assert_eq!(d[&InstId(0)], 3);
    }

    #[test]
    fn path_between_follows_dependences() {
        let t = trace_of(
            "fn main() { let a = input(); let b = a + 1; print(b); }",
            vec![0],
        );
        let g = DepGraph::new(&t);
        let out = t.outputs()[0].inst;
        let path = g.path_between(out, InstId(0)).unwrap();
        assert_eq!(path, vec![out, InstId(1), InstId(0)]);
        assert!(g.path_between(InstId(0), out).is_none());
    }

    #[test]
    fn forward_adjacency_inverts_edges() {
        let t = trace_of(
            "fn main() { let a = input(); let b = a + 1; print(b); }",
            vec![0],
        );
        let g = DepGraph::new(&t);
        let fwd = g.forward_adjacency();
        assert_eq!(fwd[0], vec![InstId(1)]);
        assert_eq!(fwd[1], vec![InstId(2)]);
        assert!(fwd[2].is_empty());
    }

    #[test]
    fn duplicate_extra_edges_are_ignored() {
        let t = trace_of("fn main() { let a = 1; print(a); }", vec![]);
        let mut g = DepGraph::new(&t);
        g.add_edge(InstId(1), InstId(0));
        g.add_edge(InstId(1), InstId(0));
        assert_eq!(g.extra_edge_count(), 1);
    }

    /// Asserts `g`'s base edges are each instance's data dependences then
    /// its control parent, and that the edge array was reserved from
    /// `t`'s own size, not from a donor's.
    fn assert_csr_matches(t: &Trace) {
        let g = DepGraph::new(t);
        assert_eq!(g.offsets.len(), t.len() + 1);
        for inst in t.insts() {
            let ev = t.event(inst);
            let mut expect: Vec<InstId> = ev.data_deps.to_vec();
            expect.extend(ev.cd_parent);
            assert_eq!(g.base_deps(inst), expect.as_slice(), "at {inst}");
        }
        let reserved = t.columns().deps_len() + t.len();
        assert!(
            g.edges.capacity() <= reserved,
            "{} edges reserved for a {}-event view holding {reserved}",
            g.edges.capacity(),
            t.len()
        );
    }

    #[test]
    fn base_deps_order_is_data_then_cd() {
        assert_csr_matches(&trace_of(
            "global x = 0; fn main() { let c = input(); if c > 0 { x = c + 1; } print(x); }",
            vec![5],
        ));
        // Past 4,096 events, and prefix views of it: a view through an
        // early instance must not reserve its donor's edge count.
        let t = trace_of(
            "global s = 0;
             fn main() {
                 let n = input();
                 let i = 0;
                 while i < n { s = s + i; i = i + 1; }
                 print(s);
             }",
            vec![2000],
        );
        assert!(t.len() > 4096, "{} events", t.len());
        assert_csr_matches(&t);
        for len in [0, 1, 7, t.len() / 2, 4097, t.len() - 1] {
            assert_csr_matches(&t.prefix(len));
        }
    }

    #[test]
    fn slice_membership_queries() {
        let t = trace_of("fn main() { let a = 1; print(a); }", vec![]);
        let g = DepGraph::new(&t);
        let s = g.backward_slice(t.outputs()[0].inst);
        assert!(s.contains(InstId(0)) && s.contains(InstId(1)));
        assert_eq!(s.insts(), &[InstId(0), InstId(1)]);
        assert_eq!(s.stmts().len(), 2);
    }
}
