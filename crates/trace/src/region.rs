//! Region trees (Definition 3 of the paper).
//!
//! > *"A statement execution s and the statement executions that are
//! > control dependent on s form a region."*
//!
//! The tree is read from each event's `region_parent` pointer, which the
//! interpreter maintains as the innermost guarding predicate instance
//! (crossing call boundaries, and chaining `while` iterations so that a
//! whole loop execution forms one region headed by the first evaluation
//! of its predicate — exactly the decomposition the paper uses to align
//! `[6,7,8,11,12,6]` as a unit).
//!
//! Every statement instance heads a region: a leaf region for
//! non-predicates, a subtree for predicates.
//!
//! The interpreter maintains `region_parent` as a stack — a child's
//! parent is always the innermost *open* region, parents strictly precede
//! children, and a region never reopens once control leaves it — so every
//! region's instances form the contiguous interval `[head, head + size)`.
//! One subtree size per instance therefore describes the whole tree: the
//! sub-regions of `h` are `h + 1`, then each next one at `c + size[c]`,
//! up to `h + size[h]`; the top-level regions are walked the same way
//! from instance 0; and parents come from the trace's own
//! `region_parent` column.

use crate::columnar::{ColumnarTrace, NONE_U32};
use crate::event::InstId;
use crate::trace::Trace;
use omislice_lang::StmtId;
use std::fmt::Write as _;

/// One level of a [`DescentChain`]: the sub-region Algorithm 1's
/// lockstep walk enters, and what its counterpart must look like for the
/// walk to go on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescentStep {
    /// Position among the enclosing region's sub-regions (0-based).
    pub position: u32,
    /// The statement the counterpart's head must execute.
    pub stmt: StmtId,
    /// The branch the counterpart's head must take for the walk to
    /// descend below it (`None` on the last step, which is the target).
    pub branch: Option<bool>,
}

/// The walk Algorithm 1 makes to match one instance `t` of an original
/// run in a re-execution switched at `p`, read off the original's region
/// tree alone: from the deepest region strictly above `p` that contains
/// `t` (the `root`), the chain of sub-regions down to `t`, one
/// [`DescentStep`] per level.
///
/// A switched run that follows the chain while it records learns when
/// `t`'s counterpart is recorded or ruled out: a level's counterpart
/// differs in statement or branch, or its region closes before the
/// position is reached. Matches are monotone in trace order, so by then
/// the match of every instance up to `t` is decided, and the run can
/// stop recording (see `omislice_interp::run_switched_until`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescentChain {
    /// The switch point `p`: the run follows the chain from there.
    pub switch: InstId,
    /// The region the walk starts in (`None`: the whole execution).
    pub root: Option<InstId>,
    /// Sub-regions of `root` begun by the switch point, the one
    /// containing it included: the position the next one takes.
    pub started: u32,
    /// The levels from `root` down to `t`; empty when `t`'s match is
    /// decided at the switch point itself (`t` precedes or is `p`, or is
    /// guarded by `p`'s original branch).
    pub steps: Vec<DescentStep>,
}

/// Builds the subtree-size column of a trace: one reverse pass, since
/// parents precede children, so `size[i]` is complete by the time `i` is
/// folded into its parent.
///
/// # Panics
///
/// Panics if a parent pointer refers to a later instance (parents must
/// precede children in execution order).
pub(crate) fn region_sizes(cols: &ColumnarTrace) -> Vec<u32> {
    let n = cols.len();
    let mut size = vec![1u32; n];
    cols.for_each_region_parent_rev(n, &mut |i, rp| {
        if rp != NONE_U32 {
            assert!((rp as usize) < i, "region parent {rp} not before child {i}");
            size[rp as usize] += size[i];
        }
    });
    // Sums of subtree sizes describe intervals only if regions nest:
    // every child's interval must lie inside its parent's. Decoding
    // rejects traces whose regions reopen, and the interpreter never
    // records one.
    #[cfg(debug_assertions)]
    for i in 0..n {
        if let Some(p) = cols.region_parent_of(InstId(i as u32)) {
            let p = p.index();
            debug_assert!(
                i + size[i] as usize <= p + size[p] as usize,
                "region of instance {i} escapes its parent {p}: regions do not nest"
            );
        }
    }
    size
}

/// The region tree of one trace ([`Trace::regions`]): the trace's
/// subtree-size column, one `u32` per instance, read together with its
/// `region_parent` column.
#[derive(Debug, Clone, Copy)]
pub struct RegionTree<'a> {
    trace: &'a Trace,
    size: &'a [u32],
}

/// The sub-regions of one region, in execution order
/// ([`RegionTree::children`], [`RegionTree::roots`]).
#[derive(Debug, Clone)]
pub struct Siblings<'a> {
    size: &'a [u32],
    next: usize,
    end: usize,
}

impl Iterator for Siblings<'_> {
    type Item = InstId;

    #[inline]
    fn next(&mut self) -> Option<InstId> {
        if self.next >= self.end {
            return None;
        }
        let c = self.next;
        self.next += self.size[c] as usize;
        Some(InstId(c as u32))
    }
}

impl<'a> RegionTree<'a> {
    pub(crate) fn new(trace: &'a Trace, size: &'a [u32]) -> Self {
        RegionTree { trace, size }
    }

    /// Bytes the tree holds: one `u32` per instance.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.size)
    }

    /// Top-level instances (the virtual whole-execution region's
    /// children), in execution order.
    pub fn roots(&self) -> Siblings<'a> {
        Siblings {
            size: self.size,
            next: 0,
            end: self.size.len(),
        }
    }

    /// The region-nesting parent of `inst`, or `None` at top level.
    pub fn parent(&self, inst: InstId) -> Option<InstId> {
        self.trace.columns().region_parent_of(inst)
    }

    /// The sub-regions of the region headed by `inst`, in execution order.
    pub fn children(&self, inst: InstId) -> Siblings<'a> {
        let h = inst.index();
        Siblings {
            size: self.size,
            next: h + 1,
            end: h + self.size[h] as usize,
        }
    }

    /// The first sub-region of `inst`'s region (`FirstSubRegion` in
    /// Algorithm 1), if any.
    pub fn first_child(&self, inst: InstId) -> Option<InstId> {
        self.children(inst).next()
    }

    /// The next sibling region of `inst` (`SiblingRegion` in Algorithm 1),
    /// or `None` if `inst` is the last sub-region of its parent — the
    /// signal Algorithm 1 uses for the single-entry-multiple-exit case.
    pub fn next_sibling(&self, inst: InstId) -> Option<InstId> {
        let end = match self.parent(inst) {
            Some(p) => p.index() + self.size[p.index()] as usize,
            None => self.size.len(),
        };
        let next = inst.index() + self.size[inst.index()] as usize;
        (next < end).then_some(InstId(next as u32))
    }

    /// Whether `inst` lies inside the region headed by `head`
    /// (`InRegion` in Algorithm 1): true when `inst == head` or `head`
    /// is a nesting ancestor of `inst`. O(1): a region's descendants are
    /// the contiguous instance interval `[head, head + size)` (non-strict
    /// containment, unlike the strict CD-ancestor test).
    pub fn in_region(&self, head: InstId, inst: InstId) -> bool {
        let h = head.index();
        let i = inst.index();
        h <= i && i < h + self.size[h] as usize
    }

    /// The chain of nesting ancestors of `inst`, nearest first.
    pub fn ancestors(&self, inst: InstId) -> Vec<InstId> {
        let mut out = Vec::new();
        let mut cur = self.parent(inst);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// Nesting depth of `inst` (0 for top-level instances).
    pub fn depth(&self, inst: InstId) -> usize {
        self.ancestors(inst).len()
    }

    /// Renders the region headed by `inst` in the paper's bracket
    /// notation over statement ids, e.g. `[13,[14,[15],[16]],[17],[18]]`
    /// — leaf regions print as bare statement numbers.
    pub fn render(&self, inst: InstId) -> String {
        let mut out = String::new();
        self.render_into(inst, &mut out);
        out
    }

    /// Renders the whole execution as a sibling list of top-level regions.
    pub fn render_all(&self) -> String {
        let parts: Vec<String> = self.roots().map(|r| self.render(r)).collect();
        parts.join(", ")
    }

    fn render_into(&self, inst: InstId, out: &mut String) {
        let stmt = self.trace.columns().stmt_of(inst).0;
        if self.size[inst.index()] == 1 {
            let _ = write!(out, "{stmt}");
        } else {
            let _ = write!(out, "[{stmt}");
            for c in self.children(inst) {
                out.push(',');
                self.render_into(c, out);
            }
            out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::trace::Termination;
    use omislice_lang::StmtId;

    fn mk(stmt: u32, region_parent: Option<u32>) -> Event {
        let mut e = Event::new(StmtId(stmt));
        e.region_parent = region_parent.map(InstId);
        e
    }

    /// t0:S13 [ t1:S14 [ t2:S15, t3:S16 ], t4:S17, t5:S18 ]  — mirrors the
    /// paper's `[13,[14,15,16],17,18]` region of Figure 2.
    fn sample() -> Trace {
        let events = vec![
            mk(13, None),
            mk(14, Some(0)),
            mk(15, Some(1)),
            mk(16, Some(1)),
            mk(17, Some(0)),
            mk(18, Some(0)),
        ];
        Trace::from_parts(events, vec![], Termination::Normal)
    }

    fn ids(it: impl Iterator<Item = InstId>) -> Vec<InstId> {
        it.collect()
    }

    #[test]
    fn structure_matches_parents() {
        let t = sample();
        let r = t.regions();
        assert_eq!(ids(r.roots()), [InstId(0)]);
        assert_eq!(
            ids(r.children(InstId(0))),
            [InstId(1), InstId(4), InstId(5)]
        );
        assert_eq!(ids(r.children(InstId(1))), [InstId(2), InstId(3)]);
        assert_eq!(r.parent(InstId(2)), Some(InstId(1)));
        assert_eq!(r.parent(InstId(0)), None);
    }

    #[test]
    fn navigation_ops() {
        let t = sample();
        let r = t.regions();
        assert_eq!(r.first_child(InstId(0)), Some(InstId(1)));
        assert_eq!(r.first_child(InstId(2)), None);
        assert_eq!(r.next_sibling(InstId(1)), Some(InstId(4)));
        assert_eq!(r.next_sibling(InstId(5)), None);
        assert_eq!(r.next_sibling(InstId(2)), Some(InstId(3)));
        assert_eq!(r.next_sibling(InstId(3)), None);
        assert_eq!(r.next_sibling(InstId(0)), None);
    }

    #[test]
    fn in_region_semantics() {
        let t = sample();
        let r = t.regions();
        assert!(r.in_region(InstId(0), InstId(3)));
        assert!(r.in_region(InstId(1), InstId(2)));
        assert!(r.in_region(InstId(1), InstId(1)), "head is in its region");
        assert!(!r.in_region(InstId(1), InstId(4)));
        assert!(
            !r.in_region(InstId(2), InstId(1)),
            "child region excludes parent"
        );
    }

    /// The O(1) interval containment test must agree with the defining
    /// ancestor-chain walk on every pair — this is what licenses storing
    /// subtree sizes instead of Euler-tour timestamps.
    #[test]
    fn in_region_matches_ancestor_walk_on_every_pair() {
        // Two top-level regions and a call-shaped nesting chain.
        let events = vec![
            mk(1, None),
            mk(2, Some(0)),
            mk(3, Some(1)),
            mk(4, Some(2)),
            mk(5, Some(0)),
            mk(6, None),
            mk(7, Some(5)),
            mk(8, Some(5)),
        ];
        let n = events.len() as u32;
        let t = Trace::from_parts(events, vec![], Termination::Normal);
        let r = t.regions();
        for h in 0..n {
            for i in 0..n {
                let mut cur = Some(InstId(i));
                let mut walked = false;
                while let Some(x) = cur {
                    if x == InstId(h) {
                        walked = true;
                        break;
                    }
                    cur = r.parent(x);
                }
                assert_eq!(
                    r.in_region(InstId(h), InstId(i)),
                    walked,
                    "in_region({h}, {i}) disagrees with the ancestor walk"
                );
            }
        }
    }

    #[test]
    fn ancestors_and_depth() {
        let t = sample();
        let r = t.regions();
        assert_eq!(r.ancestors(InstId(2)), vec![InstId(1), InstId(0)]);
        assert_eq!(r.depth(InstId(2)), 2);
        assert_eq!(r.depth(InstId(0)), 0);
    }

    #[test]
    fn render_matches_paper_notation() {
        let t = sample();
        let r = t.regions();
        assert_eq!(r.render(InstId(0)), "[13,[14,15,16],17,18]");
        assert_eq!(r.render_all(), "[13,[14,15,16],17,18]");
    }

    #[test]
    fn multiple_roots_are_siblings() {
        let events = vec![mk(1, None), mk(2, None), mk(3, Some(1))];
        let t = Trace::from_parts(events, vec![], Termination::Normal);
        let r = t.regions();
        assert_eq!(ids(r.roots()), [InstId(0), InstId(1)]);
        assert_eq!(r.next_sibling(InstId(0)), Some(InstId(1)));
        assert_eq!(r.render_all(), "1, [2,3]");
        // Separate trees have disjoint intervals.
        assert!(!r.in_region(InstId(0), InstId(1)));
        assert!(!r.in_region(InstId(0), InstId(2)));
        assert!(r.in_region(InstId(1), InstId(2)));
    }

    /// The tree is its size column: 4 bytes per instance, no child
    /// lists, offsets, positions or parent copy.
    #[test]
    fn tree_holds_four_bytes_per_instance() {
        let t = sample();
        assert_eq!(t.regions().bytes(), 4 * t.len());
        let empty = Trace::from_parts(vec![], vec![], Termination::Normal);
        assert_eq!(empty.regions().bytes(), 0);
        assert_eq!(empty.regions().roots().count(), 0);
    }

    #[test]
    #[should_panic(expected = "region parent")]
    fn forward_parent_pointer_panics() {
        let mut e1 = Event::new(StmtId(0));
        e1.region_parent = Some(InstId(1));
        let e2 = Event::new(StmtId(1));
        let t = Trace::from_parts(vec![e1, e2], vec![], Termination::Normal);
        let _ = t.regions();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "regions do not nest")]
    fn reopened_region_fails_the_debug_check() {
        // t2 closes t0's region; t3 reopens it.
        let events = vec![mk(1, None), mk(2, Some(0)), mk(3, None), mk(4, Some(0))];
        let t = Trace::from_parts(events, vec![], Termination::Normal);
        let _ = t.regions();
    }
}
