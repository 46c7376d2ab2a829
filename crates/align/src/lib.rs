//! # omislice-align
//!
//! Region-based execution alignment — **Algorithm 1** of *"Towards
//! Locating Execution Omission Errors"* (PLDI 2007).
//!
//! Given an original execution `E` and a re-execution `E'` that is
//! identical except that one predicate instance `p` had its branch
//! outcome switched, [`Aligner::match_inst`] finds the instance in `E'`
//! that corresponds to a given instance `u` of `E` — or establishes that
//! no such instance exists. Matching individual statement executions
//! fails in the presence of loops and recursion (switching a predicate
//! can radically change which instances execute), so the algorithm aligns
//! whole *regions* (Definition 3: a statement instance plus everything
//! control-dependent on it) by walking the two region trees in lockstep:
//!
//! 1. ascend from `p` to the smallest enclosing region that contains `u`
//!    (all ancestors of `p` lie in the common prefix, so they correspond
//!    to themselves in `E'`);
//! 2. walk sibling sub-regions of the two regions in lockstep until the
//!    one containing `u` is found; if `E'` runs out of siblings first —
//!    the single-entry-multiple-exit case of the paper's Figure 3 — there
//!    is no match;
//! 3. if the sub-region heads took different branch outcomes, `u` cannot
//!    have executed in `E'` (no match); otherwise descend.
//!
//! [`Aligner::match_inst_memo`] answers the same query while remembering
//! the region correspondences its descents establish, so matching many
//! instances against one switched run walks each sub-region once.
//!
//! ```
//! use omislice_align::Aligner;
//! use omislice_analysis::ProgramAnalysis;
//! use omislice_interp::{run_traced, RunConfig, SwitchSpec};
//! use omislice_lang::{compile, StmtId};
//!
//! let program = compile(
//!     "global x = 0; fn main() { if input() > 0 { x = 1; } print(x); }",
//! )?;
//! let analysis = ProgramAnalysis::build(&program);
//! let config = RunConfig::with_inputs(vec![0]);
//! let orig = run_traced(&program, &analysis, &config);
//! let sw = run_traced(&program, &analysis, &config.switched(SwitchSpec::new(StmtId(0), 0)));
//!
//! let aligner = Aligner::new(&orig.trace, &sw.trace);
//! let p = orig.trace.instances_of(StmtId(0))[0];
//! let print_inst = orig.trace.instances_of(StmtId(2))[0];
//! // The print still executes in the switched run, at a shifted position.
//! let matched = aligner.match_inst(p, print_inst).unwrap();
//! assert_eq!(sw.trace.event(matched).stmt, StmtId(2));
//! # Ok::<(), omislice_lang::FrontendError>(())
//! ```

use omislice_trace::{DescentChain, DescentStep, InstId, RegionTree, Siblings, Trace};
use std::collections::HashMap;

/// Aligns an original trace against a switched re-execution of the same
/// program on the same input.
#[derive(Debug)]
pub struct Aligner<'a> {
    orig: &'a Trace,
    switched: &'a Trace,
    orig_regions: RegionTree<'a>,
    switched_regions: RegionTree<'a>,
}

/// The region correspondences [`Aligner::match_inst_memo`] has
/// established against one switched run: each original sub-region head
/// a descent reached, with its switched counterpart (`None` when the
/// switched run has none). Valid for one original trace, one switched
/// trace and one switch point.
#[derive(Debug, Default)]
pub struct MatchMemo {
    p: Option<InstId>,
    heads: HashMap<InstId, Option<InstId>>,
}

/// The sub-regions of the region headed by `head`, or the top-level
/// regions when `head` is the whole execution (`None`).
fn sub_regions<'a>(tree: &RegionTree<'a>, head: Option<InstId>) -> Siblings<'a> {
    match head {
        Some(h) => tree.children(h),
        None => tree.roots(),
    }
}

/// The walk [`Aligner::match_inst`] makes to match `target` of `orig`
/// against a re-execution switched at `p`, as the switched run can follow
/// it while it records: the same ascent from `p` to the deepest region
/// containing `target`, then each sub-region on the way down with its
/// position, statement and branch.
///
/// # Panics
///
/// Panics if `p` or `target` is not an instance of `orig`.
pub fn descent_chain(orig: &Trace, p: InstId, target: InstId) -> DescentChain {
    assert!(
        p.index() < orig.len() && target.index() < orig.len(),
        "switch point {p} and target {target} must be instances of the trace"
    );
    let decided_at_switch = DescentChain {
        switch: p,
        root: None,
        started: 0,
        steps: Vec::new(),
    };
    if target <= p {
        return decided_at_switch;
    }
    let tree = orig.regions();
    let mut root = tree.parent(p);
    while let Some(head) = root {
        if tree.in_region(head, target) {
            break;
        }
        root = tree.parent(head);
    }
    // The sub-regions of `root` holding `p` and `target`.
    let below_root = |mut x: InstId| {
        while tree.parent(x) != root {
            x = tree.parent(x).expect("root contains x");
        }
        x
    };
    let holds_p = below_root(p);
    if holds_p == below_root(target) {
        // Only `p` itself can hold both: `target` is guarded by the
        // branch the switch flips.
        return decided_at_switch;
    }
    let mut path = vec![target];
    while let Some(parent) = tree.parent(*path.last().expect("non-empty")) {
        if Some(parent) == root {
            break;
        }
        path.push(parent);
    }
    path.reverse();
    let position = |head: Option<InstId>, c: InstId| {
        sub_regions(&tree, head)
            .position(|k| k == c)
            .expect("c is a sub-region of head") as u32
    };
    let steps = path
        .iter()
        .enumerate()
        .map(|(level, &c)| DescentStep {
            position: position(level.checked_sub(1).map_or(root, |up| Some(path[up])), c),
            stmt: orig.columns().stmt_of(c),
            branch: if level + 1 < path.len() {
                orig.columns().branch_of(c)
            } else {
                None
            },
        })
        .collect();
    DescentChain {
        switch: p,
        root,
        started: position(root, holds_p) + 1,
        steps,
    }
}

impl<'a> Aligner<'a> {
    /// Aligns `switched` against `orig`. Each trace's region tree is one
    /// of its lazily built columns ([`Trace::regions`]), so aligning one
    /// original trace against many switched runs builds the original's
    /// once.
    pub fn new(orig: &'a Trace, switched: &'a Trace) -> Self {
        Aligner {
            orig,
            switched,
            orig_regions: orig.regions(),
            switched_regions: switched.regions(),
        }
    }

    /// `Match(p, u, p')` — finds the instance of the switched trace
    /// corresponding to instance `u` of the original trace, where `p` is
    /// the switched predicate instance (which, by the common-prefix
    /// property, has the same timestamp in both traces).
    ///
    /// Returns `None` when `u` has no counterpart — the defining signal
    /// for implicit dependence (Definition 2, case (i)).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a valid instance of both traces, if the two
    /// traces disagree at `p` (i.e. they were not produced by switching
    /// `p` on the same program and input), or if `u` is not an instance
    /// of the original trace. The `u` check matters: `None` is the
    /// defining evidence of implicit dependence, so an invalid argument
    /// must fail loudly instead of masquerading as "no counterpart".
    pub fn match_inst(&self, p: InstId, u: InstId) -> Option<InstId> {
        self.match_inst_memo(&mut MatchMemo::default(), p, u)
    }

    /// [`Aligner::match_inst`] for many uses against one switched run:
    /// `memo` keeps the switched counterpart of every sub-region head a
    /// descent reaches. Below the region where the descent starts, a
    /// head's counterpart does not depend on which use the descent looks
    /// for, so a later match walks up from `u` only to the nearest head
    /// already matched and descends from there. A loop's iterations nest
    /// in the region tree, so one descent can be as deep as the loop is
    /// long; with the memo, matching every use of a run walks each
    /// sub-region on their paths once. Sharing `memo` never changes an
    /// answer: [`Aligner::match_inst`] is this with an empty memo.
    ///
    /// # Panics
    ///
    /// As [`Aligner::match_inst`], and if `memo` was filled for another
    /// switch point.
    pub fn match_inst_memo(&self, memo: &mut MatchMemo, p: InstId, u: InstId) -> Option<InstId> {
        self.check_query(p, u);
        assert_eq!(
            *memo.p.get_or_insert(p),
            p,
            "match memo belongs to another switch point"
        );
        // Instances before (or at) the switch point are in the common
        // prefix and correspond to themselves.
        if u <= p {
            return Some(u);
        }
        // Ascend from p until the region contains u. Ancestors of p are
        // in the common prefix, so the corresponding region heads in the
        // switched trace carry the same instance ids. Each containment
        // test is O(1) via the region tree's subtree sizes, so the ascent
        // costs only the nesting depth of p.
        let mut region = self.orig_regions.parent(p);
        while let Some(head) = region {
            if self.orig_regions.in_region(head, u) {
                break;
            }
            region = self.orig_regions.parent(head);
        }
        // Walk up from u to the region or the nearest matched head; the
        // descent resumes from there (`None`: nothing below it matches).
        let mut path = Vec::new();
        let mut x = u;
        let mut head = loop {
            if let Some(&known) = memo.heads.get(&x) {
                if x == u {
                    return known;
                }
                break self.descends(x, known);
            }
            path.push(x);
            let parent = self.orig_regions.parent(x);
            if parent == region {
                break Some((region, region));
            }
            x = parent.expect("the enclosing region contains u");
        };
        // `MatchInsideRegion(R, u, R')`: descend back down the path, one
        // sub-region per step.
        while let Some((r, r2)) = head {
            let c = path.pop().expect("the descent returns at u");
            // The paper's lockstep walk: the position of u's sub-region
            // among r's, then the sub-region at that position among r''s.
            // If the switched region has fewer sub-regions (break/return
            // under the switched branch, or a loop that stopped iterating
            // — Figure 3), there is no match. Corresponding sub-regions
            // must be instances of the same statement for the positional
            // correspondence to be meaningful; a mismatch means control
            // flow diverged.
            let i = sub_regions(&self.orig_regions, r)
                .position(|k| k == c)
                .expect("the path runs through r's sub-regions");
            let c2 = sub_regions(&self.switched_regions, r2)
                .nth(i)
                .filter(|&c2| self.orig.event(c).stmt == self.switched.event(c2).stmt);
            memo.heads.insert(c, c2);
            if c == u {
                return c2;
            }
            head = self.descends(c, c2);
        }
        // The rest of the path lies below a head that has no counterpart
        // or took the other branch: none of it ran in the switched run.
        for c in path {
            memo.heads.insert(c, None);
        }
        None
    }

    /// The region pair a descent continues into below `c`, whose
    /// counterpart is `c2`. Branch(r) != Branch(r'): switching p flipped
    /// a predicate everything below `c` is control dependent on, so none
    /// of it executed in E'.
    fn descends(&self, c: InstId, c2: Option<InstId>) -> Option<(Option<InstId>, Option<InstId>)> {
        let c2 = c2.filter(|&c2| self.orig.event(c).branch == self.switched.event(c2).branch)?;
        Some((Some(c), Some(c2)))
    }

    /// The preconditions every matcher enforces.
    fn check_query(&self, p: InstId, u: InstId) {
        assert!(
            p.index() < self.orig.len() && p.index() < self.switched.len(),
            "switch point {p} must exist in both traces"
        );
        assert_eq!(
            self.orig.event(p).stmt,
            self.switched.event(p).stmt,
            "traces disagree at the switch point; not a switched re-execution"
        );
        assert!(
            u.index() < self.orig.len(),
            "use {u} is not an instance of the original trace"
        );
    }

    /// Convenience: matches `u` and returns the corresponding event of the
    /// switched trace.
    pub fn match_event(&self, p: InstId, u: InstId) -> Option<omislice_trace::EventRef<'_>> {
        self.match_inst(p, u).map(|m| self.switched.event(m))
    }

    /// Naive containment test: walks `x`'s ancestor chain instead of
    /// using the subtree sizes. O(depth).
    fn naive_contains(&self, head: InstId, x: InstId) -> bool {
        let mut cur = Some(x);
        while let Some(i) = cur {
            if i == head {
                return true;
            }
            cur = self.orig_regions.parent(i);
        }
        false
    }

    /// Reference implementation of `Match(p, u, p')` — the paper's
    /// Algorithm 1 transcribed literally: a linear lockstep walk over
    /// sibling regions with an ancestor-chain containment test,
    /// O(n·depth) against [`Aligner::match_inst`]'s O(depth·siblings).
    ///
    /// Exists solely as the differential-testing oracle for the
    /// memoized matcher (the `diffcheck` harness asserts agreement on
    /// every generated program); not part of the public API.
    ///
    /// # Panics
    ///
    /// Same preconditions as [`Aligner::match_inst`].
    #[doc(hidden)]
    pub fn match_inst_naive(&self, p: InstId, u: InstId) -> Option<InstId> {
        self.check_query(p, u);
        if u <= p {
            return Some(u);
        }
        let mut region = self.orig_regions.parent(p);
        while let Some(head) = region {
            if self.naive_contains(head, u) {
                break;
            }
            region = self.orig_regions.parent(head);
        }
        self.match_inside_naive(region, region, u)
    }

    /// `MatchInsideRegion(R, u, R')` as the paper writes it: advance both
    /// sibling cursors in lockstep until the sub-region containing `u`
    /// is found or the switched region runs out of siblings.
    fn match_inside_naive(
        &self,
        r: Option<InstId>,
        r2: Option<InstId>,
        u: InstId,
    ) -> Option<InstId> {
        let mut kids2 = sub_regions(&self.switched_regions, r2);
        for c in sub_regions(&self.orig_regions, r) {
            let c2 = kids2.next();
            if !self.naive_contains(c, u) {
                continue;
            }
            let c2 = c2?;
            if self.orig.event(c).stmt != self.switched.event(c2).stmt {
                return None;
            }
            if c == u {
                return Some(c2);
            }
            if self.orig.event(c).branch != self.switched.event(c2).branch {
                return None;
            }
            return self.match_inside_naive(Some(c), Some(c2), u);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_analysis::ProgramAnalysis;
    use omislice_interp::{run_traced, RunConfig, SwitchSpec, TracedRun};
    use omislice_lang::{compile, Program, StmtId};
    use omislice_trace::Value;

    fn setup(src: &str) -> (Program, ProgramAnalysis) {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        (p, a)
    }

    fn run_pair(src: &str, inputs: Vec<i64>, pred: u32, occurrence: u32) -> (TracedRun, TracedRun) {
        let (p, a) = setup(src);
        let cfg = RunConfig::with_inputs(inputs);
        let orig = run_traced(&p, &a, &cfg);
        let sw = run_traced(
            &p,
            &a,
            &cfg.switched(SwitchSpec::new(StmtId(pred), occurrence)),
        );
        assert!(sw.switched.is_some(), "switch must land");
        (orig, sw)
    }

    /// The paper's Figure 2 program, transcribed. Statement numbering:
    /// S0 `if p1`, S1 `t = 1`, S2 `x = 7`, S3 `while i < t`, S4 body noop,
    /// S5 `if c1`, S6 noop, S7 `i = i + 1`, S8 `if 1 == 1`, S9 `if c2 == 0`,
    /// S10 `print(x)` (the use of x at the paper's line 15), S11 noop.
    const FIGURE2: &str = "\
        global i = 0; global t = 0; global x = 0;\
        global p1 = 0; global c1 = 0; global c2 = 0;\
        fn main() {\
            if p1 == 1 { t = 1; x = 7; }\
            while i < t {\
                x = x;\
                if c1 == 1 { x = x; }\
                i = i + 1;\
            }\
            if 1 == 1 {\
                if c2 == 0 { print(x); }\
                i = i;\
            }\
        }";

    #[test]
    fn figure2_use_is_matched_in_switched_run() {
        // Execution (1) vs (2): switch P; the use of x (our S10) is still
        // executed and must be matched even though the loop body ran in
        // between.
        let (orig, sw) = run_pair(FIGURE2, vec![], 0, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(0))[0];
        let u = orig.trace.instances_of(StmtId(10))[0];
        let m = aligner.match_inst(p, u).expect("S10 executes in both");
        assert_eq!(sw.trace.event(m).stmt, StmtId(10));
        // The original prints x = 0; the switched run prints x = 7,
        // exposing the implicit dependence.
        assert_eq!(orig.trace.event(u).value, Some(Value::Int(0)));
        assert_eq!(sw.trace.event(m).value, Some(Value::Int(7)));
    }

    /// Figure 2 execution (3): statement 3 is `t = C2 = 1`, so switching P
    /// makes the `if c2 == 0` take the false branch and the use of x is
    /// never executed — the matcher must report "no match" rather than
    /// aligning some other instance.
    const FIGURE2_VARIANT: &str = "\
        global i = 0; global t = 0; global x = 0;\
        global p1 = 0; global c1 = 0; global c2 = 0;\
        fn main() {\
            if p1 == 1 { t = 1; c2 = 1; x = 7; }\
            while i < t {\
                x = x;\
                if c1 == 1 { x = x; }\
                i = i + 1;\
            }\
            if 1 == 1 {\
                if c2 == 0 { print(x); }\
                i = i;\
            }\
        }";

    #[test]
    fn figure2_variant_reports_no_match() {
        let (orig, sw) = run_pair(FIGURE2_VARIANT, vec![], 0, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(0))[0];
        let u = orig.trace.instances_of(StmtId(11))[0]; // print(x)
        assert!(orig.trace.event(u).value.is_some());
        assert_eq!(aligner.match_inst(p, u), None);
        // But the statement *after* the inner if still matches (S12).
        let after = orig.trace.instances_of(StmtId(12))[0];
        let m = aligner.match_inst(p, after).expect("S12 executes in both");
        assert_eq!(sw.trace.event(m).stmt, StmtId(12));
    }

    /// Figure 3: a `break` under the switched predicate exits the loop
    /// early, so the use inside the loop has no counterpart — detected by
    /// running out of sibling regions.
    #[test]
    fn figure3_break_exits_loop_no_match() {
        // S0 `if p1` S1 `c0 = 1` S2 `while` S3 `if c0` S4 `break`
        // S5 `if c1` S6 `print(x)` S7 `i = i + 1` S8 trailing print.
        let src = "\
            global i = 0; global x = 5; global p1 = 0; global c0 = 0; global c1 = 1;\
            fn main() {\
                if p1 == 1 { c0 = 1; }\
                while i < 3 {\
                    if c0 == 1 { break; }\
                    if c1 == 1 { print(x); }\
                    i = i + 1;\
                }\
                print(9);\
            }";
        let (orig, sw) = run_pair(src, vec![], 0, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(0))[0];
        // The use of x in the first iteration has no match: the switched
        // run breaks immediately.
        let u = orig.trace.instances_of(StmtId(6))[0];
        assert_eq!(aligner.match_inst(p, u), None);
        // The statement after the loop still matches.
        let after = orig.trace.instances_of(StmtId(8))[0];
        assert!(aligner.match_inst(p, after).is_some());
    }

    #[test]
    fn prefix_instances_match_themselves() {
        let (orig, sw) = run_pair(FIGURE2, vec![], 0, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(0))[0];
        assert_eq!(aligner.match_inst(p, p), Some(p));
        let _ = &sw;
    }

    #[test]
    fn instance_under_switched_predicate_does_not_match() {
        // u control-dependent on p with the original branch: switching p
        // makes it unreachable.
        let src = "global x = 0; fn main() { if input() > 0 { x = 1; print(x); } print(9); }";
        let (orig, sw) = run_pair(src, vec![5], 0, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(0))[0];
        let inner = orig.trace.instances_of(StmtId(2))[0];
        assert_eq!(aligner.match_inst(p, inner), None);
        let after = orig.trace.instances_of(StmtId(3))[0];
        assert!(aligner.match_inst(p, after).is_some());
        let _ = &sw;
    }

    #[test]
    fn later_loop_iterations_match_when_unaffected() {
        // Switch an if *inside* iteration 1 of a loop; iteration 2's
        // statements still match, in the same iteration.
        let src = "\
            global s = 0;\
            fn main() {\
                let i = 0;\
                while i < 3 {\
                    if i == 0 { s = s + 10; }\
                    s = s + 1;\
                    i = i + 1;\
                }\
                print(s);\
            }";
        let (orig, sw) = run_pair(src, vec![], 2, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(2))[0];
        let u = orig.trace.instances_of(StmtId(4))[1];
        let m = aligner.match_inst(p, u).expect("later iterations align");
        assert_eq!(sw.trace.event(m).stmt, StmtId(4));
        assert_eq!(
            sw.trace.occurrence_index(m),
            1,
            "must match the same iteration"
        );
    }

    #[test]
    fn loop_exit_by_switch_unmatches_later_iterations() {
        // Switching the while predicate at occurrence 1 ends the loop, so
        // iteration-2 statements have no match.
        let src = "\
            fn main() {\
                let i = 0;\
                while i < 3 { i = i + 1; }\
                print(i);\
            }";
        let (orig, sw) = run_pair(src, vec![], 1, 1);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(1))[1];
        let u = orig.trace.instances_of(StmtId(2))[1];
        assert_eq!(aligner.match_inst(p, u), None);
        // The final print still matches, observing a different value.
        let out = orig.trace.instances_of(StmtId(3))[0];
        let m = aligner.match_inst(p, out).unwrap();
        assert_eq!(sw.trace.event(m).stmt, StmtId(3));
        assert_eq!(sw.trace.event(m).value, Some(Value::Int(1)));
        assert_eq!(orig.trace.event(out).value, Some(Value::Int(3)));
    }

    #[test]
    fn matching_across_call_boundaries() {
        let src = "\
            global x = 0;\
            fn report() { print(x); }\
            fn main() {\
                if input() > 0 { x = 1; }\
                report();\
            }";
        let (orig, sw) = run_pair(src, vec![0], 1, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(1))[0];
        let u = orig.trace.instances_of(StmtId(0))[0]; // print inside report
        let m = aligner.match_inst(p, u).expect("callee statements align");
        assert_eq!(sw.trace.event(m).stmt, StmtId(0));
        assert_eq!(sw.trace.event(m).value, Some(Value::Int(1)));
    }

    /// Found by the differential harness (diffcheck): `match_inst` used
    /// to return `None` for a `u` beyond the original trace instead of
    /// enforcing its documented precondition — indistinguishable from
    /// the "no counterpart in E'" signal that Definition 2 case (i)
    /// treats as evidence of implicit dependence.
    #[test]
    #[should_panic(expected = "is not an instance of the original trace")]
    fn fuzz_regress_match_inst_rejects_out_of_range_use() {
        let src = "fn main() { if input() > 0 { print(1); print(2); } print(9); }";
        let (orig, sw) = run_pair(src, vec![0], 0, 0);
        assert!(
            sw.trace.len() > orig.trace.len(),
            "switched run must be longer for the probe to be out of range"
        );
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(0))[0];
        let bogus = InstId(orig.trace.len() as u32);
        let _ = aligner.match_inst(p, bogus);
    }

    #[test]
    #[should_panic(expected = "is not an instance of the original trace")]
    fn naive_oracle_enforces_the_same_precondition() {
        let src = "fn main() { if input() > 0 { print(1); print(2); } print(9); }";
        let (orig, sw) = run_pair(src, vec![0], 0, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(0))[0];
        let _ = aligner.match_inst_naive(p, InstId(orig.trace.len() as u32));
    }

    /// The indexed matcher and the naive Algorithm 1 transcription agree
    /// on every (p, u) pair of the paper's figures.
    #[test]
    fn naive_oracle_agrees_with_indexed_matcher() {
        for (src, inputs, pred, occ) in [
            (FIGURE2, vec![], 0u32, 0u32),
            (FIGURE2_VARIANT, vec![], 0, 0),
            (
                "fn main() { let i = 0; while i < 3 { i = i + 1; } print(i); }",
                vec![],
                1,
                1,
            ),
        ] {
            let (orig, sw) = run_pair(src, inputs, pred, occ);
            let aligner = Aligner::new(&orig.trace, &sw.trace);
            let p = orig.trace.instances_of(StmtId(pred))[occ as usize];
            for i in 0..orig.trace.len() {
                let u = InstId(i as u32);
                assert_eq!(
                    aligner.match_inst(p, u),
                    aligner.match_inst_naive(p, u),
                    "{src}: diverged at u={u}"
                );
            }
        }
    }

    /// One memo shared across every use gives the naive oracle's answer
    /// on every (p, u) pair, whichever order the uses come in, for every
    /// switch point of a nested loop (where iterations nest and descents
    /// are deep), a loop exit by switch, and the paper's figures.
    #[test]
    fn memoized_matcher_agrees_with_naive_oracle_in_any_order() {
        for (src, inputs) in [
            (FIGURE2, vec![]),
            (FIGURE2_VARIANT, vec![]),
            (
                "global s = 0; fn main() { let i = 0; while i < 4 { let j = 0;\
                 while j < i { if j == 1 { s = s + 10; } s = s + j; j = j + 1; }\
                 if s > 3 { print(s); } i = i + 1; } print(s); }",
                vec![],
            ),
            (
                "fn main() { let i = 0; while i < 3 { i = i + 1; } print(i); }",
                vec![],
            ),
        ] {
            let (program, analysis) = setup(src);
            let cfg = RunConfig::with_inputs(inputs);
            let orig = run_traced(&program, &analysis, &cfg);
            for p in orig.trace.insts() {
                if !orig.trace.event(p).is_predicate() {
                    continue;
                }
                let spec = SwitchSpec::new(
                    orig.trace.event(p).stmt,
                    orig.trace.occurrence_index(p) as u32,
                );
                let sw = run_traced(&program, &analysis, &cfg.switched(spec));
                if !sw.trace.termination().is_normal() {
                    continue;
                }
                let aligner = Aligner::new(&orig.trace, &sw.trace);
                let uses: Vec<InstId> = orig.trace.insts().collect();
                let mut interleaved: Vec<InstId> = uses.iter().copied().step_by(2).collect();
                interleaved.extend(uses.iter().copied().skip(1).step_by(2).rev());
                for order in [
                    uses.clone(),
                    uses.iter().rev().copied().collect(),
                    interleaved,
                ] {
                    let mut memo = MatchMemo::default();
                    for &u in &order {
                        assert_eq!(
                            aligner.match_inst_memo(&mut memo, p, u),
                            aligner.match_inst_naive(p, u),
                            "{src}: diverged at p={p}, u={u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "match memo belongs to another switch point")]
    fn match_memo_is_tied_to_one_switch_point() {
        let src = "fn main() { let i = 0; while i < 3 { i = i + 1; } print(i); }";
        let (orig, sw) = run_pair(src, vec![], 1, 1);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let whiles = orig.trace.instances_of(StmtId(1));
        let mut memo = MatchMemo::default();
        let _ = aligner.match_inst_memo(&mut memo, whiles[1], whiles[1]);
        let _ = aligner.match_inst_memo(&mut memo, whiles[0], whiles[0]);
    }

    #[test]
    fn match_event_convenience() {
        let (orig, sw) = run_pair(FIGURE2, vec![], 0, 0);
        let aligner = Aligner::new(&orig.trace, &sw.trace);
        let p = orig.trace.instances_of(StmtId(0))[0];
        let u = orig.trace.instances_of(StmtId(10))[0];
        let ev = aligner.match_event(p, u).unwrap();
        assert_eq!(ev.stmt, StmtId(10));
        let _ = &sw;
    }
}
