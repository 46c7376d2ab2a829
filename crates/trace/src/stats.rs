//! Summary statistics over a trace — the quick health check a debugging
//! session starts with (`omislice trace --stats` in the CLI) — plus the
//! per-run instrumentation of the verification engine
//! ([`VerificationStats`], `omislice locate --stats`).

use crate::trace::Trace;
use omislice_lang::StmtId;
use std::fmt;
use std::time::Duration;

/// Aggregate counts for one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total statement instances.
    pub instances: usize,
    /// Distinct statements executed.
    pub unique_stmts: usize,
    /// Predicate instances (branch evaluations).
    pub predicate_instances: usize,
    /// Total dynamic data-dependence edges.
    pub data_edges: usize,
    /// Instances with a dynamic control-dependence parent.
    pub control_edges: usize,
    /// Observable outputs emitted.
    pub outputs: usize,
    /// Deepest call depth reached.
    pub max_call_depth: u32,
    /// The most executed statement and its instance count.
    pub hottest: Option<(StmtId, usize)>,
}

impl TraceStats {
    /// Computes statistics for `trace`.
    pub fn compute(trace: &Trace) -> Self {
        // Statement ids are small and dense, so per-statement counts live
        // in a plain vector indexed by id instead of a hash map.
        let mut per_stmt: Vec<usize> = Vec::new();
        let mut predicate_instances = 0;
        let mut data_edges = 0;
        let mut control_edges = 0;
        let mut max_call_depth = 0;
        for ev in trace.iter_events() {
            let s = ev.stmt.0 as usize;
            if s >= per_stmt.len() {
                per_stmt.resize(s + 1, 0);
            }
            per_stmt[s] += 1;
            if ev.is_predicate() {
                predicate_instances += 1;
            }
            data_edges += ev.data_deps.len();
            if ev.cd_parent.is_some() {
                control_edges += 1;
            }
            max_call_depth = max_call_depth.max(ev.call_depth);
        }
        // Scanning in id order makes strict `>` keep the lowest statement
        // id among equally hot ones (the documented tie-break).
        let mut hottest: Option<(StmtId, usize)> = None;
        for (s, &n) in per_stmt.iter().enumerate() {
            if n > 0 && hottest.is_none_or(|(_, best)| n > best) {
                hottest = Some((StmtId(s as u32), n));
            }
        }
        TraceStats {
            instances: trace.len(),
            unique_stmts: per_stmt.iter().filter(|&&n| n > 0).count(),
            predicate_instances,
            data_edges,
            control_edges,
            outputs: trace.outputs().len(),
            max_call_depth,
            hottest,
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instances        : {}", self.instances)?;
        writeln!(f, "unique statements: {}", self.unique_stmts)?;
        writeln!(f, "predicates       : {}", self.predicate_instances)?;
        writeln!(f, "data edges       : {}", self.data_edges)?;
        writeln!(f, "control edges    : {}", self.control_edges)?;
        writeln!(f, "outputs          : {}", self.outputs)?;
        writeln!(f, "max call depth   : {}", self.max_call_depth)?;
        match self.hottest {
            Some((s, n)) => writeln!(f, "hottest statement: {s} ({n} instances)"),
            None => writeln!(f, "hottest statement: -"),
        }
    }
}

/// Instrumentation counters for one verification engine run: how many
/// switched re-executions ran, how much work checkpoint resumption and
/// the caches avoided, and where the wall time went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerificationStats {
    /// `VerifyDep` invocations that missed the verdict cache.
    pub verifications: usize,
    /// `VerifyDep` invocations answered from the verdict cache.
    pub cache_hits: usize,
    /// Switched executions performed (resumed + from-scratch); requests
    /// sharing a switch spec share one execution.
    pub reexecutions: usize,
    /// Switched executions that resumed from a checkpoint.
    pub resumed_runs: usize,
    /// Switched executions that ran from scratch (no checkpoint, a
    /// non-resumable one, or resumption disabled).
    pub scratch_runs: usize,
    /// Trace events *not* re-executed thanks to resumption (the summed
    /// prefix lengths of the resumed runs).
    pub steps_saved: usize,
    /// Switched executions that completed normally with the switch
    /// landed.
    pub completed_runs: usize,
    /// Switched executions cut off by the full step budget (the paper's
    /// expired timer) or by an injected budget fault.
    pub budget_exhausted_runs: usize,
    /// Switched executions that crashed (structured runtime error or an
    /// isolated panic).
    pub crashed_runs: usize,
    /// Switched executions that terminated normally without the switch
    /// ever landing.
    pub switch_not_landed_runs: usize,
    /// Checkpoints rejected by validation (or whose resumption failed /
    /// panicked); each one fell back to from-scratch execution.
    pub invalid_checkpoints: usize,
    /// Panics caught at the per-candidate isolation boundary.
    pub panics_isolated: usize,
    /// Candidates cancelled by an expired cooperative deadline before
    /// their switched run was dispatched (verdict: NotId, the paper's
    /// expired-timer rule applied at the batch level).
    pub deadline_cancelled: usize,
    /// `input()` calls that ran past the end of the input stream (and
    /// yielded 0) across all switched executions.
    pub input_underflows: usize,
    /// Switched runs answered from the persistent cross-iteration memo
    /// without executing anything.
    pub memo_hits: usize,
    /// Entries (runs or checkpoints) evicted from the persistent memo to
    /// stay inside its byte budget.
    pub memo_evictions: usize,
    /// High-water mark of bytes held by memoized checkpoints (a gauge,
    /// not a counter: `absorb` takes the max).
    pub checkpoint_bytes: usize,
    /// Checkpoint captures declined by the capture break-even (the gap
    /// to the best available donor was under the capture threshold).
    pub captures_skipped: usize,
    /// Checkpoints captured inline by spine runs on their way to the
    /// switch.
    pub inline_captures: usize,
    /// Wall time spent executing switched runs (and building their
    /// region trees).
    pub execution_wall: Duration,
    /// Wall time spent in checkpoint captures outside a switched run.
    /// The trie captures inline on its spine run, whose time counts in
    /// `execution_wall`, so the verifier leaves this at zero and no
    /// report prints it; it stays for omibench's
    /// `omission.verify_capture_ms`, its only reader.
    pub capture_wall: Duration,
    /// Wall time spent aligning and judging verdicts.
    pub verdict_wall: Duration,
}

impl VerificationStats {
    /// Fraction of switched executions that resumed from a checkpoint,
    /// in `[0, 1]`; `0` when nothing ran.
    pub fn resume_ratio(&self) -> f64 {
        if self.reexecutions == 0 {
            0.0
        } else {
            self.resumed_runs as f64 / self.reexecutions as f64
        }
    }

    /// Folds another run's counters into this one (for aggregating over
    /// several faults or phases).
    pub fn absorb(&mut self, other: &VerificationStats) {
        self.verifications += other.verifications;
        self.cache_hits += other.cache_hits;
        self.reexecutions += other.reexecutions;
        self.resumed_runs += other.resumed_runs;
        self.scratch_runs += other.scratch_runs;
        self.steps_saved += other.steps_saved;
        self.completed_runs += other.completed_runs;
        self.budget_exhausted_runs += other.budget_exhausted_runs;
        self.crashed_runs += other.crashed_runs;
        self.switch_not_landed_runs += other.switch_not_landed_runs;
        self.invalid_checkpoints += other.invalid_checkpoints;
        self.panics_isolated += other.panics_isolated;
        self.deadline_cancelled += other.deadline_cancelled;
        self.input_underflows += other.input_underflows;
        self.memo_hits += other.memo_hits;
        self.memo_evictions += other.memo_evictions;
        self.checkpoint_bytes = self.checkpoint_bytes.max(other.checkpoint_bytes);
        self.captures_skipped += other.captures_skipped;
        self.inline_captures += other.inline_captures;
        self.execution_wall += other.execution_wall;
        self.capture_wall += other.capture_wall;
        self.verdict_wall += other.verdict_wall;
    }
}

impl fmt::Display for VerificationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "verifications    : {}", self.verifications)?;
        writeln!(f, "verdict cache hit: {}", self.cache_hits)?;
        writeln!(
            f,
            "re-executions    : {} ({} resumed, {} from scratch)",
            self.reexecutions, self.resumed_runs, self.scratch_runs
        )?;
        writeln!(
            f,
            "captures         : {} inline, {} skipped",
            self.inline_captures, self.captures_skipped
        )?;
        writeln!(f, "steps saved      : {}", self.steps_saved)?;
        writeln!(
            f,
            "memo             : {} hits, {} evictions, {} checkpoint bytes",
            self.memo_hits, self.memo_evictions, self.checkpoint_bytes
        )?;
        writeln!(
            f,
            "run outcomes     : {} completed, {} budget-exhausted, {} crashed, {} switch-not-landed",
            self.completed_runs,
            self.budget_exhausted_runs,
            self.crashed_runs,
            self.switch_not_landed_runs
        )?;
        writeln!(
            f,
            "fault isolation  : {} invalid checkpoints, {} panics isolated",
            self.invalid_checkpoints, self.panics_isolated
        )?;
        writeln!(f, "deadline cancels : {}", self.deadline_cancelled)?;
        writeln!(f, "input underflows : {}", self.input_underflows)?;
        writeln!(
            f,
            "wall: execute {:?}, verdicts {:?}",
            self.execution_wall, self.verdict_wall
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, InstId, OutputRecord};
    use crate::trace::Termination;
    use crate::value::Value;

    fn sample() -> Trace {
        let mut guard = Event::new(StmtId(0));
        guard.branch = Some(true);
        let mut a = Event::new(StmtId(1));
        a.cd_parent = Some(InstId(0));
        a.data_deps = vec![InstId(0)];
        a.value = Some(Value::Int(1));
        let mut b = Event::new(StmtId(1));
        b.cd_parent = Some(InstId(0));
        b.data_deps = vec![InstId(0), InstId(1)];
        b.call_depth = 2;
        Trace::from_parts(
            vec![guard, a, b],
            vec![OutputRecord {
                inst: InstId(1),
                value: Value::Int(1),
            }],
            Termination::Normal,
        )
    }

    #[test]
    fn counts_are_accurate() {
        let stats = TraceStats::compute(&sample());
        assert_eq!(stats.instances, 3);
        assert_eq!(stats.unique_stmts, 2);
        assert_eq!(stats.predicate_instances, 1);
        assert_eq!(stats.data_edges, 3);
        assert_eq!(stats.control_edges, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.max_call_depth, 2);
        assert_eq!(stats.hottest, Some((StmtId(1), 2)));
    }

    #[test]
    fn empty_trace_stats() {
        let stats = TraceStats::compute(&Trace::from_parts(vec![], vec![], Termination::Normal));
        assert_eq!(stats.instances, 0);
        assert_eq!(stats.hottest, None);
        assert!(stats.to_string().contains("hottest statement: -"));
    }

    #[test]
    fn display_lists_every_field() {
        let text = TraceStats::compute(&sample()).to_string();
        for needle in ["instances", "predicates", "data edges", "hottest"] {
            assert!(text.contains(needle), "{text}");
        }
    }

    #[test]
    fn verification_stats_aggregate_and_ratio() {
        let mut a = VerificationStats {
            verifications: 3,
            cache_hits: 1,
            reexecutions: 2,
            resumed_runs: 1,
            scratch_runs: 1,
            steps_saved: 40,
            completed_runs: 1,
            budget_exhausted_runs: 1,
            crashed_runs: 2,
            switch_not_landed_runs: 3,
            invalid_checkpoints: 1,
            panics_isolated: 1,
            deadline_cancelled: 1,
            input_underflows: 5,
            memo_hits: 2,
            memo_evictions: 1,
            checkpoint_bytes: 4096,
            captures_skipped: 3,
            inline_captures: 2,
            execution_wall: Duration::from_millis(2),
            capture_wall: Duration::from_millis(1),
            verdict_wall: Duration::from_millis(3),
        };
        assert_eq!(a.resume_ratio(), 0.5);
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.verifications, 6);
        assert_eq!(a.reexecutions, 4);
        assert_eq!(a.steps_saved, 80);
        assert_eq!(a.completed_runs, 2);
        assert_eq!(a.budget_exhausted_runs, 2);
        assert_eq!(a.crashed_runs, 4);
        assert_eq!(a.switch_not_landed_runs, 6);
        assert_eq!(a.invalid_checkpoints, 2);
        assert_eq!(a.panics_isolated, 2);
        assert_eq!(a.deadline_cancelled, 2);
        assert_eq!(a.input_underflows, 10);
        assert_eq!(a.memo_hits, 4);
        assert_eq!(a.memo_evictions, 2);
        assert_eq!(a.checkpoint_bytes, 4096, "gauge takes the max, not the sum");
        assert_eq!(a.captures_skipped, 6);
        assert_eq!(a.inline_captures, 4);
        assert_eq!(a.execution_wall, Duration::from_millis(4));
        let text = a.to_string();
        for needle in [
            "re-executions",
            "resumed",
            "steps saved",
            "captures",
            "run outcomes",
            "fault isolation",
            "input underflows",
            "memo",
            "deadline cancels",
        ] {
            assert!(text.contains(needle), "{text}");
        }
        assert!(
            text.contains("fault isolation  : 2 invalid checkpoints, 2 panics isolated\n"),
            "{text}"
        );
        assert_eq!(VerificationStats::default().resume_ratio(), 0.0);
    }
}
