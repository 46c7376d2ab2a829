//! Persistent cross-iteration verification memo.
//!
//! [`VerifyMemo`] holds the batch verifier's switched runs and
//! checkpoints — not its verdicts, which each [`crate::Verifier`] caches
//! for itself — in a shared, size-bounded LRU keyed by a *configuration
//! fingerprint*: program source, inputs, step budget, and the fault
//! plan's statement entry. Locate iteration N+1 reuses the
//! switched runs iteration N computed, corpus jobs reuse each other's,
//! and an entry is reused exactly when the switched execution it caches
//! would be re-derived byte-identically, never across configurations
//! that could disagree.
//!
//! ## What is (and is not) safe to share
//!
//! A switched run is fully determined by the fingerprint plus the switch
//! spec: thread count, resume mode, capture plan and deadline never
//! change its bytes (resumed and from-scratch runs are byte-identical,
//! and runs are computed outside any deadline-dependent path). Those
//! knobs are therefore deliberately *excluded* from the key, which is
//! what makes cross-job and cross-request reuse sound. Entries produced
//! by a candidate the deadline *cancelled* are synthetic expired-timer
//! verdicts, not executions — the verifier keeps those in its per-batch
//! pinned view and never inserts them here.
//!
//! ## Eviction
//!
//! One LRU clock spans runs and checkpoints; when the byte budget is
//! exceeded, least-recently-touched *runs* are reclaimed first, and
//! checkpoints only once no runs remain (a checkpoint is kilobytes that
//! spares a prefix replay for every resume downstream of it; a run is
//! megabytes that spares one re-execution). Sizes come from
//! deterministic element counts ([`Checkpoint::approx_bytes`], columnar
//! trace bytes), never from allocator state, so a single-verifier
//! eviction sequence replays identically run to run.

use omislice_interp::{Checkpoint, RunConfig, SwitchSpec};
use omislice_lang::printer::print_program;
use omislice_lang::Program;
use omislice_trace::{Fnv1a, RunOutcome, Trace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default byte budget: generous for one (program, input) working set,
/// small enough that a fleet of corpus jobs sharing one memo stays
/// bounded.
pub const DEFAULT_MEMO_CAPACITY: usize = 64 * 1024 * 1024;

/// A memoized switched execution: the run's trace, its region tree
/// built (`None` when the switch never landed), and how it ended.
pub(crate) type RunEntry = (Option<Arc<Trace>>, RunOutcome);

struct Entry<T> {
    value: T,
    bytes: usize,
    tick: u64,
}

#[derive(Default)]
struct Inner {
    runs: HashMap<(u64, SwitchSpec), Entry<RunEntry>>,
    checkpoints: HashMap<(u64, SwitchSpec), Entry<Arc<Checkpoint>>>,
    tick: u64,
    run_bytes: usize,
    checkpoint_bytes: usize,
    evictions: u64,
}

/// Size-bounded LRU over switched runs and checkpoints, shared across
/// locate iterations (one verifier), verifiers (one session), and
/// corpus/fleet jobs (one process) via `Arc`.
pub struct VerifyMemo {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for VerifyMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyMemo")
            .field("capacity", &self.capacity)
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// A point-in-time view of the memo's occupancy, surfaced through
/// `--stats` and `--metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoSnapshot {
    /// Bytes held by memoized switched runs.
    pub run_bytes: usize,
    /// Bytes held by memoized checkpoints (the `checkpoint.bytes` gauge).
    pub checkpoint_bytes: usize,
    /// Entries evicted since the memo was created.
    pub evictions: u64,
    /// Live run entries.
    pub runs: usize,
    /// Live checkpoint entries.
    pub checkpoints: usize,
}

impl VerifyMemo {
    /// A memo bounded to `capacity` bytes (counting both runs and
    /// checkpoints; see [`DEFAULT_MEMO_CAPACITY`]).
    pub fn new(capacity: usize) -> Self {
        VerifyMemo {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A shareable memo with the default capacity.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new(DEFAULT_MEMO_CAPACITY))
    }

    /// The configuration fingerprint under which a verifier's entries
    /// are stored. Everything that can change a switched run's bytes or
    /// outcome is hashed: program source, inputs, step budget, the fault
    /// plan's statement entry, and the base trace length (a cheap guard
    /// against stale pairings). Thread count, resume mode, capture plan
    /// and deadline are excluded by design — runs are byte-identical
    /// across them, which is exactly what makes sharing sound.
    pub fn fingerprint(program: &Program, config: &RunConfig, trace_len: usize) -> u64 {
        let mut h = Fnv1a::default();
        h.write(print_program(program).as_bytes());
        for v in &config.inputs {
            h.write(&v.to_le_bytes());
        }
        h.write(&config.step_budget.to_le_bytes());
        h.write(format!("{:?}", config.fault).as_bytes());
        h.write(&(trace_len as u64).to_le_bytes());
        h.finish()
    }

    /// Looks up the switched run for `spec` under `key`, refreshing its
    /// LRU position. The caller pins the returned `Arc`s for the batch,
    /// so a concurrent eviction can never invalidate a result in use.
    pub(crate) fn get_run(&self, key: u64, spec: SwitchSpec) -> Option<RunEntry> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.runs.get_mut(&(key, spec))?;
        e.tick = tick;
        Some(e.value.clone())
    }

    /// Memoizes a switched run. Returns the number of entries evicted to
    /// make room (the verifier's `memo_evictions` counter).
    pub(crate) fn insert_run(&self, key: u64, spec: SwitchSpec, value: RunEntry) -> u64 {
        let bytes = run_bytes(&value);
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let old = inner.runs.insert((key, spec), Entry { value, bytes, tick });
        inner.run_bytes += bytes;
        if let Some(old) = old {
            inner.run_bytes -= old.bytes;
        }
        inner.evict_to(self.capacity)
    }

    /// Every checkpoint stored under `key`, for ancestor-donor selection
    /// (the trie resumes each leaf from the deepest checkpoint at or
    /// before its position, own or not). LRU positions are not refreshed:
    /// a plan-time scan is not a use.
    pub(crate) fn checkpoints_for(&self, key: u64) -> Vec<Arc<Checkpoint>> {
        let inner = self.inner.lock().unwrap();
        let mut cps: Vec<Arc<Checkpoint>> = inner
            .checkpoints
            .iter()
            .filter(|((k, _), _)| *k == key)
            .map(|(_, e)| Arc::clone(&e.value))
            .collect();
        cps.sort_by_key(|cp| (cp.prefix_len(), cp.spec.pred.0, cp.spec.occurrence));
        cps
    }

    /// Memoizes a checkpoint (first capture wins: recursion through a
    /// condition can snapshot the same spec twice, and both resume to
    /// the identical run). Returns the number of entries evicted.
    pub(crate) fn insert_checkpoint(&self, key: u64, cp: Arc<Checkpoint>) -> u64 {
        let bytes = cp.approx_bytes();
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let slot = (
            (key, cp.spec),
            Entry {
                value: cp,
                bytes,
                tick,
            },
        );
        if inner.checkpoints.contains_key(&slot.0) {
            return 0;
        }
        inner.checkpoints.insert(slot.0, slot.1);
        inner.checkpoint_bytes += bytes;
        inner.evict_to(self.capacity)
    }

    /// Current occupancy and eviction totals.
    pub fn snapshot(&self) -> MemoSnapshot {
        let inner = self.inner.lock().unwrap();
        MemoSnapshot {
            run_bytes: inner.run_bytes,
            checkpoint_bytes: inner.checkpoint_bytes,
            evictions: inner.evictions,
            runs: inner.runs.len(),
            checkpoints: inner.checkpoints.len(),
        }
    }
}

impl Inner {
    /// Evicts least-recently-used entries until total bytes fit
    /// `capacity`, reclaiming runs before checkpoints. A checkpoint is a
    /// few kilobytes that spares a full prefix replay for *every* leaf
    /// and wave spine downstream of it; a run is megabytes that spares
    /// exactly one re-execution. Under pressure the runs go first, and
    /// checkpoints are touched only once no runs remain. Ticks are
    /// unique (one monotone clock), so the victim order is deterministic
    /// regardless of hash-map iteration order. Returns how many entries
    /// were evicted.
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.run_bytes + self.checkpoint_bytes > capacity {
            if let Some(rk) = self
                .runs
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
            {
                let e = self.runs.remove(&rk).expect("key came from the map");
                self.run_bytes -= e.bytes;
            } else if let Some(ck) = self
                .checkpoints
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
            {
                let e = self.checkpoints.remove(&ck).expect("key came from the map");
                self.checkpoint_bytes -= e.bytes;
            } else {
                break;
            }
            evicted += 1;
        }
        self.evictions += evicted;
        if evicted > 0 {
            // Timeline marker for memory-pressure analysis; eviction
            // timing depends on byte pressure, so this event kind is
            // excluded from the deterministic profile projection.
            omislice_obs::profile::record(
                omislice_obs::profile::EventKind::Evict,
                "memo.evictions",
                0,
                evicted,
            );
        }
        evicted
    }
}

/// Footprint of one memoized run: the columnar trace's own accounting
/// plus the region tree the aligner walks, one `u32` per instance.
/// `None` runs (switch never landed) cost a fixed stub.
fn run_bytes(entry: &RunEntry) -> usize {
    match &entry.0 {
        Some(run) => run.columns().bytes() + run.len() * 4 + 64,
        None => 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_analysis::ProgramAnalysis;
    use omislice_interp::run_traced;
    use omislice_lang::{compile, StmtId};

    fn switched_run(src: &str, inputs: Vec<i64>) -> Arc<Trace> {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        let run = run_traced(&p, &a, &RunConfig::with_inputs(inputs));
        run.trace.regions();
        Arc::new(run.trace)
    }

    const SRC: &str = "fn main() { let x = input(); if x == 1 { print(1); } print(2); }";

    #[test]
    fn fingerprint_separates_configurations() {
        let p1 = compile(SRC).unwrap();
        let p2 = compile("fn main() { print(3); }").unwrap();
        let c1 = RunConfig::with_inputs(vec![1]);
        let c2 = RunConfig::with_inputs(vec![2]);
        let k = VerifyMemo::fingerprint(&p1, &c1, 10);
        assert_eq!(k, VerifyMemo::fingerprint(&p1, &c1, 10), "stable");
        assert_ne!(k, VerifyMemo::fingerprint(&p2, &c1, 10), "program");
        assert_ne!(k, VerifyMemo::fingerprint(&p1, &c2, 10), "inputs");
        assert_ne!(k, VerifyMemo::fingerprint(&p1, &c1, 11), "trace len");
        // A second verifier over the same configuration finds the run
        // the first one memoized.
        let a1 = ProgramAnalysis::build(&p1);
        let trace = run_traced(&p1, &a1, &c1).trace;
        let guard = trace.instances_of(StmtId(1))[0];
        let out = trace.outputs()[0].inst;
        let x = a1.index().stmt(StmtId(0)).def.expect("`let x` defines x");
        let memo = VerifyMemo::shared();
        let memo_hits = || {
            let mut v = crate::Verifier::new(&p1, &a1, &c1, &trace, crate::VerifierMode::Edge)
                .with_memo(Arc::clone(&memo));
            v.verify(guard, out, x, out, None);
            v.stats().memo_hits
        };
        assert_eq!(memo_hits(), 0);
        assert_eq!(memo_hits(), 1, "same configuration");
    }

    #[test]
    fn run_round_trips_and_refreshes_lru() {
        let memo = VerifyMemo::new(DEFAULT_MEMO_CAPACITY);
        let spec = SwitchSpec::new(StmtId(1), 0);
        let run = switched_run(SRC, vec![1]);
        assert!(memo.get_run(7, spec).is_none());
        assert_eq!(
            memo.insert_run(7, spec, (Some(Arc::clone(&run)), RunOutcome::Completed)),
            0
        );
        let (got, outcome) = memo.get_run(7, spec).expect("hit");
        assert_eq!(outcome, RunOutcome::Completed);
        assert!(Arc::ptr_eq(&got.unwrap(), &run));
        assert!(memo.get_run(8, spec).is_none(), "keys separate configs");
    }

    #[test]
    fn lru_evicts_oldest_when_over_capacity() {
        let run = switched_run(SRC, vec![1]);
        let one = run.columns().bytes() + run.len() * 4 + 64;
        // Room for two runs, not three.
        let memo = VerifyMemo::new(2 * one + one / 2);
        let s = |n| SwitchSpec::new(StmtId(n), 0);
        memo.insert_run(1, s(1), (Some(Arc::clone(&run)), RunOutcome::Completed));
        memo.insert_run(1, s(2), (Some(Arc::clone(&run)), RunOutcome::Completed));
        // Touch s(1) so s(2) is the LRU entry.
        assert!(memo.get_run(1, s(1)).is_some());
        let evicted = memo.insert_run(1, s(3), (Some(Arc::clone(&run)), RunOutcome::Completed));
        assert_eq!(evicted, 1);
        assert!(memo.get_run(1, s(2)).is_none(), "LRU entry evicted");
        assert!(memo.get_run(1, s(1)).is_some());
        assert!(memo.get_run(1, s(3)).is_some());
        assert_eq!(memo.snapshot().evictions, 1);
    }

    #[test]
    fn checkpoints_share_the_byte_budget() {
        let p = compile(SRC).unwrap();
        let a = ProgramAnalysis::build(&p);
        let cfg = RunConfig::with_inputs(vec![1]);
        let spec = SwitchSpec::new(StmtId(1), 0);
        let (_, cps) = omislice_interp::run_switched(&p, &a, &cfg, &[spec], None);
        let cp = Arc::new(cps.into_iter().next().expect("guard executes"));
        let memo = VerifyMemo::new(DEFAULT_MEMO_CAPACITY);
        assert_eq!(memo.insert_checkpoint(3, Arc::clone(&cp)), 0);
        assert_eq!(memo.insert_checkpoint(3, Arc::clone(&cp)), 0, "first wins");
        let snap = memo.snapshot();
        assert_eq!(snap.checkpoints, 1);
        assert_eq!(snap.checkpoint_bytes, cp.approx_bytes());
        let got = memo.checkpoints_for(3);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].spec, spec);
        assert_eq!(got[0].prefix_len(), cp.prefix_len());
        assert!(memo.checkpoints_for(4).is_empty());
    }
}
