//! Value profiles collected over a test suite.
//!
//! The paper's prototype "executes the binary with a large set of test
//! cases to ... collect value profile for the confidence analysis". A
//! [`ValueProfile`] records the distinct values each statement produced
//! across runs; the observed *range* approximates the domain size used in
//! the PLDI 2006 confidence estimate.

use omislice_interp::{run_folding, RunConfig, StmtValues};
use omislice_lang::{Program, ProgramIndex, StmtId};
use omislice_trace::{Trace, Value};
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hasher};

/// Hashes profile values for their per-statement sets: one
/// multiply-rotate step per word (the Fx hash) from a per-profile random
/// key, finished with a full 64-bit avalanche. Folding a trace probes a
/// set once per recorded value, where SipHash's per-lookup cost
/// dominated; the key and the avalanche keep values chosen through a
/// program's input from piling into one bucket. No output depends on hash
/// order ([`ValueProfile::values`] sorts).
#[derive(Debug, Clone, Copy)]
struct ValueHash(u64);

impl Default for ValueHash {
    fn default() -> Self {
        ValueHash(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for ValueHash {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(self.0)
    }
}

struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    /// The `fmix64` finalizer of MurmurHash3.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

type ValueSet = HashSet<Value, ValueHash>;

/// Distinct values observed per statement across profiled runs.
#[derive(Debug, Clone, Default)]
pub struct ValueProfile {
    /// One set per statement, indexed by `StmtId` (grown on demand).
    values: Vec<ValueSet>,
    key: ValueHash,
    runs: usize,
}

impl ValueProfile {
    /// An empty profile.
    pub fn new() -> Self {
        ValueProfile::default()
    }

    /// Folds one trace's values into the profile, straight off its
    /// statement, meta and value columns. A value equal to its
    /// statement's previous one is already in the set, so it is skipped
    /// without a probe.
    pub fn add_trace(&mut self, trace: &Trace) {
        let mut last: Vec<Option<Value>> = Vec::new();
        trace.columns().for_each_value(&mut |stmt, v| {
            let i = stmt.index();
            if i >= last.len() {
                last.resize(i + 1, None);
            }
            if last[i] != Some(v) {
                last[i] = Some(v);
                self.set(i).insert(v);
            }
        });
        self.runs += 1;
    }

    /// Folds one value run's values ([`omislice_interp::run_values`])
    /// into the profile, skipping repeats as [`ValueProfile::add_trace`]
    /// does: a value run keeps the values a traced run records, so both
    /// folds yield the same profile.
    pub fn add_values(&mut self, values: &StmtValues) {
        for i in 0..values.stmt_count() {
            let mut last = None;
            for v in values.of(StmtId(i as u32)) {
                if last != Some(v) {
                    last = Some(v);
                    self.set(i).insert(v);
                }
            }
        }
        self.runs += 1;
    }

    /// Executes `program` under `config` and folds its values into the
    /// profile as the run computes them ([`run_folding`]), with no value
    /// log: the profile [`ValueProfile::add_values`] makes of the same
    /// run's [`omislice_interp::run_values`], one run counted.
    pub fn add_run(&mut self, program: &Program, index: &ProgramIndex, config: &RunConfig) {
        run_folding(program, index, config, |stmt, value| {
            self.observe(stmt, value)
        });
        self.runs += 1;
    }

    /// Adds one value of `stmt` without counting a run: the fold of the
    /// values a failing run no longer records past its first wrong output
    /// ([`omislice_interp::run_failing`]), whose recorded trace
    /// [`ValueProfile::add_trace`] folds and counts.
    #[inline]
    pub fn observe(&mut self, stmt: StmtId, value: Value) {
        self.set(stmt.index()).insert(value);
    }

    /// The value set of statement index `i`, grown on demand.
    #[inline]
    fn set(&mut self, i: usize) -> &mut ValueSet {
        if i >= self.values.len() {
            let key = self.key;
            self.values
                .resize_with(i + 1, || ValueSet::with_hasher(key));
        }
        &mut self.values[i]
    }

    /// Builds a profile from several traces at once.
    pub fn from_traces<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Self {
        let mut p = ValueProfile::new();
        for t in traces {
            p.add_trace(t);
        }
        p
    }

    /// Number of traces folded in.
    pub fn run_count(&self) -> usize {
        self.runs
    }

    /// Number of distinct values observed at `stmt` (0 if never executed
    /// or it produces no value).
    pub fn range(&self, stmt: StmtId) -> usize {
        self.values.get(stmt.index()).map_or(0, HashSet::len)
    }

    /// Heap bytes the profile holds: each statement's value set is a
    /// hash table of one control byte plus one [`Value`] per bucket, its
    /// bucket count the next power of two above 8/7 of its capacity.
    pub fn bytes(&self) -> usize {
        let table = |set: &ValueSet| {
            if set.capacity() == 0 {
                return 0;
            }
            let buckets = (set.capacity() * 8 / 7).next_power_of_two();
            buckets * (std::mem::size_of::<Value>() + 1) + 16
        };
        self.values.capacity() * std::mem::size_of::<ValueSet>()
            + self.values.iter().map(table).sum::<usize>()
    }

    /// Whether `value` was ever observed at `stmt`.
    pub fn observed(&self, stmt: StmtId, value: Value) -> bool {
        self.values
            .get(stmt.index())
            .is_some_and(|s| s.contains(&value))
    }

    /// The distinct values observed at `stmt`, in sorted order.
    pub fn values(&self, stmt: StmtId) -> Vec<Value> {
        let mut out: Vec<Value> = self
            .values
            .get(stmt.index())
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_analysis::ProgramAnalysis;
    use omislice_interp::{run_traced, RunConfig};
    use omislice_lang::compile;

    #[test]
    fn profile_accumulates_distinct_values() {
        let p = compile("fn main() { let x = input(); let y = x % 2; print(y); }").unwrap();
        let a = ProgramAnalysis::build(&p);
        let mut profile = ValueProfile::new();
        for input in 0..10 {
            let run = run_traced(&p, &a, &RunConfig::with_inputs(vec![input]));
            profile.add_trace(&run.trace);
        }
        assert_eq!(profile.run_count(), 10);
        // x saw 10 distinct values; y only 2 (the many-to-one mapping).
        assert_eq!(profile.range(StmtId(0)), 10);
        assert_eq!(profile.range(StmtId(1)), 2);
        assert!(profile.observed(StmtId(1), Value::Int(1)));
        assert!(!profile.observed(StmtId(1), Value::Int(7)));
        assert_eq!(
            profile.values(StmtId(1)),
            vec![Value::Int(0), Value::Int(1)]
        );
    }

    #[test]
    fn values_sharing_low_bits_spread_over_buckets() {
        // Multiples of 2^32 agree in every low bit, where a hash table
        // picks its bucket; the keyed avalanche must still spread them.
        let key = ValueHash::default();
        let buckets: HashSet<u64> = (0..4096i64)
            .map(|k| key.hash_one(Value::Int(k << 32)) & 0xffff)
            .collect();
        assert!(buckets.len() > 3500, "{} of 4096", buckets.len());
    }

    /// The column fold, the value-run fold and the folding run build the
    /// profile the event-by-event fold did, statement by statement.
    #[test]
    fn column_and_value_run_folds_match_the_event_fold() {
        let p = compile(
            "global s = 0; fn main() { let i = 0; while i < 6 { s = s + i % 3;\
             if s > 4 { print(s > 7); } i = i + 1; } print(s); }",
        )
        .unwrap();
        let a = ProgramAnalysis::build(&p);
        let mut by_columns = ValueProfile::new();
        let mut by_values = ValueProfile::new();
        let mut by_run = ValueProfile::new();
        let mut by_events: Vec<std::collections::BTreeSet<Value>> =
            vec![Default::default(); p.stmt_count() as usize];
        for input in 0..3 {
            let cfg = RunConfig::with_inputs(vec![input]);
            let run = run_traced(&p, &a, &cfg);
            for ev in run.trace.iter_events() {
                if let Some(v) = ev.value {
                    by_events[ev.stmt.index()].insert(v);
                }
            }
            by_columns.add_trace(&run.trace);
            by_values.add_values(&omislice_interp::run_values(&p, a.index(), &cfg).values);
            by_run.add_run(&p, a.index(), &cfg);
        }
        for (i, want) in by_events.iter().enumerate() {
            let want: Vec<Value> = want.iter().copied().collect();
            assert_eq!(by_columns.values(StmtId(i as u32)), want, "S{i}");
            assert_eq!(by_values.values(StmtId(i as u32)), want, "S{i}");
            assert_eq!(by_run.values(StmtId(i as u32)), want, "S{i}");
        }
        assert_eq!(by_columns.run_count(), 3);
        assert_eq!(by_values.run_count(), 3);
        assert_eq!(by_run.run_count(), 3);
    }

    #[test]
    fn unexecuted_statement_has_zero_range() {
        let p = compile("fn main() { if false { print(1); } }").unwrap();
        let a = ProgramAnalysis::build(&p);
        let run = run_traced(&p, &a, &RunConfig::default());
        let profile = ValueProfile::from_traces([&run.trace]);
        assert_eq!(profile.range(StmtId(1)), 0);
        assert_eq!(profile.range(StmtId(99)), 0);
    }
}
