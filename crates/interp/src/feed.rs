//! The outputs of one run, published as it prints them, for a run on
//! another thread to compare its own outputs with while both execute.
//!
//! A localization's reference run (the fixed program on the failing
//! input) publishes into an [`OutputFeed`] ([`run_values_publishing`]);
//! the failing run ([`run_failing`]) reads the reference's output at the
//! position of each output it prints, waiting only while the reference is
//! still running and has not printed that far. Once it has found the
//! first output that differs, `o×`, the failing run releases the feed
//! with a [`Demand`]: what a localization on its trace through `o×` can
//! still ask the reference for. The reference then keeps only that and
//! stops once it holds it.
//!
//! [`run_values_publishing`]: crate::run_values_publishing
//! [`run_failing`]: crate::run_failing

use omislice_trace::{ColumnarTrace, Trace, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a localization whose failing run's first wrong output is `o×`
/// can ask the reference run for: the values of the instances of its
/// trace through `o×`, and the outputs through `o×`'s position.
///
/// A statement's instances carry a value or not by its kind alone, so
/// the `k`-th valued instance of a statement in the failing run is
/// compared with the `k`-th value of the same statement in the
/// reference: the first `values[s]` values of each statement `s` are all
/// the oracle can be asked about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Demand {
    /// Per statement (indexed by `StmtId`; statements past its end are
    /// not wanted), how many of its first values are wanted.
    pub values: Vec<u32>,
    /// How many of the first outputs are wanted.
    pub outputs: usize,
}

impl Demand {
    /// The demand of a failing run's trace through `o×`: the first
    /// `events` instances of `cols`, `o×` being the run's `outputs`-th
    /// output.
    pub(crate) fn of(cols: &ColumnarTrace, events: usize, outputs: usize) -> Demand {
        let mut values: Vec<u32> = Vec::new();
        cols.for_each_value_upto(events, &mut |stmt, _| {
            let s = stmt.index();
            if s >= values.len() {
                values.resize(s + 1, 0);
            }
            values[s] += 1;
        });
        Demand { values, outputs }
    }
}

/// A run's outputs so far, and whether the run has ended. One mutex
/// guards them; a reader waits on the condition variable only while the
/// output it asks for is not yet printed. One reader reads the outputs
/// in order and releases the feed once it needs no more of them.
#[derive(Debug, Default)]
pub struct OutputFeed {
    state: Mutex<Published>,
    more: Condvar,
    /// The reader needs no more outputs: publishing keeps nothing, and
    /// the reader's demand, if any, is set.
    released: AtomicBool,
}

#[derive(Debug, Default)]
struct Published {
    values: Vec<Value>,
    /// The publishing run ended (returned or unwound): nothing follows.
    closed: bool,
    /// A reader is waiting; the next publish or close wakes it.
    waiting: bool,
    /// What the reader can still ask the publishing run for, once it has
    /// released the feed having found an output that differs.
    demand: Option<Demand>,
}

impl OutputFeed {
    /// An empty feed whose run has not started.
    pub fn new() -> Self {
        OutputFeed::default()
    }

    /// Publishes the run's next output, unless the reader has released
    /// the feed.
    pub(crate) fn publish(&self, value: Value) {
        if self.released() {
            return;
        }
        let mut state = self.lock();
        state.values.push(value);
        if std::mem::take(&mut state.waiting) {
            self.more.notify_all();
        }
    }

    /// Marks the run ended: a reader past its last output stops waiting.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.more.notify_all();
    }

    /// Drops the outputs kept so far and keeps none of the run's later
    /// ones: the reader reads no more. With a `demand`, the reader found
    /// an output that differs and can ask the publishing run for no more
    /// than that; without one, no output differed and everything stays
    /// wanted.
    pub(crate) fn release(&self, demand: Option<Demand>) {
        let mut state = self.lock();
        state.values = Vec::new();
        state.demand = demand;
        drop(state);
        self.released.store(true, Ordering::Release);
    }

    /// Whether the reader has released the feed. One atomic load: cheap
    /// enough for the publishing run to poll per instance.
    #[inline]
    pub(crate) fn released(&self) -> bool {
        self.released.load(Ordering::Acquire)
    }

    /// The demand the reader released the feed with: `None` while it has
    /// not, or when no output differed.
    pub fn demand(&self) -> Option<Demand> {
        self.lock().demand.clone()
    }

    /// Reads a failing run recorded whole (a loaded trace) against the
    /// publishing run, as [`run_failing`](crate::run_failing) reads its
    /// outputs while it runs: compares `trace`'s outputs in order with
    /// the published ones, waiting as [`run_failing`](crate::run_failing)
    /// waits, and releases the feed with the demand of `trace` through
    /// the first that differs, `o×`, or with none when none does.
    /// Returns the length of `trace` through `o×`, or `None` when no
    /// output differs.
    pub fn read_trace(&self, trace: &Trace) -> Option<usize> {
        let wrong = (trace.outputs().iter().enumerate())
            .find(|(k, o)| self.get(*k) != Some(o.value))
            .map(|(k, o)| (o.inst.index() + 1, k + 1));
        self.release(wrong.map(|(events, outputs)| Demand::of(trace.columns(), events, outputs)));
        wrong.map(|(events, _)| events)
    }

    /// The run's `k`-th (0-based) output, waiting while the run has not
    /// printed that far and has not ended; `None` once it ended with
    /// fewer outputs. Not to be asked once the reader has released the
    /// feed.
    pub(crate) fn get(&self, k: usize) -> Option<Value> {
        let mut state = self.lock();
        while state.values.len() <= k && !state.closed {
            state.waiting = true;
            state = self
                .more
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.values.get(k).copied()
    }

    fn lock(&self) -> MutexGuard<'_, Published> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes the feed when dropped, so a run that returns or unwinds never
/// leaves a reader waiting.
pub(crate) struct CloseOnDrop<'a>(pub(crate) &'a OutputFeed);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reader_waits_for_the_output_or_the_end() {
        let feed = OutputFeed::new();
        std::thread::scope(|s| {
            let reader = s.spawn(|| (feed.get(0), feed.get(1), feed.get(2)));
            feed.publish(Value::Int(4));
            feed.publish(Value::Bool(true));
            feed.close();
            assert_eq!(
                reader.join().unwrap(),
                (Some(Value::Int(4)), Some(Value::Bool(true)), None)
            );
        });
    }

    #[test]
    fn a_release_carries_the_readers_demand() {
        let feed = OutputFeed::new();
        assert_eq!(feed.demand(), None);
        feed.publish(Value::Int(1));
        let demand = Demand {
            values: vec![2, 0, 1],
            outputs: 1,
        };
        feed.release(Some(demand.clone()));
        assert!(feed.released());
        assert_eq!(feed.demand(), Some(demand));
        // Released, the feed keeps no later output.
        feed.publish(Value::Int(2));
        assert!(feed.lock().values.is_empty());
    }

    #[test]
    fn an_unwinding_publisher_releases_the_reader() {
        let feed = OutputFeed::new();
        std::thread::scope(|s| {
            let reader = s.spawn(|| feed.get(1));
            let publisher = s.spawn(|| {
                let _close = CloseOnDrop(&feed);
                feed.publish(Value::Int(1));
                panic!("the publishing run fails");
            });
            assert!(publisher.join().is_err());
            assert_eq!(reader.join().unwrap(), None);
        });
    }
}
