//! The outputs of one run, published as it prints them, for a run on
//! another thread to compare its own outputs with while both execute.
//!
//! A localization's reference run (the fixed program on the failing
//! input) publishes into an [`OutputFeed`] ([`run_values_publishing`]);
//! the failing run ([`run_failing`]) reads the reference's output at the
//! position of each output it prints, waiting only while the reference is
//! still running and has not printed that far.
//!
//! [`run_values_publishing`]: crate::run_values_publishing
//! [`run_failing`]: crate::run_failing

use omislice_trace::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A run's outputs so far, and whether the run has ended. One mutex
/// guards them; a reader waits on the condition variable only while the
/// output it asks for is not yet printed. One reader reads the outputs
/// in order and releases the feed once it needs no more of them.
#[derive(Debug, Default)]
pub struct OutputFeed {
    state: Mutex<Published>,
    more: Condvar,
    /// The reader needs no more outputs: publishing keeps nothing.
    released: AtomicBool,
}

#[derive(Debug, Default)]
struct Published {
    values: Vec<Value>,
    /// The publishing run ended (returned or unwound): nothing follows.
    closed: bool,
    /// A reader is waiting; the next publish or close wakes it.
    waiting: bool,
}

impl OutputFeed {
    /// An empty feed whose run has not started.
    pub fn new() -> Self {
        OutputFeed::default()
    }

    /// Publishes the run's next output, unless the reader has released
    /// the feed.
    pub(crate) fn publish(&self, value: Value) {
        if self.released.load(Ordering::Relaxed) {
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
    /// ones: the reader reads no more.
    pub(crate) fn release(&self) {
        self.released.store(true, Ordering::Relaxed);
        self.lock().values = Vec::new();
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
