//! The trace recorder.
//!
//! The interpreter is a single-threaded producer, and the recorder is a
//! single-threaded column writer: each executed instance is pushed
//! straight into the run's [`ColumnarTrace`] — a fresh one, or one
//! seeded with a shared checkpoint prefix ([`Recorder::from_prefix`])
//! for a resumed switched run. Nothing is indexed while recording: the
//! [`TraceIndex`](crate::TraceIndex) is built on demand, and only for
//! the trace that is queried (the failing run's relevant slicing).
//!
//! Every `CHUNK_EVENTS` (4,096) recorded events the recorder makes one
//! counted check of the deadline in scope on this thread
//! ([`crate::supervisor::scoped_deadline_check`]); an expired check sets
//! [`Recorder::deadline_hit`], which the interpreter polls per event.

use crate::columnar::{ColumnarTrace, RawEvent};
use crate::event::InstId;
use crate::supervisor;
use omislice_lang::VarId;
use std::sync::Arc;

/// Events between two counted deadline checks.
pub(crate) const CHUNK_EVENTS: usize = 4096;

/// The column writer the interpreter feeds.
pub struct Recorder {
    /// Everything recorded so far, prefix included.
    cols: ColumnarTrace,
    /// Events pushed since the last counted deadline check.
    since_check: usize,
    /// A scoped deadline expired at a counted check; the interpreter
    /// polls this per event and stops with a budget-style termination.
    deadline_hit: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder for a fresh run.
    pub fn new() -> Self {
        Recorder::seeded(ColumnarTrace::new())
    }

    /// A recorder seeded with the first `len` events of `base` — the
    /// checkpoint-resume fast path. The prefix is *shared* with the
    /// base trace by reference count ([`ColumnarTrace::share_prefix`]):
    /// seeding is O(1) regardless of checkpoint depth.
    pub fn from_prefix(base: &Arc<ColumnarTrace>, len: usize) -> Self {
        Recorder::seeded(ColumnarTrace::share_prefix(base, len))
    }

    fn seeded(cols: ColumnarTrace) -> Self {
        Recorder {
            cols,
            since_check: 0,
            deadline_hit: false,
        }
    }

    /// Whether a scoped deadline expired at a counted check. One field
    /// read: cheap enough for the interpreter's per-event gate.
    #[inline]
    pub fn deadline_hit(&self) -> bool {
        self.deadline_hit
    }

    /// Events recorded so far (== the id the next event will get).
    #[inline]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Records one event, returning its instance id.
    #[inline]
    pub fn push(&mut self, ev: RawEvent<'_>) -> InstId {
        self.tick();
        self.cols.push(ev)
    }

    /// Counts one executed event toward the next counted deadline check.
    /// [`Recorder::push`] counts what it records; a run that has stopped
    /// recording counts each later event here, so the checks keep their
    /// cadence.
    #[inline]
    pub fn tick(&mut self) {
        if self.since_check == CHUNK_EVENTS {
            self.since_check = 0;
            if supervisor::scoped_deadline_check() {
                self.deadline_hit = true;
            }
        }
        self.since_check += 1;
    }

    /// Everything recorded so far, prefix included.
    pub fn columns(&self) -> &ColumnarTrace {
        &self.cols
    }

    /// Patches the defined variable of the event just pushed.
    pub fn set_def_var_last(&mut self, var: VarId) {
        self.cols.set_def_var_last(var);
    }

    /// Closes the recorder, returning the recorded columns.
    pub fn finish(self) -> ColumnarTrace {
        self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::trace::{Termination, Trace};
    use crate::value::Value;
    use omislice_lang::StmtId;

    /// A synthetic well-formed event stream: a predicate every 7 events,
    /// children hanging off the latest predicate, defs cycling over a
    /// few variables.
    fn synthetic(n: usize) -> Vec<Event> {
        let mut out = Vec::with_capacity(n);
        let mut last_pred: Option<InstId> = None;
        for i in 0..n {
            let mut e = Event::new(StmtId((i % 13) as u32));
            if i % 7 == 0 {
                e.branch = Some(i % 2 == 0);
                e.value = Some(Value::Bool(i % 2 == 0));
                last_pred = Some(InstId(i as u32));
            } else {
                e.cd_parent = last_pred;
                e.region_parent = last_pred;
                e.value = Some(Value::Int(i as i64));
                e.def_var = Some(VarId((i % 5) as u32));
                if i > 0 {
                    e.data_deps = vec![InstId((i - 1) as u32)];
                }
            }
            out.push(e);
        }
        out
    }

    fn record(events: &[Event]) -> ColumnarTrace {
        let mut r = Recorder::new();
        for e in events {
            r.push(RawEvent::from(e));
        }
        r.finish()
    }

    #[test]
    fn small_runs_stay_inline_and_match_oracle() {
        let events = synthetic(100);
        assert_eq!(record(&events).to_events(), events);
    }

    #[test]
    fn multi_chunk_run_matches_oracle_exactly() {
        let events = synthetic(3 * CHUNK_EVENTS + 17);
        let cols = record(&events);
        assert_eq!(cols.to_events(), events);

        // The index built on demand answers exactly like one built over
        // the row-major oracle.
        let recorded = Trace::from_recorded(cols, vec![], Termination::Normal);
        let oracle = Trace::from_parts(events, vec![], Termination::Normal);
        for inst in oracle.insts() {
            let ev = oracle.event(inst);
            if let Some(b) = ev.branch {
                assert_eq!(
                    recorded.index().pred_instances(ev.stmt, b),
                    oracle.index().pred_instances(ev.stmt, b)
                );
            }
        }
        for u in (0..oracle.len() as u32).step_by(97) {
            for p in (0..oracle.len() as u32).step_by(89) {
                assert_eq!(
                    recorded.cd_depends_on(InstId(u), InstId(p)),
                    oracle.cd_depends_on(InstId(u), InstId(p)),
                );
            }
        }
    }

    #[test]
    fn prefix_seeded_recorder_resumes_mid_chunk() {
        let events = synthetic(CHUNK_EVENTS + 500);
        let base_cols = Arc::new(record(&events));
        for cut in [0, 1, CHUNK_EVENTS - 1, CHUNK_EVENTS, CHUNK_EVENTS + 499] {
            let mut r = Recorder::from_prefix(&base_cols, cut);
            assert_eq!(r.len(), cut);
            for e in &events[cut..] {
                r.push(RawEvent::from(e));
            }
            assert_eq!(r.finish().to_events(), events);
        }
    }

    #[test]
    fn scoped_deadline_expiry_sets_deadline_hit() {
        use crate::supervisor::{take_recovery, Deadline, FaultScope};
        let _ = take_recovery();
        let d = Deadline::unlimited().with_force_expire(1);
        let _scope = FaultScope::install(None, Some(&d));
        let mut r = Recorder::new();
        for e in synthetic(3 * CHUNK_EVENTS) {
            if r.deadline_hit() {
                break;
            }
            r.push(RawEvent::from(&e));
        }
        assert!(r.deadline_hit());
        // The second counted check (after 2 × CHUNK_EVENTS events)
        // expires, and the run stops at the next event.
        assert_eq!(r.finish().len(), 2 * CHUNK_EVENTS + 1);
        let _ = take_recovery();
    }

    #[test]
    fn def_var_patch_survives_chunk_rotation() {
        let mut r = Recorder::new();
        let events = synthetic(CHUNK_EVENTS);
        for e in &events {
            r.push(RawEvent::from(e));
        }
        // The next push makes a counted check; the patch must still land
        // on the final event.
        r.set_def_var_last(VarId(77));
        let cols = r.finish();
        assert_eq!(
            cols.event(InstId(CHUNK_EVENTS as u32 - 1)).def_var,
            Some(VarId(77))
        );
    }
}
