//! The pipelined trace recorder.
//!
//! The interpreter is a single-threaded producer: it appends compact
//! [`RawEvent`]s into fixed-size columnar chunks. Full chunks travel
//! over a **bounded SPSC queue** (`std::sync::mpsc::sync_channel`, one
//! producer, one consumer) to a builder thread that, *concurrently with
//! execution*, appends them to the global [`ColumnarTrace`] and
//! accumulates the [`TraceIndex`] postings. At [`Recorder::finish`] the
//! tail chunk is shipped, the builder joins, and the Euler tour over the
//! completed CD forest is stamped — so a freshly recorded trace comes
//! back with its query index already built.
//!
//! # Determinism
//!
//! The queue preserves chunk order and a single builder consumes chunks
//! FIFO, so the assembled columns and postings are byte-identical to a
//! serial build no matter how producer and builder interleave in time.
//! Only the *stats* ([`RecorderStats::queue_depth_max`],
//! [`RecorderStats::backpressure_stalls`]) depend on scheduling; they
//! are surfaced as observability counters and are deliberately kept out
//! of the deterministically-compared journal records.
//!
//! Short runs never pay for the pipeline: the builder thread is spawned
//! only once the first chunk fills, so the thousands of small switched
//! re-executions the verifier launches stay single-threaded, and resumed
//! runs (seeded from a checkpoint prefix via [`Recorder::from_prefix`])
//! stay inline as well because their suffixes are typically short.
//!
//! # Failure handling
//!
//! The builder thread is allowed to die. A panic or a dropped receiver
//! surfaces from [`Recorder::finish`] as a structured
//! [`RecorderError`] — never a process abort: the producer marks the
//! pipeline dead on a failed send and keeps accepting events, and
//! `finish` maps the join result instead of unwrapping it. Callers
//! (see `run_traced_capturing`) recover by re-running the deterministic
//! execution with [`Recorder::inline_only`], which never spawns a
//! builder and therefore cannot lose one. Fault plans
//! ([`crate::supervisor::FaultPlan`]) inject builder panics, channel
//! disconnects, and queue stalls deterministically at chunk-rotation
//! boundaries to exercise exactly these paths.

use crate::columnar::{ColumnarTrace, RawEvent};
use crate::event::InstId;
use crate::index::{self, TraceIndex};
use crate::supervisor::{self, FaultSite, RecoveryKind};
use omislice_lang::{StmtId, VarId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How a pipelined recording can fail. Both variants leave the already
/// shipped chunks unrecoverable (the builder owned them), so the caller
/// re-traces inline; determinism makes the re-run exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecorderError {
    /// The builder thread panicked (its join returned `Err`).
    BuilderPanicked,
    /// The builder's receiver disappeared mid-stream.
    BuilderDisconnected,
}

impl fmt::Display for RecorderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecorderError::BuilderPanicked => write!(f, "trace builder thread panicked"),
            RecorderError::BuilderDisconnected => {
                write!(f, "trace builder channel disconnected")
            }
        }
    }
}

impl std::error::Error for RecorderError {}

/// What travels over the chunk queue. The injected-fault variants let the
/// supervisor kill the builder deterministically from the producer side.
/// `Chunk` is ~100% of traffic, so boxing it to shrink the enum would
/// trade one allocation per 4096 events for nothing.
#[allow(clippy::large_enum_variant)]
enum ChunkMsg {
    Chunk(ColumnarTrace),
    /// Injected fault: the builder panics on receipt.
    Panic,
    /// Injected fault: the builder drops the receiver and exits early.
    Stop,
}

/// Events per chunk. Chunks are the queue's unit of transfer; the tail
/// of the current chunk always stays producer-resident so the
/// interpreter can patch the defined variable of the event it just
/// recorded.
pub(crate) const CHUNK_EVENTS: usize = 4096;

/// Bounded queue capacity, in chunks. A full queue stalls the producer
/// (recorded in [`RecorderStats::backpressure_stalls`]).
const QUEUE_CHUNKS: usize = 8;

/// Scheduling-dependent recorder measurements. Observability-only: these
/// vary run to run and must never feed deterministically-compared
/// output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Deepest the chunk queue ever got (producer-side view).
    pub queue_depth_max: usize,
    /// Times the producer found the queue full and had to block.
    pub backpressure_stalls: u64,
    /// Whether the builder thread was spawned at all.
    pub pipelined: bool,
}

/// Incremental postings accumulator: the builder-thread half of
/// [`TraceIndex`] construction. Chunks absorb in trace order, so the
/// lists match a serial build exactly.
#[derive(Default)]
struct PostingsAcc {
    preds: HashMap<(StmtId, bool), Vec<InstId>>,
    defs: HashMap<VarId, Vec<InstId>>,
}

impl PostingsAcc {
    fn absorb(&mut self, chunk: &ColumnarTrace, base: u32) {
        for i in 0..chunk.len() {
            let inst = InstId(base + i as u32);
            let ev = chunk.event(InstId(i as u32));
            if let Some(b) = ev.branch {
                self.preds.entry((ev.stmt, b)).or_default().push(inst);
            }
            if let Some(v) = ev.def_var {
                self.defs.entry(v).or_default().push(inst);
            }
        }
    }
}

/// What the builder thread hands back when the channel closes.
struct BuiltParts {
    cols: ColumnarTrace,
    postings: PostingsAcc,
}

struct Pipeline {
    tx: SyncSender<ChunkMsg>,
    /// `None` means the builder exited early (injected disconnect).
    handle: JoinHandle<Option<BuiltParts>>,
    depth: Arc<AtomicUsize>,
    /// Set once a send fails: the builder is gone and further chunks
    /// are dropped (they are unrecoverable anyway — the builder owned
    /// the assembled head). `finish` turns this into a
    /// [`RecorderError`].
    dead: bool,
}

/// The streaming recorder the interpreter feeds.
pub struct Recorder {
    /// Completed columns: the checkpoint prefix plus chunks drained
    /// inline while the pipeline was not (or never) running.
    cols: ColumnarTrace,
    /// Postings for everything in `cols` (fresh recordings only; prefix
    /// seeding switches postings accumulation off — see `index_live`).
    postings: PostingsAcc,
    /// The chunk currently being filled.
    chunk: ColumnarTrace,
    /// Events recorded overall (== next instance id).
    total: usize,
    /// Builder thread, once the first chunk fills.
    pipeline: Option<Pipeline>,
    /// Whether postings are being accumulated. Prefix-seeded recorders
    /// skip index prebuilding: their consumers (switched re-executions)
    /// touch at most a few index queries, which the lazy path serves.
    index_live: bool,
    /// Never spawn the builder: chunks drain inline (with postings) on
    /// the producer thread. The recovery mode after a builder failure.
    inline_only: bool,
    /// A scoped deadline expired at a chunk boundary; the interpreter
    /// polls this per event and stops with a budget-style termination.
    deadline_hit: bool,
    stats: RecorderStats,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder for a fresh run.
    pub fn new() -> Self {
        Recorder {
            cols: ColumnarTrace::new(),
            postings: PostingsAcc::default(),
            chunk: ColumnarTrace::with_capacity(CHUNK_EVENTS, CHUNK_EVENTS),
            total: 0,
            pipeline: None,
            index_live: true,
            inline_only: false,
            deadline_hit: false,
            stats: RecorderStats::default(),
        }
    }

    /// A fresh recorder that never spawns the builder thread: chunks
    /// (and postings) drain inline, so [`Recorder::finish`] cannot fail.
    /// The degraded mode the supervisor falls back to after a builder
    /// failure.
    pub fn inline_only() -> Self {
        Recorder {
            inline_only: true,
            ..Recorder::new()
        }
    }

    /// A recorder seeded with the first `len` events of `base` — the
    /// checkpoint-resume fast path. The prefix is *shared* with the
    /// base trace by reference count ([`ColumnarTrace::share_prefix`]):
    /// seeding is O(1) regardless of checkpoint depth, where even the
    /// column-wise memcpy of the old clone cost megabytes per resumed
    /// verification leaf at production scales.
    pub fn from_prefix(base: &Arc<ColumnarTrace>, len: usize) -> Self {
        Recorder {
            cols: ColumnarTrace::share_prefix(base, len),
            postings: PostingsAcc::default(),
            chunk: ColumnarTrace::with_capacity(CHUNK_EVENTS, CHUNK_EVENTS),
            total: len,
            pipeline: None,
            index_live: false,
            inline_only: false,
            deadline_hit: false,
            stats: RecorderStats::default(),
        }
    }

    /// Whether a scoped deadline expired at a chunk boundary. One field
    /// read: cheap enough for the interpreter's per-event gate.
    pub fn deadline_hit(&self) -> bool {
        self.deadline_hit
    }

    /// Events recorded so far (== the id the next event will get).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records one event, returning its instance id.
    pub fn push(&mut self, ev: RawEvent<'_>) -> InstId {
        if self.chunk.len() == CHUNK_EVENTS {
            self.rotate_chunk();
        }
        self.chunk.push(ev);
        let id = InstId(self.total as u32);
        self.total += 1;
        id
    }

    /// Patches the defined variable of the event just pushed. The tail
    /// chunk is never shipped before the next push, so the target is
    /// always resident.
    pub fn set_def_var_last(&mut self, var: VarId) {
        self.chunk.set_def_var_last(var);
    }

    /// Ships the filled chunk to the builder, spawning it on first use;
    /// prefix-seeded and inline-only recorders drain inline instead. A
    /// failed send marks the pipeline dead instead of panicking; the
    /// loss surfaces from [`Recorder::finish`].
    fn rotate_chunk(&mut self) {
        if supervisor::scoped_deadline_check() {
            self.deadline_hit = true;
        }
        let full = std::mem::replace(
            &mut self.chunk,
            ColumnarTrace::with_capacity(CHUNK_EVENTS, CHUNK_EVENTS),
        );
        if !self.index_live {
            // Resumed run: stay inline.
            self.cols.append(&full);
            return;
        }
        if self.inline_only {
            // Degraded mode: build columns and postings on this thread.
            self.postings.absorb(&full, self.cols.len() as u32);
            self.cols.append(&full);
            return;
        }
        if self.pipeline.is_none() {
            self.spawn_builder();
        }
        let p = self.pipeline.as_mut().expect("just spawned");
        if p.dead {
            return;
        }
        // Injected faults fire at chunk-rotation boundaries, counted
        // per site: kill the builder, drop the receiver, or force the
        // backpressure path.
        if supervisor::fault_hit(FaultSite::Builder).is_some() {
            let _ = p.tx.send(ChunkMsg::Panic);
        }
        if supervisor::fault_hit(FaultSite::Channel).is_some() {
            let _ = p.tx.send(ChunkMsg::Stop);
        }
        let stall = supervisor::fault_hit(FaultSite::Queue).is_some();
        let depth = p.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.queue_depth_max = self.stats.queue_depth_max.max(depth);
        // One gauge sample per chunk rotation: the builder queue's depth
        // over time becomes a counter track in `--profile-out` traces.
        omislice_obs::gauge("recorder.queue.depth", depth as u64);
        if stall {
            supervisor::note_recovery(RecoveryKind::QueueStall);
            self.stats.backpressure_stalls += 1;
            if p.tx.send(ChunkMsg::Chunk(full)).is_err() {
                p.dead = true;
            }
            return;
        }
        match p.tx.try_send(ChunkMsg::Chunk(full)) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                self.stats.backpressure_stalls += 1;
                if p.tx.send(msg).is_err() {
                    p.dead = true;
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                p.dead = true;
            }
        }
    }

    fn spawn_builder(&mut self) {
        let (tx, rx): (SyncSender<ChunkMsg>, Receiver<ChunkMsg>) = sync_channel(QUEUE_CHUNKS);
        let depth = Arc::new(AtomicUsize::new(0));
        let consumer_depth = Arc::clone(&depth);
        // Everything recorded so far (the inline head) moves to the
        // builder, which owns column assembly from here on.
        let head = std::mem::take(&mut self.cols);
        let mut postings = std::mem::take(&mut self.postings);
        let handle = std::thread::spawn(move || {
            let mut cols = head;
            loop {
                match rx.recv() {
                    Ok(ChunkMsg::Chunk(chunk)) => {
                        consumer_depth.fetch_sub(1, Ordering::Relaxed);
                        postings.absorb(&chunk, cols.len() as u32);
                        cols.append(&chunk);
                    }
                    Ok(ChunkMsg::Panic) => panic!("injected trace builder panic"),
                    Ok(ChunkMsg::Stop) => return None,
                    Err(_) => break,
                }
            }
            Some(BuiltParts { cols, postings })
        });
        self.stats.pipelined = true;
        self.pipeline = Some(Pipeline {
            tx,
            handle,
            depth,
            dead: false,
        });
    }

    /// Closes the recorder: ships the tail, joins the builder, stamps
    /// the Euler tour. Returns the assembled columns, the query index
    /// when one was built (fresh recordings), and the scheduling stats
    /// — or a [`RecorderError`] when the builder died, in which case the
    /// caller re-traces with [`Recorder::inline_only`]. Inline runs
    /// (never pipelined) cannot fail.
    pub fn finish(
        mut self,
    ) -> Result<(ColumnarTrace, Option<TraceIndex>, RecorderStats), RecorderError> {
        let tail = std::mem::take(&mut self.chunk);
        match self.pipeline.take() {
            Some(p) => {
                let mut dead = p.dead;
                if !tail.is_empty() && !dead {
                    let depth = p.depth.fetch_add(1, Ordering::Relaxed) + 1;
                    self.stats.queue_depth_max = self.stats.queue_depth_max.max(depth);
                    if p.tx.send(ChunkMsg::Chunk(tail)).is_err() {
                        dead = true;
                    }
                }
                drop(p.tx);
                match p.handle.join() {
                    Ok(Some(BuiltParts { cols, mut postings })) if !dead => {
                        let (tin, tout) = index::euler_tour(&cols);
                        let index = TraceIndex::assemble(
                            tin,
                            tout,
                            std::mem::take(&mut postings.preds),
                            std::mem::take(&mut postings.defs),
                        );
                        Ok((cols, Some(index), self.stats))
                    }
                    Ok(_) => Err(RecorderError::BuilderDisconnected),
                    Err(_) => Err(RecorderError::BuilderPanicked),
                }
            }
            None => {
                let mut cols = self.cols;
                if self.index_live {
                    self.postings.absorb(&tail, cols.len() as u32);
                }
                cols.append(&tail);
                if self.index_live && !cols.is_empty() {
                    let (tin, tout) = index::euler_tour(&cols);
                    let index =
                        TraceIndex::assemble(tin, tout, self.postings.preds, self.postings.defs);
                    Ok((cols, Some(index), self.stats))
                } else {
                    Ok((cols, None, self.stats))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::trace::{Termination, Trace};
    use crate::value::Value;

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

    fn record(events: &[Event]) -> (ColumnarTrace, Option<TraceIndex>, RecorderStats) {
        let mut r = Recorder::new();
        for e in events {
            r.push(RawEvent::from(e));
        }
        r.finish().expect("no fault plan in scope")
    }

    #[test]
    fn small_runs_stay_inline_and_match_oracle() {
        let events = synthetic(100);
        let (cols, index, stats) = record(&events);
        assert!(!stats.pipelined);
        assert!(index.is_some());
        assert_eq!(cols.to_events(), events);
    }

    #[test]
    fn pipelined_run_matches_oracle_exactly() {
        let events = synthetic(3 * CHUNK_EVENTS + 17);
        let (cols, index, stats) = record(&events);
        assert!(stats.pipelined);
        assert_eq!(cols.to_events(), events);

        // The prebuilt index answers exactly like a fresh serial build.
        let recorded = Trace::from_recorded(cols, vec![], Termination::Normal, index);
        let oracle = Trace::from_parts(events, vec![], Termination::Normal);
        oracle.build_index(1);
        for inst in oracle.insts() {
            let ev = oracle.event(inst);
            if let Some(b) = ev.branch {
                assert_eq!(
                    recorded.index().pred_instances(ev.stmt, b),
                    oracle.index().pred_instances(ev.stmt, b)
                );
            }
            if let Some(v) = ev.def_var {
                assert_eq!(recorded.index().defs_of(v), oracle.index().defs_of(v));
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
        let (base_cols, _, _) = record(&events);
        let base_cols = Arc::new(base_cols);
        for cut in [0, 1, CHUNK_EVENTS - 1, CHUNK_EVENTS, CHUNK_EVENTS + 499] {
            let mut r = Recorder::from_prefix(&base_cols, cut);
            assert_eq!(r.len(), cut);
            for e in &events[cut..] {
                r.push(RawEvent::from(e));
            }
            let (cols, index, stats) = r.finish().expect("resumed recorders never pipeline");
            assert!(index.is_none());
            assert!(!stats.pipelined);
            assert_eq!(cols.to_events(), events);
        }
    }

    #[test]
    fn builder_panic_surfaces_as_error_not_abort() {
        use crate::supervisor::{FaultPlan, FaultScope};
        let plan = FaultPlan::parse("builder=panic").unwrap();
        let _scope = FaultScope::install(Some(&plan), None);
        let mut r = Recorder::new();
        for e in synthetic(3 * CHUNK_EVENTS + 17) {
            r.push(RawEvent::from(&e));
        }
        assert_eq!(r.finish().unwrap_err(), RecorderError::BuilderPanicked);
    }

    #[test]
    fn channel_disconnect_surfaces_as_error_not_abort() {
        use crate::supervisor::{FaultPlan, FaultScope};
        let plan = FaultPlan::parse("channel:1=disconnect").unwrap();
        let _scope = FaultScope::install(Some(&plan), None);
        let mut r = Recorder::new();
        for e in synthetic(4 * CHUNK_EVENTS) {
            r.push(RawEvent::from(&e));
        }
        assert_eq!(r.finish().unwrap_err(), RecorderError::BuilderDisconnected);
    }

    #[test]
    fn queue_stall_chaos_recovers_and_matches_oracle() {
        use crate::supervisor::{take_recovery, FaultPlan, FaultScope, RecoveryKind};
        let _ = take_recovery();
        let events = synthetic(3 * CHUNK_EVENTS + 17);
        let cols = {
            let plan = FaultPlan::parse("queue:1=stall").unwrap();
            let _scope = FaultScope::install(Some(&plan), None);
            let mut r = Recorder::new();
            for e in &events {
                r.push(RawEvent::from(e));
            }
            let (cols, index, stats) = r.finish().expect("stall is survivable");
            assert!(index.is_some());
            assert!(stats.backpressure_stalls >= 1);
            cols
        };
        assert_eq!(cols.to_events(), events);
        assert_eq!(take_recovery().count(RecoveryKind::QueueStall), 1);
    }

    #[test]
    fn inline_only_recorder_matches_pipelined_output() {
        let events = synthetic(3 * CHUNK_EVENTS + 17);
        let mut r = Recorder::inline_only();
        for e in &events {
            r.push(RawEvent::from(e));
        }
        let (cols, index, stats) = r.finish().expect("inline recorders cannot fail");
        assert!(!stats.pipelined);
        assert_eq!(cols.to_events(), events);
        // The index still gets prebuilt, matching the pipelined run.
        let (p_cols, p_index, _) = record(&events);
        assert_eq!(cols.to_events(), p_cols.to_events());
        let index = index.expect("inline-only builds the index");
        let p_index = p_index.expect("pipelined builds the index");
        for v in 0..5 {
            assert_eq!(index.defs_of(VarId(v)), p_index.defs_of(VarId(v)));
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
        // The run still finishes cleanly with whatever was recorded.
        let (cols, _, _) = r.finish().expect("deadline is cooperative, not fatal");
        assert!(cols.len() <= 2 * CHUNK_EVENTS + 1);
        let _ = take_recovery();
    }

    #[test]
    fn def_var_patch_survives_chunk_rotation() {
        let mut r = Recorder::new();
        let events = synthetic(CHUNK_EVENTS);
        for e in &events {
            r.push(RawEvent::from(e));
        }
        // The chunk is exactly full but not yet shipped: the patch must
        // still land on the final event.
        r.set_def_var_last(VarId(77));
        let (cols, _, _) = r.finish().expect("no fault plan in scope");
        assert_eq!(
            cols.event(InstId(CHUNK_EVENTS as u32 - 1)).def_var,
            Some(VarId(77))
        );
    }
}
