//! The event recorder: one switch, one per-thread ring, one drain.
//!
//! Every observation the pipeline makes — a phase span, a verification
//! task on a worker lane, a wave boundary, a memo probe, a gauge
//! sample — is one [`Event`] in the recording thread's
//! **fixed-capacity ring**, and batched counters sit beside the ring in
//! the same per-thread slot. The recorder is process-wide and
//! **disabled by default**: every emit site first asks [`enabled`] (one
//! relaxed atomic load), so the disabled product path is a near-no-op.
//! When enabled, an event append never allocates past the preallocated
//! ring and never blocks: a full ring or a contended slot (only
//! [`drain`] takes the lock from another thread) degrades to a counted
//! drop, so recording a saturated scheduler costs a bounded, predictable
//! amount.
//!
//! [`drain`] merges every slot into one [`Recording`], and every view is
//! derived from it:
//!
//! * [`Recording::histogram`] and [`Recording::self_times`] — per-phase
//!   counts, durations, and exclusive time (`--metrics`, the sweep);
//! * [`flamegraph`] — collapsed-stack text, self time per stack;
//! * [`chrome_trace`] — Chrome trace-event JSON (Perfetto /
//!   `chrome://tracing`): a scheduler track, one track per verify
//!   worker, one per span thread, and one counter track per gauge;
//! * [`Recording::summarize`] and [`render_profile`] — per-worker
//!   tasks and utilization, and wave occupancy;
//! * [`normalized_structure`] — the projection determinism tests
//!   compare: timestamps, workers, and scheduling-dependent kinds
//!   stripped, only tasks, waves, memo probes, and marks kept, sorted by
//!   stable id. It is byte-identical across `--jobs` and resume modes.

use crate::json::Json;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The lane of everything recorded outside a verify worker: spans, the
/// spine task, wave boundaries, memo probes, gauge samples.
pub const WORKER_MAIN: u32 = u32::MAX;

/// Per-thread ring capacity, in events. Sized so a sed-scale locate run
/// (a few thousand candidate executions) fits with an order of
/// magnitude to spare; overflow is counted, never grown.
pub const RING_CAPACITY: usize = 1 << 14;

/// The byte gauges the verifier samples once per batch. Each is a
/// counter track in every Chrome trace (zero-filled when the run never
/// verified), and its exported counter is the largest of its samples.
pub const GAUGES: [&str; 2] = ["verify.checkpoint.bytes", "verify.memo.bytes"];

/// What an event describes.
///
/// [`normalized_structure`] keeps only the kinds whose presence and ids
/// are deterministic across jobs × resume (`Task`, `Wave`, `MemoHit`,
/// `MemoMiss`, `Mark`). `Span` nesting follows the recording thread,
/// `Capture`/`CaptureSkip` on resume mode and capture planning, `Evict`
/// on memo pressure, and `Counter` samples on timing — all excluded
/// from the normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A pipeline phase (`parse`, `verify`, …) on the recording thread;
    /// `ts_ns` is the start and `value` the end timestamp.
    Span,
    /// A unit of scheduled work (a candidate re-execution): an interval
    /// like `Span` that also carries a worker lane and a stable id.
    Task,
    /// A wave boundary in `verify_all`.
    Wave,
    /// A memo probe that found its switched run.
    MemoHit,
    /// A memo probe that missed (the candidate joins the batch).
    MemoMiss,
    /// A deterministic point marker (e.g. one locate iteration).
    Mark,
    /// A checkpoint was captured for this candidate.
    Capture,
    /// A planned capture was skipped (cheap prefix or existing donor).
    CaptureSkip,
    /// A memo eviction reclaimed `value` entries.
    Evict,
    /// A gauge sample (`value` = the sample), e.g. live bytes.
    Counter,
}

impl EventKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Task => "task",
            EventKind::Wave => "wave",
            EventKind::MemoHit => "memo_hit",
            EventKind::MemoMiss => "memo_miss",
            EventKind::Mark => "mark",
            EventKind::Capture => "capture",
            EventKind::CaptureSkip => "capture_skip",
            EventKind::Evict => "evict",
            EventKind::Counter => "counter",
        }
    }
}

/// One recorded event. 56 bytes; the ring holds [`RING_CAPACITY`] of
/// them per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Phase or event family (`"verify"`, `"verify.candidate"`, …).
    pub name: &'static str,
    /// Registration ordinal of the recording thread.
    pub thread: u32,
    /// Worker lane for tasks, otherwise [`WORKER_MAIN`].
    pub worker: u32,
    /// Stable id: `batch << 16 | position` for tasks and waves, the
    /// instruction id for memo probes, the iteration number for marks.
    pub id: u64,
    /// Kind-specific payload: end timestamp for spans and tasks, sampled
    /// value for counters, reclaimed entries for evictions, otherwise 0.
    pub value: u64,
    /// Start (or instant), nanoseconds since the recorder epoch.
    pub ts_ns: u64,
}

impl Event {
    /// Whether the event is an interval (a span or a task).
    pub(crate) fn is_interval(&self) -> bool {
        matches!(self.kind, EventKind::Span | EventKind::Task)
    }

    /// End timestamp: `value` for intervals, `ts_ns` for instants.
    pub fn end_ns(&self) -> u64 {
        if self.is_interval() {
            self.value
        } else {
            self.ts_ns
        }
    }

    /// Interval length, nanoseconds (0 for instants).
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns().saturating_sub(self.ts_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_ORDINAL: AtomicU32 = AtomicU32::new(0);

/// Whether the recorder is capturing. This is the guard every emit site
/// checks; it is one relaxed atomic load, so leaving the recorder
/// disabled costs nothing measurable.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on or off. Spans opened while enabled still close
/// correctly after a disable.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the process-wide recorder epoch (the first
/// observation): every event shares this one clock.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Allocates the next batch sequence number for stable event ids. Emit
/// sites only call it while recording and [`reset`] rewinds it, so two
/// recorded runs of the same workload assign identical ids.
pub fn next_seq() -> u64 {
    NEXT_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// One thread's share of the recorder: its event ring and counter
/// totals, behind one lock that only [`drain`] ever contends.
struct Slot {
    ordinal: u32,
    ring: Mutex<Ring>,
    drops: AtomicU64,
}

struct Ring {
    /// Preallocated to `RING_CAPACITY`; appends check the length and the
    /// buffer is never grown.
    events: Vec<Event>,
    counters: Vec<(&'static str, u64)>,
}

static REGISTRY: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

thread_local! {
    static SLOT: OnceCell<Arc<Slot>> = const { OnceCell::new() };
}

/// Runs `f` on this thread's slot, registering it on first use. During
/// thread teardown (the slot already destroyed) it records nothing, so a
/// span guard dropped then cannot panic in `Drop`.
fn with_slot(f: impl FnOnce(&Slot)) {
    let _ = SLOT.try_with(|cell| {
        f(cell.get_or_init(|| {
            let slot = Arc::new(Slot {
                ordinal: NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring {
                    events: Vec::with_capacity(RING_CAPACITY),
                    counters: Vec::new(),
                }),
                drops: AtomicU64::new(0),
            });
            lock(&REGISTRY).push(Arc::clone(&slot));
            slot
        }))
    });
}

/// Every update under the recorder's locks is a single push, add, or
/// drain, so a guard poisoned by a panicking thread still holds valid
/// data and recording carries on.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Appends one event to this thread's ring. Never blocks and never
/// reallocates: a full ring or a lost `try_lock` (a drain in progress)
/// counts a drop instead — dropping one event beats stalling a verify
/// worker behind an exporter.
fn push(mut event: Event) {
    with_slot(|slot| match slot.ring.try_lock() {
        Ok(mut ring) if ring.events.len() < RING_CAPACITY => {
            event.thread = slot.ordinal;
            ring.events.push(event);
            debug_assert!(
                ring.events.capacity() == RING_CAPACITY,
                "ring must never grow"
            );
        }
        _ => {
            slot.drops.fetch_add(1, Ordering::Relaxed);
        }
    });
}

fn event(kind: EventKind, name: &'static str, worker: u32, id: u64, value: u64) -> Event {
    Event {
        kind,
        name,
        thread: 0,
        worker,
        id,
        value,
        ts_ns: now_ns(),
    }
}

/// Records an instant event with a payload (an eviction) on the
/// coordinating lane: only tasks run on worker lanes.
#[inline]
pub fn record(kind: EventKind, name: &'static str, id: u64, value: u64) {
    if enabled() {
        push(event(kind, name, WORKER_MAIN, id, value));
    }
}

/// Records a deterministic point marker (wave boundary, memo probe,
/// iteration).
#[inline]
pub fn mark(kind: EventKind, name: &'static str, id: u64) {
    record(kind, name, id, 0);
}

/// Records one gauge sample (e.g. live bytes): a point on the
/// gauge's counter track, and for the [`GAUGES`] a candidate for the
/// exported counter, which is the largest sample.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    record(EventKind::Counter, name, 0, value);
}

/// RAII guard for one span or task; records the interval on drop. Inert
/// (and free) when the recorder was disabled at open time.
pub struct SpanGuard {
    open: Option<Event>,
}

/// Opens a span named `name` on the calling thread's timeline.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    interval(EventKind::Span, name, WORKER_MAIN, 0)
}

/// Opens a task on `worker`'s lane with stable id `id` — the one event
/// a verification candidate emits. It counts as a span too (histogram,
/// self time, flamegraph) and as the lane's work in the scheduler views.
#[inline]
pub fn task(name: &'static str, worker: u32, id: u64) -> SpanGuard {
    interval(EventKind::Task, name, worker, id)
}

fn interval(kind: EventKind, name: &'static str, worker: u32, id: u64) -> SpanGuard {
    SpanGuard {
        open: enabled().then(|| event(kind, name, worker, id, 0)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut e) = self.open.take() {
            e.value = now_ns();
            push(e);
        }
    }
}

/// Adds `n` to the named counter. Call sites on hot paths should batch
/// (one call per run or chunk, not per event) and guard with
/// [`enabled`]; the function itself is also a no-op when disabled.
///
/// Counters are exact: unlike event appends they wait for the slot
/// lock, which only a drain ever holds from another thread.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_slot(|slot| {
        let mut ring = lock(&slot.ring);
        match ring.counters.iter_mut().find(|(k, _)| *k == name) {
            Some(total) => total.1 += n,
            None => ring.counters.push((name, n)),
        }
    });
}

/// Everything the recorder captured since the last drain.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Events merged across threads, sorted by start time, then longest
    /// first, then `(kind, name, id, worker, thread)`, so the order does
    /// not depend on which thread drained last.
    pub events: Vec<Event>,
    /// Counter totals by name: the batched adds, each of the
    /// [`GAUGES`]' largest sample, and `profile.drops` when events were
    /// lost.
    pub counters: BTreeMap<&'static str, u64>,
    /// Events lost to full rings or drain contention.
    pub drops: u64,
}

/// Collects and clears every thread's slot into one [`Recording`].
pub fn drain() -> Recording {
    let mut rec = Recording::default();
    {
        let mut registry = lock(&REGISTRY);
        for slot in registry.iter() {
            let mut ring = lock(&slot.ring);
            // `append` leaves the ring's allocation in place, so the
            // next recording window still never reallocates.
            rec.events.append(&mut ring.events);
            for (name, n) in ring.counters.drain(..) {
                *rec.counters.entry(name).or_insert(0) += n;
            }
            rec.drops += slot.drops.swap(0, Ordering::Relaxed);
        }
        // A slot only the registry still holds belongs to an exited
        // thread; it has just been emptied, so let it go.
        registry.retain(|slot| Arc::strong_count(slot) > 1);
    }
    rec.events.sort_by(|a, b| {
        a.ts_ns
            .cmp(&b.ts_ns)
            .then(b.end_ns().cmp(&a.end_ns()))
            .then(a.kind.cmp(&b.kind))
            .then(a.name.cmp(b.name))
            .then(a.id.cmp(&b.id))
            .then(a.worker.cmp(&b.worker))
            .then(a.thread.cmp(&b.thread))
    });
    for e in &rec.events {
        if e.kind == EventKind::Counter && e.value > 0 && GAUGES.contains(&e.name) {
            let top = rec.counters.entry(e.name).or_insert(0);
            *top = (*top).max(e.value);
        }
    }
    if rec.drops > 0 {
        rec.counters.insert("profile.drops", rec.drops);
    }
    rec
}

/// Discards everything captured so far and rewinds the sequence
/// counter, so the next recorded run assigns ids from zero again. Call
/// before each run whose output will be compared.
pub fn reset() {
    let _ = drain();
    NEXT_SEQ.store(0, Ordering::Relaxed);
}

/// Number of log2 duration buckets in [`SpanAgg`]: bucket `i` counts
/// durations in `[2^(i-1), 2^i)` ns, with the last bucket absorbing
/// everything from ~9 minutes up.
pub const DURATION_BUCKETS: usize = 40;

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAgg {
    /// Closed spans with this name.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Shortest instance, nanoseconds.
    pub min_ns: u64,
    /// Longest instance, nanoseconds.
    pub max_ns: u64,
    /// Log2-bucketed duration histogram (see [`DURATION_BUCKETS`]);
    /// powers the p50/p90/p99 estimates in `--metrics`.
    pub buckets: [u64; DURATION_BUCKETS],
}

impl Default for SpanAgg {
    fn default() -> Self {
        SpanAgg {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; DURATION_BUCKETS],
        }
    }
}

impl SpanAgg {
    fn bucket(dur_ns: u64) -> usize {
        ((64 - dur_ns.leading_zeros()) as usize).min(DURATION_BUCKETS - 1)
    }

    fn add(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
        self.buckets[SpanAgg::bucket(dur_ns)] += 1;
    }

    /// Estimated `q`-quantile duration (`0.0 < q <= 1.0`): walks the
    /// cumulative histogram to the bucket containing the target rank and
    /// returns its upper bound, clamped to the observed `[min, max]`
    /// range so single-sample aggregates are exact.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if i == 0 { 0 } else { 1u64 << i };
                return upper.clamp(self.min_ns.min(self.max_ns), self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median duration estimate, nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile duration estimate, nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile duration estimate, nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// Per-worker aggregate over one recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerAgg {
    /// Worker index, or [`WORKER_MAIN`] for the coordinating thread.
    pub worker: u32,
    /// Tasks this worker completed.
    pub tasks: u64,
    /// Summed task wall time, nanoseconds.
    pub busy_ns: u64,
}

/// The journal-facing scheduler summary: small and scheduling-dependent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Total events captured.
    pub events: u64,
    /// Events lost to ring overflow or drain contention.
    pub drops: u64,
    /// Wall window spanned by task events, nanoseconds.
    pub window_ns: u64,
    /// Per-worker aggregates, sorted by worker index (main last).
    pub workers: Vec<WorkerAgg>,
}

impl ProfileSummary {
    /// `busy / window` for one worker row; 0 when the window is empty.
    pub fn utilization(&self, w: &WorkerAgg) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            w.busy_ns as f64 / self.window_ns as f64
        }
    }
}

impl Recording {
    /// Spans and tasks, in drain order.
    fn intervals(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.is_interval())
    }

    /// Rebuilds each thread's interval stack: calls `visit` for every
    /// span and task in drain order with the intervals still open around
    /// it on the same thread, outermost first. Nesting depth, self time,
    /// and the flamegraph all derive from this walk.
    pub fn walk_intervals<'a>(&'a self, mut visit: impl FnMut(&'a Event, &[&'a Event])) {
        let mut stacks: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
        for e in self.intervals() {
            let stack = stacks.entry(e.thread).or_default();
            while stack.last().is_some_and(|open| open.end_ns() <= e.ts_ns) {
                stack.pop();
            }
            visit(e, stack);
            stack.push(e);
        }
    }

    /// Per-name span aggregates (count/total/min/max/quantiles), sorted
    /// by name. Tasks count as spans of their name.
    pub fn histogram(&self) -> BTreeMap<&'static str, SpanAgg> {
        let mut out: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
        for e in self.intervals() {
            out.entry(e.name).or_default().add(e.duration_ns());
        }
        out
    }

    /// Per-name *self* time — wall time exclusive of nested child spans
    /// on the same thread. This is what the sweep's per-phase
    /// attribution columns report: a regression in `verify` self time is
    /// scheduler overhead, not candidate work.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, i128> = BTreeMap::new();
        self.walk_intervals(|e, enclosing| {
            let dur = e.duration_ns() as i128;
            *out.entry(e.name).or_insert(0) += dur;
            if let Some(parent) = enclosing.last() {
                *out.entry(parent.name).or_insert(0) -= dur;
            }
        });
        out.into_iter().map(|(k, v)| (k, v.max(0) as u64)).collect()
    }

    /// Total wall time of spans named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.intervals()
            .filter(|e| e.name == name)
            .map(Event::duration_ns)
            .sum()
    }

    fn tasks(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind == EventKind::Task)
    }

    /// The `[min start, max end]` window over task events, nanoseconds.
    pub fn task_window_ns(&self) -> u64 {
        let lo = self.tasks().map(|e| e.ts_ns).min();
        let hi = self.tasks().map(|e| e.value).max();
        match (lo, hi) {
            (Some(lo), Some(hi)) => hi.saturating_sub(lo),
            _ => 0,
        }
    }

    /// Aggregates per-worker tasks and busy time.
    pub fn summarize(&self) -> ProfileSummary {
        let mut workers: BTreeMap<u32, WorkerAgg> = BTreeMap::new();
        for e in self.tasks() {
            let w = workers.entry(e.worker).or_insert(WorkerAgg {
                worker: e.worker,
                tasks: 0,
                busy_ns: 0,
            });
            w.tasks += 1;
            w.busy_ns += e.duration_ns();
        }
        // BTreeMap order puts WORKER_MAIN (u32::MAX) last.
        ProfileSummary {
            events: self.events.len() as u64,
            drops: self.drops,
            window_ns: self.task_window_ns(),
            workers: workers.into_values().collect(),
        }
    }
}

/// The deterministic projection of a recording: only scheduling-
/// independent kinds, worker and timestamps stripped, sorted by
/// `(kind, name, id)`. Two runs of the same workload — any `--jobs` or
/// resume mode — produce byte-identical output.
pub fn normalized_structure(rec: &Recording) -> String {
    let mut lines: Vec<String> = rec
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Task
                    | EventKind::Wave
                    | EventKind::MemoHit
                    | EventKind::MemoMiss
                    | EventKind::Mark
            )
        })
        .map(|e| format!("{} {} {}", e.kind.label(), e.name, e.id))
        .collect();
    lines.sort();
    lines.dedup();
    lines.join("\n")
}

fn us(ns: u64) -> Json {
    Json::Float(ns as f64 / 1000.0)
}

fn meta_event(tid: u64, which: &str, name: String) -> Json {
    Json::object([
        ("ph", Json::str("M")),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(tid)),
        ("name", Json::str(which)),
        ("args", Json::object([("name", Json::Str(name))])),
    ])
}

fn counter_event(name: &str, ts_ns: u64, value: u64) -> Json {
    Json::object([
        ("ph", Json::str("C")),
        ("pid", Json::UInt(0)),
        ("name", Json::str(name)),
        ("ts", us(ts_ns)),
        ("args", Json::object([("value", Json::UInt(value))])),
    ])
}

/// Offset separating span-thread tracks from worker tracks in the
/// Chrome trace (worker w → tid w+1, span thread t → tid 1000+t).
const SPAN_TID_BASE: u64 = 1000;

/// The Chrome track of a worker lane: tid 0 for [`WORKER_MAIN`].
fn lane_tid(worker: u32) -> u64 {
    if worker == WORKER_MAIN {
        0
    } else {
        worker as u64 + 1
    }
}

/// Builds the Chrome trace-event document: `{"traceEvents": [...]}`,
/// loadable in Perfetto or `chrome://tracing`. Track layout:
///
/// * tid 0 `scheduler` — events from the coordinating thread: spine
///   tasks as `X` slices, waves / memo probes / marks as instants;
/// * tid w+1 `verify-worker-w` — one track per worker: candidate
///   executions as `X` slices;
/// * tid 1000+t `span-thread-t` — each thread's spans as `X` slices;
/// * counter tracks (`ph:"C"`) for each gauge's samples, plus one point
///   for every `.bytes` counter that has none (the [`GAUGES`]
///   zero-filled when the run never verified).
///
/// Every candidate appears once, as a task slice on its lane.
pub fn chrome_trace(rec: &Recording) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(meta_event(0, "process_name", "omislice".into()));
    events.push(meta_event(0, "thread_name", "scheduler".into()));
    // Every lane up to the highest one seen gets a track: a spawned
    // worker that found every leaf already claimed records nothing, yet
    // the worker tracks stay contiguous from `verify-worker-0`.
    let lanes = rec
        .events
        .iter()
        .filter(|e| e.worker != WORKER_MAIN)
        .map(|e| e.worker + 1)
        .max()
        .unwrap_or(0);
    for w in 0..lanes {
        events.push(meta_event(
            lane_tid(w),
            "thread_name",
            format!("verify-worker-{w}"),
        ));
    }
    let span_threads: BTreeSet<u32> = rec
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| e.thread)
        .collect();
    for &t in &span_threads {
        events.push(meta_event(
            SPAN_TID_BASE + t as u64,
            "thread_name",
            format!("span-thread-{t}"),
        ));
    }

    rec.walk_intervals(|e, enclosing| {
        let (tid, arg) = if e.kind == EventKind::Span {
            let depth = Json::UInt(enclosing.len() as u64);
            (SPAN_TID_BASE + e.thread as u64, ("depth", depth))
        } else {
            (lane_tid(e.worker), ("id", Json::UInt(e.id)))
        };
        events.push(Json::object([
            ("ph", Json::str("X")),
            ("pid", Json::UInt(0)),
            ("tid", Json::UInt(tid)),
            ("name", Json::str(e.name)),
            ("ts", us(e.ts_ns)),
            ("dur", us(e.duration_ns())),
            ("args", Json::object([arg])),
        ]));
    });
    let mut sampled: BTreeSet<&str> = BTreeSet::new();
    for e in rec.events.iter().filter(|e| !e.is_interval()) {
        if e.kind == EventKind::Counter {
            sampled.insert(e.name);
            events.push(counter_event(e.name, e.ts_ns, e.value));
            continue;
        }
        events.push(Json::object([
            ("ph", Json::str("i")),
            ("s", Json::str("t")),
            ("pid", Json::UInt(0)),
            ("tid", Json::UInt(lane_tid(e.worker))),
            ("name", Json::str(e.name)),
            ("ts", us(e.ts_ns)),
            (
                "args",
                Json::object([
                    ("kind", Json::str(e.kind.label())),
                    ("id", Json::UInt(e.id)),
                    ("value", Json::UInt(e.value)),
                ]),
            ),
        ]));
    }

    // Byte counters without samples (e.g. `columnar.bytes`) become
    // one-point tracks so Perfetto still shows their totals; the gauges
    // are part of the document schema (validate_profile requires them).
    let mut byte_tracks: BTreeMap<&str, u64> = GAUGES.iter().map(|&g| (g, 0)).collect();
    for (&name, &v) in &rec.counters {
        if name.ends_with(".bytes") {
            byte_tracks.insert(name, v);
        }
    }
    for (name, v) in byte_tracks {
        if !sampled.contains(name) {
            events.push(counter_event(name, 0, v));
        }
    }

    Json::object([("traceEvents", Json::Array(events))])
}

/// Collapsed-stack flamegraph text from the interval hierarchy: one
/// `omislice;parent;child self_time_ns` line per stack, sorted, ready
/// for `flamegraph.pl` or speedscope. Self time is exclusive of
/// children (a parent's value shrinks by each nested interval).
pub fn flamegraph(rec: &Recording) -> String {
    let mut totals: BTreeMap<String, i128> = BTreeMap::new();
    rec.walk_intervals(|e, enclosing| {
        let mut parent = String::from("omislice");
        for open in enclosing {
            parent.push(';');
            parent.push_str(open.name);
        }
        let dur = e.duration_ns() as i128;
        *totals.entry(format!("{parent};{}", e.name)).or_insert(0) += dur;
        // The parent was credited its full duration when it was
        // visited; carve this child's share back out so values are self
        // time.
        *totals.entry(parent).or_insert(0) -= dur;
    });
    let mut out = String::new();
    for (key, v) in &totals {
        if *v > 0 {
            out.push_str(&format!("{key} {v}\n"));
        }
    }
    out
}

/// Renders the aggregated text report: per-worker tasks and
/// utilization, wave occupancy histogram, and drop counts.
pub fn render_profile(rec: &Recording) -> String {
    let summary = rec.summarize();
    let mut out = String::new();
    out.push_str(&format!(
        "events {}  drops {}  window {:.3} ms\n",
        summary.events,
        summary.drops,
        summary.window_ns as f64 / 1e6
    ));
    for w in &summary.workers {
        let label = if w.worker == WORKER_MAIN {
            "main".to_string()
        } else {
            format!("worker {}", w.worker)
        };
        out.push_str(&format!(
            "{label:>9}: {:>5} tasks  busy {:>9.3} ms  util {:>5.1}%\n",
            w.tasks,
            w.busy_ns as f64 / 1e6,
            summary.utilization(w) * 100.0
        ));
    }
    // Wave occupancy: tasks per batch sequence (the id's high bits).
    let mut per_wave: BTreeMap<u64, u64> = BTreeMap::new();
    for e in rec.tasks() {
        *per_wave.entry(e.id >> 16).or_insert(0) += 1;
    }
    if !per_wave.is_empty() {
        let mut occupancy: BTreeMap<u64, u64> = BTreeMap::new();
        for &n in per_wave.values() {
            // Log2 buckets: 1, 2-3, 4-7, 8-15, …
            let bucket = 63 - n.max(1).leading_zeros() as u64;
            *occupancy.entry(bucket).or_insert(0) += 1;
        }
        out.push_str("wave occupancy (tasks -> waves):\n");
        for (bucket, waves) in &occupancy {
            let lo = 1u64 << bucket;
            let hi = (1u64 << (bucket + 1)) - 1;
            if lo == hi {
                out.push_str(&format!("  {lo:>7}: {waves}\n"));
            } else {
                out.push_str(&format!("  {lo:>3}-{hi:>3}: {waves}\n"));
            }
        }
    }
    out
}

/// What [`check_chrome_trace`] verified about a document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileCheck {
    /// `verify-worker-N` tracks found (sorted by worker index).
    pub worker_tracks: Vec<String>,
    /// Counter-track names found.
    pub counter_tracks: Vec<String>,
    /// Total `X` events.
    pub slices: usize,
    /// Σ per-worker busy / window over worker-track slices. Bounded by
    /// the worker count for any physically possible schedule.
    pub utilization_sum: f64,
}

/// Validates a Chrome trace-event document produced by [`chrome_trace`]:
/// the `traceEvents` array exists, every event is well-formed for its
/// phase, every tid that carries events has a `thread_name`, and worker
/// tracks are named contiguously from `verify-worker-0`. Returns the
/// check summary (the CI gate additionally asserts
/// `utilization_sum <= jobs`).
pub fn check_chrome_trace(doc: &Json) -> Result<ProfileCheck, String> {
    let Json::Object(top) = doc else {
        return Err("top level is not an object".into());
    };
    let Some(Json::Array(events)) = top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
    else {
        return Err("missing traceEvents array".into());
    };
    let mut thread_names: BTreeMap<u64, String> = BTreeMap::new();
    let mut used_tids: Vec<u64> = Vec::new();
    let mut counter_tracks: Vec<String> = Vec::new();
    let mut slices = 0usize;
    // Per-tid (busy_us, min_ts, max_end) over worker-track slices.
    let mut busy: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let Json::Object(obj) = e else {
            return Err(format!("event {i} is not an object"));
        };
        let field = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let num = |k: &str| -> Option<f64> {
            match field(k) {
                Some(Json::Float(f)) => Some(*f),
                Some(Json::UInt(u)) => Some(*u as f64),
                Some(Json::Int(n)) => Some(*n as f64),
                _ => None,
            }
        };
        let Some(Json::Str(ph)) = field("ph") else {
            return Err(format!("event {i}: missing ph"));
        };
        let Some(Json::Str(name)) = field("name") else {
            return Err(format!("event {i}: missing name"));
        };
        match ph.as_str() {
            "M" => {
                if name == "thread_name" {
                    let tid = num("tid").ok_or_else(|| format!("event {i}: missing tid"))? as u64;
                    let Some(Json::Object(args)) = field("args") else {
                        return Err(format!("event {i}: thread_name without args"));
                    };
                    let Some((_, Json::Str(tname))) = args.iter().find(|(k, _)| k == "name") else {
                        return Err(format!("event {i}: thread_name without args.name"));
                    };
                    thread_names.insert(tid, tname.clone());
                }
            }
            "X" => {
                let ts = num("ts").ok_or_else(|| format!("event {i}: X without ts"))?;
                let dur = num("dur").ok_or_else(|| format!("event {i}: X without dur"))?;
                let tid = num("tid").ok_or_else(|| format!("event {i}: X without tid"))? as u64;
                used_tids.push(tid);
                slices += 1;
                if (1..SPAN_TID_BASE).contains(&tid) {
                    let slot = busy.entry(tid).or_insert((0.0, f64::MAX, 0.0));
                    slot.0 += dur;
                    slot.1 = slot.1.min(ts);
                    slot.2 = slot.2.max(ts + dur);
                }
            }
            "C" => {
                if !counter_tracks.contains(name) {
                    counter_tracks.push(name.clone());
                }
                num("ts").ok_or_else(|| format!("event {i}: C without ts"))?;
            }
            "i" | "I" => {
                num("ts").ok_or_else(|| format!("event {i}: instant without ts"))?;
                used_tids.push(num("tid").unwrap_or(0.0) as u64);
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    used_tids.sort_unstable();
    used_tids.dedup();
    for tid in &used_tids {
        if !thread_names.contains_key(tid) {
            return Err(format!("tid {tid} carries events but has no thread_name"));
        }
    }
    let mut worker_tracks: Vec<(u64, String)> = thread_names
        .iter()
        .filter(|(tid, name)| {
            (1..SPAN_TID_BASE).contains(*tid) && name.starts_with("verify-worker-")
        })
        .map(|(tid, name)| (*tid, name.clone()))
        .collect();
    worker_tracks.sort_by_key(|(tid, _)| *tid);
    for (i, (tid, name)) in worker_tracks.iter().enumerate() {
        let expect = format!("verify-worker-{i}");
        if *name != expect || *tid != i as u64 + 1 {
            return Err(format!(
                "worker track {i}: expected tid {} named {expect:?}, found tid {tid} named {name:?}",
                i + 1
            ));
        }
    }
    let window = busy
        .values()
        .fold((f64::MAX, 0.0f64), |(lo, hi), (_, s, e)| {
            (lo.min(*s), hi.max(*e))
        });
    let utilization_sum = if busy.is_empty() || window.1 <= window.0 {
        0.0
    } else {
        busy.values().map(|(b, _, _)| b).sum::<f64>() / (window.1 - window.0)
    };
    counter_tracks.sort();
    Ok(ProfileCheck {
        worker_tracks: worker_tracks.into_iter().map(|(_, n)| n).collect(),
        counter_tracks,
        slices,
        utilization_sum,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The recorder is process-global; every test that records serializes
    // on this lock so enable/drain cycles do not interleave. Tests in
    // other modules of this crate must do the same.
    pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    fn start() -> std::sync::MutexGuard<'static, ()> {
        let g = test_guard();
        set_enabled(true);
        reset();
        g
    }

    fn stop() -> Recording {
        set_enabled(false);
        drain()
    }

    fn interval(kind: EventKind, name: &'static str, thread: u32, start: u64, end: u64) -> Event {
        Event {
            kind,
            name,
            thread,
            worker: WORKER_MAIN,
            id: 0,
            value: end,
            ts_ns: start,
        }
    }

    fn recording(events: Vec<Event>) -> Recording {
        Recording {
            events,
            ..Recording::default()
        }
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _g = test_guard();
        set_enabled(false);
        reset();
        {
            let _s = span("parse");
            counter_add("tracer.events", 10);
        }
        let rec = drain();
        assert!(rec.events.is_empty());
        assert!(rec.counters.is_empty());
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = test_guard();
        set_enabled(false);
        reset();
        {
            let _t = task("verify.candidate", 0, 1);
            gauge("verify.memo.bytes", 64);
        }
        record(EventKind::Mark, "noop", 1, 0);
        let rec = drain();
        assert!(rec.events.is_empty());
        assert!(rec.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_merge() {
        let _g = start();
        {
            let _outer = span("verify");
            for i in 0..3u64 {
                let _inner = task("verify.candidate", WORKER_MAIN, i);
            }
        }
        counter_add("csr.fill.edges", 2);
        counter_add("csr.fill.edges", 3);
        let rec = stop();
        assert_eq!(rec.events.len(), 4);
        let mut depths = Vec::new();
        rec.walk_intervals(|e, enclosing| depths.push((e.name, enclosing.len())));
        assert_eq!(depths[0], ("verify", 0));
        assert!(depths[1..].iter().all(|&d| d == ("verify.candidate", 1)));
        let outer = rec.events.iter().find(|e| e.name == "verify").unwrap();
        for e in rec.events.iter().filter(|e| e.name == "verify.candidate") {
            assert!(e.ts_ns >= outer.ts_ns && e.end_ns() <= outer.end_ns());
        }
        assert_eq!(rec.counters.get("csr.fill.edges"), Some(&5));
        let hist = rec.histogram();
        assert_eq!(hist["verify.candidate"].count, 3);
        assert!(hist["verify"].total_ns >= hist["verify.candidate"].total_ns);
        assert!(rec.total_ns("verify") >= 1);
    }

    #[test]
    fn an_idle_worker_still_gets_its_track() {
        let _g = start();
        // Worker 1 claimed the only task before worker 0 ran.
        drop(task("verify.candidate", 1, 7));
        let check = check_chrome_trace(&chrome_trace(&stop())).unwrap();
        assert_eq!(
            check.worker_tracks,
            vec!["verify-worker-0", "verify-worker-1"]
        );
    }

    #[test]
    fn a_task_is_one_event_seen_by_every_view() {
        let _g = start();
        {
            let _v = span("verify");
            let _t = task("verify.candidate", 0, (3 << 16) | 2);
        }
        let rec = stop();
        let tasks: Vec<_> = rec.tasks().collect();
        assert_eq!(tasks.len(), 1);
        assert_eq!(rec.histogram()["verify.candidate"].count, 1);
        assert_eq!(rec.summarize().workers[0].tasks, 1);
        assert!(flamegraph(&rec).contains("omislice;verify;verify.candidate "));
        assert_eq!(
            normalized_structure(&rec),
            format!("task verify.candidate {}", (3 << 16) | 2)
        );
        let check = check_chrome_trace(&chrome_trace(&rec)).unwrap();
        assert_eq!(check.worker_tracks, vec!["verify-worker-0"]);
        assert_eq!(check.slices, 2, "one span slice plus one task slice");
    }

    #[test]
    fn gauges_export_their_largest_sample() {
        let _g = start();
        gauge("verify.memo.bytes", 300);
        gauge("verify.memo.bytes", 700);
        gauge("verify.memo.bytes", 500);
        gauge("test.depth", 4);
        counter_add("tracer.runs", 3);
        std::thread::spawn(|| counter_add("tracer.runs", 2))
            .join()
            .unwrap();
        let rec = stop();
        assert_eq!(rec.counters.get("verify.memo.bytes"), Some(&700));
        assert_eq!(
            rec.counters.get("tracer.runs"),
            Some(&5),
            "counters merge across threads by sum"
        );
        assert_eq!(rec.counters.get("test.depth"), None);
        assert_eq!(rec.counters.get("profile.drops"), None);
    }

    #[test]
    fn quantiles_walk_log_buckets_and_clamp_to_range() {
        let mut agg = SpanAgg::default();
        // 90 fast spans near 1 µs, 10 slow near 1 ms.
        for _ in 0..90 {
            agg.add(1_000);
        }
        for _ in 0..10 {
            agg.add(1_000_000);
        }
        let p50 = agg.p50_ns();
        let p99 = agg.p99_ns();
        assert!((1_000..4_096).contains(&p50), "p50 = {p50}");
        assert!((524_288..=1_000_000).contains(&p99), "p99 = {p99}");
        assert_eq!(SpanAgg::default().p50_ns(), 0, "empty aggregate");
        // A single sample is exact: clamped to [min, max].
        let mut one = SpanAgg::default();
        one.add(777);
        assert_eq!(one.p50_ns(), 777);
        assert_eq!(one.p99_ns(), 777);
    }

    #[test]
    fn self_times_exclude_children() {
        let rec = recording(vec![
            interval(EventKind::Span, "locate", 0, 0, 1000),
            interval(EventKind::Span, "verify", 0, 100, 900),
            interval(EventKind::Task, "verify.candidate", 0, 200, 700),
        ]);
        let self_times = rec.self_times();
        assert_eq!(self_times["locate"], 200);
        assert_eq!(self_times["verify"], 300);
        assert_eq!(self_times["verify.candidate"], 500);
    }

    #[test]
    fn threads_merge_deterministically() {
        let _g = start();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _sp = span("worker");
                    counter_add("work", 1);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let rec = stop();
        assert_eq!(rec.events.len(), 4);
        assert_eq!(rec.counters.get("work"), Some(&4));
        let threads: BTreeSet<u32> = rec.events.iter().map(|e| e.thread).collect();
        assert_eq!(threads.len(), 4, "one slot per recording thread");
        // Sorted by start time.
        for w in rec.events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
        // The exited threads' slots were released by the drain.
        assert!(lock(&REGISTRY)
            .iter()
            .all(|slot| !threads.contains(&slot.ordinal)));
    }

    #[test]
    fn ring_overflow_degrades_to_counted_drops() {
        let _g = start();
        for i in 0..(RING_CAPACITY as u64 + 100) {
            record(EventKind::Mark, "m", i, 0);
        }
        let rec = stop();
        assert_eq!(rec.events.len(), RING_CAPACITY);
        assert_eq!(rec.drops, 100);
        assert_eq!(rec.counters.get("profile.drops"), Some(&100));
        // Events that fit were kept in order; the overflow was dropped,
        // not spilled into a reallocated buffer.
        assert_eq!(rec.events[0].id, 0);
        assert_eq!(rec.events.last().unwrap().id, RING_CAPACITY as u64 - 1);
        // The next window starts clean.
        set_enabled(true);
        record(EventKind::Mark, "m2", 7, 0);
        let next = stop();
        assert_eq!(next.events.len(), 1);
        assert_eq!(next.drops, 0);
    }

    #[test]
    fn summarize_attributes_busy_time_per_worker() {
        let mut events = vec![
            interval(EventKind::Task, "verify.candidate", 0, 100, 400),
            interval(EventKind::Task, "verify.candidate", 0, 100, 300),
            interval(EventKind::Task, "verify.candidate", 0, 300, 350),
        ];
        events[0].worker = 0;
        events[1].worker = 1;
        events[2].worker = 1;
        let summary = recording(events).summarize();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.window_ns, 300);
        assert_eq!(summary.workers.len(), 2);
        assert_eq!(summary.workers[0].busy_ns, 300);
        assert_eq!(summary.workers[1].tasks, 2);
        assert_eq!(summary.workers[1].busy_ns, 250);
        assert!(summary.utilization(&summary.workers[0]) > 0.99);
    }

    #[test]
    fn normalization_strips_workers_and_time_keeps_stable_ids() {
        let _g = start();
        drop(task("verify.candidate", 3, 42));
        drop(span("verify"));
        mark(EventKind::Wave, "verify.wave", 1);
        mark(EventKind::MemoHit, "verify.memo", 7);
        record(EventKind::Evict, "memo.evictions", 0, 1);
        gauge("queue.depth", 5);
        let a = normalized_structure(&stop());
        // Same structure, different workers/timestamps/evictions.
        set_enabled(true);
        reset();
        mark(EventKind::MemoHit, "verify.memo", 7);
        drop(task("verify.candidate", 0, 42));
        mark(EventKind::Wave, "verify.wave", 1);
        let b = normalized_structure(&stop());
        assert_eq!(a, b);
        assert!(a.contains("task verify.candidate 42"));
        assert!(!a.contains("evict"));
        assert!(!a.contains("counter"));
        assert!(!a.contains("span"));
    }

    #[test]
    fn chrome_trace_round_trips_through_checker() {
        let _g = start();
        {
            let _v = span("verify");
            drop(task("verify.candidate", 0, 1));
            drop(task("verify.candidate", 1, 2));
        }
        record(EventKind::Evict, "memo.evictions", 0, 1);
        mark(EventKind::Wave, "verify.wave", 0);
        gauge("test.depth", 3);
        counter_add("columnar.bytes", 4096);
        let rec = stop();
        let text = chrome_trace(&rec).to_string();
        let parsed = crate::json::parse(&text).expect("exporter emits valid JSON");
        let check = check_chrome_trace(&parsed).expect("well-formed trace");
        assert_eq!(
            check.worker_tracks,
            vec!["verify-worker-0", "verify-worker-1"]
        );
        for track in GAUGES.iter().chain(&["test.depth", "columnar.bytes"]) {
            assert!(
                check.counter_tracks.iter().any(|t| t == track),
                "missing counter track {track}"
            );
        }
        assert_eq!(check.slices, 3);
        assert!(check.utilization_sum <= 2.0 + 1e-9);
    }

    #[test]
    fn flamegraph_produces_self_time_stacks() {
        let rec = recording(vec![
            interval(EventKind::Span, "locate", 0, 0, 1000),
            interval(EventKind::Span, "verify", 0, 100, 900),
            interval(EventKind::Task, "verify.candidate", 0, 200, 600),
            interval(EventKind::Task, "verify.candidate", 1, 200, 500),
        ]);
        let fg = flamegraph(&rec);
        assert!(fg.contains("omislice;locate 200\n"), "{fg}");
        assert!(fg.contains("omislice;locate;verify 400\n"), "{fg}");
        assert!(
            fg.contains("omislice;locate;verify;verify.candidate 400\n"),
            "{fg}"
        );
        assert!(fg.contains("omislice;verify.candidate 300\n"), "{fg}");
    }

    #[test]
    fn render_profile_reports_utilization_and_waves() {
        let _g = start();
        let seq = next_seq();
        for i in 0..4u64 {
            drop(task("verify.candidate", (i % 2) as u32, (seq << 16) | i));
        }
        let text = render_profile(&stop());
        assert!(text.contains("worker 0"), "{text}");
        assert!(text.contains("worker 1"), "{text}");
        assert!(text.contains("wave occupancy"), "{text}");
    }
}
