//! Timeline profiler: per-worker scheduler event rings and exporters.
//!
//! The span layer ([`crate::span`]) answers *how long each phase took*;
//! this module answers *where the scheduler spent its time*: which
//! worker ran which verification candidate, when work was stolen, where
//! wave boundaries fell, which memo probes hit, and how checkpoint
//! bytes and the recorder queue evolved. Events land in a **fixed-
//! capacity per-thread ring**: the hot path never allocates past the
//! preallocated buffer and never blocks — a full ring or a contended
//! slot (only `drain` takes the lock from another thread) degrades to a
//! counted drop, so profiling a saturated scheduler costs a bounded,
//! predictable amount.
//!
//! Three consumers sit on top of one drained [`ProfileReport`]:
//!
//! * [`chrome_trace`] — Chrome trace-event JSON (Perfetto /
//!   `chrome://tracing`), one track per verify worker plus counter
//!   tracks for memo bytes, checkpoint bytes, and recorder queue depth;
//! * [`flamegraph`] — collapsed-stack text derived from the span
//!   hierarchy, one `stack;frames value` line per self-time bucket;
//! * [`render_profile`] — an aggregated text report (per-worker
//!   utilization, steal/task ratios, wave occupancy) for the stderr
//!   reporter.
//!
//! Timelines are inherently nondeterministic, so determinism tests
//! compare [`normalized_structure`] instead: timestamps and worker
//! assignments are stripped and only the *scheduling-independent* event
//! kinds (tasks, waves, memo probes, marks) are kept, sorted by stable
//! ids. That projection is byte-identical across `--jobs` and resume
//! modes.

use crate::json::Json;
use crate::span::SpanReport;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events recorded on the coordinating thread (wave boundaries, memo
/// probes, counter samples) use this sentinel instead of a worker index.
pub const WORKER_MAIN: u32 = u32::MAX;

/// Per-thread ring capacity, in events. Sized so a sed-scale locate run
/// (a few thousand candidate executions) fits with an order of
/// magnitude to spare; overflow is counted, never grown.
pub const RING_CAPACITY: usize = 1 << 14;

/// What a timeline event describes.
///
/// The discriminant order is load-bearing: [`normalized_structure`]
/// keeps only the kinds whose presence and ids are deterministic across
/// jobs × resume (`Task`, `Wave`, `MemoHit`, `MemoMiss`,
/// `Mark`). `Steal` depends on scheduling, `Capture`/`CaptureSkip` on
/// resume mode and capture planning, `Evict` on memo pressure, and
/// `Counter` samples on timing — all excluded from the normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A unit of scheduled work (candidate re-execution); `ts_ns` is the
    /// start and `value` the end timestamp.
    Task,
    /// A wave boundary in `verify_all`.
    Wave,
    /// A memo probe that found its switched run.
    MemoHit,
    /// A memo probe that missed (the candidate joins the batch).
    MemoMiss,
    /// A deterministic point marker (e.g. one locate iteration).
    Mark,
    /// A worker took work from another worker's queue.
    Steal,
    /// A checkpoint was captured for this candidate.
    Capture,
    /// A planned capture was skipped (cheap prefix or existing donor).
    CaptureSkip,
    /// A memo eviction reclaimed `value` entries.
    Evict,
    /// A sampled gauge (`value` = the sample): queue depth, live bytes.
    Counter,
}

impl EventKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Task => "task",
            EventKind::Wave => "wave",
            EventKind::MemoHit => "memo_hit",
            EventKind::MemoMiss => "memo_miss",
            EventKind::Mark => "mark",
            EventKind::Steal => "steal",
            EventKind::Capture => "capture",
            EventKind::CaptureSkip => "capture_skip",
            EventKind::Evict => "evict",
            EventKind::Counter => "counter",
        }
    }
}

/// One timeline event. 48 bytes; the ring holds [`RING_CAPACITY`] of
/// them per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Event family (`"verify.candidate"`, `"verify.wave"`, …).
    pub name: &'static str,
    /// Worker index within the batch, or [`WORKER_MAIN`].
    pub worker: u32,
    /// Stable id: `batch << 16 | position` for tasks and waves, the
    /// instruction id for memo probes, the iteration number for marks.
    pub id: u64,
    /// Kind-specific payload: end timestamp for tasks, sampled value for
    /// counters, reclaimed entries for evictions, otherwise 0.
    pub value: u64,
    /// Nanoseconds since the shared recorder epoch.
    pub ts_ns: u64,
}

static PROFILING: AtomicBool = AtomicBool::new(false);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Whether the timeline profiler is capturing. One relaxed load; every
/// emit site checks this first, so a disabled profiler is ≈ free.
#[inline(always)]
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Turns the timeline profiler on or off (independent of the span
/// recorder switch).
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the shared recorder epoch — the same clock span
/// timestamps use, so tracks and spans align in one trace.
#[inline]
pub fn timestamp_ns() -> u64 {
    crate::span::now_ns()
}

/// Allocates the next batch/sequence number for stable event ids. The
/// counter only advances while profiling, and [`profile_reset`] rewinds
/// it, so two profiled runs of the same workload assign identical ids.
pub fn next_seq() -> u64 {
    NEXT_SEQ.fetch_add(1, Ordering::Relaxed)
}

struct RingSlot {
    /// Preallocated to `RING_CAPACITY`; push checks `len == capacity`
    /// and the buffer is never grown.
    buf: Mutex<Vec<Event>>,
    drops: AtomicU64,
}

fn rings() -> &'static Mutex<Vec<Arc<RingSlot>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<RingSlot>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: RefCell<Option<Arc<RingSlot>>> = const { RefCell::new(None) };
}

/// Appends one event to this thread's ring. Never blocks and never
/// reallocates: a contended slot (drain in progress) or a full ring
/// increments the drop counter instead.
#[inline]
pub fn record(kind: EventKind, name: &'static str, worker: u32, id: u64, value: u64) {
    if !profiling() {
        return;
    }
    record_at(kind, name, worker, id, value, timestamp_ns());
}

fn record_at(kind: EventKind, name: &'static str, worker: u32, id: u64, value: u64, ts_ns: u64) {
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let slot = slot.get_or_insert_with(|| {
            let s = Arc::new(RingSlot {
                buf: Mutex::new(Vec::with_capacity(RING_CAPACITY)),
                drops: AtomicU64::new(0),
            });
            rings().lock().unwrap().push(Arc::clone(&s));
            s
        });
        match slot.buf.try_lock() {
            Ok(mut buf) => {
                if buf.len() < RING_CAPACITY {
                    buf.push(Event {
                        kind,
                        name,
                        worker,
                        id,
                        value,
                        ts_ns,
                    });
                    debug_assert!(buf.capacity() == RING_CAPACITY, "ring must never grow");
                } else {
                    slot.drops.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Only drain() contends; dropping one event beats stalling a
            // verify worker behind an exporter.
            Err(_) => {
                slot.drops.fetch_add(1, Ordering::Relaxed);
            }
        };
    });
}

/// Records a completed task: `ts_ns` = start, `value` = end.
#[inline]
pub fn task(name: &'static str, worker: u32, id: u64, start_ns: u64, end_ns: u64) {
    if !profiling() {
        return;
    }
    record_at(EventKind::Task, name, worker, id, end_ns, start_ns);
}

/// Records a sampled gauge value (queue depth, live checkpoint bytes).
#[inline]
pub fn counter_sample(name: &'static str, value: u64) {
    record(EventKind::Counter, name, WORKER_MAIN, 0, value);
}

/// Records a deterministic point marker (wave boundary, iteration).
#[inline]
pub fn mark(kind: EventKind, name: &'static str, id: u64) {
    record(kind, name, WORKER_MAIN, id, 0);
}

/// Everything the profiler captured since the last drain.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Events merged across threads, sorted by
    /// `(ts_ns, kind, name, id, worker)` so the merge order does not
    /// depend on which thread drained last.
    pub events: Vec<Event>,
    /// Events lost to full rings or drain contention.
    pub drops: u64,
}

/// Collects and clears every thread's ring.
pub fn profile_drain() -> ProfileReport {
    let slots: Vec<Arc<RingSlot>> = rings().lock().unwrap().clone();
    let mut events = Vec::new();
    let mut drops = 0;
    for slot in slots {
        let mut buf = slot.buf.lock().unwrap();
        events.append(&mut buf);
        // Keep the no-realloc invariant for the next recording window.
        buf.reserve_exact(RING_CAPACITY);
        drops += slot.drops.swap(0, Ordering::Relaxed);
    }
    events.sort_by(|a, b| {
        a.ts_ns
            .cmp(&b.ts_ns)
            .then(a.kind.cmp(&b.kind))
            .then(a.name.cmp(b.name))
            .then(a.id.cmp(&b.id))
            .then(a.worker.cmp(&b.worker))
    });
    ProfileReport { events, drops }
}

/// Discards everything captured so far and rewinds the sequence
/// counter, so the next profiled run assigns ids from zero again. Call
/// before each run whose normalized structure will be compared.
pub fn profile_reset() {
    let _ = profile_drain();
    NEXT_SEQ.store(0, Ordering::Relaxed);
}

/// Per-worker aggregate over one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerAgg {
    /// Worker index, or [`WORKER_MAIN`] for the coordinating thread.
    pub worker: u32,
    /// Tasks this worker completed.
    pub tasks: u64,
    /// Tasks it took from another worker's queue.
    pub steals: u64,
    /// Summed task wall time, nanoseconds.
    pub busy_ns: u64,
}

/// The journal-facing summary: small, scheduling-dependent, and emitted
/// only when profiling was on (clean journals stay byte-unchanged).
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

impl ProfileReport {
    /// The `[min start, max end]` window over task events, nanoseconds.
    pub fn task_window_ns(&self) -> u64 {
        let mut lo = u64::MAX;
        let mut hi = 0;
        for e in self.events.iter().filter(|e| e.kind == EventKind::Task) {
            lo = lo.min(e.ts_ns);
            hi = hi.max(e.value);
        }
        hi.saturating_sub(if lo == u64::MAX { hi } else { lo })
    }

    /// Aggregates per-worker tasks, steals, and busy time.
    pub fn summarize(&self) -> ProfileSummary {
        let mut workers: BTreeMap<u32, WorkerAgg> = BTreeMap::new();
        for e in &self.events {
            match e.kind {
                EventKind::Task => {
                    let w = workers.entry(e.worker).or_insert(WorkerAgg {
                        worker: e.worker,
                        tasks: 0,
                        steals: 0,
                        busy_ns: 0,
                    });
                    w.tasks += 1;
                    w.busy_ns += e.value.saturating_sub(e.ts_ns);
                }
                EventKind::Steal => {
                    let w = workers.entry(e.worker).or_insert(WorkerAgg {
                        worker: e.worker,
                        tasks: 0,
                        steals: 0,
                        busy_ns: 0,
                    });
                    w.steals += 1;
                }
                _ => {}
            }
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

/// The deterministic projection of a profile: only scheduling-
/// independent kinds, worker and timestamps stripped, sorted by
/// `(kind, name, id)`. Two runs of the same workload — any `--jobs` or
/// resume mode — produce byte-identical output.
pub fn normalized_structure(report: &ProfileReport) -> String {
    let mut lines: Vec<String> = report
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

/// Offset separating span-thread tracks from worker tracks in the
/// Chrome trace (worker w → tid w+1, span thread t → tid 1000+t).
const SPAN_TID_BASE: u64 = 1000;

/// Builds the Chrome trace-event document: `{"traceEvents": [...]}`,
/// loadable in Perfetto or `chrome://tracing`. Track layout:
///
/// * tid 0 `scheduler` — events from the coordinating thread: spine
///   tasks as `X` slices, waves / memo probes / marks as instants;
/// * tid w+1 `verify-worker-w` — one track per worker: candidate
///   executions as `X` slices, steals as instants;
/// * tid 1000+t `span-thread-t` — the span hierarchy as `X` slices;
/// * counter tracks (`ph:"C"`) for each sampled or high-water gauge.
pub fn chrome_trace(profile: &ProfileReport, spans: &SpanReport) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(meta_event(0, "process_name", "omislice".into()));
    events.push(meta_event(0, "thread_name", "scheduler".into()));

    let mut worker_ids: Vec<u32> = profile
        .events
        .iter()
        .filter(|e| e.worker != WORKER_MAIN)
        .map(|e| e.worker)
        .collect();
    worker_ids.sort_unstable();
    worker_ids.dedup();
    for &w in &worker_ids {
        events.push(meta_event(
            w as u64 + 1,
            "thread_name",
            format!("verify-worker-{w}"),
        ));
    }
    let mut span_threads: Vec<u32> = spans.spans.iter().map(|s| s.thread).collect();
    span_threads.sort_unstable();
    span_threads.dedup();
    for &t in &span_threads {
        events.push(meta_event(
            SPAN_TID_BASE + t as u64,
            "thread_name",
            format!("span-thread-{t}"),
        ));
    }

    for e in &profile.events {
        let tid = if e.worker == WORKER_MAIN {
            0
        } else {
            e.worker as u64 + 1
        };
        match e.kind {
            EventKind::Task => events.push(Json::object([
                ("ph", Json::str("X")),
                ("pid", Json::UInt(0)),
                ("tid", Json::UInt(tid)),
                ("name", Json::str(e.name)),
                ("ts", us(e.ts_ns)),
                ("dur", us(e.value.saturating_sub(e.ts_ns))),
                ("args", Json::object([("id", Json::UInt(e.id))])),
            ])),
            EventKind::Counter => events.push(Json::object([
                ("ph", Json::str("C")),
                ("pid", Json::UInt(0)),
                ("name", Json::str(e.name)),
                ("ts", us(e.ts_ns)),
                ("args", Json::object([("value", Json::UInt(e.value))])),
            ])),
            _ => events.push(Json::object([
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("pid", Json::UInt(0)),
                ("tid", Json::UInt(tid)),
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
            ])),
        }
    }

    for s in &spans.spans {
        let mut args = vec![("depth", Json::UInt(s.depth as u64))];
        if let Some(i) = s.index {
            args.push(("index", Json::UInt(i)));
        }
        events.push(Json::object([
            ("ph", Json::str("X")),
            ("pid", Json::UInt(0)),
            ("tid", Json::UInt(SPAN_TID_BASE + s.thread as u64)),
            ("name", Json::str(s.name)),
            ("ts", us(s.start_ns)),
            ("dur", us(s.end_ns.saturating_sub(s.start_ns))),
            ("args", Json::object(args)),
        ]));
    }

    // High-water counters from the span layer become one-point counter
    // tracks so Perfetto shows the memo/checkpoint byte ceilings. The
    // two verify byte gauges are part of the document schema
    // (validate_profile requires them), so they are zero-filled even
    // when the run never reached the verify phase.
    let mut byte_tracks: BTreeMap<&'static str, u64> =
        BTreeMap::from([("verify.memo.bytes", 0), ("verify.checkpoint.bytes", 0)]);
    for (name, &v) in &spans.counters {
        if name.ends_with(".bytes") {
            byte_tracks.insert(*name, v);
        }
    }
    for (name, v) in byte_tracks {
        events.push(Json::object([
            ("ph", Json::str("C")),
            ("pid", Json::UInt(0)),
            ("name", Json::str(name)),
            ("ts", us(0)),
            ("args", Json::object([("value", Json::UInt(v))])),
        ]));
    }

    Json::object([("traceEvents", Json::Array(events))])
}

/// Collapsed-stack flamegraph text from the span hierarchy: one
/// `omislice;parent;child self_time_ns` line per stack, sorted, ready
/// for `flamegraph.pl` or speedscope. Self time is exclusive of
/// children (a parent's value shrinks by each nested span).
pub fn flamegraph(spans: &SpanReport) -> String {
    let mut totals: BTreeMap<String, i128> = BTreeMap::new();
    let mut stacks: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
    for s in &spans.spans {
        let stack = stacks.entry(s.thread).or_default();
        while stack.last().is_some_and(|(_, end)| *end <= s.start_ns) {
            stack.pop();
        }
        let parent_key = match stack.last() {
            Some((key, _)) => key.clone(),
            None => "omislice".to_string(),
        };
        let key = format!("{parent_key};{}", s.name);
        let dur = s.end_ns.saturating_sub(s.start_ns) as i128;
        *totals.entry(key.clone()).or_insert(0) += dur;
        // The parent was credited its full duration when it opened;
        // carve this child's share back out so values are self time.
        *totals.entry(parent_key).or_insert(0) -= dur;
        stack.push((key, s.end_ns));
    }
    let mut out = String::new();
    for (key, v) in &totals {
        if *v > 0 {
            out.push_str(&format!("{key} {v}\n"));
        }
    }
    out
}

/// Renders the aggregated text report: per-worker utilization,
/// steal/task ratio, wave occupancy histogram, and drop counts.
pub fn render_profile(report: &ProfileReport) -> String {
    let summary = report.summarize();
    let mut out = String::new();
    out.push_str(&format!(
        "events {}  drops {}  window {:.3} ms\n",
        summary.events,
        summary.drops,
        summary.window_ns as f64 / 1e6
    ));
    let mut total_tasks = 0u64;
    let mut total_steals = 0u64;
    for w in &summary.workers {
        let label = if w.worker == WORKER_MAIN {
            "main".to_string()
        } else {
            format!("worker {}", w.worker)
        };
        out.push_str(&format!(
            "{label:>9}: {:>5} tasks  {:>4} steals  busy {:>9.3} ms  util {:>5.1}%\n",
            w.tasks,
            w.steals,
            w.busy_ns as f64 / 1e6,
            summary.utilization(w) * 100.0
        ));
        total_tasks += w.tasks;
        total_steals += w.steals;
    }
    if total_tasks > 0 {
        out.push_str(&format!(
            "steal/task ratio: {:.3}\n",
            total_steals as f64 / total_tasks as f64
        ));
    }
    // Wave occupancy: tasks per batch sequence (the id's high bits).
    let mut per_wave: BTreeMap<u64, u64> = BTreeMap::new();
    for e in report.events.iter().filter(|e| e.kind == EventKind::Task) {
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
mod tests {
    use super::*;
    use crate::span::tests::test_guard;
    use crate::span::SpanRecord;

    fn reset_all() {
        set_profiling(true);
        profile_reset();
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = test_guard();
        set_profiling(false);
        profile_reset();
        record(EventKind::Mark, "noop", WORKER_MAIN, 1, 0);
        task("t", 0, 1, 0, 10);
        assert!(profile_drain().events.is_empty());
    }

    #[test]
    fn ring_overflow_degrades_to_counted_drops() {
        let _g = test_guard();
        reset_all();
        for i in 0..(RING_CAPACITY as u64 + 100) {
            record(EventKind::Mark, "m", WORKER_MAIN, i, 0);
        }
        set_profiling(false);
        let report = profile_drain();
        assert_eq!(report.events.len(), RING_CAPACITY);
        assert_eq!(report.drops, 100);
        // Events that fit were kept in order; the overflow was dropped,
        // not spilled into a reallocated buffer.
        assert_eq!(report.events[0].id, 0);
        assert_eq!(report.events.last().unwrap().id, RING_CAPACITY as u64 - 1);
        // The next window starts clean.
        set_profiling(true);
        record(EventKind::Mark, "m2", WORKER_MAIN, 7, 0);
        set_profiling(false);
        let next = profile_drain();
        assert_eq!(next.events.len(), 1);
        assert_eq!(next.drops, 0);
    }

    #[test]
    fn summarize_attributes_busy_time_per_worker() {
        let _g = test_guard();
        reset_all();
        task("verify.candidate", 0, 1, 100, 400);
        task("verify.candidate", 1, 2, 100, 300);
        record(EventKind::Steal, "verify.steal", 1, 2, 0);
        set_profiling(false);
        let report = profile_drain();
        let summary = report.summarize();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.window_ns, 300);
        assert_eq!(summary.workers.len(), 2);
        assert_eq!(summary.workers[0].busy_ns, 300);
        assert_eq!(summary.workers[1].busy_ns, 200);
        assert_eq!(summary.workers[1].steals, 1);
        assert!(summary.utilization(&summary.workers[0]) > 0.99);
    }

    #[test]
    fn normalization_strips_workers_and_time_keeps_stable_ids() {
        let _g = test_guard();
        reset_all();
        task("verify.candidate", 3, 42, 500, 900);
        mark(EventKind::Wave, "verify.wave", 1);
        mark(EventKind::MemoHit, "verify.memo", 7);
        record(EventKind::Steal, "verify.steal", 2, 42, 0);
        counter_sample("queue.depth", 5);
        set_profiling(false);
        let a = normalized_structure(&profile_drain());
        // Same structure, different workers/timestamps/steals.
        set_profiling(true);
        profile_reset();
        mark(EventKind::MemoHit, "verify.memo", 7);
        task("verify.candidate", 0, 42, 100, 200);
        mark(EventKind::Wave, "verify.wave", 1);
        set_profiling(false);
        let b = normalized_structure(&profile_drain());
        assert_eq!(a, b);
        assert!(a.contains("task verify.candidate 42"));
        assert!(!a.contains("steal"));
        assert!(!a.contains("counter"));
    }

    #[test]
    fn chrome_trace_round_trips_through_checker() {
        let _g = test_guard();
        reset_all();
        task("verify.candidate", 0, 1, 1000, 5000);
        task("verify.candidate", 1, 2, 1000, 3000);
        record(EventKind::Steal, "verify.steal", 1, 2, 0);
        mark(EventKind::Wave, "verify.wave", 0);
        counter_sample("recorder.queue.depth", 3);
        set_profiling(false);
        let profile = profile_drain();
        let spans = SpanReport {
            spans: vec![SpanRecord {
                name: "verify",
                index: None,
                depth: 0,
                thread: 0,
                start_ns: 500,
                end_ns: 6000,
            }],
            counters: [("verify.memo.bytes", 4096u64)].into_iter().collect(),
        };
        let doc = chrome_trace(&profile, &spans);
        let text = doc.to_string();
        let parsed = crate::json::parse(&text).expect("exporter emits valid JSON");
        let check = check_chrome_trace(&parsed).expect("well-formed trace");
        assert_eq!(
            check.worker_tracks,
            vec!["verify-worker-0", "verify-worker-1"]
        );
        assert!(check
            .counter_tracks
            .contains(&"recorder.queue.depth".to_string()));
        assert!(check
            .counter_tracks
            .contains(&"verify.memo.bytes".to_string()));
        assert!(check.slices >= 3);
        assert!(check.utilization_sum <= 2.0 + 1e-9);
    }

    #[test]
    fn flamegraph_produces_self_time_stacks() {
        let mk = |name, thread, start, end, depth| SpanRecord {
            name,
            index: None,
            depth,
            thread,
            start_ns: start,
            end_ns: end,
        };
        let spans = SpanReport {
            spans: vec![
                mk("locate", 0, 0, 1000, 0),
                mk("verify", 0, 100, 900, 1),
                mk("verify.candidate", 0, 200, 600, 2),
            ],
            counters: BTreeMap::new(),
        };
        let fg = flamegraph(&spans);
        assert!(fg.contains("omislice;locate 200\n"), "{fg}");
        assert!(fg.contains("omislice;locate;verify 400\n"), "{fg}");
        assert!(
            fg.contains("omislice;locate;verify;verify.candidate 400\n"),
            "{fg}"
        );
    }

    #[test]
    fn render_profile_reports_utilization_and_waves() {
        let _g = test_guard();
        reset_all();
        let seq = next_seq();
        for i in 0..4u64 {
            task(
                "verify.candidate",
                (i % 2) as u32,
                (seq << 16) | i,
                i * 10,
                i * 10 + 8,
            );
        }
        set_profiling(false);
        let report = profile_drain();
        let text = render_profile(&report);
        assert!(text.contains("worker 0"), "{text}");
        assert!(text.contains("worker 1"), "{text}");
        assert!(text.contains("wave occupancy"), "{text}");
    }
}
