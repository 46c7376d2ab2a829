//! Allocation budget of the evaluator's per-event path, under each sink.
//!
//! Recording an event must not allocate: operands' defining instances go
//! into one dependence buffer per run, single-definition cells hold their
//! instance inline, and frames, globals and per-frame predicates are
//! index-addressed tables. What is left is set-up (frames, counters, the
//! globals) and the amortized growth of what the run keeps. These tests
//! count the heap allocations runs on sed ×250 make on their own thread:
//! a fresh and a checkpoint-resumed `run_traced` and a `run_values` each
//! make fewer than one per 100 events, and a `run_plain_indexed` makes a
//! fixed handful whatever its length — so a plain run that paid for
//! recorder columns, predicate tables or spilled provenance shows here.
//! So does a switched run that stops recording at its switch and hands
//! its rest to the tail sink: the hand-off copies the state once, and the
//! tail allocates nothing per event.

use omislice_analysis::ProgramAnalysis;
use omislice_corpus::{all_benchmarks, WorkloadGen};
use omislice_interp::{
    resume_switched, run_plain_indexed, run_switched, run_traced, run_values, RunConfig, SwitchSpec,
};
use omislice_lang::compile;
use omislice_trace::DescentChain;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) per thread, so the test
/// harness's own threads never leak into a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The sweep's workload seed.
const SWEEP_SEED: u64 = 0x5EED;

/// The fixed sed program, analyzed, with its input at `scale` from the
/// sweep's workload seed.
fn sed(scale: usize) -> (omislice_lang::Program, ProgramAnalysis, RunConfig) {
    let sed = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "sed")
        .expect("sed is in the corpus");
    let program = compile(sed.fixed_src).expect("corpus compiles");
    let analysis = ProgramAnalysis::build(&program);
    let inputs = WorkloadGen::new(SWEEP_SEED).sized_for_benchmark("sed", scale);
    (program, analysis, RunConfig::with_inputs(inputs))
}

#[test]
fn traced_runs_allocate_less_than_once_per_hundred_events() {
    let (program, analysis, config) = sed(250);
    let (base, allocs) = counted(|| run_traced(&program, &analysis, &config));
    let events = base.trace.len() as u64;
    assert!(base.trace.termination().is_normal());
    assert!(events > 10_000, "sed ×250 records {events} events");
    assert!(
        allocs * 100 < events,
        "fresh run: {allocs} allocations for {events} events"
    );

    // A resumed run that re-executes most of the trace: the first
    // resumable predicate instance whose switched suffix records at least
    // half the base length.
    let events_vec = base.trace.events_vec();
    let mut seen = vec![0u32; program.stmt_count() as usize];
    let mut specs = Vec::new();
    for ev in &events_vec {
        let occ = &mut seen[ev.stmt.index()];
        if ev.branch.is_some() {
            specs.push(SwitchSpec::new(ev.stmt, *occ));
        }
        *occ += 1;
    }
    let (_, checkpoints) = run_switched(&program, &analysis, &config, &specs[..64], None);
    let mut measured = false;
    for cp in checkpoints.iter().filter(|cp| cp.is_resumable()) {
        let switched = config.switched(cp.spec);
        let (resumed, allocs) =
            counted(|| resume_switched(&program, &analysis, &switched, cp, &base.trace, &[], None));
        let (resumed, _) = resumed.expect("a resumable checkpoint resumes");
        let recorded = (resumed.trace.len() - cp.prefix_len()) as u64;
        if recorded < events / 2 {
            continue;
        }
        assert!(
            allocs * 100 < recorded,
            "resumed run: {allocs} allocations for {recorded} re-executed events"
        );
        measured = true;
        break;
    }
    assert!(measured, "some early checkpoint resumes into a long suffix");
}

#[test]
fn value_runs_allocate_less_than_once_per_hundred_events() {
    let (program, analysis, config) = sed(250);
    let events = run_traced(&program, &analysis, &config).trace.len() as u64;
    let (run, allocs) = counted(|| run_values(&program, analysis.index(), &config));
    assert!(run.termination.is_normal());
    assert!(
        allocs * 100 < events,
        "value run: {allocs} allocations for {events} events"
    );
}

#[test]
fn plain_runs_allocate_a_fixed_handful() {
    for scale in [250, 1000] {
        let (program, analysis, config) = sed(scale);
        let (run, allocs) = counted(|| run_plain_indexed(&program, analysis.index(), &config));
        assert!(run.is_normal());
        assert!(
            allocs < 64,
            "plain run on sed ×{scale}: {allocs} allocations for {} steps",
            run.steps
        );
    }
}

#[test]
fn tail_runs_allocate_a_fixed_handful() {
    for scale in [250, 1000] {
        let (program, analysis, config) = sed(scale);
        let base = run_traced(&program, &analysis, &config).trace;
        // The first predicate instance, switched with a chain decided at
        // the switch: the run records its first events and runs the rest
        // on the tail sink.
        let p = base
            .insts()
            .find(|&i| base.event(i).is_predicate())
            .expect("sed branches");
        let switched = config.switched(SwitchSpec::new(base.event(p).stmt, 0));
        let chain = DescentChain {
            switch: p,
            root: None,
            started: 0,
            steps: Vec::new(),
        };
        let ((run, _), allocs) =
            counted(|| run_switched(&program, &analysis, &switched, &[], Some(chain)));
        assert!(run.tail_handoff, "sed ×{scale}: the run hands off");
        let tail = run.instances - run.trace.len();
        assert!(tail > 10_000, "sed ×{scale}: a {tail}-event tail");
        assert!(
            allocs < 64,
            "tail run on sed ×{scale}: {allocs} allocations for {tail} tail events"
        );
    }
}
