//! Memory budget of one localization.
//!
//! A localization keeps only what its readers read: the failing run is
//! traced only through its first wrong output, the switched runs only
//! until that output's alignment is decided, each region tree is one
//! subtree size per instance, and the oracle's reference run and the
//! profile runs keep values alone. This test counts live heap bytes with
//! its own global allocator and holds the high-water mark of a sed ×250
//! `DebugSession` build plus `locate` (one verify worker) under a bound
//! per statement instance of the failing run.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::{DebugSession, LocateConfig};
use omislice_corpus::{all_benchmarks, WorkloadGen};
use omislice_interp::{run_plain, run_traced, RunConfig};
use omislice_lang::compile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark across all threads.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        out
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The seed of the drawn sed ×250 input.
const SEED: u64 = 1;

/// Peak live heap bytes per statement instance of the failing run a
/// localization may use. Measured on sed V3-F2 ×250 (seed 1, 53,866
/// instances; the count is deterministic): 433 B/instance (23.3 MB) with
/// the reference and profile runs traced and a six-array region tree per
/// aligned trace, 291 B/instance (15.7 MB) with value runs and one subtree
/// size per instance (bound 360), and 62 B/instance (3.39 MB) with the
/// failing run recorded only through its first wrong output: the bound is
/// that plus the same ~24 % margin.
const MAX_PEAK_BYTES_PER_EVENT: usize = 77;

#[test]
fn localization_peak_heap_stays_under_budget_per_event() {
    let sed = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "sed")
        .expect("sed is in the corpus");
    let fault = sed.fault("V3-F2").expect("sed has V3-F2");
    let faulty_src = fault.apply(sed.fixed_src);
    let fixed = compile(sed.fixed_src).expect("corpus compiles");
    let faulty = compile(&faulty_src).expect("fault applies");
    let mut gen = WorkloadGen::new(SEED);
    let inputs = (0..64)
        .map(|_| gen.sized_for_benchmark("sed", 250))
        .find(|inputs| {
            let cfg = RunConfig::with_inputs(inputs.clone());
            let want = run_plain(&fixed, &cfg);
            let got = run_plain(&faulty, &cfg);
            want.is_normal() && got.is_normal() && want.outputs != got.outputs
        })
        .expect("a drawn input exposes the fault");
    // The failing run's instance count, taken outside the counted window:
    // the session traces the run only through its first wrong output.
    let instances = run_traced(
        &faulty,
        &ProgramAnalysis::build(&faulty),
        &RunConfig::with_inputs(inputs.clone()),
    )
    .trace
    .len();
    drop((fixed, faulty));

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let session = DebugSession::builder(&faulty_src)
        .reference(sed.fixed_src)
        .failing_input(inputs)
        .build()
        .expect("session builds");
    let lc = LocateConfig {
        jobs: 1,
        ..LocateConfig::default()
    };
    let outcome = session.locate(&lc).expect("localization runs");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(outcome.found, "the seeded root is found");
    assert_eq!(session.run_instances(), instances);
    let per_event = peak / instances;
    eprintln!("peak {peak} B over {instances} failing-run instances: {per_event} B/instance");
    assert!(
        per_event <= MAX_PEAK_BYTES_PER_EVENT,
        "peak heap {peak} B is {per_event} B per failing-run instance ({instances} instances), \
         over the {MAX_PEAK_BYTES_PER_EVENT} B budget"
    );
}
