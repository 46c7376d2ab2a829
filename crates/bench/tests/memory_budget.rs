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
//!
//! The oracle's reference run stops once it holds what a localization on
//! the failing trace through `o×` can ask, and the oracle keeps exactly
//! that: no more values than that trace has instances, and the same
//! bytes whichever of the two runs finishes first.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::{DebugSession, GroundTruthOracle, LocateConfig, UserOracle};
use omislice_corpus::{all_benchmarks, WorkloadGen};
use omislice_interp::{run_failing, run_plain, run_traced, OutputFeed, RunConfig};
use omislice_lang::compile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

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

/// Held by each test for its whole run: the counter sees every thread's
/// allocations, so no other test may run beside the measured one.
static SERIAL: Mutex<()> = Mutex::new(());

/// The seed of the drawn sed ×250 input.
const SEED: u64 = 1;

/// Peak live heap bytes per statement instance of the failing run a
/// localization may use. Measured on sed V3-F2 ×250 (seed 1, 53,866
/// instances; the count is deterministic): 433 B/instance (23.3 MB) with
/// the reference and profile runs traced and a six-array region tree per
/// aligned trace, 291 B/instance (15.7 MB) with value runs and one subtree
/// size per instance (bound 360), 62 B/instance (3.39 MB) with the
/// failing run recorded only through its first wrong output (bound 77),
/// and 22 B/instance (1.21 MB) with every unrecorded tail on the tail
/// sink and the reference stopped at the oracle's demand: the bound is
/// that plus the same ~24 % margin.
const MAX_PEAK_BYTES_PER_EVENT: usize = 27;

/// The sed V3-F2 sources and the first seed-`SEED` ×250 draw that
/// exposes the fault.
fn sed_case() -> (String, &'static str, Vec<i64>) {
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
    (faulty_src, sed.fixed_src, inputs)
}

#[test]
fn localization_peak_heap_stays_under_budget_per_event() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (faulty_src, fixed_src, inputs) = sed_case();
    let faulty = compile(&faulty_src).expect("fault applies");
    // The failing run's instance count, taken outside the counted window:
    // the session traces the run only through its first wrong output.
    let instances = run_traced(
        &faulty,
        &ProgramAnalysis::build(&faulty),
        &RunConfig::with_inputs(inputs.clone()),
    )
    .trace
    .len();
    drop(faulty);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let session = DebugSession::builder(&faulty_src)
        .reference(fixed_src)
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
    let kept = session.oracle().kept_values();
    assert!(
        kept <= session.trace().len(),
        "the oracle keeps {kept} reference values for a {}-event trace",
        session.trace().len()
    );
    let per_event = peak / instances;
    eprintln!("peak {peak} B over {instances} failing-run instances: {per_event} B/instance");
    assert!(
        per_event <= MAX_PEAK_BYTES_PER_EVENT,
        "peak heap {peak} B is {per_event} B per failing-run instance ({instances} instances), \
         over the {MAX_PEAK_BYTES_PER_EVENT} B budget"
    );
}

/// The order a rebuilt session oracle's two runs are forced into.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// The reference run returns before the failing run starts: the
    /// demand arrives after it ended and holds everything.
    ReferenceFirst,
    /// Both runs start together at a barrier, as in a session's build,
    /// where the demand mostly arrives while the reference still runs.
    Together,
}

/// The session's oracle, rebuilt from the two runs of
/// [`DebugSession`]'s build in `order`, then trimmed to the failing
/// run's demand as the session trims it.
fn rebuilt_oracle(
    faulty_src: &str,
    fixed_src: &str,
    inputs: &[i64],
    order: Order,
) -> GroundTruthOracle {
    let (faulty, fixed) = (compile(faulty_src).unwrap(), compile(fixed_src).unwrap());
    let (analysis, fixed_analysis) = (
        ProgramAnalysis::build(&faulty),
        ProgramAnalysis::build(&fixed),
    );
    let config = RunConfig::with_inputs(inputs.to_vec());
    let feed = OutputFeed::new();
    let start = Barrier::new(2);
    let mut oracle = std::thread::scope(|s| {
        let reference = s.spawn(|| {
            start.wait();
            GroundTruthOracle::publishing(&fixed, &fixed_analysis, &config, [], &feed)
        });
        start.wait();
        let joined =
            |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("the reference returns");
        match order {
            Order::ReferenceFirst => {
                let oracle = joined(reference);
                run_failing(&faulty, &analysis, &config, &feed, |_, _| {});
                oracle
            }
            Order::Together => {
                run_failing(&faulty, &analysis, &config, &feed, |_, _| {});
                joined(reference)
            }
        }
    });
    let demand = feed.demand().expect("the failing run has a wrong output");
    oracle.keep(&demand);
    oracle
}

#[test]
fn the_oracle_holds_the_same_bytes_whoever_finishes_first() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (faulty_src, fixed_src, inputs) = sed_case();
    let session = DebugSession::builder(&faulty_src)
        .reference(fixed_src)
        .failing_input(inputs.clone())
        .build()
        .expect("session builds");
    let want = session.oracle();
    let fixed = compile(fixed_src).unwrap();
    let full = GroundTruthOracle::new(
        &fixed,
        &ProgramAnalysis::build(&fixed),
        session.config(),
        [],
    );
    assert!(want.kept_values() < full.kept_values(), "the demand trims");
    let trace = session.trace();
    for order in [Order::ReferenceFirst, Order::Together] {
        let got = rebuilt_oracle(&faulty_src, fixed_src, &inputs, order);
        assert_eq!(got.bytes(), want.bytes(), "{order:?}: bytes");
        assert_eq!(got.kept_values(), want.kept_values(), "{order:?}: values");
        assert_eq!(
            got.expected_outputs(),
            want.expected_outputs(),
            "{order:?}: outputs"
        );
        for inst in trace.insts() {
            assert_eq!(
                got.is_benign(trace, inst),
                full.is_benign(trace, inst),
                "{order:?}: {inst}"
            );
        }
    }
}
