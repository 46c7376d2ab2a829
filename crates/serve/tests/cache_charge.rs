//! What the artifact cache charges for an entry matches what the entry
//! keeps live.
//!
//! These tests count live heap bytes with their own global allocator
//! and hold each charge within 15 % of the live bytes:
//! - around a sed ×250 [`DebugSession`] build and one `locate`,
//!   [`session_bytes`] at both points: the localization runs on a view
//!   of the failing trace that it drops on return, so whatever stays
//!   built on the cached trace must already be in the charge;
//! - around one sed ×250 `POST /slice`, the bytes the cache charged for
//!   its artifacts, the trace index the slice built included.

use omislice::omislice_interp::{run_plain, RunConfig};
use omislice::omislice_lang::compile;
use omislice::{DebugSession, LocateConfig};
use omislice_corpus::{all_benchmarks, WorkloadGen};
use omislice_obs::Json;
use omislice_serve::api::{handle_slice, session_bytes};
use omislice_serve::ServeConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tracks live heap bytes across all threads.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            if new_size >= layout.size() {
                LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        out
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How far the charge may stray from the live bytes, in percent.
const TOLERANCE_PERCENT: usize = 15;

/// The live-byte count is process-wide: one measurement at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Asserts that `charge` is within [`TOLERANCE_PERCENT`] of `live`.
fn assert_within(charge: usize, live: usize, when: &str) {
    let gap = charge.abs_diff(live);
    eprintln!("{when}: charged {charge} B, live {live} B");
    assert!(
        gap * 100 <= live * TOLERANCE_PERCENT,
        "{when}: charged {charge} B for {live} live bytes"
    );
}

#[test]
fn session_charge_tracks_live_bytes_through_a_locate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sed = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "sed")
        .expect("sed is in the corpus");
    let faulty_src = sed
        .fault("V3-F2")
        .expect("sed has V3-F2")
        .apply(sed.fixed_src);
    let fixed = compile(sed.fixed_src).expect("corpus compiles");
    let faulty = compile(&faulty_src).expect("fault applies");
    let mut gen = WorkloadGen::new(1);
    let inputs = (0..64)
        .map(|_| gen.sized_for_benchmark("sed", 250))
        .find(|inputs| {
            let cfg = RunConfig::with_inputs(inputs.clone());
            let (want, got) = (run_plain(&fixed, &cfg), run_plain(&faulty, &cfg));
            want.is_normal() && got.is_normal() && want.outputs != got.outputs
        })
        .expect("a drawn input exposes the fault");
    drop((fixed, faulty));

    let base = LIVE.load(Ordering::Relaxed);
    let session = DebugSession::builder(&faulty_src)
        .reference(sed.fixed_src)
        .failing_input(inputs)
        .build()
        .expect("session builds");
    let charge = session_bytes(&faulty_src, sed.fixed_src, &session);
    let within = |live: usize, when: &str| assert_within(charge, live, when);
    within(LIVE.load(Ordering::Relaxed) - base, "after the build");
    let lc = LocateConfig {
        jobs: 1,
        ..LocateConfig::default()
    };
    let outcome = session.locate(&lc).expect("localization runs");
    assert!(outcome.found, "the seeded root is found");
    drop(outcome);
    within(LIVE.load(Ordering::Relaxed) - base, "after one locate");
}

#[test]
fn slice_charge_tracks_live_bytes_after_a_request() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sed = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "sed")
        .expect("sed is in the corpus");
    let inputs = WorkloadGen::new(1).sized_for_benchmark("sed", 250);
    let body = Json::object([
        ("source", Json::str(sed.fixed_src)),
        (
            "input",
            Json::Array(inputs.into_iter().map(Json::Int).collect()),
        ),
    ]);
    let server = omislice_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let state = server.state();

    let base = LIVE.load(Ordering::Relaxed);
    handle_slice(state, &body).expect("the slice request succeeds");
    let live = LIVE.load(Ordering::Relaxed) - base;
    assert_within(state.cache.stats().bytes, live, "after one slice");
    server.shutdown();
}
