//! Smoke test for the sweep harness: a scale-10 sweep completes without
//! panicking, produces a row per benchmark, and — the regression this
//! pins — actually exercises the verifier's verdict memo. The harness
//! used to build a fresh verifier per timing pass, so every published
//! row reported `cache_hits: 0` and the memo was dead weight.

use omislice_bench::sweep::{run_sweep, to_json, SweepOptions};

#[test]
fn sweep_scale10_hits_the_verifier_memo() {
    let samples = run_sweep(&SweepOptions {
        scales: vec![10],
        reps: 1,
        via: None,
    });
    assert!(!samples.is_empty(), "sweep produced no samples");

    let mut verified_rows = 0;
    for s in &samples {
        assert!(s.trace_len > 0, "{}: empty trace", s.benchmark);
        if let Some(v) = &s.verify {
            verified_rows += 1;
            assert!(
                v.stats.cache_hits > 0,
                "{}: verifier memo is dead (cache_hits == 0)",
                s.benchmark
            );
            assert_eq!(
                v.stats.cache_hits, v.batch,
                "{}: re-submitted batch must hit the memo for every request",
                s.benchmark
            );
            assert_eq!(
                v.batches.len(),
                4,
                "{}: batch-size scaling series is incomplete",
                s.benchmark
            );
            for b in &v.batches {
                assert!(
                    b.batch <= b.requested,
                    "{}: scaling batch exceeds the requested size",
                    s.benchmark
                );
            }
        }
    }
    assert!(verified_rows > 0, "no row exercised the verifier");

    for s in &samples {
        assert!(
            s.phases.trace_ns > 0 && s.phases.graph_ns > 0,
            "{}: instrumented pass produced no phase spans",
            s.benchmark
        );
    }

    let json = to_json(&samples);
    assert!(json.contains("\"cache_hits\":"), "JSON drops the memo stat");
    assert!(
        json.contains("\"batch_scaling\":[{\"requested\":4,"),
        "JSON drops the batch-size scaling series"
    );
    assert!(
        json.contains("\"phases\":{\"trace_us\":"),
        "JSON drops the phase columns"
    );
    assert!(
        !json.contains("\"cache_hits\":0,"),
        "published JSON would report a dead memo"
    );
    assert!(
        json.contains("\"serve\":null"),
        "a sweep without --via must publish explicit null serve columns"
    );
}
