//! The verification engine's execution strategy must be invisible in the
//! result: locating a real corpus fault yields the identical
//! [`LocateOutcome`](omislice::LocateOutcome) whether switched runs
//! resume from checkpoints or re-execute from scratch, and for any
//! thread count. This is the contract that lets `--jobs`/`ResumeMode` be
//! pure performance knobs.

use omislice::omislice_interp::ResumeMode;
use omislice::omislice_trace::InstId;
use omislice::{LocateConfig, LocateOutcome};
use omislice_corpus::all_benchmarks;

/// Everything outcome-relevant except wall-clock times.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    found: bool,
    iterations: usize,
    verifications: usize,
    reexecutions: usize,
    user_prunings: usize,
    expanded_edges: usize,
    strong_edges: usize,
    ips: Vec<InstId>,
    full_slice: Vec<InstId>,
    os: Option<Vec<InstId>>,
    wrong_output: InstId,
    cache_hits: usize,
}

fn fingerprint(out: &LocateOutcome) -> Fingerprint {
    Fingerprint {
        found: out.found,
        iterations: out.iterations,
        verifications: out.verifications,
        reexecutions: out.reexecutions,
        user_prunings: out.user_prunings,
        expanded_edges: out.expanded_edges,
        strong_edges: out.strong_edges,
        ips: out.ips.insts().to_vec(),
        full_slice: out.full_slice.insts().to_vec(),
        os: out.os.clone(),
        wrong_output: out.wrong_output,
        cache_hits: out.stats.cache_hits,
    }
}

#[test]
fn corpus_outcomes_identical_across_modes_and_jobs() {
    let benchmarks = all_benchmarks();
    for (bench_name, fault_id) in [("gzip", "V2-F3"), ("sed", "V3-F3")] {
        let b = benchmarks
            .iter()
            .find(|b| b.name == bench_name)
            .expect(bench_name);
        let fault = b.fault(fault_id).expect(fault_id);
        let session = b.session(fault).expect("session builds");
        let mut reference = None;
        for jobs in [1usize, 4] {
            for resume in [ResumeMode::Auto, ResumeMode::Disabled] {
                let out = session
                    .locate(&LocateConfig {
                        jobs,
                        resume,
                        ..LocateConfig::default()
                    })
                    .expect("locates");
                assert!(out.found, "{bench_name} {fault_id}");
                if resume == ResumeMode::Disabled {
                    assert_eq!(out.stats.resumed_runs, 0);
                    assert_eq!(out.stats.steps_saved, 0);
                    assert_eq!(out.stats.capture_runs, 0);
                }
                let fp = fingerprint(&out);
                match &reference {
                    Some(r) => {
                        assert_eq!(*r, fp, "{bench_name} {fault_id} jobs={jobs} {resume:?}")
                    }
                    None => reference = Some(fp),
                }
            }
        }
    }
}

/// Independent sessions of one fault own independently seeded hash maps
/// (the static potential-dependence relation among them), as separate
/// processes do; the journal, secondary-request order included, must not
/// depend on them.
#[test]
fn corpus_journals_identical_across_independent_sessions() {
    use omislice::{build_journal, JournalMeta};
    for b in all_benchmarks() {
        for fault in &b.faults {
            let journals: Vec<String> = (0..8)
                .map(|_| {
                    let session = b.session(fault).expect("session builds");
                    let lc = LocateConfig::default();
                    let outcome = session.locate(&lc).expect("locates");
                    let meta = JournalMeta {
                        program: format!("{}:{}", b.name, fault.id),
                    };
                    let records =
                        build_journal(&meta, &lc, &outcome, session.trace(), None, None, None);
                    omislice_obs::strip_timing(&omislice_obs::to_jsonl(&records))
                        .expect("journal strips")
                })
                .collect();
            for (i, j) in journals.iter().enumerate().skip(1) {
                assert_eq!(
                    *j, journals[0],
                    "{} {}: session {i}'s journal differs from session 0's",
                    b.name, fault.id
                );
            }
        }
    }
}
