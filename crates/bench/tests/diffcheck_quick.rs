//! Quick-mode entry point for the differential harness: a fixed seed
//! window that must always pass (the CI smoke gate runs the same sweep
//! through the `diffcheck` binary) plus a proptest that moves the window
//! around so fresh seeds keep entering the pool over time.

use omislice_bench::diffcheck::{run_diffcheck, DiffcheckOptions};
use proptest::prelude::*;

#[test]
fn fixed_seed_window_holds_and_is_deterministic() {
    let opts = DiffcheckOptions {
        seeds: 12,
        start_seed: 0,
        quick: true,
        chaos: false,
    };
    let first = run_diffcheck(&opts);
    assert_eq!(first.failures, Vec::<String>::new());
    assert_eq!(first.cases, 12);
    assert_eq!(first.exposed, 12);
    assert_eq!(first.located, 12);
    assert!(
        first.alignment_probes > 0,
        "alignment oracle must be probed"
    );
    assert!(first.verifier_configs > 0, "verifier configs must be swept");
    assert!(first.journals_compared > 0, "journals must be compared");
    let second = run_diffcheck(&opts);
    assert_eq!(first, second, "same seeds must give identical summaries");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_seed_windows_hold(start in 0u64..100_000) {
        let summary = run_diffcheck(&DiffcheckOptions {
            seeds: 2,
            start_seed: start,
            quick: true,
            chaos: false,
        });
        prop_assert_eq!(summary.failures, Vec::<String>::new());
        prop_assert_eq!(summary.located, 2);
    }

    /// The chaos sweep (invariant 7) must hold for arbitrary seeds: a
    /// pipeline that absorbed injected faults produces the same journal
    /// as the clean one, for random programs — not just the fixtures.
    #[test]
    fn random_seeds_survive_chaos(start in 0u64..100_000) {
        let summary = run_diffcheck(&DiffcheckOptions {
            seeds: 1,
            start_seed: start,
            quick: true,
            chaos: true,
        });
        prop_assert_eq!(summary.failures, Vec::<String>::new());
        prop_assert_eq!(summary.chaos_pipelines, 2);
        prop_assert!(summary.chaos_recoveries > 0, "chaos sweep was vacuous");
    }
}
