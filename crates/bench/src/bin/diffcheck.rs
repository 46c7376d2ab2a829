//! Differential correctness sweep: generate seeded omission-fault cases
//! and check every pipeline invariant (see `omislice_bench::diffcheck`).
//!
//! ```text
//! diffcheck [--seeds N] [--start S] [--quick] [--chaos]
//! ```
//!
//! Exits nonzero (after printing every divergence) if any invariant
//! fails. Same seeds ⇒ same programs ⇒ same verdicts, so a failing seed
//! is reproducible with `--start <seed> --seeds 1`.

use omislice_bench::diffcheck::{run_diffcheck, DiffcheckOptions};

fn main() {
    let mut opts = DiffcheckOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => opts.seeds = parse_num(args.next(), "--seeds"),
            "--start" => opts.start_seed = parse_num(args.next(), "--start"),
            "--quick" => opts.quick = true,
            "--chaos" => opts.chaos = true,
            "--help" | "-h" => {
                println!("usage: diffcheck [--seeds N] [--start S] [--quick] [--chaos]");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    // The sweep injects `panic`/`panic-harness` faults (and, with
    // `--chaos`, builder-thread panics) on purpose; keep their (caught)
    // panics from spraying backtraces over the report while leaving
    // genuine panics visible. Literal panics carry `&str` payloads,
    // formatted ones carry `String` — check both.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !message.is_some_and(|m| m.starts_with("injected")) {
            default_hook(info);
        }
    }));

    let summary = run_diffcheck(&opts);
    println!(
        "diffcheck: {} case(s) from seed {} ({} mode)",
        summary.cases,
        opts.start_seed,
        if opts.quick { "quick" } else { "full" }
    );
    println!(
        "  exposed {} · located {} · alignment probes {} over {} switches · \
         verifier configs {} · journals compared {} · horizon configs {}",
        summary.exposed,
        summary.located,
        summary.alignment_probes,
        summary.alignment_switches,
        summary.verifier_configs,
        summary.journals_compared,
        summary.horizon_configs,
    );
    if opts.chaos {
        println!(
            "  chaos pipelines {} · recoveries exercised {}",
            summary.chaos_pipelines, summary.chaos_recoveries
        );
        if summary.chaos_pipelines > 0 && summary.chaos_recoveries == 0 {
            eprintln!("FAIL chaos sweep was vacuous: no recovery was exercised");
            std::process::exit(1);
        }
    }
    if summary.failures.is_empty() {
        println!("  all invariants held");
    } else {
        for f in &summary.failures {
            eprintln!("FAIL {f}");
        }
        eprintln!("{} divergence(s)", summary.failures.len());
        std::process::exit(1);
    }
}

fn parse_num(value: Option<String>, flag: &str) -> u64 {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a number");
        std::process::exit(2);
    })
}
