//! A guided tour of one corpus subject: runs sed's two-stage omission
//! error (the paper's "real" sed V3-F2) and narrates every step of the
//! demand-driven process — the error that needs *two* implicit dependence
//! expansions before the root cause becomes reachable.
//!
//! Run with: `cargo run --example corpus_tour`

use omislice::prelude::*;
use omislice::{LocateConfig, UserOracle};
use omislice_corpus::all_benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmarks = all_benchmarks();
    let sed = benchmarks
        .iter()
        .find(|b| b.name == "sed")
        .expect("sed exists");
    let fault = sed.fault("V3-F2").expect("V3-F2 exists");

    println!("subject     : sed (stream editor), fault {}", fault.id);
    println!("description : {}", fault.description);
    println!();

    let session = sed.session(fault)?;
    let trace = session.trace();
    println!(
        "failing run : {} statement instances, outputs {:?}",
        trace.len(),
        trace.output_values()
    );
    let reference = session.oracle().reference();
    println!("expected    : outputs {:?}", reference.output_values());

    let class = session
        .oracle()
        .classify_outputs(trace)
        .expect("a wrong value exists");
    println!(
        "failure     : output #{} is wrong (expected {:?})",
        class.correct.len(),
        class.expected
    );
    println!();

    // Stage one: the dynamic slice dead-ends.
    let ds = DepGraph::new(trace).backward_slice(class.wrong);
    println!(
        "dynamic slice: {} instances — the substitution never executed, so",
        ds.dynamic_size()
    );
    println!("               no dynamic dependence reaches the arming logic.");
    println!();

    // Stage two: the locator expands twice.
    let outcome = session.locate(&LocateConfig::default())?;
    println!("{}", session.report(&outcome, false));
    assert!(outcome.found);
    assert!(
        outcome.iterations >= 2,
        "two expansions: print → armed-guard, armed-guard → enable-guard"
    );
    println!(
        "The failure chain crosses {} verified implicit edges ({} strong):",
        outcome.expanded_edges, outcome.strong_edges
    );
    println!("print(linebuf[k]) → [if armed == 1] → [if enable_subst == 1] → root.");
    Ok(())
}
