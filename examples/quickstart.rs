//! Quickstart: the paper's Figure 1 in twenty lines.
//!
//! gzip's `save_orig_name` is computed wrong, so the header guard is not
//! taken, `flags` never receives its ORIG_NAME bit, and the stale value
//! is printed. A classic dynamic slice of the wrong output misses the
//! root cause entirely; the omission locator finds it by verifying one
//! implicit dependence through predicate switching.
//!
//! Run with: `cargo run --example quickstart`

use omislice::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Figure 1, transcribed: S1 sets save_orig_name (the
    // seeded error), S4 guards the flags update, S10 observes the stale
    // value.
    let fixed = r#"
        global flags = 0;
        global deflated = 8;
        fn main() {
            let save_orig_name = input();
            flags = 1;
            if save_orig_name == 1 {
                flags = flags + 8;
            }
            print(deflated);
            print(flags);
        }
    "#;
    // The fault: save_orig_name is computed wrong (stays 0).
    let faulty = fixed.replace("input()", "input() - 1");

    let session = DebugSession::builder(&faulty)
        .reference(fixed)
        .failing_input(vec![1])
        .profile_inputs([vec![0], vec![2], vec![5]])
        .root_cause_stmts([StmtId(0)])
        .build()?;

    // 1. The failure: print(flags) emits 1, but 9 was expected.
    println!("faulty output : {:?}", session.trace().output_values());

    // 2. Classic dynamic slicing misses the root cause: the guard was not
    //    taken, so no dynamic dependence connects S1 to the output.
    let wrong = session.trace().outputs().last().unwrap().inst;
    let ds = DepGraph::new(session.trace()).backward_slice(wrong);
    println!(
        "dynamic slice contains the root cause? {}",
        ds.contains_stmt(StmtId(0))
    );

    // 3. The omission locator verifies the implicit dependence by
    //    switching the guard and aligning the two runs, then walks the
    //    expanded graph back to the root cause.
    let outcome = session.locate(&LocateConfig::default())?;
    println!("{}", session.report(&outcome, false));

    assert!(outcome.found);
    assert!(outcome.ips.contains_stmt(StmtId(0)));
    Ok(())
}
