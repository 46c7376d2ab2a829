//! Region-based execution alignment — the paper's Figures 2 and 3, live.
//!
//! Shows the region decomposition of an execution (Definition 3), and how
//! `Match` (Algorithm 1) finds the counterpart of a statement instance in
//! a switched re-execution — or proves there is none, including the
//! single-entry-multiple-exit (`break`) case of Figure 3.
//!
//! Run with: `cargo run --example alignment_demo`

use omislice::prelude::*;

fn demo(title: &str, src: &str, pred: StmtId, watch: StmtId) {
    println!("=== {title} ===");
    let program = compile(src).expect("demo program compiles");
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::default();

    let orig = run_traced(&program, &analysis, &config);
    let switched = run_traced(
        &program,
        &analysis,
        &config.switched(SwitchSpec::new(pred, 0)),
    );

    println!("original regions : {}", orig.trace.regions().render_all());
    println!(
        "switched regions : {}",
        switched.trace.regions().render_all()
    );

    let aligner = Aligner::new(&orig.trace, &switched.trace);
    let p = orig.trace.instances_of(pred)[0];
    for &u in orig.trace.instances_of(watch) {
        match aligner.match_inst(p, u) {
            Some(m) => println!(
                "{u} ({} = {:?})  matches  {m} ({} = {:?})",
                orig.trace.event(u).stmt,
                orig.trace.event(u).value,
                switched.trace.event(m).stmt,
                switched.trace.event(m).value,
            ),
            None => println!(
                "{u} ({} = {:?})  has NO counterpart in the switched run",
                orig.trace.event(u).stmt,
                orig.trace.event(u).value,
            ),
        }
    }
    println!();
}

fn main() {
    // Figure 2: switching P makes the loop run; the use of x at the end
    // still has a counterpart — and observes a different value, exposing
    // the implicit dependence.
    demo(
        "Figure 2: the use survives the switch (and changes value)",
        "global i = 0; global t = 0; global x = 0;
         global p1 = 0; global c1 = 0; global c2 = 0;
         fn main() {
             if p1 == 1 { t = 1; x = 7; }
             while i < t {
                 x = x;
                 if c1 == 1 { x = x; }
                 i = i + 1;
             }
             if 1 == 1 {
                 if c2 == 0 { print(x); }
                 i = i;
             }
         }",
        StmtId(0),
        StmtId(10),
    );

    // Figure 2, execution (3): statement 3 also sets C2, so the guard of
    // the use flips and the matcher must report "no counterpart".
    demo(
        "Figure 2 variant: the use disappears",
        "global i = 0; global t = 0; global x = 0;
         global p1 = 0; global c1 = 0; global c2 = 0;
         fn main() {
             if p1 == 1 { t = 1; c2 = 1; x = 7; }
             while i < t {
                 x = x;
                 if c1 == 1 { x = x; }
                 i = i + 1;
             }
             if 1 == 1 {
                 if c2 == 0 { print(x); }
                 i = i;
             }
         }",
        StmtId(0),
        StmtId(11),
    );

    // Figure 3: the switched predicate arms a break; the loop exits early
    // and the in-loop use runs out of sibling regions.
    demo(
        "Figure 3: break exits the region early",
        "global i = 0; global x = 5; global p1 = 0; global c0 = 0; global c1 = 1;
         fn main() {
             if p1 == 1 { c0 = 1; }
             while i < 3 {
                 if c0 == 1 { break; }
                 if c1 == 1 { print(x); }
                 i = i + 1;
             }
             print(9);
         }",
        StmtId(0),
        StmtId(6),
    );
}
