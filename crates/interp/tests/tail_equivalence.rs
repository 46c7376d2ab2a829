//! Handing a run's unrecorded rest to the tail sink changes nothing a
//! reader sees.
//!
//! A switched run that follows a descent chain stops recording once the
//! chain's target is decided; at the next predicate entry with no
//! expression-position call on the stack it hands the rest of the run to
//! the tail sink, which keeps no provenance. Over generated programs ×
//! sampled switch points × chains to several targets, from scratch and
//! resumed from a checkpoint, such a run must equal the switched run
//! recorded to its end (`run_traced(cfg.switched(spec))`):
//!
//! 1. its events are that run's first events;
//! 2. its termination is that run's, crash message included;
//! 3. its outputs are those its events printed, and its input underflows,
//!    switched instance and instance count are that run's.
//!
//! Checkpoints a capturing run takes before its switch are those the same
//! run takes without a chain. Beside them: a hand-off deferred past an
//! expression-position call, the step budget running out in the tail,
//! every statement fault action firing in the tail, and
//! `deadline:K=expire` plans expiring at the same instance.

use omislice_align::descent_chain;
use omislice_analysis::ProgramAnalysis;
use omislice_interp::{
    resume_switched, run_switched, run_traced, RunConfig, SwitchSpec, TracedRun,
};
use omislice_lang::{compile, generate_case, GenOptions, Program};
use omislice_trace::{
    CrashKind, DescentChain, FaultAction, FaultEntry, FaultPlan, InstId, Supervisor, Termination,
    Trace,
};

/// Asserts that `run`, which stopped recording somewhere, is `full`, the
/// same config recorded to its end, as far as a reader can tell.
fn assert_same_run(run: &TracedRun, full: &TracedRun, what: &str) {
    let n = run.trace.len();
    let events = full.trace.events_vec();
    assert!(
        n <= events.len(),
        "{what}: recorded {n} of {}",
        events.len()
    );
    assert_eq!(run.trace.events_vec(), events[..n], "{what}: events");
    let outputs = full.trace.outputs();
    let printed = outputs.partition_point(|o| o.inst.index() < n);
    assert_eq!(run.trace.outputs(), &outputs[..printed], "{what}: outputs");
    assert_eq!(
        run.trace.termination(),
        full.trace.termination(),
        "{what}: termination"
    );
    assert_eq!(
        run.input_underflows, full.input_underflows,
        "{what}: underflows"
    );
    assert_eq!(run.switched, full.switched, "{what}: switched instance");
    assert_eq!(run.instances, full.trace.len(), "{what}: instances");
}

/// The switch spec of predicate instance `p` of `trace`.
fn spec_of(trace: &Trace, p: InstId) -> SwitchSpec {
    SwitchSpec::new(trace.event(p).stmt, trace.occurrence_index(p) as u32)
}

/// How many runs a net checked and how many of them handed off.
#[derive(Default)]
struct Tally {
    runs: usize,
    handoffs: usize,
}

impl Tally {
    fn add(&mut self, run: &TracedRun) {
        self.runs += 1;
        self.handoffs += usize::from(run.tail_handoff);
    }
}

/// Checks every property on `program` under `config`: every `k`-th
/// predicate instance of the base run, each against chains to the switch
/// itself, the base run's middle and its last instance, from scratch,
/// resumed, and with checkpoint capture.
fn check_program(program: &Program, config: &RunConfig, what: &str, tally: &mut Tally) {
    let analysis = ProgramAnalysis::build(program);
    let base = run_traced(program, &analysis, config);
    let trace = &base.trace;
    let preds: Vec<InstId> = trace
        .insts()
        .filter(|&i| trace.event(i).is_predicate())
        .collect();
    let picked: Vec<InstId> = preds
        .iter()
        .copied()
        .step_by((preds.len() / 6).max(1))
        .collect();
    let specs: Vec<SwitchSpec> = picked.iter().map(|&p| spec_of(trace, p)).collect();
    let (_, checkpoints) = run_switched(program, &analysis, config, &specs, None);
    let last = InstId(trace.len() as u32 - 1);
    let middle = InstId(trace.len() as u32 / 2);
    for (&p, &spec) in picked.iter().zip(&specs) {
        let cfg = config.switched(spec);
        let full = run_traced(program, &analysis, &cfg);
        let (_, captured_whole) = run_switched(program, &analysis, &cfg, &specs, None);
        for target in [p, middle, last] {
            let what = format!("{what}: switch {p} ({spec:?}), target {target}");
            let chain = descent_chain(trace, p, target.max(p));
            let (run, captured) =
                run_switched(program, &analysis, &cfg, &specs, Some(chain.clone()));
            assert_same_run(&run, &full, &what);
            let prefixes = |cps: &[omislice_interp::Checkpoint]| -> Vec<(SwitchSpec, usize)> {
                cps.iter().map(|c| (c.spec, c.prefix_len())).collect()
            };
            assert_eq!(
                prefixes(&captured),
                prefixes(&captured_whole),
                "{what}: captures"
            );
            tally.add(&run);
            let donor = checkpoints
                .iter()
                .find(|c| c.spec == spec && c.is_resumable());
            if let Some(cp) = donor {
                let (resumed, _) =
                    resume_switched(program, &analysis, &cfg, cp, trace, &[], Some(chain))
                        .expect("a resumable checkpoint resumes");
                assert_same_run(&resumed, &full, &format!("{what}, resumed"));
                assert_eq!(resumed.tail_handoff, run.tail_handoff, "{what}, resumed");
                tally.add(&resumed);
            }
        }
    }
}

#[test]
fn generated_programs_hand_off_unchanged() {
    let mut tally = Tally::default();
    for seed in 0..16u64 {
        let case = generate_case(seed, &GenOptions::default());
        let config = RunConfig::with_inputs(case.failing_input.clone());
        for (side, src) in [("fixed", &case.fixed_src), ("faulty", &case.faulty_src)] {
            let program = compile(src).expect("generated programs compile");
            check_program(
                &program,
                &config,
                &format!("seed {seed} {side}"),
                &mut tally,
            );
        }
    }
    assert!(tally.runs > 100, "only {} runs checked", tally.runs);
    assert!(
        tally.handoffs * 2 > tally.runs,
        "only {} of {} runs handed off",
        tally.handoffs,
        tally.runs
    );
}

/// A program whose first predicate, the guard `k > 0`, is switched with a
/// chain decided at once, followed by an expression-position call holding
/// a loop (`probe`) and a loop in `main`; `tail` is spliced in after that
/// loop.
fn deferred(probe_body: &str, tail: &str) -> Program {
    compile(&format!(
        "global g = 0;
         global a = [0; 8];
         fn probe(n) {{ {probe_body} return g; }}
         fn main() {{
             let k = input();
             if k > 0 {{ g = 1; }}
             let x = probe(k);
             print(x);
             let j = 0;
             while j < 40 {{ g = g + j % 5; j = j + 1; }}
             {tail}
             print(g);
         }}"
    ))
    .expect("the program compiles")
}

/// The switched run of `program` at the first instance of its `if`,
/// with a chain decided at the switch, against the same run recorded to
/// its end; checks the properties and returns the run.
fn switched_at_guard(program: &Program, config: &RunConfig, what: &str) -> TracedRun {
    let analysis = ProgramAnalysis::build(program);
    let base = run_traced(program, &analysis, config);
    let p = base
        .trace
        .insts()
        .find(|&i| base.trace.event(i).is_predicate())
        .expect("the guard runs");
    let cfg = config.switched(spec_of(&base.trace, p));
    let chain = DescentChain {
        switch: p,
        root: None,
        started: 0,
        steps: Vec::new(),
    };
    let full = run_traced(program, &analysis, &cfg);
    let (run, _) = run_switched(program, &analysis, &cfg, &[], Some(chain));
    assert_same_run(&run, &full, what);
    run
}

#[test]
fn a_hand_off_waits_for_an_expression_position_call_to_return() {
    let config = RunConfig::with_inputs(vec![6]);
    let looping = "let i = 0; while i < n { g = g + i; i = i + 1; }";
    // Recording stops inside `probe`, below `let x = probe(k)`: the run
    // stays on its full sink until `probe` returns and hands off at
    // `main`'s loop.
    let run = switched_at_guard(&deferred(looping, ""), &config, "deferred");
    assert!(run.tail_handoff, "the run hands off once `probe` returns");
    assert!(run.trace.len() < run.instances);
    // A crash inside the expression-position call, before any hand-off,
    // and one in the tail after it: the messages name the same statement.
    let crashing = "let i = 0; while i < n { g = g / (3 - i); i = i + 1; }";
    let run = switched_at_guard(&deferred(crashing, ""), &config, "crash in probe");
    assert!(!run.tail_handoff, "the run crashed before a hand-off point");
    let tail_crash = "let m = 0; while m < 12 { a[m] = m; m = m + 1; }";
    let run = switched_at_guard(&deferred(looping, tail_crash), &config, "crash in tail");
    assert!(run.tail_handoff);
    assert!(matches!(
        run.trace.termination(),
        Termination::RuntimeError(CrashKind::OobIndex, msg) if msg.contains("out of bounds")
    ));
}

#[test]
fn the_step_budget_runs_out_in_the_tail() {
    let looping = "let i = 0; while i < n { g = g + i; i = i + 1; }";
    let program = deferred(looping, "");
    let whole = switched_at_guard(&program, &RunConfig::with_inputs(vec![6]), "whole");
    for cut in [1, 7, whole.instances / 3] {
        let config = RunConfig {
            step_budget: (whole.instances - cut) as u64,
            ..RunConfig::with_inputs(vec![6])
        };
        let run = switched_at_guard(&program, &config, &format!("budget -{cut}"));
        assert!(run.tail_handoff, "budget -{cut}");
        assert_eq!(*run.trace.termination(), Termination::BudgetExhausted);
    }
}

#[test]
fn statement_faults_fire_in_the_tail() {
    let looping = "let i = 0; while i < n { g = g + i; i = i + 1; }";
    // `probe` runs once before the hand-off (six instances of its loop
    // body, below `let x = probe(k)`) and once in the tail (five more):
    // the fault counter must carry its count across the hand-off.
    let program = deferred(looping, "let z = probe(5); print(z);");
    let analysis = ProgramAnalysis::build(&program);
    let body = program
        .functions()
        .find(|f| f.name == "probe")
        .and_then(|probe| {
            probe.body.stmts.iter().find_map(|s| match &s.kind {
                omislice_lang::StmtKind::While { body, .. } => body.stmts.first().map(|s| s.id),
                _ => None,
            })
        })
        .expect("probe has a loop");
    let kinds = [
        CrashKind::OobIndex,
        CrashKind::MissingCallee,
        CrashKind::DivByZero,
        CrashKind::TypeError,
        CrashKind::StackOverflow,
        CrashKind::UninitRead,
    ];
    let actions = kinds
        .into_iter()
        .map(FaultAction::Crash)
        .chain([FaultAction::ExhaustBudget, FaultAction::Panic]);
    for action in actions {
        let config = RunConfig {
            fault: Some(FaultEntry::at_stmt(body, 8, action)),
            ..RunConfig::with_inputs(vec![6])
        };
        let what = format!("{action:?}");
        if action == FaultAction::Panic {
            let whole = std::panic::catch_unwind(|| run_traced(&program, &analysis, &config));
            let tail = std::panic::catch_unwind(|| switched_at_guard(&program, &config, &what));
            let message = |e: Box<dyn std::any::Any + Send>| {
                e.downcast_ref::<String>().cloned().unwrap_or_default()
            };
            let (whole, tail) = (whole.unwrap_err(), tail.unwrap_err());
            assert_eq!(message(whole), message(tail), "{what}");
            continue;
        }
        let run = switched_at_guard(&program, &config, &what);
        assert!(run.tail_handoff, "{what}");
        assert!(!run.trace.termination().is_normal(), "{what}");
    }
}

#[test]
fn deadline_plans_expire_at_the_same_instance() {
    let looping = "let i = 0; while i < n { g = g + i; i = i + 1; }";
    let long = "let m = 0; while m < 9000 { g = (g + m) % 97; m = m + 1; }";
    let program = deferred(looping, long);
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(vec![6]);
    let whole = switched_at_guard(&program, &config, "unscoped");
    let checks = whole.instances / 4096;
    assert!(
        checks >= 4,
        "{} instances make too few checks",
        whole.instances
    );
    let base = run_traced(&program, &analysis, &config);
    let p = base
        .trace
        .insts()
        .find(|&i| base.trace.event(i).is_predicate())
        .expect("the guard runs");
    let cfg = config.switched(spec_of(&base.trace, p));
    let chain = DescentChain {
        switch: p,
        root: None,
        started: 0,
        steps: Vec::new(),
    };
    for k in [1, checks / 2, checks - 1] {
        let plan = FaultPlan::parse(&format!("deadline:{k}=expire")).unwrap();
        let sup = Supervisor::new().with_fault_plan(Some(plan));
        let full = sup.run(|| run_traced(&program, &analysis, &cfg));
        let plan = FaultPlan::parse(&format!("deadline:{k}=expire")).unwrap();
        let sup = Supervisor::new().with_fault_plan(Some(plan));
        let (run, _) =
            sup.run(|| run_switched(&program, &analysis, &cfg, &[], Some(chain.clone())));
        assert_eq!(
            *full.trace.termination(),
            Termination::BudgetExhausted,
            "K={k}"
        );
        assert!(run.tail_handoff, "K={k}");
        assert_same_run(&run, &full, &format!("K={k}"));
    }
    let _ = omislice_trace::take_recovery();
}
