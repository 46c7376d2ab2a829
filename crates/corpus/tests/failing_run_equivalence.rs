//! Recording the failing run only through `o×` changes nothing a reader
//! sees.
//!
//! A [`DebugSession`] records its failing run only until the first output
//! that differs from the reference run's, which the reference streams to
//! it from another thread, and folds the later values into the value
//! profile without recording them. Over generated programs, the corpus
//! faults and sed ×250 draws whose first wrong output comes early:
//!
//! 1. the session's trace is `run_traced(..).trace.prefix(o× + 1)` column
//!    for column, with the same outputs and termination, and the session
//!    keeps the whole run's instance count and outputs;
//! 2. its value profile is the fold of the whole trace (and of the
//!    profile runs);
//! 3. its report and journal equal those of a session that loads the
//!    whole trace from an `omitrace/v1` file (the `--trace-in` path), the
//!    journal header's `trace_len` the whole run's instance count.
//!
//! Beside them: a reference that prints fewer outputs than the failing
//! run, a reference that panics (the failing run must still return), and
//! `deadline:K=expire` plans, which must expire at the same instance as
//! they do on a fully recorded run.
//!
//! The net lives with the corpus, whose programs and input generator it
//! draws on; the omission crate's own tests cannot reach them.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{
    run_failing, run_plain, run_traced, run_values, run_values_publishing, OutputFeed, RunConfig,
};
use omislice::omislice_lang::{compile, generate_case, GenOptions, StmtId};
use omislice::omislice_slicing::ValueProfile;
use omislice::omislice_trace::{
    encode_trace, save_trace, FaultPlan, Supervisor, Termination, Trace, Value,
};
use omislice::{DebugSession, DebugSessionBuilder, JournalMeta, LocateConfig, UserOracle};
use omislice_corpus::{all_benchmarks, WorkloadGen};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One failing execution: both versions' sources, the failing input and
/// the profiling suite.
struct Case {
    name: String,
    faulty: String,
    fixed: String,
    input: Vec<i64>,
    profile: Vec<Vec<i64>>,
}

impl Case {
    fn builder(&self) -> DebugSessionBuilder {
        DebugSession::builder(&self.faulty)
            .reference(&self.fixed)
            .failing_input(self.input.clone())
            .profile_inputs(self.profile.clone())
    }
}

/// A fresh file path for a saved trace.
fn trace_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "omislice-failing-run-{}-{n}.omitrace",
        std::process::id()
    ))
}

/// Asserts that two profiles hold the same values per statement and
/// count the same runs.
fn assert_same_profile(got: &ValueProfile, want: &ValueProfile, stmts: u32, what: &str) {
    assert_eq!(got.run_count(), want.run_count(), "{what}: runs");
    for s in 0..stmts {
        let stmt = StmtId(s);
        assert_eq!(got.values(stmt), want.values(stmt), "{what}: {stmt}");
    }
}

/// Checks the three properties for one case; returns whether the
/// session's trace stops before the whole run's end.
fn check(case: &Case) -> bool {
    let what = case.name.as_str();
    let session = case.builder().build().expect("session builds");
    let (program, analysis, config) = (session.program(), session.analysis(), session.config());
    let full = run_traced(program, analysis, config).trace;
    assert_eq!(session.run_instances(), full.len(), "{what}: instances");
    assert_eq!(
        session.run_outputs(),
        full.output_values(),
        "{what}: outputs"
    );

    // 1. The trace through o×, column for column.
    let view = match session.oracle().classify_outputs(&full) {
        Some(class) => full.prefix(class.wrong.index() + 1),
        None => full.prefix(full.len()),
    };
    let trace = session.trace();
    assert_eq!(trace.len(), view.len(), "{what}: trace length");
    assert_eq!(encode_trace(trace), encode_trace(&view), "{what}: columns");
    assert_eq!(trace.outputs(), view.outputs(), "{what}: trace outputs");
    assert_eq!(
        trace.termination(),
        full.termination(),
        "{what}: termination"
    );

    // 2. The profile of the whole run and the profile runs.
    let mut want = ValueProfile::new();
    want.add_trace(&full);
    for inputs in &case.profile {
        let cfg = RunConfig::with_inputs(inputs.clone());
        want.add_values(&run_values(program, analysis.index(), &cfg).values);
    }
    assert_same_profile(session.profile(), &want, program.stmt_count(), what);

    // 3. Report and journal equal the loaded trace's.
    let path = trace_path();
    save_trace(&full, &path).expect("trace saves");
    let loaded = case.builder().trace_file(&path).build();
    let _ = std::fs::remove_file(&path);
    let loaded = loaded.expect("session loads");
    assert!(
        loaded.warnings().is_empty(),
        "{what}: {:?}",
        loaded.warnings()
    );
    assert_eq!(
        loaded.run_instances(),
        full.len(),
        "{what}: loaded instances"
    );
    assert_eq!(
        encode_trace(loaded.trace()),
        encode_trace(&view),
        "{what}: loaded view"
    );
    let lc = LocateConfig {
        jobs: 1,
        ..LocateConfig::default()
    };
    let meta = JournalMeta {
        program: case.name.clone(),
    };
    match (session.locate(&lc), loaded.locate(&lc)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(session.report(&a, true), loaded.report(&b, true), "{what}");
            let journal = session.journal(&meta, &lc, &a, None, None, None);
            assert_eq!(journal, loaded.journal(&meta, &lc, &b, None, None, None));
            let header = journal[0].to_string();
            let len = format!("\"trace_len\":{}", full.len());
            assert!(header.contains(&len), "{what}: {header}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
        (a, b) => panic!("{what}: recorded {a:?}, loaded {b:?}"),
    }
    trace.len() < full.len()
}

#[test]
fn generated_cases_record_through_the_first_wrong_output() {
    let mut cut = 0;
    for seed in 0..12u64 {
        let g = generate_case(seed, &GenOptions::default());
        cut += usize::from(check(&Case {
            name: format!("generated seed {seed}"),
            faulty: g.faulty_src,
            fixed: g.fixed_src,
            input: g.failing_input,
            profile: g.passing_inputs,
        }));
    }
    assert!(cut > 0, "no generated failing run stopped recording early");
}

#[test]
fn corpus_faults_record_through_the_first_wrong_output() {
    for b in all_benchmarks() {
        for f in &b.faults {
            check(&Case {
                name: format!("{} {}", b.name, f.id),
                faulty: f.apply(b.fixed_src),
                fixed: b.fixed_src.to_string(),
                input: f.failing_input.clone(),
                profile: f.passing_inputs.clone(),
            });
        }
    }
}

/// sed V3-F2 ×250 draws (seed 1) whose first wrong output comes before
/// the run's midpoint, as on the benchmark's sed ×1000 draws.
fn early_sed_draws(count: usize) -> Vec<Case> {
    let sed = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "sed")
        .expect("sed is in the corpus");
    let fault = sed.fault("V3-F2").expect("sed has V3-F2");
    let faulty_src = fault.apply(sed.fixed_src);
    let (fixed, faulty) = (
        compile(sed.fixed_src).unwrap(),
        compile(&faulty_src).unwrap(),
    );
    let mut gen = WorkloadGen::new(1);
    let mut out = Vec::new();
    for draw in 0..64 {
        let input = gen.sized_for_benchmark("sed", 250);
        let cfg = RunConfig::with_inputs(input.clone());
        let (want, got) = (run_plain(&fixed, &cfg), run_plain(&faulty, &cfg));
        let Some(k) = (0..got.outputs.len()).find(|&k| want.outputs.get(k) != got.outputs.get(k))
        else {
            continue;
        };
        if !(want.is_normal() && got.is_normal()) || 2 * k > got.outputs.len() {
            continue;
        }
        out.push(Case {
            name: format!("sed V3-F2 x250 draw {draw}"),
            faulty: faulty_src.clone(),
            fixed: sed.fixed_src.to_string(),
            input,
            profile: Vec::new(),
        });
        if out.len() == count {
            break;
        }
    }
    assert_eq!(out.len(), count, "too few early sed draws");
    out
}

#[test]
fn early_sed_draws_record_through_the_first_wrong_output() {
    for case in early_sed_draws(2) {
        assert!(check(&case), "{}: the run was recorded whole", case.name);
    }
}

#[test]
fn a_reference_with_fewer_outputs_makes_the_extra_one_wrong() {
    let tail = "let i = 0; while i < 40 { i = i + 1; } }";
    let case = Case {
        name: "fewer reference outputs".to_string(),
        faulty: format!(
            "fn main() {{ let k = input(); print(k); if k > 5 {{ print(k * 2); }} {tail}"
        ),
        fixed: format!(
            "fn main() {{ let k = input(); print(k); if k > 9 {{ print(k * 2); }} {tail}"
        ),
        input: vec![7],
        profile: vec![vec![3]],
    };
    assert!(check(&case));
    let session = case.builder().build().unwrap();
    let class = session.oracle().classify_outputs(session.trace()).unwrap();
    assert_eq!(class.expected, None);
    assert_eq!(class.wrong.index() + 1, session.trace().len());
}

#[test]
fn a_panicking_reference_releases_the_failing_run() {
    let src = "fn main() { let i = 0; while i < 30 { print(i); i = i + 1; } }";
    let program = compile(src).unwrap();
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::default();
    // The reference panics at its fourth `print` (S2), having published
    // three outputs.
    let panicking = RunConfig {
        fault: FaultPlan::parse("S2:3=panic").unwrap().stmt_entry(),
        ..RunConfig::default()
    };
    let feed = OutputFeed::new();
    let run = std::thread::scope(|s| {
        let reference =
            s.spawn(|| run_values_publishing(&program, analysis.index(), &panicking, &feed));
        let run = run_failing(&program, &analysis, &config, &feed, &mut |_, _| {});
        assert!(reference.join().is_err(), "the reference panicked");
        run
    });
    let full = run_traced(&program, &analysis, &config).trace;
    assert_eq!(run.instances, full.len());
    assert_eq!(run.outputs, full.output_values());
    // The fourth output has no published counterpart: it is `o×`.
    let wrong = full.outputs()[3].inst;
    assert_eq!(run.trace.len(), wrong.index() + 1);
    assert_eq!(
        encode_trace(&run.trace),
        encode_trace(&full.prefix(wrong.index() + 1))
    );
}

#[test]
fn deadline_plans_expire_at_the_same_instance() {
    let case = early_sed_draws(1).remove(0);
    let faulty = compile(&case.faulty).unwrap();
    let analysis = ProgramAnalysis::build(&faulty);
    let config = RunConfig::with_inputs(case.input.clone());
    let whole = run_traced(&faulty, &analysis, &config).trace;
    let checks = whole.len() / 4096;
    assert!(
        checks >= 4,
        "{} events make too few counted checks",
        whole.len()
    );
    let supervisor = |k: usize| {
        let plan = FaultPlan::parse(&format!("deadline:{k}=expire")).unwrap();
        Supervisor::new().with_fault_plan(Some(plan))
    };
    for k in [1, checks / 2, checks - 1] {
        let recorded: Trace = supervisor(k).run(|| run_traced(&faulty, &analysis, &config).trace);
        assert_eq!(
            *recorded.termination(),
            Termination::BudgetExhausted,
            "K={k}"
        );
        let session = case.builder().supervisor(supervisor(k)).build().unwrap();
        assert_eq!(session.run_instances(), recorded.len(), "K={k}");
        let outputs: Vec<Value> = recorded.output_values();
        assert_eq!(session.run_outputs(), outputs, "K={k}");
        assert_eq!(
            session.trace().termination(),
            recorded.termination(),
            "K={k}"
        );
        let end = session.trace().len();
        assert!(end <= recorded.len(), "K={k}");
        assert_eq!(
            encode_trace(session.trace()),
            encode_trace(&recorded.prefix(end)),
            "K={k}"
        );
    }
}
