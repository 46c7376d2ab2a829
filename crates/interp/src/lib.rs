//! # omislice-interp
//!
//! A deterministic interpreter for the mini-language — the substrate that
//! replaces the paper's valgrind-2.2.0 instrumentation layer. One
//! evaluator runs every execution, generic over what it records:
//!
//! * [`run_traced`] records the full dynamic dependence graph (data
//!   dependences, dynamic control dependences, region nesting,
//!   timestamps) — the paper's "Graph" configuration;
//! * [`run_plain`] records nothing — the paper's "Plain" configuration,
//!   also used for cheap output-only re-executions;
//! * [`run_values`] keeps each statement's values, for readers that
//!   compare values and nothing else (the ground-truth oracle's
//!   reference run, value profiles).
//!
//! Whatever it records, every run supports **predicate switching**
//! ([`SwitchSpec`]): forcing one dynamic instance of a chosen predicate to
//! take the opposite branch, the mechanism behind implicit-dependence
//! verification. Every run enforces a step budget, replacing the paper's
//! wall-clock timer for switched runs that no longer terminate, and
//! honors the statement entry of an [`omislice_trace::FaultPlan`]
//! (`S<id>[:occ]=<action>`, carried in [`RunConfig::fault`]) at the same
//! logical point, so injected crashes, budget exhaustion and panics hit
//! switched re-executions deterministically.
//!
//! Executions are fully determined by `(program, inputs, switch)`, so the
//! re-execution in Definition 2 ("reexecute with the same input, switch
//! `p`") reproduces the original run exactly up to the switch point.

pub mod snapshot;
pub mod store;
pub mod tracer;

pub use snapshot::{resume_switched, run_switched, Checkpoint, ResumeError, ResumeMode};
pub use tracer::{
    run_plain, run_plain_indexed, run_traced, run_values, PlainRun, StmtValues, TracedRun,
    ValueRun, MAX_CALL_DEPTH,
};

use omislice_lang::StmtId;
use omislice_trace::FaultEntry;

/// Selects one dynamic predicate instance whose branch outcome is negated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchSpec {
    /// The predicate statement to switch.
    pub pred: StmtId,
    /// Which dynamic occurrence of `pred` to switch (0-based).
    pub occurrence: u32,
}

impl SwitchSpec {
    /// Switch the `occurrence`-th execution of `pred`.
    pub fn new(pred: StmtId, occurrence: u32) -> Self {
        SwitchSpec { pred, occurrence }
    }
}

/// Selects one dynamic assignment instance whose computed value is
/// replaced — *value perturbation*, the stronger (and costlier)
/// alternative to predicate switching the paper proposes in §5 for the
/// nested-predicate soundness gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OverrideSpec {
    /// The `let`/assignment statement to override.
    pub stmt: StmtId,
    /// Which dynamic occurrence of `stmt` to override (0-based).
    pub occurrence: u32,
    /// The value stored instead of the computed one.
    pub value: omislice_trace::Value,
}

impl OverrideSpec {
    /// Override the `occurrence`-th execution of `stmt` with `value`.
    pub fn new(stmt: StmtId, occurrence: u32, value: omislice_trace::Value) -> Self {
        OverrideSpec {
            stmt,
            occurrence,
            value,
        }
    }
}

/// A step count kept for omibench's `step_limit_is_the_first_budget_rung`
/// test, its only reader: `sed-storm` sizes its versions below it. No run
/// consults it; each switched run executes once, at
/// [`RunConfig::step_budget`]. Remove it with the next change to omibench,
/// once that test pins its own constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetSchedule {
    /// The step count the benchmark pins: 16,384.
    pub initial: u64,
}

impl Default for BudgetSchedule {
    fn default() -> Self {
        BudgetSchedule { initial: 16_384 }
    }
}

/// Everything that determines an execution.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Values returned by successive `input()` calls; an exhausted stream
    /// yields `0` (so switched runs that consume extra input keep going).
    /// Each such underflow is counted in the run result.
    pub inputs: Vec<i64>,
    /// Maximum number of statement instances before the run is cut off
    /// with [`Termination::BudgetExhausted`](omislice_trace::Termination).
    pub step_budget: u64,
    /// Optional predicate switch.
    pub switch: Option<SwitchSpec>,
    /// Optional value override (perturbation).
    pub value_override: Option<OverrideSpec>,
    /// Optional deterministic fault injection: the statement entry of a
    /// [`FaultPlan`](omislice_trace::FaultPlan). Every run honors it at
    /// the same instance, and a resumed run accounts for instances already
    /// in its replayed prefix (an entry that would fire *inside* a
    /// prefix makes the resume refuse, forcing the byte-identical
    /// from-scratch run).
    pub fault: Option<FaultEntry>,
}

/// Default step budget: generous for corpus programs, small enough that a
/// switched run stuck in an infinite loop is cut off quickly.
pub const DEFAULT_STEP_BUDGET: u64 = 2_000_000;

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            inputs: Vec::new(),
            step_budget: DEFAULT_STEP_BUDGET,
            switch: None,
            value_override: None,
            fault: None,
        }
    }
}

impl RunConfig {
    /// A config with the given input stream and default budget.
    pub fn with_inputs(inputs: Vec<i64>) -> Self {
        RunConfig {
            inputs,
            ..RunConfig::default()
        }
    }

    /// Returns a copy of this config with `switch` applied — the
    /// re-execution of Definition 2. A fault entry carries over: injected
    /// faults must hit switched re-executions too.
    pub fn switched(&self, switch: SwitchSpec) -> Self {
        RunConfig {
            inputs: self.inputs.clone(),
            step_budget: self.step_budget,
            switch: Some(switch),
            value_override: None,
            fault: self.fault,
        }
    }

    /// Returns a copy of this config with a value override applied — a
    /// perturbation re-execution (§5).
    pub fn overridden(&self, value_override: OverrideSpec) -> Self {
        RunConfig {
            inputs: self.inputs.clone(),
            step_budget: self.step_budget,
            switch: None,
            value_override: Some(value_override),
            fault: self.fault,
        }
    }
}

/// Parses an input stream in its text form, shared by the CLI's
/// `--input` flag and serve request bodies: comma-separated integers;
/// blank text is the empty stream.
///
/// # Errors
///
/// Names the first value that is not an integer.
pub fn parse_inputs(text: &str) -> Result<Vec<i64>, String> {
    if text.trim().is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|s| {
            s.trim()
                .parse::<i64>()
                .map_err(|_| format!("bad input value `{s}`"))
        })
        .collect()
}

/// Parses profile input streams in their text form (`--profile` and the
/// served `profile` string): [`parse_inputs`] streams separated by `;`.
///
/// # Errors
///
/// Names the first value that is not an integer.
pub fn parse_profiles(text: &str) -> Result<Vec<Vec<i64>>, String> {
    text.split(';').map(parse_inputs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_analysis::ProgramAnalysis;
    use omislice_lang::{compile, Program};
    use omislice_trace::{CrashKind, FaultAction, InstId, Termination, Value};

    fn setup(src: &str) -> (Program, ProgramAnalysis) {
        let p = compile(src).unwrap();
        let a = ProgramAnalysis::build(&p);
        (p, a)
    }

    fn traced(src: &str, inputs: Vec<i64>) -> TracedRun {
        let (p, a) = setup(src);
        run_traced(&p, &a, &RunConfig::with_inputs(inputs))
    }

    fn outs(run: &TracedRun) -> Vec<i64> {
        run.trace
            .output_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn arithmetic_and_output() {
        let run = traced(
            "fn main() { print(2 + 3 * 4); print(10 / 3); print(10 % 3); }",
            vec![],
        );
        assert_eq!(outs(&run), vec![14, 3, 1]);
        assert!(run.trace.termination().is_normal());
    }

    #[test]
    fn input_stream_and_exhaustion() {
        let run = traced(
            "fn main() { print(input()); print(input()); print(input()); }",
            vec![7, 8],
        );
        assert_eq!(outs(&run), vec![7, 8, 0]);
    }

    #[test]
    fn globals_locals_and_shadowing() {
        let run = traced(
            "global v = 10; fn main() { let v = 1; v = v + 1; print(v); } ",
            vec![],
        );
        assert_eq!(outs(&run), vec![2]);
    }

    #[test]
    fn while_loop_computes() {
        let run = traced(
            "fn main() { let i = 0; let s = 0; while i < 5 { s = s + i; i = i + 1; } print(s); }",
            vec![],
        );
        assert_eq!(outs(&run), vec![10]);
    }

    #[test]
    fn break_and_continue() {
        let run = traced(
            "fn main() { let i = 0; let s = 0; while true { i = i + 1; if i > 5 { break; } if i % 2 == 0 { continue; } s = s + i; } print(s); }",
            vec![],
        );
        assert_eq!(outs(&run), vec![9]); // 1 + 3 + 5
    }

    #[test]
    fn functions_params_and_returns() {
        let run = traced(
            "fn add(a, b) { return a + b; } fn main() { print(add(add(1, 2), 4)); }",
            vec![],
        );
        assert_eq!(outs(&run), vec![7]);
    }

    #[test]
    fn recursion() {
        let run = traced(
            "fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); } fn main() { print(fib(10)); }",
            vec![],
        );
        assert_eq!(outs(&run), vec![55]);
    }

    #[test]
    fn fall_off_function_returns_zero() {
        let run = traced("fn f() { } fn main() { print(f()); }", vec![]);
        assert_eq!(outs(&run), vec![0]);
    }

    #[test]
    fn arrays_read_write() {
        let run = traced(
            "global a = [0; 4]; fn main() { let i = 0; while i < 4 { a[i] = i * i; i = i + 1; } print(a[3]); }",
            vec![],
        );
        assert_eq!(outs(&run), vec![9]);
    }

    #[test]
    fn runtime_error_out_of_bounds() {
        let run = traced("global a = [0; 2]; fn main() { print(a[5]); }", vec![]);
        assert!(matches!(
            run.trace.termination(),
            Termination::RuntimeError(CrashKind::OobIndex, m) if m.contains("out of bounds")
        ));
        assert!(outs(&run).is_empty());
    }

    #[test]
    fn runtime_error_division_by_zero() {
        let run = traced("fn main() { print(1 / (1 - 1)); }", vec![]);
        assert!(matches!(
            run.trace.termination(),
            Termination::RuntimeError(CrashKind::DivByZero, m) if m.contains("division by zero")
        ));
    }

    #[test]
    fn runtime_error_uninitialized_local() {
        let run = traced("fn main() { if 1 > 2 { let x = 1; } print(x); }", vec![]);
        assert!(matches!(
            run.trace.termination(),
            Termination::RuntimeError(CrashKind::UninitRead, m) if m.contains("before initialization")
        ));
    }

    #[test]
    fn budget_cuts_infinite_loop() {
        let (p, a) = setup("fn main() { while true { } }");
        let cfg = RunConfig {
            step_budget: 100,
            ..RunConfig::default()
        };
        let run = run_traced(&p, &a, &cfg);
        assert_eq!(*run.trace.termination(), Termination::BudgetExhausted);
        assert_eq!(run.trace.len(), 100);
    }

    #[test]
    fn recursion_depth_limit() {
        let run = traced("fn f() { f(); } fn main() { f(); }", vec![]);
        assert!(matches!(
            run.trace.termination(),
            Termination::RuntimeError(CrashKind::StackOverflow, m) if m.contains("call depth")
        ));
    }

    #[test]
    fn data_dependences_flow_through_assignments() {
        // S0: let x = input(); S1: let y = x + 1; S2: print(y);
        let run = traced(
            "fn main() { let x = input(); let y = x + 1; print(y); }",
            vec![5],
        );
        let t = &run.trace;
        let print_inst = t.instances_of(omislice_lang::StmtId(2))[0];
        assert_eq!(t.event(print_inst).data_deps, vec![InstId(1)]);
        let y_inst = t.instances_of(omislice_lang::StmtId(1))[0];
        assert_eq!(t.event(y_inst).data_deps, vec![InstId(0)]);
        assert!(t.event(InstId(0)).data_deps.is_empty());
    }

    #[test]
    fn data_dependence_through_array_cells() {
        let run = traced(
            "global a = [0; 2]; fn main() { a[0] = 1; a[1] = 2; print(a[1]); }",
            vec![],
        );
        let t = &run.trace;
        let print_inst = t.instances_of(omislice_lang::StmtId(2))[0];
        assert_eq!(t.event(print_inst).data_deps, vec![InstId(1)]);
    }

    #[test]
    fn data_dependence_through_calls_and_returns() {
        let run = traced(
            "fn id(x) { return x; } fn main() { let a = input(); print(id(a)); }",
            vec![3],
        );
        let t = &run.trace;
        let ret_inst = t.instances_of(omislice_lang::StmtId(0))[0];
        let print_inst = t.instances_of(omislice_lang::StmtId(2))[0];
        assert_eq!(t.event(print_inst).data_deps, vec![ret_inst]);
        assert_eq!(t.event(ret_inst).data_deps, vec![InstId(0)]);
    }

    #[test]
    fn expression_call_parameters_inherit_every_distinct_argument_source() {
        // S0 returns `x`; its event depends on the parameter's defining
        // instances: both sources of `a + b`, but `a` once for `a + a`.
        let run = traced(
            "fn id(x) { return x; } \
             fn main() { let a = input(); let b = input(); print(id(a + b)); print(id(a + a)); }",
            vec![3, 4],
        );
        let t = &run.trace;
        let (a, b) = (
            t.instances_of(omislice_lang::StmtId(1))[0],
            t.instances_of(omislice_lang::StmtId(2))[0],
        );
        let rets = t.instances_of(omislice_lang::StmtId(0));
        assert_eq!(t.event(rets[0]).data_deps, vec![a, b]);
        assert_eq!(t.event(rets[1]).data_deps, vec![a]);
        assert_eq!(outs(&run), vec![7, 6]);
    }

    #[test]
    fn control_dependence_within_function() {
        let run = traced(
            "fn main() { if input() > 0 { print(1); } print(2); }",
            vec![5],
        );
        let t = &run.trace;
        let if_inst = t.instances_of(omislice_lang::StmtId(0))[0];
        let p1 = t.instances_of(omislice_lang::StmtId(1))[0];
        let p2 = t.instances_of(omislice_lang::StmtId(2))[0];
        assert_eq!(t.event(p1).cd_parent, Some(if_inst));
        assert_eq!(t.event(p2).cd_parent, None);
    }

    #[test]
    fn control_dependence_crosses_calls() {
        let run = traced(
            "fn f() { print(9); } fn main() { if input() > 0 { f(); } }",
            vec![1],
        );
        let t = &run.trace;
        let if_inst = t.instances_of(omislice_lang::StmtId(1))[0];
        let print_inst = t.instances_of(omislice_lang::StmtId(0))[0];
        assert_eq!(t.event(print_inst).cd_parent, Some(if_inst));
        assert_eq!(t.event(print_inst).call_depth, 1);
    }

    #[test]
    fn loop_iterations_pick_correct_cd_instance() {
        let run = traced(
            "fn main() { let i = 0; while i < 3 { print(i); i = i + 1; } }",
            vec![],
        );
        let t = &run.trace;
        let whiles = t.instances_of(omislice_lang::StmtId(1));
        let prints = t.instances_of(omislice_lang::StmtId(2));
        assert_eq!(whiles.len(), 4); // 3 true + 1 false
        assert_eq!(prints.len(), 3);
        for (k, &p) in prints.iter().enumerate() {
            assert_eq!(t.event(p).cd_parent, Some(whiles[k]));
        }
    }

    #[test]
    fn while_regions_chain_iterations() {
        let run = traced(
            "fn main() { let i = 0; while i < 2 { i = i + 1; } print(i); }",
            vec![],
        );
        let t = &run.trace;
        let r = t.regions();
        let whiles = t.instances_of(omislice_lang::StmtId(1));
        assert_eq!(r.parent(whiles[1]), Some(whiles[0]));
        assert_eq!(r.parent(whiles[2]), Some(whiles[1]));
        assert_eq!(r.parent(whiles[0]), None);
        let print_inst = t.instances_of(omislice_lang::StmtId(3))[0];
        assert_eq!(r.parent(print_inst), None);
        let bodies = t.instances_of(omislice_lang::StmtId(2));
        assert_eq!(r.parent(bodies[0]), Some(whiles[0]));
        assert_eq!(r.parent(bodies[1]), Some(whiles[1]));
    }

    #[test]
    fn callee_regions_nest_under_call_site_guard() {
        let run = traced(
            "fn f() { print(1); } fn main() { if input() > 0 { f(); } print(2); }",
            vec![1],
        );
        let t = &run.trace;
        let r = t.regions();
        let if_inst = t.instances_of(omislice_lang::StmtId(1))[0];
        let inner_print = t.instances_of(omislice_lang::StmtId(0))[0];
        assert!(r.in_region(if_inst, inner_print));
    }

    #[test]
    fn switching_takes_the_untaken_branch() {
        let src = "fn main() { if input() > 0 { print(1); } else { print(2); } }";
        let (p, a) = setup(src);
        let base = run_traced(&p, &a, &RunConfig::with_inputs(vec![5]));
        assert_eq!(outs(&base), vec![1]);
        let cfg =
            RunConfig::with_inputs(vec![5]).switched(SwitchSpec::new(omislice_lang::StmtId(0), 0));
        let run = run_traced(&p, &a, &cfg);
        assert_eq!(outs(&run), vec![2]);
        let switched = run.switched.unwrap();
        assert_eq!(run.trace.event(switched).branch, Some(false));
    }

    #[test]
    fn switching_specific_loop_occurrence() {
        let src = "fn main() { let i = 0; while i < 4 { print(i); i = i + 1; } }";
        let (p, a) = setup(src);
        // Statement 1 is the while; switch its third evaluation
        // (occurrence 2): the loop exits after two iterations.
        let cfg = RunConfig::default().switched(SwitchSpec::new(omislice_lang::StmtId(1), 2));
        let run = run_traced(&p, &a, &cfg);
        assert_eq!(outs(&run), vec![0, 1]);
    }

    #[test]
    fn switch_on_unreached_instance_is_noop() {
        let src = "fn main() { if input() > 0 { print(1); } }";
        let (p, a) = setup(src);
        let cfg =
            RunConfig::with_inputs(vec![1]).switched(SwitchSpec::new(omislice_lang::StmtId(0), 5));
        let run = run_traced(&p, &a, &cfg);
        assert!(run.switched.is_none());
        assert_eq!(outs(&run), vec![1]);
    }

    #[test]
    fn switched_prefix_is_identical() {
        let src = "fn main() { let x = input(); if x > 0 { print(1); } print(2); }";
        let (p, a) = setup(src);
        let base = run_traced(&p, &a, &RunConfig::with_inputs(vec![5]));
        let run = run_traced(
            &p,
            &a,
            &RunConfig::with_inputs(vec![5]).switched(SwitchSpec::new(omislice_lang::StmtId(1), 0)),
        );
        let k = run.switched.unwrap().index();
        for i in 0..k {
            assert_eq!(
                base.trace.event(InstId(i as u32)),
                run.trace.event(InstId(i as u32)),
                "prefix diverged at {i}"
            );
        }
    }

    #[test]
    fn plain_and_traced_agree() {
        let cases: &[(&str, Vec<i64>)] = &[
            ("fn main() { print(1 + 2); }", vec![]),
            (
                "fn f(n) { if n < 2 { return n; } return f(n-1) + f(n-2); } fn main() { print(f(12)); }",
                vec![],
            ),
            (
                "global a = [0; 8]; fn main() { let i = 0; while i < 8 { a[i] = input() * 2; i = i + 1; } print(a[3] + a[7]); }",
                vec![1, 2, 3, 4, 5, 6, 7, 8],
            ),
            (
                "fn main() { let i = 0; while true { i = i + 1; if i % 3 == 0 { continue; } if i > 10 { break; } print(i); } }",
                vec![],
            ),
        ];
        for (src, inputs) in cases {
            let (p, a) = setup(src);
            let cfg = RunConfig::with_inputs(inputs.clone());
            let t = run_traced(&p, &a, &cfg);
            let pl = run_plain(&p, &cfg);
            assert_eq!(
                t.trace.output_values(),
                pl.outputs,
                "modes disagree on {src}"
            );
            assert_eq!(t.trace.termination().is_normal(), pl.is_normal());
        }
    }

    /// A value run keeps what a traced run records — outputs,
    /// termination and each statement's values — and stops where it
    /// stops: at every crash class, at every budget up to past the end
    /// (plain's own step count would stop a `while` earlier), under a
    /// switch and under a value override. A plain run, unbudgeted, ends
    /// the same way, crash message included.
    #[test]
    fn value_runs_stop_where_traced_runs_stop() {
        let srcs = [
            "global a = [0; 2]; fn main() { print(a[true]); }",
            "global a = [0; 2]; fn main() { a[1 < 2] = 3; }",
            "global a = [0; 2]; fn main() { let i = 0; while i < 5 { a[i] = i; print(i); i = i + 1; } }",
            "fn main() { let i = 3; while i > (0 - 2) { print(12 / i); i = i - 1; } }",
            "fn main() { let k = input(); if k > 2 { let x = 1; } print(x); }",
            "global a = [1; 2]; fn main() { let a = 1; print(a[0]); }",
            "fn f(n) { if n > 0 { return f(n - 1) + 1; } return 0; } fn main() { print(f(200)); }",
            "fn g(n) { print(n); if n > 1 { return; } return n * 2; }\
             fn main() { let i = 0; while i < 4 { g(i); let r = g(i) + 1; print(r > 2); \
             if r == 3 { break; } i = i + 1; } }",
        ];
        for src in srcs {
            let (p, a) = setup(src);
            let traced = run_traced(&p, &a, &RunConfig::with_inputs(vec![1]));
            let plain = run_plain(&p, &RunConfig::with_inputs(vec![1]));
            assert_eq!(&plain.termination, traced.trace.termination(), "{src}");
            let full = traced.trace.len() as u64;
            let mut configs: Vec<RunConfig> = (0..=full + 2)
                .map(|budget| RunConfig {
                    step_budget: budget,
                    ..RunConfig::with_inputs(vec![1])
                })
                .collect();
            configs.push(
                RunConfig::with_inputs(vec![1])
                    .switched(SwitchSpec::new(omislice_lang::StmtId(1), 1)),
            );
            configs.push(
                RunConfig::with_inputs(vec![1]).overridden(OverrideSpec::new(
                    omislice_lang::StmtId(0),
                    0,
                    Value::Int(4),
                )),
            );
            for cfg in &configs {
                let t = run_traced(&p, &a, cfg).trace;
                let v = run_values(&p, a.index(), cfg);
                assert_eq!(v.outputs, t.output_values(), "{src} under {cfg:?}");
                assert_eq!(&v.termination, t.termination(), "{src} under {cfg:?}");
                for s in 0..p.stmt_count() {
                    let stmt = omislice_lang::StmtId(s);
                    let want: Vec<Value> = t
                        .instances_of(stmt)
                        .iter()
                        .filter_map(|&i| t.event(i).value)
                        .collect();
                    assert_eq!(v.values.of(stmt).collect::<Vec<_>>(), want, "{src}: {stmt}");
                    for (k, &w) in want.iter().enumerate() {
                        assert_eq!(v.values.get(stmt, k), Some(w));
                    }
                    assert_eq!(v.values.get(stmt, want.len()), None);
                }
            }
        }
    }

    #[test]
    fn plain_and_traced_agree_when_a_local_shadows_a_global_array() {
        // Plain and traced runs resolve `a` in `a[0]` to the local scalar.
        let (p, a) = setup("global a = [1; 2]; fn main() { let a = 1; print(a[0]); }");
        let cfg = RunConfig::default();
        let t = run_traced(&p, &a, &cfg);
        let pl = run_plain(&p, &cfg);
        assert!(matches!(
            t.trace.termination(),
            Termination::RuntimeError(CrashKind::TypeError, m) if m.contains("is not an array")
        ));
        assert_eq!(pl.termination, *t.trace.termination());
        assert_eq!(pl.outputs, t.trace.output_values());
    }

    #[test]
    fn plain_and_traced_agree_under_switching() {
        let src = "fn main() { let x = input(); if x > 3 { print(1); } else { print(2); } if x > 1 { print(3); } }";
        let (p, a) = setup(src);
        for (pred, occurrence) in [(1u32, 0u32), (4, 0)] {
            let cfg = RunConfig::with_inputs(vec![5])
                .switched(SwitchSpec::new(omislice_lang::StmtId(pred), occurrence));
            let t = run_traced(&p, &a, &cfg);
            let pl = run_plain(&p, &cfg);
            assert_eq!(t.trace.output_values(), pl.outputs);
        }
    }

    #[test]
    fn deterministic_replay() {
        let src = "fn main() { let i = 0; while i < 10 { print(i * input()); i = i + 1; } }";
        let (p, a) = setup(src);
        let cfg = RunConfig::with_inputs(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let r1 = run_traced(&p, &a, &cfg);
        let r2 = run_traced(&p, &a, &cfg);
        assert_eq!(r1.trace.events_vec(), r2.trace.events_vec());
        assert_eq!(r1.trace.output_values(), r2.trace.output_values());
    }

    #[test]
    fn predicate_events_record_outcome_value() {
        let run = traced("fn main() { if 1 > 2 { print(1); } }", vec![]);
        let e = run.trace.event(InstId(0));
        assert_eq!(e.branch, Some(false));
        assert_eq!(e.value, Some(Value::Bool(false)));
        assert!(e.is_predicate());
    }

    #[test]
    fn store_events_record_cell_index() {
        let run = traced("global a = [0; 4]; fn main() { a[2] = 9; }", vec![]);
        let e = run.trace.event(InstId(0));
        assert_eq!(e.cell_index, Some(2));
        assert_eq!(e.value, Some(Value::Int(9)));
    }

    #[test]
    fn non_short_circuit_evaluation() {
        // `&&` evaluates both sides: the division by zero on the right
        // fires even though the left side is false.
        let run = traced(
            "fn main() { if false && (1 / 0 > 0) { print(1); } }",
            vec![],
        );
        assert!(matches!(
            run.trace.termination(),
            Termination::RuntimeError(..)
        ));
    }

    #[test]
    fn value_override_replaces_the_computed_value() {
        let src = "fn main() { let a = input(); if a > 10 { print(1); } print(a); }";
        let (p, an) = setup(src);
        let base = RunConfig::with_inputs(vec![5]);
        let run = run_traced(&p, &an, &base);
        assert_eq!(outs(&run), vec![5]);
        // Override `let a = input()` (occurrence 0) to 25.
        let cfg = base.overridden(OverrideSpec::new(
            omislice_lang::StmtId(0),
            0,
            Value::Int(25),
        ));
        let run = run_traced(&p, &an, &cfg);
        assert_eq!(outs(&run), vec![1, 25], "the guard now fires");
        let inst = run.overridden.expect("override landed");
        assert_eq!(run.trace.event(inst).value, Some(Value::Int(25)));
        // Plain mode agrees.
        let plain = run_plain(&p, &cfg);
        assert_eq!(plain.outputs, run.trace.output_values());
    }

    #[test]
    fn value_override_targets_a_specific_occurrence() {
        let src = "fn main() { let i = 0; while i < 3 { let v = i * 10; print(v); i = i + 1; } }";
        let (p, an) = setup(src);
        // Override the second evaluation of `let v = i * 10`.
        let cfg = RunConfig::default().overridden(OverrideSpec::new(
            omislice_lang::StmtId(2),
            1,
            Value::Int(999),
        ));
        let run = run_traced(&p, &an, &cfg);
        assert_eq!(outs(&run), vec![0, 999, 20]);
    }

    #[test]
    fn unreached_override_is_noop() {
        let src = "fn main() { if false { let a = 1; } print(7); }";
        let (p, an) = setup(src);
        let cfg = RunConfig::default().overridden(OverrideSpec::new(
            omislice_lang::StmtId(1),
            0,
            Value::Int(0),
        ));
        let run = run_traced(&p, &an, &cfg);
        assert!(run.overridden.is_none());
        assert_eq!(outs(&run), vec![7]);
    }

    #[test]
    fn override_prefix_is_identical() {
        let src = "fn main() { let a = input(); let b = a + 1; print(b); }";
        let (p, an) = setup(src);
        let base = RunConfig::with_inputs(vec![3]);
        let orig = run_traced(&p, &an, &base);
        let cfg = base.overridden(OverrideSpec::new(
            omislice_lang::StmtId(1),
            0,
            Value::Int(100),
        ));
        let run = run_traced(&p, &an, &cfg);
        let k = run.overridden.unwrap().index();
        for i in 0..k {
            assert_eq!(
                orig.trace.event(InstId(i as u32)),
                run.trace.event(InstId(i as u32))
            );
        }
        assert_eq!(outs(&run), vec![100]);
    }

    #[test]
    fn truthy_integer_predicate() {
        let run = traced(
            "fn main() { if 5 { print(1); } if 0 { print(2); } }",
            vec![],
        );
        assert_eq!(outs(&run), vec![1]);
    }

    #[test]
    fn input_underflows_are_counted() {
        let run = traced(
            "fn main() { print(input()); print(input()); print(input()); }",
            vec![7],
        );
        assert_eq!(outs(&run), vec![7, 0, 0]);
        assert_eq!(run.input_underflows, 2);
        let p = compile("fn main() { print(input()); print(input()); }").unwrap();
        let pl = run_plain(&p, &RunConfig::with_inputs(vec![1]));
        assert_eq!(pl.input_underflows, 1);
    }

    /// The statement entry of a one-entry plan, as `RunConfig::fault`
    /// carries it.
    fn stmt_fault(text: &str) -> Option<FaultEntry> {
        omislice_trace::FaultPlan::parse(text).unwrap().stmt_entry()
    }

    #[test]
    fn fault_plan_parse_roundtrip() {
        use omislice_trace::FaultPlan;
        assert_eq!(
            stmt_fault("S4:2=panic"),
            Some(FaultEntry::at_stmt(StmtId(4), 2, FaultAction::Panic))
        );
        assert_eq!(
            stmt_fault("S0=oob"),
            Some(FaultEntry::at_stmt(
                StmtId(0),
                0,
                FaultAction::Crash(CrashKind::OobIndex)
            ))
        );
        assert_eq!(
            stmt_fault("S7=corrupt-checkpoint"),
            Some(FaultEntry::at_stmt(
                StmtId(7),
                0,
                FaultAction::CorruptCheckpoint
            ))
        );
        assert!(FaultPlan::parse("S1").is_err());
        assert!(FaultPlan::parse("S1=warp").is_err());
        assert!(FaultPlan::parse("Sx=oob").is_err());
        assert!(FaultPlan::parse("S1:y=oob").is_err());
    }

    #[test]
    fn input_streams_parse_in_one_place() {
        assert_eq!(parse_inputs(" 1, -2,3 "), Ok(vec![1, -2, 3]));
        assert_eq!(parse_inputs("  "), Ok(vec![]));
        assert_eq!(parse_inputs("1,x"), Err("bad input value `x`".to_string()));
        assert_eq!(
            parse_profiles("4,5;6;"),
            Ok(vec![vec![4, 5], vec![6], vec![]])
        );
        assert!(parse_profiles("4;y").is_err());
    }

    #[test]
    fn injected_crash_matches_both_interpreters() {
        let src = "fn main() { let i = 0; while i < 5 { print(i); i = i + 1; } }";
        let (p, a) = setup(src);
        // S2 is `print(i)`; crash at its second instance.
        let cfg = RunConfig {
            fault: stmt_fault("S2:1=div-zero"),
            ..RunConfig::default()
        };
        let t = run_traced(&p, &a, &cfg);
        assert_eq!(outs(&t), vec![0]);
        let Termination::RuntimeError(kind, msg) = t.trace.termination() else {
            panic!("expected a crash, got {:?}", t.trace.termination());
        };
        assert_eq!(*kind, CrashKind::DivByZero);
        assert!(msg.contains("injected"), "{msg}");
        assert!(msg.contains("in S2"), "{msg}");
        let pl = run_plain(&p, &cfg);
        assert_eq!(pl.outputs, t.trace.output_values());
        assert_eq!(pl.termination, *t.trace.termination());
    }

    #[test]
    fn injected_budget_exhaustion_stops_the_run() {
        let src = "fn main() { print(1); print(2); }";
        let (p, a) = setup(src);
        let cfg = RunConfig {
            fault: stmt_fault("S1=budget"),
            ..RunConfig::default()
        };
        let t = run_traced(&p, &a, &cfg);
        assert_eq!(*t.trace.termination(), Termination::BudgetExhausted);
        assert_eq!(t.trace.output_values(), vec![Value::Int(1)]);
        let pl = run_plain(&p, &cfg);
        assert_eq!(pl.termination, Termination::BudgetExhausted);
        assert_eq!(pl.outputs, t.trace.output_values());
    }

    #[test]
    fn injected_panic_fires_at_the_chosen_instance() {
        let src = "fn main() { print(1); print(2); }";
        let (p, a) = setup(src);
        let cfg = RunConfig {
            fault: stmt_fault("S1=panic"),
            ..RunConfig::default()
        };
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_traced(&p, &a, &cfg)))
                .expect_err("the injected panic must escape the interpreter");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected panic"), "{msg}");
    }

    #[test]
    fn unreached_fault_plan_is_noop() {
        let src = "fn main() { print(1); }";
        let (p, a) = setup(src);
        let cfg = RunConfig {
            fault: stmt_fault("S0:5=oob"),
            ..RunConfig::default()
        };
        let t = run_traced(&p, &a, &cfg);
        assert!(t.trace.termination().is_normal());
        assert_eq!(t.trace.output_values(), vec![Value::Int(1)]);
    }
}
