//! Shared measurement pipeline for the table-regeneration binaries.
//!
//! One [`FaultMeasurement`] per corpus fault collects everything the
//! paper's Tables 2 and 3 report; Table 4's timings are taken separately
//! (see the `table4` binary and the Criterion benches).

use omislice::omislice_interp::{run_traced, ResumeMode};
use omislice::omislice_slicing::{prune_slice, relevant_slice, DepGraph, Feedback};
use omislice::omislice_trace::VerificationStats;
use omislice::{LocateConfig, LocateOutcome, UserOracle};
use omislice_corpus::{all_benchmarks, Benchmark, Fault};

/// Everything measured for one benchmark fault.
#[derive(Debug, Clone)]
pub struct FaultMeasurement {
    /// Benchmark name (Table 1 column).
    pub bench: String,
    /// Fault id, e.g. `V1-F9`.
    pub fault: String,
    /// Relevant slice, unique statements.
    pub rs_static: usize,
    /// Relevant slice, dynamic instances.
    pub rs_dynamic: usize,
    /// Dynamic slice, unique statements.
    pub ds_static: usize,
    /// Dynamic slice, dynamic instances.
    pub ds_dynamic: usize,
    /// Automatically pruned slice, unique statements.
    pub ps_static: usize,
    /// Automatically pruned slice, dynamic instances.
    pub ps_dynamic: usize,
    /// Whether DS captured the root cause (always false for this corpus).
    pub ds_captures_root: bool,
    /// Whether RS captured the root cause (always true, at a price).
    pub rs_captures_root: bool,
    /// The full Algorithm 2 outcome (Table 3 counters).
    pub outcome: LocateOutcome,
    /// IPS sizes (static, dynamic).
    pub ips: (usize, usize),
    /// OS sizes (static, dynamic), when the chain was found.
    pub os: Option<(usize, usize)>,
}

/// Runs the full pipeline (DS, RS, PS, Algorithm 2) on one fault.
///
/// # Panics
///
/// Panics if the corpus entry is malformed (compile failure, no wrong
/// output); the corpus test suite guarantees these cannot happen.
pub fn measure_fault(bench: &Benchmark, fault: &Fault) -> FaultMeasurement {
    let session = bench.session(fault).expect("session builds");
    let trace = session.trace();
    let analysis = session.analysis();
    let class = session
        .oracle()
        .classify_outputs(trace)
        .expect("corpus failures expose a wrong value");

    let graph = DepGraph::new(trace);
    let ds = graph.backward_slice(class.wrong);
    let rs = relevant_slice(trace, analysis, class.wrong);
    let ps = prune_slice(
        &graph,
        analysis,
        session.profile(),
        &class.correct,
        class.wrong,
        &Feedback::default(),
    )
    .pruned_slice(&graph);

    let outcome = session.locate(&LocateConfig::default()).expect("locates");
    let ips = (outcome.ips.static_size(), outcome.ips.dynamic_size());
    let os = outcome
        .os_slice(trace)
        .map(|s| (s.static_size(), s.dynamic_size()));

    let root = session.roots()[0];
    FaultMeasurement {
        bench: bench.name.to_string(),
        fault: fault.id.to_string(),
        rs_static: rs.static_size(),
        rs_dynamic: rs.dynamic_size(),
        ds_static: ds.static_size(),
        ds_dynamic: ds.dynamic_size(),
        ps_static: ps.static_size(),
        ps_dynamic: ps.dynamic_size(),
        ds_captures_root: ds.contains_stmt(root),
        rs_captures_root: rs.contains_stmt(root),
        outcome,
        ips,
        os,
    }
}

/// Measures every fault of every corpus benchmark, in Table 2 order.
pub fn measure_all() -> Vec<FaultMeasurement> {
    let mut out = Vec::new();
    for b in all_benchmarks() {
        for f in &b.faults {
            out.push(measure_fault(&b, f));
        }
    }
    out
}

/// Wall-clock timings for Table 4, in nanoseconds (best of `reps`).
#[derive(Debug, Clone)]
pub struct FaultTiming {
    /// Un-instrumented execution (the paper's "Plain").
    pub plain_ns: u128,
    /// Traced execution building the dependence graph ("Graph").
    pub graph_ns: u128,
    /// The verification procedure: all switched re-executions plus
    /// alignment inside the demand-driven loop ("Verif."), run with the
    /// default checkpoint-resume engine.
    pub verif_ns: u128,
    /// The same procedure with resumption disabled — every switched run
    /// re-executes from the beginning, the engine before this
    /// optimization.
    pub verif_scratch_ns: u128,
    /// Engine counters from a resumed locate run (not wall-timed).
    pub stats: VerificationStats,
}

impl FaultTiming {
    /// The Graph/Plain slowdown factor.
    pub fn slowdown(&self) -> f64 {
        self.graph_ns as f64 / self.plain_ns.max(1) as f64
    }

    /// How much faster the resumed engine verifies than from-scratch.
    pub fn resume_speedup(&self) -> f64 {
        self.verif_scratch_ns as f64 / self.verif_ns.max(1) as f64
    }
}

/// Times one fault's executions (best of `reps` repetitions).
pub fn time_fault(bench: &Benchmark, fault: &Fault, reps: usize) -> FaultTiming {
    use std::time::Instant;
    let session = bench.session(fault).expect("session builds");
    let (program, analysis, config) = (session.program(), session.analysis(), session.config());

    let best = |f: &mut dyn FnMut()| -> u128 {
        (0..reps.max(1))
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos()
            })
            .min()
            .expect("at least one rep")
    };

    let plain_ns = best(&mut || {
        std::hint::black_box(omislice::omislice_interp::run_plain_indexed(
            program,
            analysis.index(),
            config,
        ));
    });
    let graph_ns = best(&mut || {
        std::hint::black_box(run_traced(program, analysis, config));
    });

    let verif_ns = best(&mut || {
        std::hint::black_box(session.locate(&LocateConfig::default()).expect("locates"));
    });
    let verif_scratch_ns = best(&mut || {
        std::hint::black_box(
            session
                .locate(&LocateConfig {
                    resume: ResumeMode::Disabled,
                    ..LocateConfig::default()
                })
                .expect("locates"),
        );
    });
    let stats = session
        .locate(&LocateConfig::default())
        .expect("locates")
        .stats;

    FaultTiming {
        plain_ns,
        graph_ns,
        verif_ns,
        verif_scratch_ns,
        stats,
    }
}
