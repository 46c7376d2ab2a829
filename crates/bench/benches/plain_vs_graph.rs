//! Criterion counterpart of Table 4's Plain-vs-Graph comparison: the
//! cost of building the dynamic dependence graph during execution, per
//! corpus benchmark (failing input), plus a scaling series over loop
//! iteration counts. Each case times the evaluator under its three sinks
//! side by side, all resolving through one prebuilt `ProgramIndex` as
//! Table 4 does: `plain` records nothing, `values` keeps each
//! statement's values and `graph` records the full trace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{run_plain_indexed, run_traced, run_values, RunConfig};
use omislice::omislice_lang::compile;
use omislice_corpus::all_benchmarks;
use std::hint::black_box;
use std::time::Duration;

fn corpus_plain_vs_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("plain_vs_graph");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for b in all_benchmarks() {
        for fault in &b.faults {
            let prepared = b.prepare(fault).expect("corpus compiles");
            let analysis = ProgramAnalysis::build(&prepared.faulty);
            let config = RunConfig::with_inputs(fault.failing_input.clone());
            let id = format!("{}-{}", b.name, fault.id);
            group.bench_with_input(BenchmarkId::new("plain", &id), &config, |bench, cfg| {
                bench
                    .iter(|| black_box(run_plain_indexed(&prepared.faulty, analysis.index(), cfg)));
            });
            group.bench_with_input(BenchmarkId::new("values", &id), &config, |bench, cfg| {
                bench.iter(|| black_box(run_values(&prepared.faulty, analysis.index(), cfg)));
            });
            group.bench_with_input(BenchmarkId::new("graph", &id), &config, |bench, cfg| {
                bench.iter(|| black_box(run_traced(&prepared.faulty, &analysis, cfg)));
            });
        }
    }
    group.finish();
}

fn scaling_with_trace_length(c: &mut Criterion) {
    // How the tracing overhead scales with trace length: a loop-heavy
    // synthetic program at increasing iteration counts.
    let mut group = c.benchmark_group("trace_length_scaling");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for n in [100i64, 1_000, 10_000] {
        let src = format!(
            "global acc = 0;\
             fn main() {{\
                 let i = 0;\
                 while i < {n} {{\
                     if i % 3 == 0 {{ acc = acc + i; }}\
                     i = i + 1;\
                 }}\
                 print(acc);\
             }}"
        );
        let program = compile(&src).expect("scaling program compiles");
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig::default();
        group.bench_with_input(BenchmarkId::new("plain", n), &n, |bench, _| {
            bench.iter(|| black_box(run_plain_indexed(&program, analysis.index(), &config)));
        });
        group.bench_with_input(BenchmarkId::new("values", n), &n, |bench, _| {
            bench.iter(|| black_box(run_values(&program, analysis.index(), &config)));
        });
        group.bench_with_input(BenchmarkId::new("graph", n), &n, |bench, _| {
            bench.iter(|| black_box(run_traced(&program, &analysis, &config)));
        });
    }
    group.finish();
}

criterion_group!(benches, corpus_plain_vs_graph, scaling_with_trace_length);
criterion_main!(benches);
