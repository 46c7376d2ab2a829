//! Folding samples, traced passes and server counters into named
//! metrics, and the results JSON that `compare` reads back.

use crate::drive::Sample;
use crate::pipeline::{Pass, STAGES};
use crate::stats::{median, percentile, sorted};
use omislice_obs::Json;

/// One named measurement. `None` means the platform could not measure
/// it; it is published as `null`, never as 0.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One pool version's part in a run: its reference pass and the
/// latencies the measured phase saw for it.
#[derive(Debug, Clone)]
pub struct VersionSummary {
    pub label: String,
    pub reference_ms: f64,
    pub samples: usize,
    pub median_ms: Option<f64>,
    /// CLI only: the largest peak resident set among its localizations.
    pub max_rss_kib: Option<u64>,
}

/// Summarizes each version of a pool from its reference pass and the
/// successful measured samples that targeted it.
pub fn version_summaries(
    labels: &[&str],
    passes: &[Pass],
    samples: &[Sample],
) -> Vec<VersionSummary> {
    labels
        .iter()
        .zip(passes)
        .enumerate()
        .map(|(i, (label, pass))| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.version == i && s.error.is_none())
                .map(|s| s.ms)
                .collect();
            VersionSummary {
                label: (*label).to_string(),
                reference_ms: pass.wall_ms,
                samples: ms.len(),
                median_ms: median(&ms),
                max_rss_kib: samples
                    .iter()
                    .filter(|s| s.version == i)
                    .filter_map(|s| s.max_rss_kib)
                    .max(),
            }
        })
        .collect()
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub versions: Vec<VersionSummary>,
    pub end_to_end: Vec<Metric>,
    /// Empty when the run was not traced.
    pub per_layer: Vec<Metric>,
    /// Unbounded figures printed beside the metrics.
    pub context: Vec<Metric>,
}

/// The pool's set-up time: per version kind, the median set-up time of
/// its versions times their count, summed. Medians keep a rare redraw
/// from moving the figure; `spec_of` gives each version's kind.
pub fn pool_setup_s(setup_s: &[f64], spec_of: &[usize]) -> Option<f64> {
    let kinds = spec_of.iter().max()? + 1;
    (0..kinds)
        .map(|k| {
            let times: Vec<f64> = setup_s
                .iter()
                .zip(spec_of)
                .filter(|&(_, &s)| s == k)
                .map(|(&t, _)| t)
                .collect();
            median(&times).map(|m| m * times.len() as f64)
        })
        .sum()
}

/// Latencies of the measured phase's successful localizations.
fn ok_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.error.is_none())
        .map(|s| s.ms)
        .collect()
}

/// The end-to-end metrics of one workload run, the ones `BENCHMARK.json`
/// bounds: `samples` are the measured phase's localizations.
pub fn end_to_end(
    samples: &[Sample],
    peak_rss_kib: Option<u64>,
    setup_s: Option<f64>,
) -> Vec<Metric> {
    vec![
        metric("locate_p50_ms", median(&ok_ms(samples)), "ms"),
        metric("peak_rss_mb", peak_rss_kib.map(|k| k as f64 / 1024.0), "MB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Figures reported beside the bounded metrics: the tail and throughput
/// with the sample count, the correctness shares and the whole set-up
/// time. `wall_s` is the measured phase's duration. On `serve-mix` the
/// tail and throughput follow the drawn inputs' cost, which varies several
/// times over between seeds, too widely for a bound (see
/// `CALIBRATION.md`).
pub fn context(
    samples: &[Sample],
    wall_s: f64,
    attempted: usize,
    failed: usize,
    found: usize,
    setup_total_s: f64,
) -> Vec<Metric> {
    let ok = ok_ms(samples);
    let share = |n: usize| Some(n as f64 / attempted.max(1) as f64);
    vec![
        metric("locate_p90_ms", percentile(&sorted(&ok), 90.0), "ms"),
        metric(
            "locates_per_s",
            (wall_s > 0.0).then(|| ok.len() as f64 / wall_s),
            "1/s",
        ),
        metric("samples", Some(samples.len() as f64), "count"),
        metric("found_rate", share(found), "ratio"),
        metric("failed_frac", share(failed), "ratio"),
        metric("setup_total_s", Some(setup_total_s), "s"),
    ]
}

/// Server counters before and after a served phase (`GET /metrics`).
#[derive(Debug, Clone, Default)]
pub struct ServeCounters {
    pub before: Vec<(String, f64)>,
    pub after: Vec<(String, f64)>,
}

impl ServeCounters {
    fn after(&self, name: &str) -> Option<f64> {
        self.after.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    fn delta(&self, name: &str) -> Option<f64> {
        let before = self
            .before
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v);
        self.after(name).map(|a| a - before)
    }
}

/// One per-pass measurement, by name and unit.
type PassMetric = (&'static str, &'static str, fn(&Pass) -> f64);

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-pass layer metrics beyond the stage spans. Each workload
/// publishes the median over its traced passes.
const PASS_METRICS: [PassMetric; 24] = [
    ("pipeline.wall_ms", "ms", |p| p.wall_ms),
    ("pipeline.unattributed_ms", "ms", |p| p.unattributed_ms()),
    ("omission.verify_exec_ms", "ms", |p| {
        ms(p.stats.execution_wall)
    }),
    ("omission.verify_capture_ms", "ms", |p| {
        ms(p.stats.capture_wall)
    }),
    ("omission.verify_verdict_ms", "ms", |p| {
        ms(p.stats.verdict_wall)
    }),
    ("omission.locate_other_ms", "ms", |p| {
        p.stage_ms[6]
            - ms(p.stats.execution_wall)
            - ms(p.stats.capture_wall)
            - ms(p.stats.verdict_wall)
    }),
    ("omission.exec_ms_per_reexec", "ms", |p| {
        ms(p.stats.execution_wall) / p.reexecutions.max(1) as f64
    }),
    ("trace.events", "count", |p| p.events as f64),
    ("trace.columnar_bytes", "bytes", |p| p.columnar_bytes as f64),
    ("omission.iterations", "count", |p| p.iterations as f64),
    ("omission.verifications", "count", |p| {
        p.verifications as f64
    }),
    ("omission.cache_hits", "count", |p| {
        p.stats.cache_hits as f64
    }),
    ("omission.reexecutions", "count", |p| p.reexecutions as f64),
    ("omission.resumed_runs", "count", |p| {
        p.stats.resumed_runs as f64
    }),
    ("omission.scratch_runs", "count", |p| {
        p.stats.scratch_runs as f64
    }),
    ("omission.inline_captures", "count", |p| {
        p.stats.inline_captures as f64
    }),
    ("omission.steps_saved", "count", |p| {
        p.stats.steps_saved as f64
    }),
    ("omission.checkpoint_bytes", "bytes", |p| {
        p.stats.checkpoint_bytes as f64
    }),
    ("omission.resume_ratio", "ratio", |p| p.stats.resume_ratio()),
    ("omission.memo_hits", "count", |p| p.stats.memo_hits as f64),
    ("omission.memo_hit_ratio", "ratio", |p| {
        let hits = p.stats.memo_hits as f64;
        hits / (hits + p.stats.reexecutions as f64).max(1.0)
    }),
    ("omission.user_prunings", "count", |p| {
        p.user_prunings as f64
    }),
    ("slicing.graph_ms", "ms", |p| {
        p.probes.map_or(f64::NAN, |(g, _)| g)
    }),
    ("slicing.prune_ms", "ms", |p| {
        p.probes.map_or(f64::NAN, |(_, q)| q)
    }),
];

/// The stage metric names, `STAGES` with `_ms` appended.
const STAGE_METRICS: [&str; STAGES.len()] = [
    "lang.compile_ms",
    "analysis.build_ms",
    "interp.trace_ms",
    "trace.index_ms",
    "slicing.profile_ms",
    "omission.oracle_ms",
    "omission.locate_ms",
    "omission.render_ms",
];

/// The per-layer metrics of one traced workload run: stage medians over
/// `passes`, the CLI or server overhead over the in-process pipeline, and
/// the served split by cache outcome (`served` are served localizations:
/// the measured phase of a served workload, or the served probe of a CLI
/// one).
pub fn per_layer(
    passes: &[Pass],
    locate_p50_ms: Option<f64>,
    served: &[Sample],
    counters: &ServeCounters,
) -> Vec<Metric> {
    let of = |f: &dyn Fn(&Pass) -> f64| {
        let v: Vec<f64> = passes.iter().map(f).filter(|x| !x.is_nan()).collect();
        median(&v)
    };
    let mut out: Vec<Metric> = STAGE_METRICS
        .iter()
        .enumerate()
        .map(|(i, &name)| metric(name, of(&|p: &Pass| p.stage_ms[i]), "ms"))
        .collect();
    out.extend(
        PASS_METRICS
            .iter()
            .map(|&(name, unit, f)| metric(name, of(&f), unit)),
    );
    let wall = of(&|p: &Pass| p.wall_ms);
    out.push(metric(
        "cli.overhead_ms",
        locate_p50_ms.zip(wall).map(|(e2e, w)| e2e - w),
        "ms",
    ));

    let served_ms = |hit: bool| {
        sorted(
            &served
                .iter()
                .filter(|s| s.error.is_none() && s.cache_hit == Some(hit))
                .map(|s| s.ms)
                .collect::<Vec<_>>(),
        )
    };
    let (hits, misses) = (served_ms(true), served_ms(false));
    out.push(metric("serve.hit_p50_ms", percentile(&hits, 50.0), "ms"));
    out.push(metric("serve.hit_p90_ms", percentile(&hits, 90.0), "ms"));
    out.push(metric("serve.miss_p50_ms", percentile(&misses, 50.0), "ms"));
    let cache_hits = counters.delta("serve_cache_hits");
    let cache_misses = counters.delta("serve_cache_misses");
    out.push(metric(
        "serve.cache_hit_ratio",
        cache_hits
            .zip(cache_misses)
            .map(|(h, m)| h / (h + m).max(1.0)),
        "ratio",
    ));
    out.push(metric("serve.cache_misses", cache_misses, "count"));
    for (name, key, unit, gauge) in [
        (
            "serve.cache_evictions",
            "serve_cache_evictions",
            "count",
            false,
        ),
        ("serve.cache_bytes", "serve_cache_bytes", "bytes", true),
        (
            "serve.memo_run_bytes",
            "serve_memo_run_bytes",
            "bytes",
            true,
        ),
        (
            "serve.memo_checkpoint_bytes",
            "serve_memo_checkpoint_bytes",
            "bytes",
            true,
        ),
        (
            "serve.memo_evictions",
            "serve_memo_evictions",
            "count",
            false,
        ),
        ("serve.overloaded", "serve_overloaded_total", "count", false),
        ("serve.errors", "serve_errors_total", "count", false),
    ] {
        let v = if gauge {
            counters.after(key)
        } else {
            counters.delta(key)
        };
        out.push(metric(name, v, unit));
    }
    out
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::object([
                        ("value", m.value.map_or(Json::Null, Json::Float)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The results document: run settings plus, per workload, its counts and
/// every metric it measured.
pub fn results_json(seed: u64, seconds: u64, results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            let mut all = r.end_to_end.clone();
            all.extend(r.per_layer.iter().cloned());
            Json::object([
                ("name", Json::str(r.name)),
                ("correct", Json::Bool(r.correct)),
                ("attempted", Json::Int(r.attempted as i64)),
                ("failed", Json::Int(r.failed as i64)),
                ("metrics", metrics_json(&all)),
                ("context", metrics_json(&r.context)),
                (
                    "versions",
                    Json::Array(
                        r.versions
                            .iter()
                            .map(|v| {
                                Json::object([
                                    ("label", Json::str(v.label.clone())),
                                    ("reference_ms", Json::Float(v.reference_ms)),
                                    ("samples", Json::Int(v.samples as i64)),
                                    ("median_ms", v.median_ms.map_or(Json::Null, Json::Float)),
                                    (
                                        "max_rss_mb",
                                        v.max_rss_kib
                                            .map_or(Json::Null, |k| Json::Float(k as f64 / 1024.0)),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::object([
        ("benchmark", Json::str("omibench")),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Int(seconds as i64)),
        ("workloads", Json::Array(workloads)),
    ])
}

/// The one-line summary a harness reads: the counts, and either the
/// end-to-end or the per-layer metrics. Several workloads prefix each
/// metric name with its workload.
pub fn summary_json(results: &[WorkloadResult], per_layer: bool) -> Json {
    let prefix = results.len() > 1;
    let mut metrics = Vec::new();
    for r in results {
        let chosen = if per_layer {
            &r.per_layer
        } else {
            &r.end_to_end
        };
        for m in chosen {
            let name = if prefix {
                format!("{}.{}", r.name, m.name)
            } else {
                m.name.to_string()
            };
            metrics.push((
                name,
                Json::object([
                    ("value", m.value.map_or(Json::Null, Json::Float)),
                    ("unit", Json::str(m.unit)),
                ]),
            ));
        }
    }
    Json::object([
        ("correct", Json::Bool(results.iter().all(|r| r.correct))),
        (
            "attempted",
            Json::Int(results.iter().map(|r| r.attempted).sum::<usize>() as i64),
        ),
        (
            "failed",
            Json::Int(results.iter().map(|r| r.failed).sum::<usize>() as i64),
        ),
        ("metrics", Json::Object(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice::omislice_trace::VerificationStats;

    fn sample(ms: f64, hit: Option<bool>) -> Sample {
        Sample {
            version: (ms as usize + 3) % 4,
            ms,
            error: None,
            found: true,
            cache_hit: hit,
            max_rss_kib: Some(40_000),
        }
    }

    fn pass(wall_ms: f64) -> Pass {
        Pass {
            report: String::new(),
            found: true,
            expired: false,
            wall_ms,
            stage_ms: [wall_ms / 8.0; STAGES.len()],
            stats: VerificationStats::default(),
            iterations: 1,
            verifications: 3,
            reexecutions: 2,
            user_prunings: 4,
            events: 900,
            columnar_bytes: 36_000,
            probes: Some((1.5, 0.5)),
            probes_s: 0.002,
        }
    }

    fn synthetic(name: &'static str) -> WorkloadResult {
        let samples: Vec<Sample> = (1..=20).map(|i| sample(f64::from(i), None)).collect();
        let served: Vec<Sample> = (1..=6).map(|i| sample(f64::from(i), Some(i > 2))).collect();
        let counters = ServeCounters {
            before: vec![("serve_cache_hits".into(), 0.0)],
            after: vec![
                ("serve_cache_hits".into(), 4.0),
                ("serve_cache_misses".into(), 2.0),
                ("serve_cache_bytes".into(), 1e6),
            ],
        };
        let passes: Vec<Pass> = [9.0, 10.0, 11.0, 12.0].into_iter().map(pass).collect();
        let versions = version_summaries(&["v0", "v1", "v2", "v3"], &passes, &samples);
        let setup = pool_setup_s(&[0.5, 0.7, 0.6, 0.2], &[0, 0, 0, 1]);
        let end_to_end = end_to_end(&samples, Some(40_960), setup);
        let p50 = end_to_end[0].value;
        WorkloadResult {
            name,
            correct: true,
            attempted: 20,
            failed: 0,
            versions,
            end_to_end,
            per_layer: per_layer(&passes[..3], p50, &served, &counters),
            context: context(&samples, 10.0, 20, 0, 20, 5.0),
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        omislice_obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn end_to_end_values_on_fixed_samples() {
        let r = synthetic("sed-trace");
        let get = |n: &str| r.end_to_end.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("locate_p50_ms"), Some(10.0));
        assert_eq!(get("peak_rss_mb"), Some(40.0));
        // Three versions of one kind at a 0.6 s median, one of another.
        assert!((get("setup_s").unwrap() - 2.0).abs() < 1e-9);
        let ctx = |n: &str| r.context.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(ctx("locate_p90_ms"), Some(18.0));
        assert_eq!(ctx("locates_per_s"), Some(2.0));
        assert_eq!(ctx("found_rate"), Some(1.0));
        assert_eq!(ctx("failed_frac"), Some(0.0));
        assert_eq!(r.versions[0].median_ms, Some(9.0));
        let layer = |n: &str| r.per_layer.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(layer("pipeline.wall_ms"), Some(10.0));
        assert_eq!(layer("cli.overhead_ms"), Some(0.0));
        assert_eq!(layer("serve.hit_p50_ms"), Some(4.0));
        assert_eq!(layer("serve.miss_p50_ms"), Some(1.0));
        assert_eq!(layer("serve.cache_hit_ratio"), Some(4.0 / 6.0));
        assert_eq!(layer("serve.cache_evictions"), None);
    }

    #[test]
    fn results_json_carries_every_benchmark_metric_for_every_workload() {
        let spec = benchmark_json();
        let results: Vec<WorkloadResult> = crate::workload::WORKLOADS
            .iter()
            .map(|w| synthetic(w.name))
            .collect();
        let doc = omislice_obs::json::parse(&results_json(1, 20, &results).to_string())
            .expect("results JSON parses");
        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), 4);
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        for w in workloads {
            let metrics = w.get("metrics").unwrap();
            for (name, unit) in declared("end_to_end")
                .into_iter()
                .chain(declared("per_layer"))
            {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing from {w}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
        // The workload names and reasons match too.
        let declared_workloads: Vec<(&str, &str)> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(Json::as_str).unwrap();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(declared_workloads, ours);
    }

    #[test]
    fn summary_line_holds_exactly_the_declared_metrics() {
        let spec = benchmark_json();
        let r = synthetic("gzip-prune");
        for (key, per_layer) in [("end_to_end", false), ("per_layer", true)] {
            let line = summary_json(std::slice::from_ref(&r), per_layer);
            let got: Vec<&str> = line
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let mut want: Vec<&str> = spec
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap())
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            want.sort_unstable();
            assert_eq!(got_sorted, want, "{key}");
        }
    }
}
