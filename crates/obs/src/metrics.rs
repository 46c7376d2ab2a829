//! Metrics exporters: Prometheus-style text and JSON.
//!
//! A [`MetricSet`] is an ordered list of named numeric values with help
//! strings. Producers fold whatever counters they have —
//! `TraceStats`, `VerificationStats`, recorder counters, span
//! aggregates — into one set; the exporters render it without knowing
//! where the numbers came from (keeping this crate a leaf).

use crate::json::Json;
use crate::profile::Recording;
use std::fmt::Write as _;

/// Every counter name an instrumentation site in the workspace can
/// emit. [`MetricSet::push_spans`] zero-fills any name missing from a
/// report, so both `--metrics text` and `--metrics json` always carry
/// the complete key set — a counter that never fired exports as 0
/// instead of silently disappearing from one run's output.
pub const KNOWN_COUNTERS: &[&str] = &[
    "columnar.bytes",
    "csr.fill.edges",
    "frontier.claims",
    "profile.drops",
    "recorder.backpressure_stalls",
    "recorder.queue_depth_max",
    "recovery.deadline_expirations",
    "recovery.inline_fallbacks",
    "recovery.load_retries",
    "recovery.mmap_fallbacks",
    "recovery.queue_stalls",
    "recovery.retrace_fallbacks",
    "recovery.save_retries",
    "tracer.events",
    "tracer.runs",
    "verify.checkpoint.bytes",
    "verify.memo.bytes",
    "verify.sched.steals",
];

/// One exported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name; exported with the `omislice_` prefix.
    pub name: String,
    /// One-line description for the `# HELP` header.
    pub help: String,
    /// The value.
    pub value: f64,
}

/// An ordered collection of metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Appends a counter-style metric.
    pub fn push(&mut self, name: impl Into<String>, help: impl Into<String>, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            help: help.into(),
            value,
        });
    }

    /// The metrics in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Folds a recorder report in: per-span-name `count`/`total_ns`/
    /// `min_ns`/`max_ns` gauges plus every recorder counter.
    pub fn push_spans(&mut self, report: &Recording) {
        for (name, agg) in report.histogram() {
            let base = format!("span_{}", sanitize(name));
            self.push(
                format!("{base}_count"),
                format!("Closed `{name}` spans"),
                agg.count as f64,
            );
            self.push(
                format!("{base}_total_ns"),
                format!("Summed wall time of `{name}` spans"),
                agg.total_ns as f64,
            );
            self.push(
                format!("{base}_min_ns"),
                format!("Shortest `{name}` span"),
                agg.min_ns as f64,
            );
            self.push(
                format!("{base}_max_ns"),
                format!("Longest `{name}` span"),
                agg.max_ns as f64,
            );
            self.push(
                format!("{base}_p50_ns"),
                format!("Median `{name}` span duration (log-bucket estimate)"),
                agg.p50_ns() as f64,
            );
            self.push(
                format!("{base}_p90_ns"),
                format!("90th-percentile `{name}` span duration (log-bucket estimate)"),
                agg.p90_ns() as f64,
            );
            self.push(
                format!("{base}_p99_ns"),
                format!("99th-percentile `{name}` span duration (log-bucket estimate)"),
                agg.p99_ns() as f64,
            );
        }
        for (name, n) in &report.counters {
            self.push(
                format!("counter_{}", sanitize(name)),
                format!("Recorder counter `{name}`"),
                *n as f64,
            );
        }
        // Completeness: a counter that never fired still exports (as 0)
        // in both text and JSON, keeping the key set stable run to run.
        for &name in KNOWN_COUNTERS {
            if !report.counters.contains_key(name) {
                self.push(
                    format!("counter_{}", sanitize(name)),
                    format!("Recorder counter `{name}`"),
                    0.0,
                );
            }
        }
    }

    /// Renders the set as Prometheus exposition text.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = format!("omislice_{}", sanitize(&m.name));
            let _ = writeln!(out, "# HELP {name} {}", m.help);
            let _ = writeln!(out, "# TYPE {name} gauge");
            if m.value.fract() == 0.0 && m.value.abs() < 1e15 {
                let _ = writeln!(out, "{name} {}", m.value as i64);
            } else {
                let _ = writeln!(out, "{name} {}", m.value);
            }
        }
        out
    }

    /// Renders the set as one JSON object (`{"name": value, ...}`).
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let v = if m.value.fract() == 0.0
                        && m.value.abs() < 9e15
                        && m.value >= i64::MIN as f64
                    {
                        Json::Int(m.value as i64)
                    } else {
                        Json::Float(m.value)
                    };
                    (m.name.clone(), v)
                })
                .collect(),
        )
    }
}

/// Maps arbitrary metric names onto the Prometheus charset.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{counter_add, drain, reset, set_enabled, span};

    #[test]
    fn prometheus_text_shape() {
        let mut set = MetricSet::new();
        set.push("verifications", "VerifyDep invocations", 12.0);
        set.push("resume.ratio", "Share of runs resumed", 0.75);
        let text = set.to_prometheus();
        assert!(text.contains("# HELP omislice_verifications VerifyDep invocations"));
        assert!(text.contains("# TYPE omislice_verifications gauge"));
        assert!(text.contains("omislice_verifications 12"));
        assert!(text.contains("omislice_resume_ratio 0.75"));
    }

    #[test]
    fn json_export_round_trips() {
        let mut set = MetricSet::new();
        set.push("a", "", 3.0);
        set.push("b", "", 0.5);
        let v = set.to_json();
        assert_eq!(v.get("a"), Some(&Json::Int(3)));
        assert_eq!(v.get("b"), Some(&Json::Float(0.5)));
        crate::json::parse(&v.to_string()).unwrap();
    }

    #[test]
    fn folds_span_report() {
        let _g = crate::profile::tests::test_guard();
        set_enabled(true);
        reset();
        {
            let _s = span("trace");
        }
        set_enabled(false);
        let report = drain();
        let mut set = MetricSet::new();
        set.push_spans(&report);
        let text = set.to_prometheus();
        assert!(text.contains("omislice_span_trace_count 1"));
        assert!(text.contains("omislice_span_trace_total_ns"));
        assert!(text.contains("omislice_span_trace_p50_ns"));
        assert!(text.contains("omislice_span_trace_p99_ns"));
    }

    #[test]
    fn text_and_json_exporters_carry_identical_key_sets() {
        let _g = crate::profile::tests::test_guard();
        set_enabled(true);
        reset();
        {
            let _s = span("verify");
        }
        counter_add("tracer.events", 5);
        set_enabled(false);
        let report = drain();
        let mut set = MetricSet::new();
        set.push_spans(&report);

        // Key set of the Prometheus text export.
        let text_keys: std::collections::BTreeSet<String> = set
            .to_prometheus()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_whitespace().next())
            .map(str::to_string)
            .collect();
        // Key set of the JSON export, mapped through the same prefixing.
        let Json::Object(pairs) = set.to_json() else {
            panic!("json export is an object");
        };
        let json_keys: std::collections::BTreeSet<String> = pairs
            .iter()
            .map(|(k, _)| format!("omislice_{}", sanitize(k)))
            .collect();
        assert_eq!(text_keys, json_keys, "exporters must agree on keys");

        // Every registered counter appears, fired or not.
        for name in KNOWN_COUNTERS {
            let key = format!("omislice_counter_{}", sanitize(name));
            assert!(text_keys.contains(&key), "missing {key} in text export");
        }
        // The one that fired kept its value; an unfired one reads 0.
        let json = set.to_json();
        assert_eq!(json.get("counter_tracer_events"), Some(&Json::Int(5)));
        assert_eq!(
            json.get("counter_recovery_save_retries"),
            Some(&Json::Int(0))
        );
    }
}
