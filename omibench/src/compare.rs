//! `omibench compare`: parent runs against change runs, per workload and
//! end-to-end metric, with the bounds `BENCHMARK.json` fixes.

use crate::drive::number;
use crate::stats::{quartiles, Quartiles};
use omislice_obs::Json;

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The parent's own runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the change's median with the parent's. `lower_is_better`
/// gives the metric's direction and `bound` the share of the parent's
/// median by which it may worsen. When the parent's interquartile spread
/// exceeds the bound the result is unresolved, unless every change run
/// beats every parent run.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> Option<Verdict> {
    let (p, c) = (quartiles(parent)?, quartiles(change)?);
    let beats = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    if p.spread() > bound {
        let all_better = change.iter().all(|&x| parent.iter().all(|&y| beats(x, y)));
        return Some(if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        });
    }
    let rel = (c.median - p.median) / p.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if lower_is_better { rel } else { -rel };
    Some(if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    })
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(bench: &Json) -> Result<Vec<Declared>, String> {
    bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("an end_to_end entry lacks `{k}`"))
            };
            Ok(Declared {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or("an end_to_end entry lacks `bound`")?,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    omislice_obs::json::parse(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_array).unwrap_or(&[])
}

/// The value of `metric` in each result document that runs `workload`;
/// `None` where that document has no number for it.
fn values(docs: &[Json], workload: &str, metric: &str) -> Vec<Option<f64>> {
    docs.iter()
        .flat_map(workloads)
        .filter(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .map(|w| w.get("metrics")?.get(metric)?.get("value").and_then(number))
        .collect()
}

/// The change side's values of one metric on one workload the parent
/// runs have, or `None` when the change runs lack the workload or any of
/// them lacks the metric.
fn complete(values: &[Option<f64>]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    values.iter().copied().collect()
}

/// `workload` entries of the change documents not marked correct, as
/// `path: workload` labels.
fn incorrect(paths: &[String], docs: &[Json]) -> Vec<String> {
    paths
        .iter()
        .zip(docs)
        .flat_map(|(path, doc)| {
            workloads(doc)
                .iter()
                .filter(|w| w.get("correct").and_then(Json::as_bool) != Some(true))
                .map(move |w| {
                    let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
                    format!("{path}: {name}")
                })
        })
        .collect()
}

fn fmt_q(q: Option<Quartiles>) -> String {
    q.map_or_else(
        || "-".to_string(),
        |q| format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3),
    )
}

/// Runs `compare` over the parsed flags; returns whether the change fails:
/// a metric got worse, a change run is marked incorrect, or the change
/// runs lack a workload the parent runs have or a declared metric on it.
///
/// # Errors
///
/// Returns a message when a file is missing or malformed.
pub fn run(bench_path: &str, parents: &[String], changes: &[String]) -> Result<bool, String> {
    let bench = load(bench_path)?;
    let metrics = declared(&bench)?;
    let parent_docs = parents
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let change_docs = changes
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut names: Vec<&str> = Vec::new();
    for w in parent_docs.iter().flat_map(workloads) {
        if let Some(n) = w.get("name").and_then(Json::as_str) {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    println!(
        "{:<11} {:<14} {:>6} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "change",
        "bound"
    );
    let mut fails = false;
    for w in &names {
        for m in &metrics {
            let p: Vec<f64> = values(&parent_docs, w, &m.name)
                .into_iter()
                .flatten()
                .collect();
            let c = complete(&values(&change_docs, w, &m.name));
            let v = c
                .as_ref()
                .and_then(|c| verdict(&p, c, m.lower_is_better, m.bound));
            let (pq, cq) = (quartiles(&p), c.as_deref().and_then(quartiles));
            let change = pq.zip(cq).map_or_else(
                || "-".to_string(),
                |(p, c)| format!("{:+.1}%", (c.median - p.median) / p.median.abs() * 100.0),
            );
            fails |= c.is_none() || v == Some(Verdict::Worse);
            let shown = match (&c, v) {
                (None, _) => "missing",
                (Some(_), None) => "no parent",
                (Some(_), Some(v)) => v.as_str(),
            };
            println!(
                "{:<11} {:<14} {:>6} {:>36} {:>36} {:>8} {:>5.0}%  {shown}",
                w,
                m.name,
                m.unit,
                fmt_q(pq),
                fmt_q(cq),
                change,
                m.bound * 100.0,
            );
        }
    }
    for label in incorrect(changes, &change_docs) {
        println!("incorrect   {label}");
        fails = true;
    }
    Ok(fails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let parent = [100.0, 101.0, 99.0];
        assert_eq!(verdict(&parent, &[105.0], true, 0.1), Some(Verdict::Same));
        assert_eq!(verdict(&parent, &[115.0], true, 0.1), Some(Verdict::Worse));
        assert_eq!(verdict(&parent, &[85.0], true, 0.1), Some(Verdict::Better));
        // Higher is better: a drop is a regression.
        assert_eq!(verdict(&parent, &[85.0], false, 0.1), Some(Verdict::Worse));
        // A parent spread wider than the bound resolves nothing...
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            verdict(&noisy, &[95.0], true, 0.1),
            Some(Verdict::Unresolved)
        );
        // ...unless every change run beats every parent run.
        assert_eq!(
            verdict(&noisy, &[70.0, 75.0], true, 0.1),
            Some(Verdict::Better)
        );
        assert_eq!(verdict(&[], &[1.0], true, 0.1), None);
    }

    #[test]
    fn incomplete_or_incorrect_change_runs_are_caught() {
        let doc = |correct: bool, value: &str| {
            omislice_obs::json::parse(&format!(
                r#"{{"workloads": [{{"name": "w", "correct": {correct},
                    "metrics": {{"m": {{"value": {value}, "unit": "ms"}}}}}}]}}"#
            ))
            .unwrap()
        };
        let docs = [doc(true, "1.5"), doc(true, "2")];
        assert_eq!(complete(&values(&docs, "w", "m")), Some(vec![1.5, 2.0]));
        // A null in one run, a metric or a workload nobody has: missing.
        let docs = [doc(true, "1.5"), doc(true, "null")];
        assert_eq!(complete(&values(&docs, "w", "m")), None);
        assert_eq!(complete(&values(&docs, "w", "other")), None);
        assert_eq!(complete(&values(&docs, "absent", "m")), None);
        let paths = ["a.json".to_string(), "b.json".to_string()];
        assert!(incorrect(&paths, &[doc(true, "1"), doc(true, "1")]).is_empty());
        assert_eq!(
            incorrect(&paths, &[doc(true, "1"), doc(false, "1")]),
            ["b.json: w"]
        );
    }
}
