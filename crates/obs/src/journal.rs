//! The locate event journal: schema constants, the JSONL writer, and a
//! validator.
//!
//! A journal is one JSONL file describing one `locate` run:
//!
//! * a `header` record — schema version, program/benchmark label, the
//!   engine configuration (jobs, resume, mode);
//! * one `iteration` record per Algorithm 2 expansion round — the chosen
//!   use, every `VerifyDep` request with its verdict and run outcome,
//!   the edges added by kind, budget escalations, and the pruned-slice
//!   size before/after the round;
//! * a `summary` record — the final counters of the run;
//! * an optional `recovery` record — present only when the pipeline
//!   absorbed injected or real faults (or its deadline expired), with
//!   the `recovery.*` counter totals and the ordered event list;
//! * an optional `profile` record — present only in a profiled run
//!   (`--profile-out`), with the recording's per-worker utilization
//!   aggregates and ring drop counts;
//! * an optional trailing `spans` record — the recording's spans and
//!   tasks with their nesting, and its counter totals.
//!
//! Everything except fields ending in `_ns` (and the `spans` and
//! `profile` records, which describe timing and scheduling) is
//! deterministic: the journal is byte-identical across `--jobs` values
//! and resume modes once timing fields are stripped with
//! [`strip_timing`].

use crate::json::{parse, Json};
use std::io::Write;

/// The schema identifier every journal header carries.
pub const SCHEMA: &str = "omislice-obs/v1";

/// The record types a journal may contain, in order of appearance.
pub const RECORD_TYPES: [&str; 6] = [
    "header",
    "iteration",
    "summary",
    "recovery",
    "profile",
    "spans",
];

/// Valid `verdict` strings.
pub const VERDICTS: [&str; 3] = ["not-id", "id", "strong-id"];

/// Valid `outcome` strings (crashes carry a `crashed:<kind>` suffix).
pub const OUTCOMES: [&str; 5] = [
    "completed",
    "budget-exhausted",
    "crashed",
    "switch-not-landed",
    "checkpoint-invalid",
];

/// Valid `kind` strings on an added edge.
pub const EDGE_KINDS: [&str; 4] = ["data", "control", "implicit", "strong-implicit"];

/// Writes `records` as one JSONL document.
pub fn write_jsonl(mut w: impl Write, records: &[Json]) -> std::io::Result<()> {
    for r in records {
        writeln!(w, "{r}")?;
    }
    Ok(())
}

/// Renders `records` as a JSONL string.
pub fn to_jsonl(records: &[Json]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

/// Strips the timing content from a journal text: removes every object
/// key ending in `_ns` and drops `spans` and `profile` records entirely
/// (a profile's worker assignments and drop counts are scheduling
/// facts, not run facts). What remains must be byte-identical across
/// thread counts and resume modes.
pub fn strip_timing(jsonl: &str) -> Result<String, String> {
    let mut out = String::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut v = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if matches!(
            v.get("type").and_then(Json::as_str),
            Some("spans") | Some("profile")
        ) {
            continue;
        }
        v.strip_keys(&|k| k.ends_with("_ns"));
        out.push_str(&v.to_string());
        out.push('\n');
    }
    Ok(out)
}

/// Streaming journal validator: feed records (or whole documents) in
/// order; every violation is reported with its record number.
#[derive(Debug, Default)]
pub struct Validator {
    records: usize,
    saw_header: bool,
    saw_summary: bool,
    iterations: usize,
    last_iter: Option<i64>,
}

impl Validator {
    /// Creates a fresh validator.
    pub fn new() -> Self {
        Validator::default()
    }

    /// Number of `iteration` records seen.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Total records seen.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Validates one full JSONL document.
    pub fn check_document(jsonl: &str) -> Result<Validator, String> {
        let mut v = Validator::new();
        for (i, line) in jsonl.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = parse(line).map_err(|e| format!("line {}: not valid JSON: {e}", i + 1))?;
            v.check_record(&record)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        v.finish()?;
        Ok(v)
    }

    /// Validates the next record.
    pub fn check_record(&mut self, record: &Json) -> Result<(), String> {
        self.records += 1;
        let ty = record
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing `type`")?;
        if !RECORD_TYPES.contains(&ty) {
            return Err(format!("unknown record type `{ty}`"));
        }
        if self.records == 1 && ty != "header" {
            return Err(format!("first record must be `header`, got `{ty}`"));
        }
        if self.saw_summary && ty == "iteration" {
            return Err("iteration record after summary".to_string());
        }
        match ty {
            "header" => {
                if self.saw_header {
                    return Err("duplicate header".to_string());
                }
                self.saw_header = true;
                let schema = record
                    .get("schema")
                    .and_then(Json::as_str)
                    .ok_or("header: missing `schema`")?;
                if schema != SCHEMA {
                    return Err(format!("header: unknown schema `{schema}`"));
                }
                for key in ["program", "jobs", "resume", "mode"] {
                    if record.get(key).is_none() {
                        return Err(format!("header: missing `{key}`"));
                    }
                }
            }
            "iteration" => self.check_iteration(record)?,
            "summary" => {
                if self.saw_summary {
                    return Err("duplicate summary".to_string());
                }
                self.saw_summary = true;
                for key in [
                    "found",
                    "iterations",
                    "verifications",
                    "reexecutions",
                    "expanded_edges",
                    "ips_dynamic",
                ] {
                    if record.get(key).is_none() {
                        return Err(format!("summary: missing `{key}`"));
                    }
                }
                let n = record.get("iterations").and_then(Json::as_int);
                if n != Some(self.iterations as i64) {
                    return Err(format!(
                        "summary: `iterations` {n:?} does not match the {} iteration records",
                        self.iterations
                    ));
                }
            }
            "recovery" => {
                if !self.saw_summary {
                    return Err("recovery record before summary".to_string());
                }
                if record
                    .get("deadline_expired")
                    .and_then(Json::as_bool)
                    .is_none()
                {
                    return Err("recovery: missing boolean `deadline_expired`".to_string());
                }
                if !matches!(record.get("counters"), Some(Json::Object(_))) {
                    return Err("recovery: missing `counters` object".to_string());
                }
                if record.get("events").and_then(Json::as_array).is_none() {
                    return Err("recovery: missing `events` array".to_string());
                }
            }
            "profile" => {
                if !self.saw_summary {
                    return Err("profile record before summary".to_string());
                }
                for key in ["events", "drops"] {
                    if record.get(key).and_then(Json::as_int).is_none() {
                        return Err(format!("profile: missing integer `{key}`"));
                    }
                }
                let workers = record
                    .get("workers")
                    .and_then(Json::as_array)
                    .ok_or("profile: missing `workers` array")?;
                for (i, w) in workers.iter().enumerate() {
                    for key in ["tasks", "steals", "busy_ns"] {
                        if w.get(key).and_then(Json::as_int).is_none() {
                            return Err(format!("profile: workers[{i}] missing integer `{key}`"));
                        }
                    }
                    if w.get("worker").is_none() {
                        return Err(format!("profile: workers[{i}] missing `worker`"));
                    }
                }
            }
            "spans" => self.check_spans(record)?,
            _ => unreachable!("type vetted above"),
        }
        Ok(())
    }

    fn check_iteration(&mut self, record: &Json) -> Result<(), String> {
        self.iterations += 1;
        for key in [
            "iter",
            "use",
            "requests",
            "edges_added",
            "slice_before",
            "slice_after",
        ] {
            if record.get(key).is_none() {
                return Err(format!("iteration: missing `{key}`"));
            }
        }
        let iter = record
            .get("iter")
            .and_then(Json::as_int)
            .ok_or("iteration: `iter` is not an integer")?;
        if let Some(prev) = self.last_iter {
            if iter != prev + 1 {
                return Err(format!(
                    "iteration: `iter` went {prev} -> {iter} (must increase by 1)"
                ));
            }
        } else if iter != 1 {
            return Err(format!("iteration: first `iter` is {iter}, expected 1"));
        }
        self.last_iter = Some(iter);

        let use_rec = record.get("use").unwrap();
        for key in ["inst", "stmt"] {
            if use_rec.get(key).and_then(Json::as_int).is_none() {
                return Err(format!("iteration: `use.{key}` missing or not an integer"));
            }
        }

        let requests = record
            .get("requests")
            .and_then(Json::as_array)
            .ok_or("iteration: `requests` is not an array")?;
        for (i, r) in requests.iter().enumerate() {
            for key in ["p", "p_stmt", "p_occ", "u", "var"] {
                if r.get(key).is_none() {
                    return Err(format!("iteration: requests[{i}] missing `{key}`"));
                }
            }
            let verdict = r
                .get("verdict")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("iteration: requests[{i}] missing `verdict`"))?;
            if !VERDICTS.contains(&verdict) {
                return Err(format!(
                    "iteration: requests[{i}] has invalid verdict `{verdict}`"
                ));
            }
            let outcome = r
                .get("outcome")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("iteration: requests[{i}] missing `outcome`"))?;
            let base = outcome.split(':').next().unwrap_or(outcome);
            if !OUTCOMES.contains(&base) {
                return Err(format!(
                    "iteration: requests[{i}] has invalid outcome `{outcome}`"
                ));
            }
            let phase = r.get("phase").and_then(Json::as_str).unwrap_or("primary");
            if phase != "primary" && phase != "secondary" {
                return Err(format!(
                    "iteration: requests[{i}] has invalid phase `{phase}`"
                ));
            }
        }

        let edges = record
            .get("edges_added")
            .and_then(Json::as_array)
            .ok_or("iteration: `edges_added` is not an array")?;
        for (i, e) in edges.iter().enumerate() {
            for key in ["from", "to"] {
                if e.get(key).and_then(Json::as_int).is_none() {
                    return Err(format!(
                        "iteration: edges_added[{i}] missing integer `{key}`"
                    ));
                }
            }
            let kind = e
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("iteration: edges_added[{i}] missing `kind`"))?;
            if !EDGE_KINDS.contains(&kind) {
                return Err(format!(
                    "iteration: edges_added[{i}] has invalid kind `{kind}`"
                ));
            }
        }
        Ok(())
    }

    /// Span records are timelines: every span must close after it opens,
    /// and within one thread spans must nest monotonically (a span that
    /// starts inside another must end inside it).
    fn check_spans(&self, record: &Json) -> Result<(), String> {
        let spans = record
            .get("spans")
            .and_then(Json::as_array)
            .ok_or("spans: missing `spans` array")?;
        let mut stacks: std::collections::HashMap<i64, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("spans[{i}]: missing `name`"))?;
            let start = s
                .get("start_ns")
                .and_then(Json::as_int)
                .ok_or_else(|| format!("spans[{i}]: missing `start_ns`"))?
                as u64;
            let end =
                s.get("end_ns")
                    .and_then(Json::as_int)
                    .ok_or_else(|| format!("spans[{i}]: missing `end_ns`"))? as u64;
            if end < start {
                return Err(format!(
                    "spans[{i}] `{name}`: end {end} before start {start}"
                ));
            }
            let thread = s.get("thread").and_then(Json::as_int).unwrap_or(0);
            let stack = stacks.entry(thread).or_default();
            // Spans arrive sorted by start time; pop everything that
            // ended before this one starts, then require proper nesting
            // within whatever is still open.
            while stack.last().is_some_and(|&(_, e)| e <= start) {
                stack.pop();
            }
            if let Some(&(ps, pe)) = stack.last() {
                if end > pe {
                    return Err(format!(
                        "spans[{i}] `{name}`: [{start},{end}] not nested in open span [{ps},{pe}]"
                    ));
                }
            }
            stack.push((start, end));
        }
        Ok(())
    }

    /// Final whole-document checks.
    pub fn finish(&self) -> Result<(), String> {
        if !self.saw_header {
            return Err("journal has no header record".to_string());
        }
        if !self.saw_summary {
            return Err("journal has no summary record".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        concat!(
            r#"{"type":"header","schema":"omislice-obs/v1","program":"p","jobs":1,"resume":"auto","mode":"edge"}"#,
            "\n",
            r#"{"type":"iteration","iter":1,"elapsed_ns":12,"use":{"inst":5,"stmt":2},"requests":[{"p":3,"p_stmt":1,"p_occ":0,"u":5,"var":"x","verdict":"id","outcome":"completed","phase":"primary"}],"edges_added":[{"from":5,"to":3,"kind":"implicit"}],"slice_before":4,"slice_after":3}"#,
            "\n",
            r#"{"type":"summary","found":true,"iterations":1,"verifications":1,"reexecutions":1,"expanded_edges":1,"ips_dynamic":3}"#,
            "\n",
        )
        .to_string()
    }

    #[test]
    fn accepts_a_minimal_journal() {
        let v = Validator::check_document(&minimal()).unwrap();
        assert_eq!(v.iterations(), 1);
        assert_eq!(v.records(), 3);
    }

    #[test]
    fn rejects_schema_violations() {
        for (needle, replacement, expect) in [
            ("omislice-obs/v1", "bogus/v9", "unknown schema"),
            (
                "\"verdict\":\"id\"",
                "\"verdict\":\"maybe\"",
                "invalid verdict",
            ),
            (
                "\"outcome\":\"completed\"",
                "\"outcome\":\"vanished\"",
                "invalid outcome",
            ),
            (
                "\"kind\":\"implicit\"",
                "\"kind\":\"psychic\"",
                "invalid kind",
            ),
            ("\"iter\":1", "\"iter\":3", "expected 1"),
            ("\"iterations\":1", "\"iterations\":7", "does not match"),
        ] {
            let doc = minimal().replace(needle, replacement);
            let err = Validator::check_document(&doc).unwrap_err();
            assert!(err.contains(expect), "{needle}: {err}");
        }
    }

    #[test]
    fn rejects_missing_summary_and_header() {
        let doc = minimal();
        let no_summary: String = doc.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(Validator::check_document(&no_summary)
            .unwrap_err()
            .contains("no summary"));
        let no_header: String = doc.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(Validator::check_document(&no_header)
            .unwrap_err()
            .contains("must be `header`"));
    }

    #[test]
    fn accepts_crashed_outcome_with_kind_suffix() {
        let doc = minimal().replace("\"outcome\":\"completed\"", "\"outcome\":\"crashed:panic\"");
        Validator::check_document(&doc).unwrap();
    }

    #[test]
    fn accepts_and_validates_recovery_records() {
        let good = minimal()
            + r#"{"type":"recovery","deadline_expired":false,"counters":{"recovery.save_retries":1},"events":["save-retry"]}"#
            + "\n";
        Validator::check_document(&good).unwrap();
        // Recovery must follow the summary and carry its three fields.
        let early: String = {
            let lines: Vec<&str> = good.lines().collect();
            format!("{}\n{}\n{}\n{}\n", lines[0], lines[3], lines[1], lines[2])
        };
        assert!(Validator::check_document(&early)
            .unwrap_err()
            .contains("before summary"));
        for (needle, expect) in [
            ("\"deadline_expired\":false,", "deadline_expired"),
            ("\"counters\":{\"recovery.save_retries\":1},", "counters"),
            (",\"events\":[\"save-retry\"]", "events"),
        ] {
            let doc = good.replace(needle, "");
            let err = Validator::check_document(&doc).unwrap_err();
            assert!(err.contains(expect), "{needle}: {err}");
        }
        // Recovery records survive timing stripping — they are facts
        // about the run, not timing.
        let stripped = strip_timing(&good).unwrap();
        assert!(stripped.contains("\"type\":\"recovery\""));
    }

    #[test]
    fn accepts_and_validates_profile_records() {
        let good = minimal()
            + r#"{"type":"profile","events":42,"drops":0,"window_ns":9000,"workers":[{"worker":0,"tasks":20,"steals":2,"busy_ns":8000,"utilization":0.88}]}"#
            + "\n";
        Validator::check_document(&good).unwrap();
        // Profile must follow the summary.
        let early: String = {
            let lines: Vec<&str> = good.lines().collect();
            format!("{}\n{}\n{}\n{}\n", lines[0], lines[3], lines[1], lines[2])
        };
        assert!(Validator::check_document(&early)
            .unwrap_err()
            .contains("before summary"));
        for (needle, expect) in [
            ("\"events\":42,", "events"),
            ("\"drops\":0,", "drops"),
            ("\"tasks\":20,", "tasks"),
            ("\"steals\":2,", "steals"),
        ] {
            let doc = good.replace(needle, "");
            let err = Validator::check_document(&doc).unwrap_err();
            assert!(err.contains(expect), "{needle}: {err}");
        }
        // Profiles are scheduling facts: stripped alongside spans, so
        // clean determinism comparisons never see them.
        let stripped = strip_timing(&good).unwrap();
        assert!(!stripped.contains("\"type\":\"profile\""));
        assert_eq!(stripped, strip_timing(&minimal()).unwrap());
    }

    #[test]
    fn validates_span_nesting() {
        let good = minimal()
            + r#"{"type":"spans","spans":[{"name":"a","thread":0,"start_ns":0,"end_ns":100},{"name":"b","thread":0,"start_ns":10,"end_ns":50}]}"#
            + "\n";
        Validator::check_document(&good).unwrap();
        let crossing = minimal()
            + r#"{"type":"spans","spans":[{"name":"a","thread":0,"start_ns":0,"end_ns":100},{"name":"b","thread":0,"start_ns":10,"end_ns":200}]}"#
            + "\n";
        assert!(Validator::check_document(&crossing)
            .unwrap_err()
            .contains("not nested"));
        let backwards = minimal()
            + r#"{"type":"spans","spans":[{"name":"a","thread":0,"start_ns":50,"end_ns":10}]}"#
            + "\n";
        assert!(Validator::check_document(&backwards)
            .unwrap_err()
            .contains("before start"));
    }

    #[test]
    fn strip_timing_removes_ns_fields_and_spans() {
        let doc = minimal()
            + r#"{"type":"spans","spans":[{"name":"a","thread":0,"start_ns":0,"end_ns":1}]}"#
            + "\n";
        let stripped = strip_timing(&doc).unwrap();
        assert!(!stripped.contains("elapsed_ns"));
        assert!(!stripped.contains("\"spans\""));
        assert_eq!(stripped.lines().count(), 3);
        // Stripping is idempotent and stable.
        assert_eq!(strip_timing(&stripped).unwrap(), stripped);
    }
}
