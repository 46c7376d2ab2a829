//! The traced pass: `cmd_locate`'s calls, made in-process and in its
//! order, each wrapped in a span this benchmark records. No product
//! crate is instrumented; the spans sit around the calls into each layer
//! and stay in memory until the run writes them out.
//!
//! The pass doubles as the reference: its report is what every CLI
//! stdout and (after [`normalize_served`]) every served report must equal.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{run_traced, RunConfig};
use omislice::omislice_lang::{compile, printer::stmt_head};
use omislice::omislice_slicing::{prune_slice, DepGraph, Feedback, ValueProfile};
use omislice::omislice_trace::{Deadline, VerificationStats};
use omislice::{
    locate_fault, render_report, GroundTruthOracle, LocateConfig, UserOracle, VerifyMemo,
};
use omislice_obs::Json;
use std::hint::black_box;
use std::time::Instant;

/// The stages of one localization, in `cmd_locate`'s order. Each span
/// name is a layer (crate) name plus the step; its metric is the name
/// with `_ms` appended.
pub const STAGES: [&str; 8] = [
    "lang.compile",
    "analysis.build",
    "interp.trace",
    "trace.index",
    "slicing.profile",
    "omission.oracle",
    "omission.locate",
    "omission.render",
];

/// The root span every stage span is a child of.
pub const ROOT: &str = "pipeline";

/// One closed span. Times are microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the parent span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Which pass (Chrome-trace thread) the span belongs to.
    pub pass: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span store for every traced pass of a run.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    /// `workload: version` label per pass id.
    pub passes: Vec<String>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            passes: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        pass: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            pass,
        });
        out
    }

    /// The spans as Chrome-trace JSON: one complete (`X`) event per span,
    /// one thread per pass, named after its version.
    pub fn chrome_trace(&self) -> Json {
        let mut events: Vec<Json> = self
            .passes
            .iter()
            .enumerate()
            .map(|(tid, label)| {
                Json::object([
                    ("name", Json::str("thread_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(tid as i64)),
                    ("args", Json::object([("name", Json::str(label.clone()))])),
                ])
            })
            .collect();
        events.extend(self.spans.iter().map(|s| {
            let parent = s
                .parent
                .map_or(Json::Null, |p| Json::str(self.spans[p].name));
            Json::object([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Float(s.start_us)),
                ("dur", Json::Float(s.end_us - s.start_us)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.pass as i64)),
                ("args", Json::object([("parent", parent)])),
            ])
        }));
        Json::object([
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// One program version as the pipeline sees it.
pub struct Input<'a> {
    pub faulty_src: &'a str,
    pub fixed_src: &'a str,
    pub inputs: &'a [i64],
}

/// What one traced pass produced and measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The report exactly as `omislice locate` prints it.
    pub report: String,
    pub found: bool,
    /// The screening deadline ran out before the locator converged.
    pub expired: bool,
    pub wall_ms: f64,
    /// Summed span time per [`STAGES`] entry, in that order.
    pub stage_ms: [f64; STAGES.len()],
    pub stats: VerificationStats,
    pub iterations: usize,
    pub verifications: usize,
    pub reexecutions: usize,
    pub user_prunings: usize,
    pub events: usize,
    pub columnar_bytes: usize,
    /// Standalone slicing probes on the pass's artifacts, outside the
    /// closure: one `DepGraph::with_jobs` and one `prune_slice`.
    pub probes: Option<(f64, f64)>,
    /// Wall time of the whole probe block, 0 without probes. Set-up time
    /// leaves it out, so it does not depend on whether probes ran.
    pub probes_s: f64,
}

impl Pass {
    /// Wall time no stage span accounts for.
    pub fn unattributed_ms(&self) -> f64 {
        unattributed_ms(self.wall_ms, &self.stage_ms)
    }
}

/// `wall − Σ stages`, signed: a negative remainder means the stage spans
/// overlap or overrun the root span, and is reported as such.
pub fn unattributed_ms(wall_ms: f64, stage_ms: &[f64]) -> f64 {
    wall_ms - stage_ms.iter().sum::<f64>()
}

/// The closure rule: the stage spans must account for the pass's wall
/// time to within 1 ms or 2 %, whichever is larger.
pub fn closes(wall_ms: f64, unattributed_ms: f64) -> bool {
    unattributed_ms.abs() <= (0.02 * wall_ms).max(1.0)
}

/// Runs one localization in-process with `cmd_locate`'s calls and a fresh
/// shared memo, recording a span per stage under one root span.
/// `screen_checks` bounds the locator with a counted deadline (see
/// [`crate::workload::Spec::screen_checks`]); an unexpired pass reports
/// byte-for-byte what an unbounded one would. `probes` adds the slicing
/// probes after the root span closes.
///
/// # Errors
///
/// Returns a message when a program fails to compile, the programs do not
/// align structurally, or the run shows no wrong output.
pub fn traced_pass(
    v: &Input<'_>,
    screen_checks: u32,
    probes: bool,
    rec: &mut Recorder,
    pass: usize,
) -> Result<Pass, String> {
    let root = Some(rec.spans.len());
    // The root span is pushed first so stages can name it as parent; its
    // end time is patched in once the last stage closes.
    rec.spans.push(Span {
        name: ROOT,
        start_us: rec.now_us(),
        end_us: 0.0,
        parent: None,
        pass,
    });
    let first_stage = rec.spans.len();

    let faulty = rec
        .time(STAGES[0], root, pass, || compile(v.faulty_src))
        .map_err(|e| format!("faulty program: {e}"))?;
    let fixed = rec
        .time(STAGES[0], root, pass, || compile(v.fixed_src))
        .map_err(|e| format!("fixed program: {e}"))?;
    let config = RunConfig::with_inputs(v.inputs.to_vec());
    let analysis = rec.time(STAGES[1], root, pass, || ProgramAnalysis::build(&faulty));
    let fixed_analysis = rec.time(STAGES[1], root, pass, || ProgramAnalysis::build(&fixed));
    let trace = rec.time(STAGES[2], root, pass, || {
        run_traced(&faulty, &analysis, &config).trace
    });
    rec.time(STAGES[3], root, pass, || trace.build_index(1));
    let profile = rec.time(STAGES[4], root, pass, || {
        let mut profile = ValueProfile::new();
        profile.add_trace(&trace);
        profile
    });
    let (roots, oracle) = rec.time(STAGES[5], root, pass, || {
        let roots = omislice_corpus::try_seeded_roots(&fixed, &faulty)?;
        if roots.is_empty() {
            return Err("fixed and faulty programs are identical".to_string());
        }
        let oracle = GroundTruthOracle::new(&fixed, &fixed_analysis, &config, roots.clone());
        Ok((roots, oracle))
    })?;
    let outcome = rec
        .time(STAGES[6], root, pass, || {
            let lc = LocateConfig {
                memo: Some(VerifyMemo::shared()),
                deadline: Some(Deadline::unlimited().with_force_expire(screen_checks)),
                ..LocateConfig::default()
            };
            locate_fault(&faulty, &analysis, &config, &trace, &profile, &oracle, &lc)
        })
        .map_err(|e| e.to_string())?;
    let report = rec.time(STAGES[7], root, pass, || {
        let mut human = render_report(&outcome, &trace, &analysis);
        human.push('\n');
        human.push_str("seeded root statement(s):\n");
        for r in &roots {
            if let Some(stmt) = faulty.stmt(*r) {
                human.push_str(&format!("  {r} {}\n", stmt_head(stmt)));
            }
        }
        human
    });
    let end_us = rec.now_us();
    let root_span = &mut rec.spans[first_stage - 1];
    root_span.end_us = end_us;
    let wall_ms = root_span.ms();

    let mut stage_ms = [0.0; STAGES.len()];
    for s in &rec.spans[first_stage..] {
        let i = STAGES
            .iter()
            .position(|&n| n == s.name)
            .expect("every stage span has a STAGES name");
        stage_ms[i] += s.ms();
    }

    let probe_start = Instant::now();
    let probes = probes.then(|| {
        let graph = rec.time("slicing.graph", None, pass, || {
            DepGraph::with_jobs(&trace, 1)
        });
        let graph_ms = rec.spans.last().map_or(0.0, Span::ms);
        let outputs = oracle
            .classify_outputs(&trace)
            .expect("locate_fault already classified these outputs");
        rec.time("slicing.prune", None, pass, || {
            black_box(prune_slice(
                &graph,
                &analysis,
                &profile,
                &outputs.correct,
                outputs.wrong,
                &Feedback::default(),
            ))
        });
        (graph_ms, rec.spans.last().map_or(0.0, Span::ms))
    });
    let probes_s = if probes.is_some() {
        probe_start.elapsed().as_secs_f64()
    } else {
        0.0
    };

    Ok(Pass {
        found: outcome.found,
        expired: outcome.deadline_expired,
        report,
        wall_ms,
        stage_ms,
        iterations: outcome.iterations,
        verifications: outcome.verifications,
        reexecutions: outcome.reexecutions,
        user_prunings: outcome.user_prunings,
        stats: outcome.stats,
        events: trace.len(),
        columnar_bytes: trace.columns().bytes(),
        probes,
        probes_s,
    })
}

/// A served report as the guard compares it: the `re-executions` line is
/// dropped (a warm shared memo answers switched runs without executing
/// them); every other line is kept byte-for-byte.
pub fn normalize_served(report: &str) -> String {
    report
        .split_inclusive('\n')
        .filter(|l| !l.starts_with("re-executions"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_reports_a_negative_remainder_as_negative() {
        assert_eq!(unattributed_ms(100.0, &[60.0, 30.0]), 10.0);
        let over = unattributed_ms(100.0, &[60.0, 45.0]);
        assert_eq!(over, -5.0);
        assert!(!closes(100.0, over));
        assert!(closes(100.0, unattributed_ms(100.0, &[60.0, 39.5])));
        // The 1 ms floor applies to short passes.
        assert!(closes(10.0, -0.9));
        assert!(!closes(10.0, -1.1));
        // 2 % applies to long ones.
        assert!(closes(1000.0, 19.0));
        assert!(!closes(1000.0, -21.0));
    }

    #[test]
    fn served_normalizer_removes_exactly_the_reexecutions_line() {
        let report = "=== omislice fault localization report ===\n\
                      root cause captured : yes\n\
                      iterations          : 2\n\
                      verifications       : 7\n\
                      re-executions       : 3\n\
                      user prunings       : 1\n\
                      \n  S4 re-executions = 1;\n";
        let want = "=== omislice fault localization report ===\n\
                    root cause captured : yes\n\
                    iterations          : 2\n\
                    verifications       : 7\n\
                    user prunings       : 1\n\
                    \n  S4 re-executions = 1;\n";
        assert_eq!(normalize_served(report), want);
        assert_eq!(normalize_served(want), want);
    }

    #[test]
    fn a_pass_closes_and_finds_the_root_on_a_small_version() {
        let fixed = "fn main() { let a = input(); let s = 0; while a > 0 { if a > 2 { s = s + a; } a = a - 1; } print(s); }";
        let faulty = "fn main() { let a = input(); let s = 0; while a > 0 { if a > 3 { s = s + a; } a = a - 1; } print(s); }";
        let mut rec = Recorder::new();
        let input = Input {
            faulty_src: faulty,
            fixed_src: fixed,
            inputs: &[6],
        };
        let pass = traced_pass(&input, 1000, true, &mut rec, 0).unwrap();
        assert!(pass.found && !pass.expired, "{}", pass.report);
        assert!(pass.report.contains("root cause captured : yes"));
        assert!(closes(pass.wall_ms, pass.unattributed_ms()));
        assert!(pass.probes.is_some());
        // Root, two compiles, two analyses, one span per remaining stage,
        // two probes.
        assert_eq!(rec.spans.len(), 1 + 2 + 2 + 6 + 2);
        let doc = omislice_obs::json::parse(&rec.chrome_trace().to_string()).unwrap();
        assert!(doc.get("traceEvents").and_then(Json::as_array).is_some());
    }
}
