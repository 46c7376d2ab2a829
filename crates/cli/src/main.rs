//! `omislice` — command-line debugger for execution omission errors.
//!
//! ```text
//! omislice run      <file> [--input 1,2,3]
//! omislice trace    <file> [--input 1,2,3] [--regions] [--dot] [--stats]
//!                   [--save <file.omitrace>] [--chaos <plan>] [--deadline <ms>]
//! omislice slice    <file> [--input 1,2,3] [--output N] [--relevant] [--jobs N]
//! omislice cfg      <file> [--function main]
//! omislice locate   --faulty <file> --fixed <file> [--input 1,2,3]
//!                   [--trace-in <file.omitrace>]
//!                   [--profile 4,5;6,7] [--mode edge|path|value]
//!                   [--jobs N] [--no-resume] [--stats]
//!                   [--scheduler trie|flat] [--capture-threshold N]
//!                   [--early-exit]
//!                   [--budget init[:factor[:attempts]]|off]
//!                   [--fault-plan S<id>[:occ]=<action>]
//!                   [--chaos <site>[:occ]=<action>] [--deadline <ms>]
//! omislice verify   <file> [--input 1,2,3] --pred N[:occ] --use N[:occ]
//!                   [--var name] [--expected v] [--mode edge|path|value]
//! omislice corpus   [list | locate <bench> <fault> [--jobs N] [--no-resume]
//!                   [--scheduler trie|flat] [--capture-threshold N]
//!                   [--early-exit] [--stats] [--budget ...] [--fault-plan ...]
//!                   [--chaos ...] [--deadline <ms>]]
//! ```
//!
//! `locate` and `corpus locate` are two front ends of one pipeline: both
//! parse the same localization flags into a `LocateFlags` and hand a
//! `DebugSessionBuilder` to `LocateFlags::run`, which builds, locates,
//! and renders through `DebugSession`.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{
    run_plain, run_traced, BudgetSchedule, FaultPlan, ResumeMode, RunConfig,
};
use omislice::omislice_lang::{compile, FrontendError, Program};
use omislice::omislice_slicing::{relevant_slice_jobs, DepGraph, Slice};
use omislice::omislice_trace::{
    take_recovery, ChaosPlan, RecoveryLog, RegionTree, Supervisor, Trace, TraceStats,
};
use omislice::{
    build_journal, describe_inst, DebugSession, DebugSessionBuilder, JournalMeta, LocateConfig,
    LocateOutcome, SchedulerMode, SessionError, VerifierMode, VerifyMemo,
};
use omislice_corpus::all_benchmarks;
use omislice_obs::{MetricSet, Reporter, SpanReport};
use std::process::ExitCode;

/// Exit code for a run cut short by `--deadline`: the report is partial
/// but well-formed, distinct from both success (0) and usage/pipeline
/// failure (1).
const EXIT_DEADLINE: u8 = 3;

/// Exit code for malformed invocations: unknown commands, missing
/// required flags, and unparsable flag values. Distinct from pipeline
/// failures (1) so scripts can tell "you called it wrong" from "it ran
/// and failed".
const EXIT_USAGE: u8 = 2;

/// A command failure, split by whose fault it is: `Usage` is a
/// malformed invocation (exit 2, help printed), `Failure` is a pipeline
/// or input-file problem (exit 1). Plain `String`/`&str` errors from
/// helpers convert to `Failure`, so only usage sites need to opt in.
enum CliError {
    Usage(String),
    Failure(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failure(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Failure(msg.to_string())
    }
}

/// Shorthand for flagging a malformed invocation.
fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            let mut rep = Reporter::stderr();
            rep.line(&format!("omislice: {msg}"));
            rep.line("");
            rep.line(USAGE);
            ExitCode::from(EXIT_USAGE)
        }
        Err(CliError::Failure(msg)) => {
            let mut rep = Reporter::stderr();
            rep.line(&format!("omislice: {msg}"));
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  omislice run     <file> [--input 1,2,3]
  omislice trace   <file> [--input 1,2,3] [--regions] [--dot] [--stats]
                   [--save <file.omitrace>] [--chaos <plan>] [--deadline <ms>]
                   [--profile-out <file.json>]
  omislice slice   <file> [--input 1,2,3] [--output N] [--relevant] [--jobs N]
  omislice cfg     <file> [--function main]
  omislice locate  --faulty <file> --fixed <file> [--input 1,2,3]
                   [--trace-in <file.omitrace>]
                   [--profile 4,5;6,7] [--mode edge|path|value]
                   [--jobs N] [--no-resume] [--stats]
                   [--scheduler trie|flat] [--capture-threshold N]
                   [--early-exit]
                   [--budget init[:factor[:attempts]]|off]
                   [--fault-plan S<id>[:occ]=<action>]
                   [--chaos <plan>] [--deadline <ms>]
                   [--obs-out <file.jsonl>] [--explain] [--metrics text|json]
                   [--profile-out <file.json>]
  omislice verify  <file> [--input 1,2,3] --pred N[:occ] --use N[:occ]
                   [--var name] [--expected v] [--mode edge|path|value]
  omislice corpus  [list | locate <bench> <fault> [--jobs N] [--no-resume]
                   [--scheduler trie|flat] [--capture-threshold N]
                   [--early-exit] [--stats] [--budget ...] [--fault-plan ...]
                   [--chaos <plan>] [--deadline <ms>]
                   [--obs-out <file.jsonl>] [--explain] [--metrics text|json]
                   [--profile-out <file.json>]]
  omislice serve   --addr <host:port> [--workers N] [--queue N]
                   [--cache-mb N]

fault-plan actions: oob, missing-callee, div-zero, type, stack-overflow,
uninit, budget, panic, panic-harness, corrupt-checkpoint

chaos plans are comma-separated <site>[:occ]=<action> entries injecting
one pipeline fault each (the pipeline must recover, not abort):
  builder=panic      channel=disconnect  queue=stall      encode=corrupt
  decode=corrupt     save=short-write    save=enospc      mmap=fail
  deadline[:K]=expire  handler=panic
--deadline <ms> cancels the run cooperatively; exit code 3 marks the
partial report. Malformed invocations exit with code 2.";

fn run(args: Vec<String>) -> Result<ExitCode, CliError> {
    let mut it = args.into_iter();
    match it.next().as_deref() {
        Some("run") => cmd_run(it.collect()),
        Some("trace") => cmd_trace(it.collect()),
        Some("slice") => cmd_slice(it.collect()),
        Some("cfg") => cmd_cfg(it.collect()),
        Some("locate") => cmd_locate(it.collect()),
        Some("verify") => cmd_verify(it.collect()),
        Some("corpus") => cmd_corpus(it.collect()),
        Some("serve") => cmd_serve(it.collect()),
        Some(other) => Err(usage_err(format!("unknown command `{other}`"))),
        None => Err(usage_err("no command given")),
    }
}

/// Parses `--flag value` style options plus positional arguments.
struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: Vec<String>, value_flags: &[&str]) -> Result<Opts, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if value_flags.contains(&name) {
                    let v = it
                        .next()
                        .ok_or_else(|| usage_err(format!("--{name} needs a value")))?;
                    flags.push((name.to_string(), Some(v)));
                } else {
                    flags.push((name.to_string(), None));
                }
            } else {
                positional.push(a);
            }
        }
        Ok(Opts { positional, flags })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

/// The single chokepoint every numeric flag parses through: a malformed
/// value becomes a usage error (exit 2) naming the flag and the expected
/// shape — never a panic or a silent default.
fn parse_flag<T: std::str::FromStr>(
    opts: &Opts,
    name: &str,
    what: &str,
) -> Result<Option<T>, CliError> {
    match opts.value(name) {
        None => Ok(None),
        Some(t) => t
            .parse::<T>()
            .map(Some)
            .map_err(|_| usage_err(format!("bad --{name} `{t}` (need {what})"))),
    }
}

fn parse_inputs(text: Option<&str>) -> Result<Vec<i64>, CliError> {
    match text {
        None => Ok(Vec::new()),
        Some(t) if t.trim().is_empty() => Ok(Vec::new()),
        Some(t) => t
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<i64>()
                    .map_err(|_| usage_err(format!("bad input value `{s}`")))
            })
            .collect(),
    }
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// A compile error rendered against its source, under the file's name.
fn frontend_error(path: &str, src: &str, e: &FrontendError) -> String {
    format!(
        "{path}:\n{}",
        omislice::omislice_lang::render_frontend_error(src, e)
    )
}

fn load_program(path: &str) -> Result<Program, String> {
    let src = read_source(path)?;
    compile(&src).map_err(|e| frontend_error(path, &src, &e))
}

fn cmd_run(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &["input"])?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("run needs a program file"))?;
    let program = load_program(path)?;
    let config = RunConfig::with_inputs(parse_inputs(opts.value("input"))?);
    let result = run_plain(&program, &config);
    for v in &result.outputs {
        println!("{v}");
    }
    if result.input_underflows > 0 {
        Reporter::stderr().warn(&format!(
            "{} input() call(s) ran past the end of the input stream (yielded 0)",
            result.input_underflows
        ));
    }
    if !result.is_normal() {
        return Err(CliError::Failure(format!(
            "program did not terminate normally: {:?}",
            result.termination
        )));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &["input", "save", "chaos", "deadline", "profile-out"])?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("trace needs a program file"))?;
    let obs = ObsOpts::parse(&opts)?;
    obs.start_recorder();
    let program = load_program(path)?;
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(parse_inputs(opts.value("input"))?);
    let sup = parse_supervisor(&opts)?;
    let run = sup.run(|| run_traced(&program, &analysis, &config));
    // The traced run is this command's whole pipeline: close the profile
    // here so the early returns below all see it written.
    let (spans, prof) = obs.stop_recorder();
    obs.write_profile(prof.as_ref(), spans.as_ref())?;
    let trace = &run.trace;
    if let Some(out) = opts.value("save") {
        sup.save_trace(trace, std::path::Path::new(out))
            .map_err(|e| format!("cannot save trace to `{out}`: {e}"))?;
        let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
        Reporter::stderr().line(&format!(
            "saved {} instance(s), {} dependence edge(s) to `{out}` ({bytes} bytes, omitrace/v1)",
            trace.len(),
            trace.columns().deps_len(),
        ));
        return Ok(trace_exit(&sup));
    }
    if opts.has("stats") {
        let mut rep = Reporter::stderr();
        rep.section("trace statistics");
        rep.block(&TraceStats::compute(trace).to_string());
        return Ok(trace_exit(&sup));
    }
    if opts.has("regions") {
        if opts.has("dot") {
            print!(
                "{}",
                omislice::omislice_trace::regions_to_dot(trace, analysis.index())
            );
        } else {
            let regions = RegionTree::build(trace);
            println!("{}", regions.render_all(trace));
        }
        return Ok(trace_exit(&sup));
    }
    if opts.has("dot") {
        print!(
            "{}",
            omislice::omislice_trace::ddg_to_dot(trace, analysis.index())
        );
        return Ok(trace_exit(&sup));
    }
    for inst in trace.insts() {
        println!("{}", describe_inst(trace, &analysis, inst));
    }
    println!(
        "-- {} instances, termination {:?}",
        trace.len(),
        trace.termination()
    );
    if run.input_underflows > 0 {
        println!(
            "-- {} input() call(s) ran past the end of the input stream (yielded 0)",
            run.input_underflows
        );
    }
    Ok(trace_exit(&sup))
}

/// Final exit for `trace`: reports any recoveries the supervised run
/// absorbed and maps an expired deadline to the partial-result code.
fn trace_exit(sup: &Supervisor) -> ExitCode {
    let log = take_recovery();
    if !log.is_empty() {
        let mut rep = Reporter::stderr();
        rep.warn(&format!(
            "pipeline recovered from {} fault(s): {}",
            log.total(),
            log.events().join(", ")
        ));
    }
    if sup.deadline_expired() {
        Reporter::stderr().warn("deadline expired: the trace is partial");
        ExitCode::from(EXIT_DEADLINE)
    } else {
        ExitCode::SUCCESS
    }
}

fn print_slice(trace: &Trace, analysis: &ProgramAnalysis, slice: &Slice) {
    for &inst in slice.insts() {
        println!("{}", describe_inst(trace, analysis, inst));
    }
    println!(
        "-- {} statements / {} instances",
        slice.static_size(),
        slice.dynamic_size()
    );
}

fn cmd_slice(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &["input", "output", "jobs"])?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("slice needs a program file"))?;
    let program = load_program(path)?;
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(parse_inputs(opts.value("input"))?);
    let run = run_traced(&program, &analysis, &config);
    let trace = &run.trace;
    let outputs = trace.outputs();
    if outputs.is_empty() {
        return Err("the program printed nothing; no slicing criterion".into());
    }
    let idx: usize =
        parse_flag::<usize>(&opts, "output", "an output index")?.unwrap_or(outputs.len() - 1);
    let criterion = outputs
        .get(idx)
        .ok_or_else(|| format!("only {} outputs", outputs.len()))?
        .inst;
    let jobs = parse_jobs(&opts)?;
    let slice = if opts.has("relevant") {
        relevant_slice_jobs(trace, &analysis, criterion, jobs)
    } else {
        trace.build_index(jobs);
        DepGraph::with_jobs(trace, jobs).backward_slice(criterion)
    };
    print_slice(trace, &analysis, &slice);
    Ok(ExitCode::SUCCESS)
}

fn cmd_cfg(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &["function"])?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("cfg needs a program file"))?;
    let program = load_program(path)?;
    let analysis = ProgramAnalysis::build(&program);
    let func = opts.value("function").unwrap_or("main");
    let cfg = analysis
        .cfg(func)
        .ok_or_else(|| format!("no function `{func}` in `{path}`"))?;
    let index = analysis.index();
    print!("{}", cfg.to_dot(|s| index.stmt(s).head.clone()));
    Ok(ExitCode::SUCCESS)
}

fn parse_mode(text: Option<&str>) -> Result<VerifierMode, CliError> {
    Ok(match text {
        None | Some("edge") => VerifierMode::Edge,
        Some("path") => VerifierMode::Path,
        Some("value") => VerifierMode::ValueChange,
        Some(other) => return Err(usage_err(format!("unknown --mode `{other}`"))),
    })
}

/// Parses `--scheduler trie|flat` (default: trie).
fn parse_scheduler(text: Option<&str>) -> Result<SchedulerMode, CliError> {
    text.map_or(Ok(SchedulerMode::default()), |t| {
        SchedulerMode::parse(t).map_err(usage_err)
    })
}

/// Parses `--capture-threshold N`: the minimum replay-gap (in events)
/// that justifies snapshotting a checkpoint. `None` keeps the built-in
/// break-even default.
fn parse_capture_threshold(opts: &Opts) -> Result<Option<usize>, CliError> {
    parse_flag::<usize>(
        opts,
        "capture-threshold",
        "a non-negative integer of events",
    )
}

fn parse_jobs(opts: &Opts) -> Result<usize, CliError> {
    match parse_flag::<usize>(opts, "jobs", "a positive integer")? {
        None => Ok(1),
        Some(0) => Err(usage_err("bad --jobs `0` (need a positive integer)")),
        Some(n) => Ok(n),
    }
}

/// Parses `--budget init[:factor[:attempts]]` (or `off` to disable
/// escalation) into a [`BudgetSchedule`]. The grammar lives with the
/// type ([`BudgetSchedule::parse`]); this wrapper only names the flag.
fn parse_budget(text: Option<&str>) -> Result<BudgetSchedule, CliError> {
    match text {
        None => Ok(BudgetSchedule::default()),
        Some(t) => {
            BudgetSchedule::parse(t).map_err(|e| usage_err(e.replacen("budget", "--budget", 1)))
        }
    }
}

/// Parses `--fault-plan S<id>[:occ]=<action>` into a [`FaultPlan`].
fn parse_fault_plan(text: Option<&str>) -> Result<Option<FaultPlan>, CliError> {
    text.map(|t| FaultPlan::parse(t).map_err(usage_err))
        .transpose()
}

/// Parses `--chaos <site>[:occ]=<action>,...` into a [`ChaosPlan`].
fn parse_chaos(text: Option<&str>) -> Result<Option<ChaosPlan>, CliError> {
    text.map(|t| ChaosPlan::parse(t).map_err(usage_err))
        .transpose()
}

/// Builds the supervisor for one command from `--chaos`/`--deadline`.
fn parse_supervisor(opts: &Opts) -> Result<Supervisor, CliError> {
    let mut sup = Supervisor::new().with_chaos(parse_chaos(opts.value("chaos"))?);
    if let Some(ms) = parse_flag::<u64>(opts, "deadline", "milliseconds")? {
        sup = sup.with_deadline_ms(ms);
    }
    Ok(sup)
}

/// Renders the recovery ledger for `--stats` output.
fn render_recovery(log: &RecoveryLog) -> String {
    let mut out = String::new();
    for (name, count) in log.counters() {
        out.push_str(&format!("{name:<26}: {count}\n"));
    }
    out
}

#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Text,
    Json,
}

/// The observability switches shared by `locate` and `corpus locate`.
struct ObsOpts {
    obs_out: Option<String>,
    profile_out: Option<String>,
    explain: bool,
    metrics: Option<MetricsFormat>,
}

impl ObsOpts {
    fn parse(opts: &Opts) -> Result<ObsOpts, CliError> {
        let metrics = match opts.value("metrics") {
            None => None,
            Some("text") => Some(MetricsFormat::Text),
            Some("json") => Some(MetricsFormat::Json),
            Some(other) => {
                return Err(usage_err(format!(
                    "unknown --metrics format `{other}` (text|json)"
                )));
            }
        };
        Ok(ObsOpts {
            obs_out: opts.value("obs-out").map(str::to_string),
            profile_out: opts.value("profile-out").map(str::to_string),
            explain: opts.has("explain"),
            metrics,
        })
    }

    /// Whether the span recorder needs to run at all.
    fn recording(&self) -> bool {
        self.obs_out.is_some() || self.metrics.is_some() || self.profile_out.is_some()
    }

    /// Turns the recorder on (before the pipeline starts, so parse and
    /// analyze spans are captured too). `--profile-out` additionally
    /// arms the scheduler event rings.
    fn start_recorder(&self) {
        if self.recording() {
            omislice_obs::reset();
            omislice_obs::set_enabled(true);
        }
        if self.profile_out.is_some() {
            omislice_obs::profile::profile_reset();
            omislice_obs::profile::set_profiling(true);
        }
    }

    /// Turns the recorder off and collects what it saw. The profiler is
    /// drained first so its drop count can land in the span counters
    /// while they are still recording.
    fn stop_recorder(
        &self,
    ) -> (
        Option<SpanReport>,
        Option<omislice_obs::profile::ProfileReport>,
    ) {
        let profile = if self.profile_out.is_some() {
            omislice_obs::profile::set_profiling(false);
            let report = omislice_obs::profile::profile_drain();
            omislice_obs::counter_add("profile.drops", report.drops);
            Some(report)
        } else {
            None
        };
        let spans = if self.recording() {
            omislice_obs::set_enabled(false);
            Some(omislice_obs::drain())
        } else {
            None
        };
        (spans, profile)
    }

    /// Writes the Chrome-trace JSON and collapsed-stack flamegraph, and
    /// narrates the aggregate scheduler report on stderr.
    fn write_profile(
        &self,
        profile: Option<&omislice_obs::profile::ProfileReport>,
        spans: Option<&SpanReport>,
    ) -> Result<(), String> {
        let (Some(path), Some(report)) = (&self.profile_out, profile) else {
            return Ok(());
        };
        let empty = SpanReport::default();
        let spans = spans.unwrap_or(&empty);
        let doc = omislice_obs::profile::chrome_trace(report, spans);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        let folded = format!("{path}.folded");
        std::fs::write(&folded, omislice_obs::profile::flamegraph(spans))
            .map_err(|e| format!("cannot write `{folded}`: {e}"))?;
        let mut rep = Reporter::stderr();
        rep.section("timeline profile");
        rep.block(&omislice_obs::profile::render_profile(report));
        Ok(())
    }

    /// Routes the human-readable body: stdout normally, stderr when
    /// `--metrics` owns stdout.
    fn emit_human(&self, text: &str) {
        if self.metrics.is_some() {
            let mut rep = Reporter::stderr();
            for line in text.lines() {
                rep.line(line);
            }
        } else {
            print!("{text}");
        }
    }

    /// Prints the metric set to stdout in the requested format.
    fn emit_metrics(&self, set: &MetricSet) {
        match self.metrics {
            Some(MetricsFormat::Text) => print!("{}", set.to_prometheus()),
            Some(MetricsFormat::Json) => println!("{}", set.to_json()),
            None => {}
        }
    }
}

/// Folds trace, locate, and verification counters — plus span
/// aggregates when the recorder ran — into one exportable set.
fn locate_metrics(trace: &Trace, outcome: &LocateOutcome, spans: Option<&SpanReport>) -> MetricSet {
    let mut set = MetricSet::new();
    let ts = TraceStats::compute(trace);
    set.push(
        "trace_instances",
        "Instances in the failing trace",
        ts.instances as f64,
    );
    set.push(
        "trace_unique_stmts",
        "Distinct statements executed",
        ts.unique_stmts as f64,
    );
    set.push(
        "trace_predicate_instances",
        "Predicate instances in the failing trace",
        ts.predicate_instances as f64,
    );
    set.push(
        "trace_data_edges",
        "Dynamic data-dependence edges",
        ts.data_edges as f64,
    );
    set.push(
        "trace_control_edges",
        "Dynamic control-dependence edges",
        ts.control_edges as f64,
    );
    set.push("trace_outputs", "Output events", ts.outputs as f64);
    set.push(
        "locate_found",
        "1 when the root cause landed in the IPS",
        u8::from(outcome.found) as f64,
    );
    set.push(
        "locate_iterations",
        "Algorithm 2 iterations",
        outcome.iterations as f64,
    );
    set.push(
        "locate_expanded_edges",
        "Verified implicit edges added",
        outcome.expanded_edges as f64,
    );
    set.push(
        "locate_strong_edges",
        "Strong implicit edges among them",
        outcome.strong_edges as f64,
    );
    set.push(
        "locate_ips_static",
        "Statements in the final IPS",
        outcome.ips.static_size() as f64,
    );
    set.push(
        "locate_ips_dynamic",
        "Instances in the final IPS",
        outcome.ips.dynamic_size() as f64,
    );
    let vs = &outcome.stats;
    set.push(
        "verify_requests",
        "VerifyDep invocations",
        vs.verifications as f64,
    );
    set.push(
        "verify_cache_hits",
        "Verifications answered from cache",
        vs.cache_hits as f64,
    );
    set.push(
        "verify_reexecutions",
        "Switched re-executions",
        vs.reexecutions as f64,
    );
    set.push(
        "verify_resumed_runs",
        "Re-executions resumed from a checkpoint",
        vs.resumed_runs as f64,
    );
    set.push(
        "verify_steps_saved",
        "Interpreter steps skipped by resuming",
        vs.steps_saved as f64,
    );
    set.push(
        "verify_memo_hits",
        "Switched runs answered from the cross-iteration memo",
        vs.memo_hits as f64,
    );
    set.push(
        "verify_memo_evictions",
        "Memo entries evicted by the size-bounded LRU",
        vs.memo_evictions as f64,
    );
    set.push(
        "verify_checkpoint_bytes",
        "Peak bytes of memoized checkpoints (gauge)",
        vs.checkpoint_bytes as f64,
    );
    set.push(
        "verify_inline_captures",
        "Checkpoints captured en route by spine/resumed runs",
        vs.inline_captures as f64,
    );
    set.push(
        "verify_captures_skipped",
        "Checkpoint captures declined by the cost break-even",
        vs.captures_skipped as f64,
    );
    set.push(
        "verify_early_exit_cancelled",
        "Requests cancelled by batch-level early exit",
        vs.early_exit_cancelled as f64,
    );
    set.push(
        "verify_budget_retries",
        "Budget escalation retries",
        vs.budget_retries as f64,
    );
    set.push(
        "verify_crashed_runs",
        "Switched runs that crashed (isolated)",
        vs.crashed_runs as f64,
    );
    set.push(
        "verify_panics_isolated",
        "Interpreter panics contained",
        vs.panics_isolated as f64,
    );
    if let Some(report) = spans {
        set.push_spans(report);
    }
    set
}

/// The value flags `locate` and `corpus locate` share: localization
/// tuning, supervision, and observability (`--mode` is `locate`'s alone).
const LOCATE_FLAGS: [&str; 10] = [
    "jobs",
    "scheduler",
    "capture-threshold",
    "budget",
    "fault-plan",
    "chaos",
    "deadline",
    "obs-out",
    "profile-out",
    "metrics",
];

/// Everything both `locate` front ends take from their flags, parsed
/// before any pipeline work so a malformed value costs nothing.
struct LocateFlags {
    obs: ObsOpts,
    sup: Supervisor,
    lc: LocateConfig,
    stats: bool,
}

impl LocateFlags {
    fn parse(opts: &Opts) -> Result<LocateFlags, CliError> {
        let obs = ObsOpts::parse(opts)?;
        let sup = parse_supervisor(opts)?;
        let lc = LocateConfig {
            mode: parse_mode(opts.value("mode"))?,
            jobs: parse_jobs(opts)?,
            resume: if opts.has("no-resume") {
                ResumeMode::Disabled
            } else {
                ResumeMode::Auto
            },
            scheduler: parse_scheduler(opts.value("scheduler"))?,
            capture_threshold: parse_capture_threshold(opts)?,
            early_exit: opts.has("early-exit"),
            memo: Some(VerifyMemo::shared()),
            budget: parse_budget(opts.value("budget"))?,
            fault: parse_fault_plan(opts.value("fault-plan"))?,
            deadline: sup.deadline(),
            ..LocateConfig::default()
        };
        Ok(LocateFlags {
            obs,
            sup,
            lc,
            stats: opts.has("stats"),
        })
    }

    /// Runs one localization through the shared pipeline: builds the
    /// session under the recorder and the supervisor, locates, and emits
    /// the report, journal, profile, stats and metrics the flags ask for.
    /// `program` names the journal's subject; `build_error` phrases a
    /// failed build for the user.
    fn run(
        self,
        builder: DebugSessionBuilder,
        program: String,
        build_error: impl FnOnce(SessionError) -> String,
    ) -> Result<ExitCode, CliError> {
        let LocateFlags {
            obs,
            sup,
            lc,
            stats,
        } = self;
        obs.start_recorder();
        let session = builder.supervisor(sup).build().map_err(build_error)?;
        for warning in session.warnings() {
            Reporter::stderr().warn(warning);
        }
        let outcome = session.locate(&lc).map_err(|e| e.to_string())?;
        let recovery = take_recovery();
        let (spans, prof) = obs.stop_recorder();
        let prof_summary = prof.as_ref().map(|p| p.summarize());
        obs.write_profile(prof.as_ref(), spans.as_ref())?;
        if let Some(path) = &obs.obs_out {
            let records = build_journal(
                &JournalMeta { program },
                &lc,
                &outcome,
                session.trace(),
                Some(&recovery),
                prof_summary.as_ref(),
                spans.as_ref(),
            );
            let f =
                std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
            omislice_obs::write_jsonl(std::io::BufWriter::new(f), &records)
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        obs.emit_human(&session.report(&outcome, obs.explain));
        if stats {
            let mut rep = Reporter::stderr();
            rep.section("verification engine");
            rep.block(&outcome.stats.to_string());
            if !recovery.is_empty() {
                rep.section("recovery");
                rep.block(&render_recovery(&recovery));
            }
        }
        if obs.metrics.is_some() {
            obs.emit_metrics(&locate_metrics(session.trace(), &outcome, spans.as_ref()));
        }
        Ok(locate_exit(&outcome, &recovery))
    }
}

fn cmd_locate(args: Vec<String>) -> Result<ExitCode, CliError> {
    let value_flags = [
        &LOCATE_FLAGS[..],
        &["faulty", "fixed", "input", "trace-in", "profile", "mode"],
    ]
    .concat();
    let opts = Opts::parse(args, &value_flags)?;
    let flags = LocateFlags::parse(&opts)?;
    let faulty_path = opts
        .value("faulty")
        .ok_or_else(|| usage_err("locate needs --faulty"))?;
    let fixed_path = opts
        .value("fixed")
        .ok_or_else(|| usage_err("locate needs --fixed"))?;
    let inputs = parse_inputs(opts.value("input"))?;
    let profiles = match opts.value("profile") {
        Some(spec) => spec
            .split(';')
            .map(|part| parse_inputs(Some(part)))
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let faulty_src = read_source(faulty_path)?;
    let fixed_src = read_source(fixed_path)?;
    let mut builder = DebugSession::builder(&faulty_src)
        .reference(&fixed_src)
        .failing_input(inputs)
        .profile_inputs(profiles);
    if let Some(path) = opts.value("trace-in") {
        builder = builder.trace_file(path);
    }
    flags.run(builder, faulty_path.to_string(), |e| match e {
        SessionError::Faulty(e) => frontend_error(faulty_path, &faulty_src, &e),
        SessionError::Reference(e) => frontend_error(fixed_path, &fixed_src, &e),
        other => other.to_string(),
    })
}

/// Final exit for `locate`-style commands: an expired deadline means the
/// report above is partial, signalled by the dedicated exit code.
fn locate_exit(outcome: &LocateOutcome, recovery: &RecoveryLog) -> ExitCode {
    if !recovery.is_empty() {
        Reporter::stderr().warn(&format!(
            "pipeline recovered from {} fault(s): {}",
            recovery.total(),
            recovery.events().join(", ")
        ));
    }
    if outcome.deadline_expired {
        Reporter::stderr().warn("deadline expired: the report is partial");
        ExitCode::from(EXIT_DEADLINE)
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses `N` or `N:occ` into a statement id and occurrence index.
fn parse_stmt_spec(text: &str) -> Result<(omislice::omislice_lang::StmtId, usize), CliError> {
    let (id, occ) = match text.split_once(':') {
        Some((a, b)) => (
            a,
            b.parse()
                .map_err(|_| usage_err(format!("bad occurrence in `{text}`")))?,
        ),
        None => (text, 0),
    };
    let id: u32 = id
        .trim_start_matches('S')
        .parse()
        .map_err(|_| usage_err(format!("bad statement id in `{text}`")))?;
    Ok((omislice::omislice_lang::StmtId(id), occ))
}

fn cmd_verify(args: Vec<String>) -> Result<ExitCode, CliError> {
    use omislice::omislice_trace::Value;
    let opts = Opts::parse(args, &["input", "pred", "use", "var", "expected", "mode"])?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("verify needs a program file"))?;
    let program = load_program(path)?;
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(parse_inputs(opts.value("input"))?);
    let trace = run_traced(&program, &analysis, &config).trace;

    let (pred_stmt, pred_occ) = parse_stmt_spec(
        opts.value("pred")
            .ok_or_else(|| usage_err("verify needs --pred"))?,
    )?;
    let (use_stmt, use_occ) = parse_stmt_spec(
        opts.value("use")
            .ok_or_else(|| usage_err("verify needs --use"))?,
    )?;
    let p = trace
        .nth_instance(pred_stmt, pred_occ)
        .ok_or_else(|| format!("{pred_stmt} did not execute {} time(s)", pred_occ + 1))?;
    let u = trace
        .nth_instance(use_stmt, use_occ)
        .ok_or_else(|| format!("{use_stmt} did not execute {} time(s)", use_occ + 1))?;

    let use_info = analysis.index().stmt(use_stmt);
    let var = match opts.value("var") {
        Some(name) => analysis
            .index()
            .vars()
            .resolve(&use_info.func, name)
            .ok_or_else(|| format!("no variable `{name}` visible in `{}`", use_info.func))?,
        None => *use_info
            .uses
            .first()
            .ok_or_else(|| format!("{use_stmt} uses no variables; pass --var"))?,
    };
    let expected = parse_flag::<i64>(&opts, "expected", "an integer value")?.map(Value::Int);

    let mut verifier = omislice::Verifier::new(
        &program,
        &analysis,
        &config,
        &trace,
        parse_mode(opts.value("mode"))?,
    );
    let result = verifier.verify(p, u, var, u, expected);

    println!("predicate : {}", describe_inst(&trace, &analysis, p));
    println!("use       : {}", describe_inst(&trace, &analysis, u));
    println!("variable  : {}", analysis.index().vars().name(var));
    println!("verdict   : {:?}", result.verdict);
    println!("outcome   : {}", result.outcome);
    match result.matched_use {
        Some(m) => println!(
            "matched   : the use corresponds to t{} in the switched run",
            m.index()
        ),
        None => println!("matched   : the use has NO counterpart in the switched run"),
    }
    if let Some(v) = result.failure_value {
        println!("value at the matched failure point: {v}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_corpus(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &LOCATE_FLAGS)?;
    match opts.positional.first().map(String::as_str) {
        None | Some("list") => {
            for b in all_benchmarks() {
                println!(
                    "{} ({} LOC, {} procedures)",
                    b.name,
                    b.loc(),
                    b.procedures()
                );
                for f in &b.faults {
                    println!("  {:8} [{}] {}", f.id, f.kind, f.description);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("locate") => {
            let bench_name = opts
                .positional
                .get(1)
                .ok_or_else(|| usage_err("corpus locate needs a benchmark name"))?;
            let fault_id = opts
                .positional
                .get(2)
                .ok_or_else(|| usage_err("corpus locate needs a fault id"))?;
            let benchmarks = all_benchmarks();
            // Unknown names are usage errors: `corpus list` is the menu.
            let bench = benchmarks
                .iter()
                .find(|b| b.name == bench_name)
                .ok_or_else(|| usage_err(format!("no benchmark `{bench_name}`")))?;
            let fault = bench
                .fault(fault_id)
                .ok_or_else(|| usage_err(format!("no fault `{fault_id}` in `{bench_name}`")))?;
            LocateFlags::parse(&opts)?.run(
                bench.session_builder(fault),
                format!("{bench_name}:{fault_id}"),
                |e| e.to_string(),
            )
        }
        Some(other) => Err(usage_err(format!("unknown corpus subcommand `{other}`"))),
    }
}

/// `omislice serve --addr <host:port>`: runs the resident localization
/// service until killed. The bound address is printed (and flushed)
/// before blocking, so scripts binding port 0 can read the real port.
fn cmd_serve(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &["addr", "workers", "queue", "cache-mb"])?;
    let addr = opts
        .value("addr")
        .ok_or_else(|| usage_err("serve needs --addr <host:port>"))?;
    let mut config = omislice_serve::ServeConfig {
        addr: addr.to_string(),
        ..omislice_serve::ServeConfig::default()
    };
    if let Some(n) = parse_flag::<usize>(&opts, "workers", "a positive integer")? {
        if n == 0 {
            return Err(usage_err("bad --workers `0` (need a positive integer)"));
        }
        config.workers = n;
    }
    if let Some(n) = parse_flag::<usize>(&opts, "queue", "a positive integer")? {
        if n == 0 {
            return Err(usage_err("bad --queue `0` (need a positive integer)"));
        }
        config.queue = n;
    }
    if let Some(mb) = parse_flag::<usize>(&opts, "cache-mb", "a cache size in MiB")? {
        config.cache_bytes = mb.saturating_mul(1024 * 1024).max(1);
    }
    let workers = config.workers;
    let handle = omislice_serve::start(config)?;
    println!(
        "omislice serve listening on {} ({workers} workers)",
        handle.addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    Ok(ExitCode::SUCCESS)
}
