//! `omislice` — command-line debugger for execution omission errors.
//!
//! ```text
//! omislice run      <file> [--input 1,2,3]
//! omislice trace    <file> [--input 1,2,3] [--regions] [--dot] [--stats]
//!                   [--save <file.omitrace>] [--fault-plan <plan>] [--deadline <ms>]
//! omislice slice    <file> [--input 1,2,3] [--output N] [--relevant]
//! omislice cfg      <file> [--function main]
//! omislice locate   --faulty <file> --fixed <file> [--input 1,2,3]
//!                   [--trace-in <file.omitrace>]
//!                   [--profile 4,5;6,7] [--mode edge|path|value]
//!                   [--jobs N] [--no-resume] [--stats]
//!                   [--fault-plan <plan>] [--deadline <ms>]
//! omislice verify   <file> [--input 1,2,3] --pred N[:occ] --use N[:occ]
//!                   [--var name] [--expected v] [--mode edge|path|value]
//! omislice corpus   [list | locate <bench> <fault> [--jobs N] [--no-resume]
//!                   [--stats] [--fault-plan <plan>] [--deadline <ms>]]
//! ```
//!
//! `locate` and `corpus locate` are two front ends of one pipeline: both
//! parse the same localization flags into a `LocateFlags` and hand a
//! `DebugSessionBuilder` to `LocateFlags::run`, which builds, locates,
//! and renders through `DebugSession`. Every command declares the flags
//! it reads; any other `--name` is a usage error (exit 2).
//! `--no-resume` runs every switched execution from scratch, without
//! checkpoints: the report is byte-identical, only slower.
//!
//! `--fault-plan` is the one fault-injection knob: an
//! `omislice_trace::FaultPlan` whose pipeline entries the command's
//! `Supervisor` fires and whose `S<id>` statement entry the verifier's
//! switched runs carry (so `trace`, which has none, rejects one).

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{
    parse_inputs, parse_profiles, run_plain, run_traced, ResumeMode, RunConfig,
};
use omislice::omislice_lang::{compile, FrontendError, Program};
use omislice::omislice_slicing::{relevant_slice, DepGraph};
use omislice::omislice_trace::{take_recovery, FaultPlan, RecoveryLog, Supervisor, TraceStats};
use omislice::{
    default_jobs, describe_inst, render_slice, DebugSession, DebugSessionBuilder, JournalMeta,
    LocateConfig, LocateOutcome, SessionError, VerifierMode, VerifyMemo, MAX_JOBS,
};
use omislice_corpus::all_benchmarks;
use omislice_obs::{MetricSet, Recording, Reporter};
use std::io::Write as _;
use std::process::ExitCode;

/// Writes command output to stdout, the one writer every command's
/// output goes through. A reader that has gone away (`omislice … | head`)
/// ends the process quietly with status 0, since nothing more can reach
/// it; any other write failure ends it with status 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        let _ = writeln!(std::io::stderr(), "omislice: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

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
                   [--save <file.omitrace>] [--fault-plan <plan>] [--deadline <ms>]
                   [--profile-out <file.json>]
  omislice slice   <file> [--input 1,2,3] [--output N] [--relevant]
  omislice cfg     <file> [--function main]
  omislice locate  --faulty <file> --fixed <file> [--input 1,2,3]
                   [--trace-in <file.omitrace>]
                   [--profile 4,5;6,7] [--mode edge|path|value]
                   [--jobs N] [--no-resume] [--stats]
                   [--fault-plan <plan>] [--deadline <ms>]
                   [--obs-out <file.jsonl>] [--explain] [--metrics text|json]
                   [--profile-out <file.json>]
  omislice verify  <file> [--input 1,2,3] --pred N[:occ] --use N[:occ]
                   [--var name] [--expected v] [--mode edge|path|value]
  omislice corpus  [list | locate <bench> <fault> [--jobs N] [--no-resume]
                   [--stats] [--fault-plan <plan>] [--deadline <ms>]
                   [--obs-out <file.jsonl>] [--explain] [--metrics text|json]
                   [--profile-out <file.json>]]
  omislice serve   --addr <host:port> [--workers N] [--queue N]
                   [--cache-mb N]

a fault plan is a comma-separated list of <site>[:occ]=<action> entries;
each fires once, at the site's occ-th occurrence (default 0), and the
pipeline must recover, not abort:
  S<id>     oob, missing-callee, div-zero, type, stack-overflow, uninit,
            budget, panic, panic-harness, corrupt-checkpoint
            (statement S<id> in switched runs; locate only, one per plan)
  encode    corrupt          decode    corrupt        mmap   fail
  save      short-write, enospc        deadline  expire (one per plan)
  handler   panic (served requests only)
--jobs sets a localization's verify workers: 1 to 256, defaulting to
the host's available parallelism (one worker per core). --deadline <ms>
cancels the run cooperatively; exit code 3 marks the partial report.
Malformed invocations, unknown flags included, exit with code 2.";

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
    /// Splits `args` by the command's declared flags: `value_flags` take
    /// the next argument, `bool_flags` stand alone, and any other
    /// `--name` is a usage error — a retired or misspelled flag fails
    /// loudly instead of being ignored.
    fn parse(
        args: Vec<String>,
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Opts, CliError> {
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
                } else if bool_flags.contains(&name) {
                    flags.push((name.to_string(), None));
                } else {
                    return Err(usage_err(format!("unknown flag `--{name}`")));
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

/// `--input 1,2,3`, in the input-stream grammar serve shares.
fn input_flag(opts: &Opts) -> Result<Vec<i64>, CliError> {
    opts.value("input")
        .map_or(Ok(Vec::new()), |t| parse_inputs(t).map_err(usage_err))
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
    let opts = Opts::parse(args, &["input"], &[])?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("run needs a program file"))?;
    let program = load_program(path)?;
    let config = RunConfig::with_inputs(input_flag(&opts)?);
    let result = run_plain(&program, &config);
    for v in &result.outputs {
        outln!("{v}");
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
    let opts = Opts::parse(
        args,
        &["input", "save", "fault-plan", "deadline", "profile-out"],
        &["regions", "dot", "stats"],
    )?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("trace needs a program file"))?;
    let obs = ObsOpts::parse(&opts)?;
    let sup = parse_supervisor(&opts)?;
    if sup.stmt_fault().is_some() {
        return Err(usage_err(format!(
            "bad --fault-plan `{}` for trace: S<id> entries fire in switched runs, and trace has none",
            opts.value("fault-plan").unwrap_or_default()
        )));
    }
    obs.start_recorder();
    let program = load_program(path)?;
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(input_flag(&opts)?);
    let run = sup.run(|| run_traced(&program, &analysis, &config));
    // The traced run is this command's whole pipeline: close the profile
    // before any output.
    obs.write_profile(obs.stop_recorder().as_ref())?;
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
    } else if opts.has("stats") {
        let mut rep = Reporter::stderr();
        rep.section("trace statistics");
        rep.block(&TraceStats::compute(trace).to_string());
    } else if opts.has("regions") && opts.has("dot") {
        out!(
            "{}",
            omislice::omislice_trace::regions_to_dot(trace, analysis.index())
        );
    } else if opts.has("regions") {
        outln!("{}", trace.regions().render_all());
    } else if opts.has("dot") {
        out!(
            "{}",
            omislice::omislice_trace::ddg_to_dot(trace, analysis.index())
        );
    } else {
        for inst in trace.insts() {
            outln!("{}", describe_inst(trace, &analysis, inst));
        }
        outln!(
            "-- {} instances, termination {:?}",
            trace.len(),
            trace.termination()
        );
        if run.input_underflows > 0 {
            outln!(
                "-- {} input() call(s) ran past the end of the input stream (yielded 0)",
                run.input_underflows
            );
        }
    }
    Ok(supervised_exit(
        &take_recovery(),
        sup.deadline_expired(),
        "trace",
    ))
}

/// Final exit for a supervised command: warns about the recoveries the
/// pipeline absorbed, and maps an expired deadline to the partial-result
/// code. `what` names the partial artifact.
fn supervised_exit(recovery: &RecoveryLog, deadline_expired: bool, what: &str) -> ExitCode {
    let mut rep = Reporter::stderr();
    if !recovery.is_empty() {
        rep.warn(&format!(
            "pipeline recovered from {} fault(s): {}",
            recovery.total(),
            recovery.events().join(", ")
        ));
    }
    if deadline_expired {
        rep.warn(&format!("deadline expired: the {what} is partial"));
        ExitCode::from(EXIT_DEADLINE)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_slice(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &["input", "output"], &["relevant"])?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("slice needs a program file"))?;
    let program = load_program(path)?;
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(input_flag(&opts)?);
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
    // Only a relevant slice queries the trace index; a backward slice
    // and its rendering read the columns alone.
    let slice = if opts.has("relevant") {
        relevant_slice(trace, &analysis, criterion)
    } else {
        DepGraph::new(trace).backward_slice(criterion)
    };
    out!("{}", render_slice(trace, &analysis, &slice));
    Ok(ExitCode::SUCCESS)
}

fn cmd_cfg(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &["function"], &[])?;
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
    out!("{}", cfg.to_dot(|s| index.stmt(s).head.clone()));
    Ok(ExitCode::SUCCESS)
}

/// `--mode edge|path|value`, parsed by [`VerifierMode::parse`].
fn mode_flag(opts: &Opts) -> Result<VerifierMode, CliError> {
    opts.value("mode").map_or(Ok(VerifierMode::Edge), |t| {
        VerifierMode::parse(t).map_err(|e| usage_err(e.replacen("mode", "--mode", 1)))
    })
}

/// Parses `--jobs N`, the verify workers: `1..=MAX_JOBS` like a served
/// request's `jobs`, defaulting to [`default_jobs`] (one per core).
fn parse_jobs(opts: &Opts) -> Result<usize, CliError> {
    let what = format!("an integer from 1 to {MAX_JOBS}");
    match parse_flag::<usize>(opts, "jobs", &what)? {
        None => Ok(default_jobs()),
        Some(n) if (1..=MAX_JOBS).contains(&n) => Ok(n),
        Some(n) => Err(usage_err(format!("bad --jobs `{n}` (need {what})"))),
    }
}

/// Builds the supervisor for one command from `--fault-plan` (parsed by
/// [`FaultPlan::parse`]) and `--deadline`.
fn parse_supervisor(opts: &Opts) -> Result<Supervisor, CliError> {
    let plan = opts
        .value("fault-plan")
        .map(|t| FaultPlan::parse(t).map_err(usage_err))
        .transpose()?;
    let mut sup = Supervisor::new().with_fault_plan(plan);
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

    /// Whether the recorder runs at all: any one of the three outputs
    /// needs it, and all of them read the same recording.
    fn recording(&self) -> bool {
        self.obs_out.is_some() || self.metrics.is_some() || self.profile_out.is_some()
    }

    /// Turns the recorder on (before the pipeline starts, so parse and
    /// analyze spans are captured too).
    fn start_recorder(&self) {
        if self.recording() {
            omislice_obs::reset();
            omislice_obs::set_enabled(true);
        }
    }

    /// Turns the recorder off and collects what it saw.
    fn stop_recorder(&self) -> Option<Recording> {
        self.recording().then(|| {
            omislice_obs::set_enabled(false);
            omislice_obs::drain()
        })
    }

    /// Writes the Chrome-trace JSON and collapsed-stack flamegraph, and
    /// narrates the aggregate scheduler report on stderr.
    fn write_profile(&self, rec: Option<&Recording>) -> Result<(), String> {
        let (Some(path), Some(rec)) = (&self.profile_out, rec) else {
            return Ok(());
        };
        let doc = omislice_obs::profile::chrome_trace(rec);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        let folded = format!("{path}.folded");
        std::fs::write(&folded, omislice_obs::profile::flamegraph(rec))
            .map_err(|e| format!("cannot write `{folded}`: {e}"))?;
        let mut rep = Reporter::stderr();
        rep.section("timeline profile");
        rep.block(&omislice_obs::profile::render_profile(rec));
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
            out!("{text}");
        }
    }

    /// Prints the metric set to stdout in the requested format.
    fn emit_metrics(&self, set: &MetricSet) {
        match self.metrics {
            Some(MetricsFormat::Text) => out!("{}", set.to_prometheus()),
            Some(MetricsFormat::Json) => outln!("{}", set.to_json()),
            None => {}
        }
    }
}

/// Folds trace, oracle, locate and verification counters, plus span
/// aggregates when the recorder ran, into one set; `jobs` counts the
/// verify workers. `trace_instances` and `trace_outputs` count the whole
/// failing run; the other `trace_*` gauges are computed over its trace
/// through `o×`, the view Algorithm 2 reads, whether recorded or loaded.
fn locate_metrics(
    session: &DebugSession,
    outcome: &LocateOutcome,
    jobs: usize,
    rec: Option<&Recording>,
) -> MetricSet {
    let mut set = MetricSet::new();
    let ts = TraceStats::compute(session.trace());
    set.push(
        "trace_instances",
        "Instances the failing run executed",
        session.run_instances() as f64,
    );
    set.push(
        "trace_view_instances",
        "Instances through the first wrong output",
        session.trace().len() as f64,
    );
    set.push(
        "trace_unique_stmts",
        "Distinct statements executed through the first wrong output",
        ts.unique_stmts as f64,
    );
    set.push(
        "trace_predicate_instances",
        "Predicate instances through the first wrong output",
        ts.predicate_instances as f64,
    );
    set.push(
        "trace_data_edges",
        "Dynamic data-dependence edges through the first wrong output",
        ts.data_edges as f64,
    );
    set.push(
        "trace_control_edges",
        "Dynamic control-dependence edges through the first wrong output",
        ts.control_edges as f64,
    );
    set.push(
        "trace_outputs",
        "Outputs the failing run printed",
        session.run_outputs().len() as f64,
    );
    set.push(
        "reference_kept_values",
        "Reference-run values the oracle keeps",
        session.oracle().kept_values() as f64,
    );
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
        "locate_jobs",
        "Verify workers the localization used",
        jobs as f64,
    );
    set.push(
        "locate_user_prunings",
        "Benign judgements requested from the user",
        outcome.user_prunings as f64,
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
        "verify_resume_refused",
        "Planned donor checkpoints refused as expected shapes (run from scratch)",
        vs.resume_refused as f64,
    );
    set.push(
        "verify_tail_handoffs",
        "Re-executions that ran their unrecorded rest on the tail sink",
        vs.tail_handoffs as f64,
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
        "verify_crashed_runs",
        "Switched runs that crashed (isolated)",
        vs.crashed_runs as f64,
    );
    set.push(
        "verify_panics_isolated",
        "Interpreter panics contained",
        vs.panics_isolated as f64,
    );
    if let Some(rec) = rec {
        set.push_spans(rec);
    }
    set
}

/// The value flags `locate` and `corpus locate` share: localization
/// tuning, supervision, and observability (`--mode` is `locate`'s alone).
const LOCATE_FLAGS: [&str; 6] = [
    "jobs",
    "fault-plan",
    "deadline",
    "obs-out",
    "profile-out",
    "metrics",
];

/// The boolean flags `locate` and `corpus locate` share.
const LOCATE_SWITCHES: [&str; 3] = ["no-resume", "stats", "explain"];

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
            mode: mode_flag(opts)?,
            jobs: parse_jobs(opts)?,
            resume: if opts.has("no-resume") {
                ResumeMode::Disabled
            } else {
                ResumeMode::Auto
            },
            memo: Some(VerifyMemo::shared()),
            fault: sup.stmt_fault(),
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
        let rec = obs.stop_recorder();
        obs.write_profile(rec.as_ref())?;
        if let Some(path) = &obs.obs_out {
            // The scheduler summary joins the journal of a profiled run.
            let summary = rec
                .as_ref()
                .filter(|_| obs.profile_out.is_some())
                .map(Recording::summarize);
            let records = session.journal(
                &JournalMeta { program },
                &lc,
                &outcome,
                Some(&recovery),
                summary.as_ref(),
                rec.as_ref(),
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
            obs.emit_metrics(&locate_metrics(&session, &outcome, lc.jobs, rec.as_ref()));
        }
        Ok(supervised_exit(
            &recovery,
            outcome.deadline_expired,
            "report",
        ))
    }
}

fn cmd_locate(args: Vec<String>) -> Result<ExitCode, CliError> {
    let value_flags = [
        &LOCATE_FLAGS[..],
        &["faulty", "fixed", "input", "trace-in", "profile", "mode"],
    ]
    .concat();
    let opts = Opts::parse(args, &value_flags, &LOCATE_SWITCHES)?;
    let flags = LocateFlags::parse(&opts)?;
    let faulty_path = opts
        .value("faulty")
        .ok_or_else(|| usage_err("locate needs --faulty"))?;
    let fixed_path = opts
        .value("fixed")
        .ok_or_else(|| usage_err("locate needs --fixed"))?;
    let inputs = input_flag(&opts)?;
    let profiles = opts
        .value("profile")
        .map_or(Ok(Vec::new()), |t| parse_profiles(t).map_err(usage_err))?;
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
    let opts = Opts::parse(
        args,
        &["input", "pred", "use", "var", "expected", "mode"],
        &[],
    )?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| usage_err("verify needs a program file"))?;
    let program = load_program(path)?;
    let analysis = ProgramAnalysis::build(&program);
    let config = RunConfig::with_inputs(input_flag(&opts)?);
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
    if !trace.event(p).is_predicate() {
        return Err(format!("{pred_stmt} is not an `if` or `while` predicate").into());
    }
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

    let mut verifier =
        omislice::Verifier::new(&program, &analysis, &config, &trace, mode_flag(&opts)?);
    let result = verifier.verify(p, u, var, u, expected);

    outln!("predicate : {}", describe_inst(&trace, &analysis, p));
    outln!("use       : {}", describe_inst(&trace, &analysis, u));
    outln!("variable  : {}", analysis.index().vars().name(var));
    outln!("verdict   : {:?}", result.verdict);
    outln!("outcome   : {}", result.outcome);
    match result.matched_use {
        Some(m) => outln!(
            "matched   : the use corresponds to t{} in the switched run",
            m.index()
        ),
        None => outln!("matched   : the use has NO counterpart in the switched run"),
    }
    if let Some(v) = result.failure_value {
        outln!("value at the matched failure point: {v}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_corpus(args: Vec<String>) -> Result<ExitCode, CliError> {
    let opts = Opts::parse(args, &LOCATE_FLAGS, &LOCATE_SWITCHES)?;
    match opts.positional.first().map(String::as_str) {
        None | Some("list") => {
            for b in all_benchmarks() {
                outln!(
                    "{} ({} LOC, {} procedures)",
                    b.name,
                    b.loc(),
                    b.procedures()
                );
                for f in &b.faults {
                    outln!("  {:8} [{}] {}", f.id, f.kind, f.description);
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
    let opts = Opts::parse(args, &["addr", "workers", "queue", "cache-mb"], &[])?;
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
    outln!(
        "omislice serve listening on {} ({workers} workers)",
        handle.addr()
    );
    let _ = std::io::stdout().flush();
    handle.join();
    Ok(ExitCode::SUCCESS)
}
