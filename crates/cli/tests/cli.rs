//! End-to-end tests of the `omislice` binary: every subcommand, driven
//! through the real executable.

use std::io::Write as _;
use std::process::Command;

fn omislice(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_omislice"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("omislice-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.omi", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

const FIXED: &str = "global flags = 0;\n\
    fn main() { let save = input(); flags = 1;\n\
                if save == 1 { flags = 2; } print(flags); }\n";
const FAULTY: &str = "global flags = 0;\n\
    fn main() { let save = input() - 1; flags = 1;\n\
                if save == 1 { flags = 2; } print(flags); }\n";

#[test]
fn run_prints_outputs() {
    let path = write_temp("run", FIXED);
    let out = omislice(&["run", path.to_str().unwrap(), "--input", "1"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "2");
}

#[test]
fn run_reports_runtime_errors() {
    let path = write_temp("runerr", "fn main() { print(1 / 0); }");
    let out = omislice(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("division by zero"));
}

#[test]
fn trace_lists_instances() {
    let path = write_temp("trace", FIXED);
    let out = omislice(&["trace", path.to_str().unwrap(), "--input", "1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("let save = input();"));
    assert!(text.contains("termination Normal"));
}

#[test]
fn trace_regions_renders_bracket_notation() {
    let path = write_temp("regions", FIXED);
    let out = omislice(&["trace", path.to_str().unwrap(), "--input", "1", "--regions"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[2,3]"), "guarded region rendered: {text}");
}

#[test]
fn trace_dot_emits_graphviz() {
    let path = write_temp("dot", FIXED);
    let out = omislice(&["trace", path.to_str().unwrap(), "--input", "1", "--dot"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph ddg {"));
    assert!(text.contains("style=dashed"));
}

#[test]
fn slice_dynamic_and_relevant() {
    let path = write_temp("slice", FAULTY);
    let ds = omislice(&["slice", path.to_str().unwrap(), "--input", "1"]);
    assert!(ds.status.success());
    let ds_text = String::from_utf8_lossy(&ds.stdout);
    assert!(
        !ds_text.contains("if (save == 1)"),
        "DS misses the guard:\n{ds_text}"
    );
    let rs = omislice(&[
        "slice",
        path.to_str().unwrap(),
        "--input",
        "1",
        "--relevant",
    ]);
    let rs_text = String::from_utf8_lossy(&rs.stdout);
    assert!(
        rs_text.contains("if (save == 1)"),
        "RS captures the guard:\n{rs_text}"
    );
}

#[test]
fn locate_finds_the_seeded_root() {
    let fixed = write_temp("fixed", FIXED);
    let faulty = write_temp("faulty", FAULTY);
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
        "--profile",
        "0;2;5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("root cause captured : yes"), "{text}");
    assert!(text.contains("let save = (input() - 1);"));
}

#[test]
fn corpus_list_shows_all_faults() {
    let out = omislice(&["corpus", "list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["flex", "grep", "gzip", "sed", "V1-F9", "V2-F3", "V3-F2"] {
        assert!(text.contains(needle), "missing {needle}:\n{text}");
    }
}

/// `omislice corpus list | head -1`: once the reader has gone, a write
/// fails with a broken pipe, which must end the process quietly with
/// status 0, never with a panic (exit 101). Twice: the pipe closed after
/// the first line is read, as `head -1` closes it (the process may have
/// written every line by then), and closed before anything is written,
/// which always breaks the first write.
#[test]
fn a_closed_stdout_ends_the_process_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let check = |out: std::process::Output, when: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{when}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{when}: {stderr}");
        assert!(out.status.success(), "{when}: {:?} {stderr}", out.status);
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_omislice"))
        .args(["corpus", "list"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .expect("the first line arrives");
    assert!(first.starts_with("flex"), "{first}");
    check(
        child.wait_with_output().expect("binary exits"),
        "after one line",
    );

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_omislice"))
        .args(["corpus", "list"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    check(out, "before any line");
}

#[test]
fn corpus_locate_runs_a_session() {
    let out = omislice(&["corpus", "locate", "sed", "V3-F2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("root cause captured : yes"));
    assert!(text.contains("iterations          : 2"), "{text}");
}

#[test]
fn cfg_emits_graphviz() {
    let path = write_temp("cfg", FIXED);
    let out = omislice(&["cfg", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph cfg_main {"), "{text}");
    assert!(text.contains("ENTRY") && text.contains("EXIT"));
    let missing = omislice(&["cfg", path.to_str().unwrap(), "--function", "ghost"]);
    assert!(!missing.status.success());
}

#[test]
fn trace_stats_summarizes() {
    let path = write_temp("stats", FIXED);
    let out = omislice(&["trace", path.to_str().unwrap(), "--input", "1", "--stats"]);
    assert!(out.status.success());
    // Stats are human diagnostics: they go to stderr, stdout stays
    // machine-clean.
    assert!(out.stdout.is_empty(), "stdout should stay machine-clean");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("instances        : 5"), "{text}");
    assert!(text.contains("outputs          : 1"));
}

#[test]
fn verify_reports_the_implicit_dependence() {
    let path = write_temp("verify", FAULTY);
    // Predicate S2 (the guard), use S4 (print(flags)), expecting 2.
    let out = omislice(&[
        "verify",
        path.to_str().unwrap(),
        "--input",
        "1",
        "--pred",
        "2",
        "--use",
        "4",
        "--var",
        "flags",
        "--expected",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict   : StrongId"), "{text}");
    // Without the expected value the dependence is still observed.
    let out = omislice(&[
        "verify",
        path.to_str().unwrap(),
        "--input",
        "1",
        "--pred",
        "2",
        "--use",
        "4",
        "--var",
        "flags",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict   : Id"), "{text}");
}

#[test]
fn bad_usage_fails_with_help() {
    for args in [
        &["frobnicate"] as &[&str],
        &["locate"],
        &["corpus", "locate", "nope", "X"],
    ] {
        let out = omislice(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn run_warns_on_input_underflow() {
    let path = write_temp("underflow", FIXED);
    // No --input: the single input() call underflows and yields 0.
    let out = omislice(&["run", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("ran past the end of the input stream"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn verify_reports_the_run_outcome() {
    let path = write_temp("verify-outcome", FAULTY);
    let out = omislice(&[
        "verify",
        path.to_str().unwrap(),
        "--input",
        "1",
        "--pred",
        "2",
        "--use",
        "4",
        "--var",
        "flags",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("outcome   : completed"), "{text}");
}

#[test]
fn verify_rejects_a_pred_that_names_no_predicate() {
    let path = write_temp("verify-nonpred", FAULTY);
    // S0 is `let save = input() - 1;`: nothing there to switch.
    let out = omislice(&[
        "verify",
        path.to_str().unwrap(),
        "--input",
        "5",
        "--pred",
        "0",
        "--use",
        "4",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "pipeline failure:\n{stderr}");
    assert!(
        stderr.contains("S0 is not an `if` or `while` predicate"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic output:\n{stderr}");
}

#[test]
fn locate_survives_fault_injection_and_reports_isolation() {
    let fixed = write_temp("fixed3", FIXED);
    let faulty = write_temp("faulty3", FAULTY);
    // S3 (`flags = 2`) only executes in switched runs; a panic planted
    // there must be isolated — the locator degrades instead of crashing.
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
        "--fault-plan",
        "S3:0=panic",
        "--stats",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("panics isolated"), "{text}");
    let bad = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--fault-plan",
        "bogus",
    ]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("bad fault plan"));
}

#[test]
fn corpus_locate_accepts_budget_and_fault_plan() {
    let out = omislice(&[
        "corpus",
        "locate",
        "sed",
        "V3-F2",
        "--fault-plan",
        "S0:0=corrupt-checkpoint",
        "--stats",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("run outcomes"), "{text}");
    assert!(text.contains("fault isolation"), "{text}");
}

#[test]
fn locate_writes_journal_and_explains() {
    let fixed = write_temp("fixed4", FIXED);
    let faulty = write_temp("faulty4", FAULTY);
    let journal = std::env::temp_dir()
        .join("omislice-cli-tests")
        .join(format!("journal-{}.jsonl", std::process::id()));
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
        "--obs-out",
        journal.to_str().unwrap(),
        "--explain",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("slice provenance"), "{text}");
    assert!(text.contains("the wrong output o*"), "{text}");
    let jsonl = std::fs::read_to_string(&journal).expect("journal written");
    assert!(jsonl.contains("\"type\":\"header\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"iteration\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"summary\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"spans\""), "{jsonl}");
}

#[test]
fn locate_metrics_own_stdout() {
    let fixed = write_temp("fixed5", FIXED);
    let faulty = write_temp("faulty5", FAULTY);
    let base: Vec<&str> = vec![
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
    ];
    let mut text_args = base.clone();
    text_args.extend(["--metrics", "text"]);
    let out = omislice(&text_args);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("# TYPE omislice_locate_found gauge"),
        "{stdout}"
    );
    assert!(stdout.contains("omislice_locate_found 1"), "{stdout}");
    assert!(stdout.contains("omislice_span_verify_count"), "{stdout}");
    // The human report moved to stderr so stdout is pure metrics.
    assert!(!stdout.contains("root cause captured"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("root cause captured : yes"), "{stderr}");

    let mut json_args = base;
    json_args.extend(["--metrics", "json"]);
    let out = omislice(&json_args);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"locate_found\":1"), "{stdout}");
    // One `confidence-prune` span per PruneSlicing round: the round
    // before the first iteration and one after each.
    let doc = omislice_obs::json::parse(&stdout).expect("metrics parse");
    let metric = |name: &str| doc.get(name).and_then(omislice_obs::Json::as_int);
    assert!(metric("locate_user_prunings").is_some(), "{stdout}");
    assert_eq!(
        metric("span_confidence_prune_count"),
        metric("locate_iterations").map(|i| i + 1),
        "{stdout}"
    );

    let bad = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--metrics",
        "xml",
    ]);
    assert!(!bad.status.success());
}

#[test]
fn locate_combines_explain_obs_out_and_json_metrics() {
    let fixed = write_temp("fixed6", FIXED);
    let faulty = write_temp("faulty6", FAULTY);
    let journal = std::env::temp_dir()
        .join("omislice-cli-tests")
        .join(format!("combined-journal-{}.jsonl", std::process::id()));
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
        "--explain",
        "--obs-out",
        journal.to_str().unwrap(),
        "--metrics",
        "json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Metrics own stdout: one JSON object, nothing else.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"locate_found\":1"), "{stdout}");
    assert_eq!(
        stdout.trim().lines().count(),
        1,
        "stdout must be exactly the metrics object:\n{stdout}"
    );
    assert!(!stdout.contains("root cause captured"), "{stdout}");
    assert!(!stdout.contains("slice provenance"), "{stdout}");

    // All human output — the report AND the explain rendering — moved
    // to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("root cause captured : yes"), "{stderr}");
    assert!(stderr.contains("slice provenance"), "{stderr}");
    assert!(stderr.contains("the wrong output o*"), "{stderr}");

    // The journal still lands on disk, valid and complete.
    let jsonl = std::fs::read_to_string(&journal).expect("journal written");
    for record in ["header", "iteration", "summary", "spans"] {
        assert!(
            jsonl.contains(&format!("\"type\":\"{record}\"")),
            "missing {record} record:\n{jsonl}"
        );
    }
}

#[test]
fn corpus_locate_supports_obs_flags() {
    let journal = std::env::temp_dir()
        .join("omislice-cli-tests")
        .join(format!("corpus-journal-{}.jsonl", std::process::id()));
    let out = omislice(&[
        "corpus",
        "locate",
        "sed",
        "V3-F2",
        "--obs-out",
        journal.to_str().unwrap(),
        "--explain",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("slice provenance"), "{text}");
    let jsonl = std::fs::read_to_string(&journal).expect("journal written");
    assert!(jsonl.contains("\"program\":\"sed:V3-F2\""), "{jsonl}");
}

/// A localization indexes one trace — the failing run, which relevant
/// slicing queries — and traces only it and the switched runs: three
/// recordings on sed V3-F2, whose two switched runs build no index. The
/// oracle's reference run and the profile runs are value runs.
#[test]
fn corpus_locate_indexes_only_the_failing_trace() {
    let out = omislice(&["corpus", "locate", "sed", "V3-F2", "--metrics", "text"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let metric = |name: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
    };
    assert_eq!(metric("omislice_span_index_count"), Some("1"), "{stdout}");
    assert_eq!(metric("omislice_span_trace_count"), Some("3"), "{stdout}");
}

/// The `--metrics json` object of a finished run, parsed from stdout.
fn metrics_of(out: &std::process::Output) -> omislice_obs::Json {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    omislice_obs::json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("metrics parse")
}

/// The key set of a metrics object. Only the set is stable: a counter
/// that fired (say, a memo gauge) is listed before the zero-filled
/// ones.
fn metric_keys(metrics: &omislice_obs::Json) -> std::collections::BTreeSet<String> {
    let omislice_obs::Json::Object(pairs) = metrics else {
        panic!("metrics are one JSON object");
    };
    pairs.iter().map(|(k, _)| k.clone()).collect()
}

/// Without `--jobs`, a localization runs one verify worker per available
/// core and says so in its metrics; the report and every `--stats`
/// counter equal those of `--jobs 1`.
#[test]
fn jobs_default_to_the_hosts_parallelism() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as i64;
    let default = omislice(&["corpus", "locate", "sed", "V3-F3", "--metrics", "json"]);
    let metrics = metrics_of(&default);
    assert_eq!(
        metrics
            .get("locate_jobs")
            .and_then(omislice_obs::Json::as_int),
        Some(cores.min(256))
    );
    let one = omislice(&[
        "corpus",
        "locate",
        "sed",
        "V3-F3",
        "--metrics",
        "json",
        "--jobs",
        "1",
    ]);
    assert_eq!(
        metrics_of(&one)
            .get("locate_jobs")
            .and_then(omislice_obs::Json::as_int),
        Some(1)
    );
    // Without `--metrics` the report owns stdout and `--stats` goes to
    // stderr; only the `wall:` line may differ.
    let report = |jobs: &[&str]| {
        let out = omislice(&[&["corpus", "locate", "sed", "V3-F3", "--stats"], jobs].concat());
        assert!(out.status.success());
        let stats: String = String::from_utf8_lossy(&out.stderr)
            .lines()
            .filter(|l| !l.trim_start().starts_with("wall:"))
            .map(|l| format!("{l}\n"))
            .collect();
        (String::from_utf8_lossy(&out.stdout).into_owned(), stats)
    };
    let (default_report, default_stats) = report(&[]);
    assert!(default_stats.contains("re-executions"), "{default_stats}");
    assert_eq!((default_report, default_stats), report(&["--jobs", "1"]));
}

/// `--profile-out`, `--obs-out` and `--metrics` read one recording: each
/// verification candidate is one slice in the Chrome trace, one span in
/// the metrics, and one re-execution; and adding `--profile-out` to a run
/// changes neither its metric keys nor its normalized journal.
#[test]
fn profile_out_records_each_candidate_once() {
    let dir = std::env::temp_dir().join("omislice-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pid = std::process::id();
    let prof = dir.join(format!("once-{pid}.json"));
    let journal = dir.join(format!("once-{pid}.jsonl"));
    let plain_journal = dir.join(format!("once-plain-{pid}.jsonl"));
    let base = ["corpus", "locate", "sed", "V3-F3", "--jobs", "2"];
    let profiled = metrics_of(&omislice(
        &[
            &base[..],
            &[
                "--profile-out",
                prof.to_str().unwrap(),
                "--obs-out",
                journal.to_str().unwrap(),
                "--metrics",
                "json",
            ],
        ]
        .concat(),
    ));
    let plain = metrics_of(&omislice(
        &[
            &base[..],
            &[
                "--obs-out",
                plain_journal.to_str().unwrap(),
                "--metrics",
                "json",
            ],
        ]
        .concat(),
    ));

    let doc = omislice_obs::json::parse(&std::fs::read_to_string(&prof).expect("profile written"))
        .expect("profile parses");
    omislice_obs::profile::check_chrome_trace(&doc).expect("well-formed Chrome trace");
    let events = doc
        .get("traceEvents")
        .and_then(omislice_obs::Json::as_array);
    let candidate_slices = events
        .expect("traceEvents array")
        .iter()
        .filter(|e| {
            e.get("ph").and_then(omislice_obs::Json::as_str) == Some("X")
                && e.get("name").and_then(omislice_obs::Json::as_str) == Some("verify.candidate")
        })
        .count() as i64;
    let metric = |name: &str| profiled.get(name).and_then(omislice_obs::Json::as_int);
    assert!(candidate_slices > 0);
    assert_eq!(
        Some(candidate_slices),
        metric("span_verify_candidate_count")
    );
    assert_eq!(Some(candidate_slices), metric("verify_reexecutions"));
    assert_eq!(metric("counter_profile_drops"), Some(0));

    let folded =
        std::fs::read_to_string(format!("{}.folded", prof.display())).expect("flamegraph written");
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("omislice;verify;verify.candidate ")),
        "{folded}"
    );

    assert_eq!(metric_keys(&profiled), metric_keys(&plain));
    let stripped = |path: &std::path::Path| {
        omislice_obs::strip_timing(&std::fs::read_to_string(path).expect("journal written"))
            .expect("journal strips")
    };
    assert_eq!(stripped(&journal), stripped(&plain_journal));
}

/// `trace --profile-out` records the traced run alone: a valid Chrome
/// trace with its `trace` span and the zero-filled byte-gauge tracks,
/// and a flamegraph rooted at it.
#[test]
fn trace_profile_out_writes_a_valid_profile() {
    let faulty = write_temp("faulty-prof", FAULTY);
    let prof = std::env::temp_dir()
        .join("omislice-cli-tests")
        .join(format!("trace-prof-{}.json", std::process::id()));
    let out = omislice(&[
        "trace",
        faulty.to_str().unwrap(),
        "--input",
        "1",
        "--profile-out",
        prof.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("timeline profile"));
    let doc = omislice_obs::json::parse(&std::fs::read_to_string(&prof).expect("profile written"))
        .expect("profile parses");
    let check = omislice_obs::profile::check_chrome_trace(&doc).expect("well-formed Chrome trace");
    assert!(check.slices >= 1, "the trace span is a slice");
    for gauge in omislice_obs::profile::GAUGES {
        assert!(check.counter_tracks.iter().any(|t| t == gauge), "{gauge}");
    }
    let folded =
        std::fs::read_to_string(format!("{}.folded", prof.display())).expect("flamegraph written");
    assert!(
        folded.lines().any(|l| l.starts_with("omislice;trace ")),
        "{folded}"
    );
}

/// Journal lines with the wall-clock `spans` record removed: spans
/// carry real durations, so they are the one record that legitimately
/// differs between two otherwise identical locate sessions.
fn journal_sans_spans(path: &std::path::Path) -> String {
    std::fs::read_to_string(path)
        .expect("journal written")
        .lines()
        .filter(|l| !l.contains("\"type\":\"spans\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn trace_save_then_locate_trace_in_round_trips() {
    let fixed = write_temp("fixed-rt", FIXED);
    let faulty = write_temp("faulty-rt", FAULTY);
    let dir = std::env::temp_dir().join("omislice-cli-tests");
    let trace_file = dir.join(format!("rt-{}.omitrace", std::process::id()));
    let saved = omislice(&[
        "trace",
        faulty.to_str().unwrap(),
        "--input",
        "1",
        "--save",
        trace_file.to_str().unwrap(),
    ]);
    assert!(
        saved.status.success(),
        "{}",
        String::from_utf8_lossy(&saved.stderr)
    );
    assert!(saved.stdout.is_empty(), "--save keeps stdout machine-clean");
    assert!(
        String::from_utf8_lossy(&saved.stderr).contains("omitrace/v1"),
        "{}",
        String::from_utf8_lossy(&saved.stderr)
    );

    // The same locate session twice: once tracing in-process, once
    // reloading the saved trace. Reports and journals must agree
    // exactly — the reloaded trace is indistinguishable from the live
    // one.
    let journal_live = dir.join(format!("rt-live-{}.jsonl", std::process::id()));
    let journal_reload = dir.join(format!("rt-reload-{}.jsonl", std::process::id()));
    let run = |journal: &std::path::Path, trace_in: Option<&std::path::Path>| {
        let mut args = vec![
            "locate",
            "--faulty",
            faulty.to_str().unwrap(),
            "--fixed",
            fixed.to_str().unwrap(),
            "--input",
            "1",
            "--obs-out",
            journal.to_str().unwrap(),
        ];
        if let Some(t) = trace_in {
            args.extend(["--trace-in", t.to_str().unwrap()]);
        }
        let out = omislice(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let live = run(&journal_live, None);
    let reloaded = run(&journal_reload, Some(&trace_file));
    assert!(live.contains("root cause captured : yes"), "{live}");
    assert_eq!(live, reloaded, "reports diverge between live and reload");
    assert_eq!(
        journal_sans_spans(&journal_live),
        journal_sans_spans(&journal_reload),
        "journals diverge between live and reload"
    );
}

#[test]
fn locate_trace_in_recovers_from_corrupt_files_by_retracing() {
    let fixed = write_temp("fixed-corrupt", FIXED);
    let faulty = write_temp("faulty-corrupt", FAULTY);
    let dir = std::env::temp_dir().join("omislice-cli-tests");
    let trace_file = dir.join(format!("corrupt-{}.omitrace", std::process::id()));
    let saved = omislice(&[
        "trace",
        faulty.to_str().unwrap(),
        "--input",
        "1",
        "--save",
        trace_file.to_str().unwrap(),
    ]);
    assert!(saved.status.success());
    let good = std::fs::read(&trace_file).expect("trace saved");

    let locate_with = |bytes: &[u8], name: &str| {
        let path = dir.join(format!("{name}-{}.omitrace", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        omislice(&[
            "locate",
            "--faulty",
            faulty.to_str().unwrap(),
            "--fixed",
            fixed.to_str().unwrap(),
            "--input",
            "1",
            "--trace-in",
            path.to_str().unwrap(),
        ])
    };

    // A trace file that stays unreadable is the last rung of the load
    // ladder: warn, re-trace from source, and still produce the full
    // report — never a panic, never an abort.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    for (out, what) in [
        (
            locate_with(&good[..good.len() / 2], "truncated"),
            "truncated",
        ),
        (locate_with(&flipped, "bitflip"), "bit-flipped"),
        (locate_with(b"definitely not a trace", "garbage"), "garbage"),
        (locate_with(b"", "empty"), "empty"),
    ] {
        assert!(
            out.status.success(),
            "{what}: the pipeline must recover, got:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        // The supervisor's error names its stage: `load: <cause>`.
        assert!(
            stderr.contains("cannot load trace")
                && stderr.contains("(load: ")
                && stderr.contains("re-tracing from source"),
            "{what}: the degradation must be reported, got:\n{stderr}"
        );
        assert!(
            stderr.contains("pipeline recovered"),
            "{what}: the recovery ledger must surface, got:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{what}: the CLI must not panic:\n{stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("root cause captured : yes"),
            "{what}: the recovered run must still locate the root:\n{stdout}"
        );
    }

    // A missing file climbs the same ladder.
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
        "--trace-in",
        "/nonexistent/ghost.omitrace",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot load trace")
            && stderr.contains("(load: ")
            && stderr.contains("re-tracing from source"),
        "{stderr}"
    );
}

#[test]
fn locate_mode_flag_is_respected() {
    let fixed = write_temp("fixed2", FIXED);
    let faulty = write_temp("faulty2", FAULTY);
    for mode in ["edge", "path", "value"] {
        let out = omislice(&[
            "locate",
            "--faulty",
            faulty.to_str().unwrap(),
            "--fixed",
            fixed.to_str().unwrap(),
            "--input",
            "1",
            "--mode",
            mode,
        ]);
        assert!(out.status.success(), "mode {mode}");
    }
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--mode",
        "bogus",
    ]);
    assert!(!out.status.success());
}

// Loop-heavy pair (>4096 trace events): the failing run spans several of
// the recorder's counted deadline checks. The fix moves the `acc = 0`
// reset under the right guard; with inputs `5,2` the faulty program
// omits it.
const FIXED_LONG: &str = "global acc = 0;\n\
    fn main() {\n\
      let n = input();\n\
      let i = 0;\n\
      while i < 1200 {\n\
        acc = acc + i;\n\
        let j = acc / 7;\n\
        let k = j * 3;\n\
        acc = acc - k / 9;\n\
        i = i + 1;\n\
      }\n\
      let flag = input();\n\
      if flag == 2 { acc = 0; }\n\
      print(acc);\n\
    }\n";
const FAULTY_LONG: &str = "global acc = 0;\n\
    fn main() {\n\
      let n = input();\n\
      let i = 0;\n\
      while i < 1200 {\n\
        acc = acc + i;\n\
        let j = acc / 7;\n\
        let k = j * 3;\n\
        acc = acc - k / 9;\n\
        i = i + 1;\n\
      }\n\
      let flag = input();\n\
      if flag == 1 { acc = 0; }\n\
      print(acc);\n\
    }\n";

/// Saves the failing run of `faulty` on input `5,2` to an `omitrace/v1`
/// file named after `name`, for the `--trace-in` load sites.
fn save_long_trace(name: &str, faulty: &std::path::Path) -> std::path::PathBuf {
    let path = std::env::temp_dir()
        .join("omislice-cli-tests")
        .join(format!("{name}-{}.omitrace", std::process::id()));
    let saved = omislice(&[
        "trace",
        faulty.to_str().unwrap(),
        "--input",
        "5,2",
        "--save",
        path.to_str().unwrap(),
    ]);
    assert!(saved.status.success());
    path
}

#[test]
fn locate_chaos_sweep_recovers_every_site() {
    let fixed = write_temp("fixed-chaos", FIXED_LONG);
    let faulty = write_temp("faulty-chaos", FAULTY_LONG);
    let trace_file = save_long_trace("chaos", &faulty);

    // Clean baseline: the report every faulted run must reproduce.
    let clean = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "5,2",
    ]);
    assert!(clean.status.success());
    let clean_report = String::from_utf8_lossy(&clean.stdout).to_string();
    assert!(clean_report.contains("root cause captured : yes"));

    // The sites a locate recovers from fire while loading `--trace-in`.
    for (plan, counter) in [
        ("decode=corrupt", "recovery.load_retries"),
        ("mmap=fail", "recovery.mmap_fallbacks"),
    ] {
        let out = omislice(&[
            "locate",
            "--faulty",
            faulty.to_str().unwrap(),
            "--fixed",
            fixed.to_str().unwrap(),
            "--input",
            "5,2",
            "--trace-in",
            trace_file.to_str().unwrap(),
            "--fault-plan",
            plan,
        ]);
        assert!(
            out.status.success(),
            "{plan}: must recover, got:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("pipeline recovered") && stderr.contains(counter),
            "{plan}: expected `{counter}` in the recovery warning, got:\n{stderr}"
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            clean_report,
            "{plan}: the recovered report must match the clean one"
        );
    }
}

#[test]
fn one_fault_plan_fires_statement_and_pipeline_entries_in_one_run() {
    let fixed = write_temp("fixed-mixed", FIXED_LONG);
    let faulty = write_temp("faulty-mixed", FAULTY_LONG);
    let dir = std::env::temp_dir().join("omislice-cli-tests");
    let journal = dir.join(format!("mixed-{}.jsonl", std::process::id()));
    let trace_file = save_long_trace("mixed", &faulty);
    // S10 (`acc = 0`) runs only in switched runs, so its panic fires in
    // the verifier; the mmap failure fires while the failing run is
    // loaded.
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "5,2",
        "--trace-in",
        trace_file.to_str().unwrap(),
        "--fault-plan",
        "S10:0=panic,mmap=fail",
        "--stats",
        "--obs-out",
        journal.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "both faults are absorbed:\n{stderr}");
    assert!(stderr.contains("1 panics isolated"), "{stderr}");
    assert!(
        stderr.contains("pipeline recovered") && stderr.contains("recovery.mmap_fallbacks"),
        "{stderr}"
    );
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let recovery = text
        .lines()
        .find(|l| l.contains("\"type\":\"recovery\""))
        .expect("journal carries a recovery record");
    assert!(recovery.contains("recovery.mmap_fallbacks"), "{recovery}");
}

#[test]
fn trace_rejects_statement_fault_entries() {
    let faulty = write_temp("faulty-tracefault", FAULTY);
    // `trace` runs no switched executions, so an S<id> entry could never
    // fire: a usage error, not a silent no-op.
    let out = omislice(&[
        "trace",
        faulty.to_str().unwrap(),
        "--input",
        "1",
        "--fault-plan",
        "S1=oob",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --fault-plan `S1=oob`"), "{stderr}");
}

#[test]
fn locate_chaos_load_faults_recover_and_journal_the_recovery() {
    let fixed = write_temp("fixed-chaosload", FIXED);
    let faulty = write_temp("faulty-chaosload", FAULTY);
    let dir = std::env::temp_dir().join("omislice-cli-tests");
    let trace_file = dir.join(format!("chaosload-{}.omitrace", std::process::id()));
    let journal = dir.join(format!("chaosload-{}.jsonl", std::process::id()));
    let saved = omislice(&[
        "trace",
        faulty.to_str().unwrap(),
        "--input",
        "1",
        "--save",
        trace_file.to_str().unwrap(),
    ]);
    assert!(saved.status.success());

    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
        "--trace-in",
        trace_file.to_str().unwrap(),
        "--fault-plan",
        "decode=corrupt,mmap=fail",
        "--obs-out",
        journal.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "load faults must recover:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("root cause captured : yes"));
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let recovery = text
        .lines()
        .find(|l| l.contains("\"type\":\"recovery\""))
        .expect("journal carries a recovery record");
    assert!(recovery.contains("\"deadline_expired\":false"));
    assert!(
        recovery.contains("recovery.load_retries") && recovery.contains("recovery.mmap_fallbacks"),
        "recovery counters journaled: {recovery}"
    );
}

#[test]
fn locate_deadline_expiry_exits_3_with_partial_report() {
    let fixed = write_temp("fixed-deadline", FIXED);
    let faulty = write_temp("faulty-deadline", FAULTY);
    // Pinned expiry at the first counted check — deterministic, unlike a
    // wall-clock `--deadline 0` race (also covered, below).
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
        "--fault-plan",
        "deadline:1=expire",
    ]);
    assert_eq!(out.status.code(), Some(3), "deadline expiry is exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline expired") && stderr.contains("partial"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("omislice fault localization report"),
        "a partial report must still render:\n{stdout}"
    );

    let wall = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
        "--deadline",
        "0",
    ]);
    assert_eq!(
        wall.status.code(),
        Some(3),
        "--deadline 0 expires immediately"
    );
}

#[test]
fn chaos_and_deadline_flags_reject_bad_values() {
    let fixed = write_temp("fixed-badflags", FIXED);
    let faulty = write_temp("faulty-badflags", FAULTY);
    for (flag, value, expected) in [
        ("--fault-plan", "bogus", "bad fault plan entry"),
        ("--fault-plan", "save=fly", "unknown fault action"),
        ("--fault-plan", "nowhere=panic", "unknown fault site"),
        // Retired recorder sites.
        ("--fault-plan", "builder=panic", "unknown fault site"),
        ("--fault-plan", "channel=disconnect", "unknown fault site"),
        ("--fault-plan", "queue=stall", "unknown fault site"),
        ("--deadline", "nope", "bad --deadline"),
    ] {
        let out = omislice(&[
            "locate",
            "--faulty",
            faulty.to_str().unwrap(),
            "--fixed",
            fixed.to_str().unwrap(),
            flag,
            value,
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value} must be rejected as a usage error"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(expected),
            "{flag} {value}: expected `{expected}`"
        );
    }
}

#[test]
fn malformed_numeric_flags_exit_2_with_usage() {
    let fixed = write_temp("fixed-num", FIXED);
    let faulty = write_temp("faulty-num", FAULTY);
    let f = faulty.to_str().unwrap();
    let g = fixed.to_str().unwrap();
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["locate", "--faulty", f, "--fixed", g, "--jobs", "x"],
            "bad --jobs `x`",
        ),
        (
            vec!["locate", "--faulty", f, "--fixed", g, "--jobs", "0"],
            "bad --jobs `0`",
        ),
        (
            vec!["locate", "--faulty", f, "--fixed", g, "--jobs", "257"],
            "bad --jobs `257` (need an integer from 1 to 256)",
        ),
        (
            vec!["locate", "--faulty", f, "--fixed", g, "--deadline", "nope"],
            "bad --deadline `nope`",
        ),
        (vec!["slice", f, "--output", "last"], "bad --output `last`"),
        (
            vec![
                "verify",
                f,
                "--input",
                "1",
                "--pred",
                "2",
                "--use",
                "4",
                "--var",
                "flags",
                "--expected",
                "two",
            ],
            "bad --expected `two`",
        ),
        (
            vec!["serve", "--addr", "127.0.0.1:0", "--workers", "many"],
            "bad --workers `many`",
        ),
        (
            vec!["serve", "--addr", "127.0.0.1:0", "--queue", "0"],
            "bad --queue `0`",
        ),
        (
            vec!["corpus", "locate", "sed", "V3-F3", "--jobs", "x"],
            "bad --jobs `x`",
        ),
    ];
    for (args, expected) in cases {
        let out = omislice(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expected),
            "{args:?}: expected `{expected}` in:\n{stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: usage block printed");
    }
}

#[test]
fn usage_errors_exit_2_but_pipeline_failures_exit_1() {
    // Malformed invocations: exit 2.
    for args in [
        &["frobnicate"] as &[&str],
        &["locate"],
        &["corpus", "locate", "nope", "X"],
        &["corpus", "explode"],
        &["serve"],
        &["verify"],
    ] {
        let out = omislice(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
    }
    // Retired and misspelled flags fail loudly instead of being ignored.
    for (args, flag) in [
        (
            &["corpus", "locate", "gzip", "V2-F3", "--scheduler", "flat"] as &[&str],
            "--scheduler",
        ),
        (
            &["corpus", "locate", "gzip", "V2-F3", "--bogus-flag"],
            "--bogus-flag",
        ),
        (
            &["corpus", "locate", "gzip", "V2-F3", "--no-resum"],
            "--no-resum",
        ),
        (&["trace", "x.omi", "--region"], "--region"),
        (&["trace", "x.omi", "--chaos", "save=enospc"], "--chaos"),
        (
            &[
                "locate",
                "--faulty",
                "a",
                "--fixed",
                "b",
                "--chaos",
                "save=enospc",
            ],
            "--chaos",
        ),
        (
            &["corpus", "locate", "sed", "V3-F2", "--chaos", "save=enospc"],
            "--chaos",
        ),
        (
            &["corpus", "locate", "sed", "V3-F3", "--early-exit"],
            "--early-exit",
        ),
        (
            &[
                "locate",
                "--faulty",
                "a",
                "--fixed",
                "b",
                "--capture-threshold",
                "1",
            ],
            "--capture-threshold",
        ),
        (
            &["locate", "--faulty", "a", "--fixed", "b", "--budget", "64"],
            "--budget",
        ),
        (
            &["corpus", "locate", "sed", "V3-F2", "--budget", "off"],
            "--budget",
        ),
        (&["slice", "x.omi", "--jobs", "2"], "--jobs"),
    ] {
        let out = omislice(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
    // A well-formed invocation that fails in the pipeline: exit 1, and
    // no usage block (the caller did nothing wrong).
    let out = omislice(&["run", "/nonexistent/program.omi"]);
    assert_eq!(out.status.code(), Some(1), "pipeline failure is exit 1");
    assert!(!String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn locate_structural_mismatch_reports_instead_of_panicking() {
    let fixed = write_temp("fixed-mism", FIXED);
    let faulty = write_temp(
        "faulty-mism",
        "fn main() { let a = input(); print(a); print(a + 1); print(a + 2); }",
    );
    let out = omislice(&[
        "locate",
        "--faulty",
        faulty.to_str().unwrap(),
        "--fixed",
        fixed.to_str().unwrap(),
        "--input",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(1), "mismatch is a pipeline failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("structurally incompatible"),
        "structured error, not a panic:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic output:\n{stderr}");
}

#[test]
fn locate_trace_in_with_deadline_exits_3_with_partial_report() {
    let fixed = write_temp("fixed-tid", FIXED);
    let faulty = write_temp("faulty-tid", FAULTY);
    let dir = std::env::temp_dir().join("omislice-cli-tests");
    let trace_file = dir.join(format!("tid-{}.omitrace", std::process::id()));
    let saved = omislice(&[
        "trace",
        faulty.to_str().unwrap(),
        "--input",
        "1",
        "--save",
        trace_file.to_str().unwrap(),
    ]);
    assert!(saved.status.success());

    // A preloaded trace skips the supervised trace run; the pipeline-top
    // deadline check must still see the expiry on both the wall-clock
    // and the fault-pinned path.
    for extra in [
        &["--deadline", "0"] as &[&str],
        &["--fault-plan", "deadline:1=expire"],
    ] {
        let mut args = vec![
            "locate",
            "--faulty",
            faulty.to_str().unwrap(),
            "--fixed",
            fixed.to_str().unwrap(),
            "--input",
            "1",
            "--trace-in",
            trace_file.to_str().unwrap(),
        ];
        args.extend(extra);
        let out = omislice(&args);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{extra:?}: --trace-in + deadline is exit 3, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("omislice fault localization report"),
            "{extra:?}: a partial report must still render:\n{stdout}"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("partial"));
    }
}

/// One cold `POST /locate` against a fresh in-process server.
fn post_locate_cold(body: &omislice_obs::Json) -> omislice_obs::Json {
    use std::io::Read as _;
    let server = omislice_serve::start(omislice_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..omislice_serve::ServeConfig::default()
    })
    .expect("server starts");
    let body = body.to_string();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connects");
    write!(
        stream,
        "POST /locate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("sends");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    server.shutdown();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let (_, json) = response
        .split_once("\r\n\r\n")
        .expect("response has a body");
    omislice_obs::json::parse(json.trim()).expect("response parses")
}

/// `locate`, `corpus locate` and a cold `POST /locate` are front ends of
/// one pipeline: on the same program version they print the same report,
/// byte for byte, with and without `--explain`, and so does `locate
/// --no-resume`.
#[test]
fn locate_front_ends_render_one_report() {
    use omislice_obs::Json;
    let benchmarks = omislice_corpus::all_benchmarks();
    let sed = benchmarks.iter().find(|b| b.name == "sed").expect("sed");
    let fault = sed.fault("V3-F2").expect("sed V3-F2");
    let faulty = write_temp("front-faulty", &fault.apply(sed.fixed_src));
    let fixed = write_temp("front-fixed", sed.fixed_src);
    let csv = |inputs: &[i64]| {
        inputs
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    let ints = |inputs: &[i64]| Json::Array(inputs.iter().map(|&v| Json::Int(v)).collect());
    let input = csv(&fault.failing_input);
    let profile = fault
        .passing_inputs
        .iter()
        .map(|p| csv(p))
        .collect::<Vec<_>>()
        .join(";");
    for explain in [false, true] {
        let explain_flag: &[&str] = if explain { &["--explain"] } else { &[] };
        let mut args = vec![
            "locate",
            "--faulty",
            faulty.to_str().unwrap(),
            "--fixed",
            fixed.to_str().unwrap(),
            "--input",
            &input,
            "--profile",
            &profile,
        ];
        args.extend(explain_flag);
        let cli = omislice(&args);
        assert!(
            cli.status.success(),
            "{}",
            String::from_utf8_lossy(&cli.stderr)
        );
        let cli = String::from_utf8(cli.stdout).expect("utf-8 report");
        assert!(cli.contains("root cause captured : yes"), "{cli}");

        // The from-scratch run (no checkpoints) is the trie's oracle.
        args.push("--no-resume");
        let scratch = omislice(&args);
        assert!(scratch.status.success());
        assert_eq!(
            String::from_utf8_lossy(&scratch.stdout),
            cli,
            "locate --no-resume (explain={explain}) differs from locate"
        );

        let mut args = vec!["corpus", "locate", "sed", "V3-F2"];
        args.extend(explain_flag);
        let corpus = omislice(&args);
        assert!(corpus.status.success());
        assert_eq!(
            String::from_utf8_lossy(&corpus.stdout),
            cli,
            "corpus locate (explain={explain}) differs from locate"
        );

        let served = post_locate_cold(&Json::object([
            ("faulty", Json::str(fault.apply(sed.fixed_src))),
            ("fixed", Json::str(sed.fixed_src)),
            ("input", ints(&fault.failing_input)),
            (
                "profile",
                Json::Array(fault.passing_inputs.iter().map(|p| ints(p)).collect()),
            ),
            ("explain", Json::Bool(explain)),
        ]));
        assert_eq!(
            served.get("report").and_then(Json::as_str),
            Some(cli.as_str()),
            "served report (explain={explain}) differs from locate"
        );
    }
}

#[test]
fn serve_starts_serves_and_dies_cleanly() {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    let mut child = Command::new(env!("CARGO_BIN_EXE_omislice"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reads the bind line");
    let addr = line
        .trim()
        .strip_prefix("omislice serve listening on ")
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected bind line: {line}"))
        .to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connects");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("sends");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"ok\":true"), "{response}");

    child.kill().expect("kills the server");
    child.wait().expect("reaps the server");
}
