//! Serve-level determinism: concurrent clients hammering one server —
//! cold cache, warm cache, different `jobs` and `scheduler` settings —
//! must all receive the *same* localization journal, byte-identical
//! after normalization, and identical to a journal built in-process
//! without any server at all.
//!
//! Normalization is the diffcheck contract plus one serving-specific
//! allowance: timing fields are stripped, the header's `jobs`/`resume`
//! fields are dropped (configuration echo, not content), and the
//! summary's `reexecutions` counter is dropped — a warm request is
//! answered from the server's shared verification memo without
//! re-executing, so that counter legitimately differs with cache
//! warmth. Everything else must not move.

use omislice_bench::client::ServeClient;
use omislice_obs::{json, strip_timing, to_jsonl, Json};
use omislice_serve::{start, ServeConfig, ServerHandle};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::OnceLock;

const FAULTY: &str = "fn main() { let a = input(); let s = 0; while a > 0 { if a > 3 { s = s + a; } a = a - 1; } print(s); }";
const FIXED: &str = "fn main() { let a = input(); let s = 0; while a > 0 { if a > 2 { s = s + a; } a = a - 1; } print(s); }";

/// One server shared by every test case in this binary; its worker
/// threads live for the process lifetime.
fn server_addr() -> SocketAddr {
    static HANDLE: OnceLock<ServerHandle> = OnceLock::new();
    HANDLE
        .get_or_init(|| {
            start(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 4,
                ..ServeConfig::default()
            })
            .expect("in-process server starts")
        })
        .addr()
}

fn locate_body(input: i64, jobs: u64, scheduler: &str) -> Json {
    Json::object([
        ("faulty", Json::str(FAULTY)),
        ("fixed", Json::str(FIXED)),
        ("input", Json::Array(vec![Json::Int(input)])),
        ("jobs", Json::UInt(jobs)),
        ("scheduler", Json::str(scheduler)),
        ("journal", Json::Bool(true)),
        ("label", Json::str("determinism-probe")),
    ])
}

/// Strips timing, then drops the header's `jobs`/`resume` echo and the
/// summary's warmth-dependent `reexecutions` counter.
fn normalize(jsonl: &str) -> String {
    let stripped = strip_timing(jsonl).expect("journal strips");
    let mut out = String::new();
    for line in stripped.lines() {
        let record = json::parse(line).expect("journal line parses");
        let ty = record
            .get("type")
            .and_then(Json::as_str)
            .map(str::to_string);
        let Json::Object(fields) = record else {
            panic!("journal record is not an object: {line}");
        };
        let kept: Vec<(String, Json)> = fields
            .into_iter()
            .filter(|(k, _)| match ty.as_deref() {
                Some("header") => k != "jobs" && k != "resume",
                Some("summary") => k != "reexecutions",
                _ => true,
            })
            .collect();
        out.push_str(&Json::Object(kept).to_string());
        out.push('\n');
    }
    out
}

/// The normalized journal carried by one `/locate` response.
fn normalized_journal(doc: &Json) -> String {
    let records = doc
        .get("journal")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("response lacks a journal: {doc}"));
    normalize(&to_jsonl(records))
}

/// The same journal built entirely in-process, no server involved: the
/// ground truth every served response must match.
fn reference_journal(input: i64) -> String {
    use omislice::omislice_interp::{run_traced, RunConfig};
    use omislice::omislice_lang::compile;
    use omislice::omislice_slicing::ValueProfile;
    use omislice::{build_journal, locate_fault, GroundTruthOracle, JournalMeta, LocateConfig};
    use omislice_analysis::ProgramAnalysis;

    let faulty = compile(FAULTY).expect("faulty compiles");
    let fixed = compile(FIXED).expect("fixed compiles");
    let analysis = ProgramAnalysis::build(&faulty);
    let fixed_analysis = ProgramAnalysis::build(&fixed);
    let config = RunConfig::with_inputs(vec![input]);
    let trace = run_traced(&faulty, &analysis, &config).trace;
    let mut profile = ValueProfile::new();
    profile.add_trace(&trace);
    let roots = omislice::try_seeded_roots(&fixed, &faulty).expect("seeded roots");
    let oracle = GroundTruthOracle::new(&fixed, &fixed_analysis, &config, roots);
    let lc = LocateConfig::default();
    let outcome = locate_fault(&faulty, &analysis, &config, &trace, &profile, &oracle, &lc)
        .expect("locate succeeds");
    let meta = JournalMeta {
        program: "determinism-probe".to_string(),
    };
    normalize(&to_jsonl(&build_journal(
        &meta, &lc, &outcome, &trace, None, None, None,
    )))
}

fn post_locate(addr: SocketAddr, input: i64, jobs: u64, scheduler: &str) -> Json {
    let response = ServeClient::new(addr.to_string())
        .post("/locate", &locate_body(input, jobs, scheduler))
        .expect("locate round-trips");
    assert_eq!(
        response.status, 200,
        "locate (jobs={jobs}, scheduler={scheduler}) failed: {}",
        response.body
    );
    response.json().expect("locate response parses")
}

/// Cold then warm: one priming request builds the artifacts, then four
/// concurrent clients with different jobs/scheduler settings must all
/// hit the cache and agree byte-for-byte.
fn assert_served_determinism(input: i64) {
    let addr = server_addr();
    let cold = post_locate(addr, input, 1, "trie");
    let cold_journal = normalized_journal(&cold);

    let threads: Vec<_> = [(1u64, "trie"), (4, "trie"), (1, "flat"), (4, "flat")]
        .into_iter()
        .map(|(jobs, scheduler)| {
            std::thread::spawn(move || {
                let doc = post_locate(addr, input, jobs, scheduler);
                (jobs, scheduler, doc)
            })
        })
        .collect();
    for t in threads {
        let (jobs, scheduler, doc) = t.join().expect("client thread completes");
        assert_eq!(
            doc.get("cache").and_then(Json::as_str),
            Some("hit"),
            "warm request (jobs={jobs}, scheduler={scheduler}) missed the artifact cache"
        );
        assert_eq!(
            normalized_journal(&doc),
            cold_journal,
            "served journal (jobs={jobs}, scheduler={scheduler}) differs from the cold one"
        );
    }

    assert_eq!(
        cold_journal,
        reference_journal(input),
        "served journal differs from the in-process pipeline's"
    );
}

/// Four clients racing on a *cold* cache — every one may trigger its own
/// build, yet all four must return the same journal.
#[test]
fn concurrent_cold_clients_agree_with_the_in_process_pipeline() {
    let addr = server_addr();
    let input = 9;
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || normalized_journal(&post_locate(addr, input, 1, "trie")))
        })
        .collect();
    let journals: Vec<String> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread completes"))
        .collect();
    let reference = reference_journal(input);
    for (i, j) in journals.iter().enumerate() {
        assert_eq!(
            *j, reference,
            "cold racing client {i} got a journal differing from the in-process pipeline"
        );
    }
}

#[test]
fn warm_clients_across_configs_agree() {
    assert_served_determinism(6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any fault-exposing input (the programs disagree for inputs >= 3)
    /// yields one deterministic journal regardless of cache warmth,
    /// client concurrency, jobs, or scheduler.
    #[test]
    fn served_journals_are_deterministic(input in 3i64..=10) {
        assert_served_determinism(input);
    }
}
