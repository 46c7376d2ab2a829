//! Concurrent requests for one uncached program share one session build.
//!
//! Two clients send the same sed ×250 `/locate` body at once to a cold
//! server: the first request builds the session while the second waits
//! for that build instead of starting its own, so the artifact cache
//! counts one miss (one build) and one hit, and both reports are the same
//! bytes but for the `re-executions` line: the two localizations share
//! the server's verification memo, so which of them re-executes a
//! switched run depends on timing, as between a cold and a warm request.

use omislice::omislice_interp::{run_plain, RunConfig};
use omislice::omislice_lang::compile;
use omislice_bench::client::ServeClient;
use omislice_corpus::{all_benchmarks, WorkloadGen};
use omislice_obs::Json;
use omislice_serve::{start, ServeConfig};
use std::sync::Barrier;

/// The `/locate` body of sed V3-F2 on the first seed-1 ×250 draw that
/// exposes the fault.
fn sed_body() -> Json {
    let sed = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "sed")
        .expect("sed is in the corpus");
    let faulty_src = sed
        .fault("V3-F2")
        .expect("sed has V3-F2")
        .apply(sed.fixed_src);
    let (fixed, faulty) = (
        compile(sed.fixed_src).unwrap(),
        compile(&faulty_src).unwrap(),
    );
    let mut gen = WorkloadGen::new(1);
    let input = (0..64)
        .map(|_| gen.sized_for_benchmark("sed", 250))
        .find(|inputs| {
            let cfg = RunConfig::with_inputs(inputs.clone());
            let (want, got) = (run_plain(&fixed, &cfg), run_plain(&faulty, &cfg));
            want.is_normal() && got.is_normal() && want.outputs != got.outputs
        })
        .expect("a drawn input exposes the fault");
    Json::object([
        ("faulty", Json::str(faulty_src)),
        ("fixed", Json::str(sed.fixed_src)),
        (
            "input",
            Json::Array(input.into_iter().map(Json::Int).collect()),
        ),
    ])
}

#[test]
fn concurrent_misses_share_one_build() {
    let body = sed_body();
    let server = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = server.addr().to_string();
    let barrier = Barrier::new(2);
    let docs: Vec<Json> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let client = ServeClient::new(addr.clone());
                    barrier.wait();
                    let response = client.post("/locate", &body).expect("locate round-trips");
                    assert_eq!(response.status, 200, "{}", response.body);
                    response.json().expect("locate response parses")
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client completes"))
            .collect()
    });
    let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
    let report = |doc: &Json| {
        let text = field(doc, "report").expect("a report");
        let kept: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with("re-executions"))
            .collect();
        kept.join("\n")
    };
    assert_eq!(report(&docs[0]), report(&docs[1]));
    assert!(report(&docs[0]).contains("root cause captured : yes"));
    let mut labels: Vec<_> = docs.iter().map(|d| field(d, "cache")).collect();
    labels.sort();
    assert_eq!(labels, [Some("hit".to_string()), Some("miss".to_string())]);
    let stats = server.state().cache.stats();
    assert_eq!((stats.misses, stats.hits, stats.sessions), (1, 1, 1));
    server.shutdown();
}
