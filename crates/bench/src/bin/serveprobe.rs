//! End-to-end probe for a running `omislice serve` instance.
//!
//! ```text
//! serveprobe --addr host:port [--chaos-check]
//! ```
//!
//! Round-trips every endpoint and checks the serving contract: liveness,
//! slice and locate responses, warm repeats answered from the artifact
//! cache with byte-identical reports, structured errors for malformed
//! bodies and unknown routes, and the metrics exporter. With
//! `--chaos-check` it additionally fires a request whose `fault_plan` is
//! `handler=panic` concurrently with clean locates and requires the
//! panic to come back as a structured 500 while the clean requests
//! succeed untouched.
//!
//! Exit codes: 0 all checks pass, 1 a check failed, 2 usage.

use omislice_bench::client::ServeClient;
use omislice_obs::Json;
use omislice_trace::FaultPlan;

const FAULTY: &str = "fn main() { let a = input(); let s = 0; while a > 0 { if a > 3 { s = s + a; } a = a - 1; } print(s); }";
const FIXED: &str = "fn main() { let a = input(); let s = 0; while a > 0 { if a > 2 { s = s + a; } a = a - 1; } print(s); }";

fn usage(msg: &str) -> ! {
    eprintln!("serveprobe: {msg}");
    eprintln!("usage: serveprobe --addr host:port [--chaos-check]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("serveprobe: FAIL: {msg}");
    std::process::exit(1);
}

fn locate_body() -> Json {
    Json::object([
        ("faulty", Json::str(FAULTY)),
        ("fixed", Json::str(FIXED)),
        ("input", Json::Array(vec![Json::Int(6)])),
    ])
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| fail(&format!("response lacks `{key}`: {v}")))
}

/// The report with warmth-dependent counters dropped: a warm repeat is
/// answered from the shared verification memo without re-executing, so
/// the `re-executions` line legitimately differs between a cold and a
/// warm run of the same request. Everything else must be byte-identical.
fn normalized_report(doc: &Json) -> String {
    field(doc, "report")
        .as_str()
        .unwrap_or_else(|| fail("`report` is not a string"))
        .lines()
        .filter(|l| !l.starts_with("re-executions"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let mut addr = None;
    let mut chaos_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => match args.next() {
                Some(v) if v.contains(':') => addr = Some(v),
                Some(v) => usage(&format!("bad --addr `{v}` (need host:port)")),
                None => usage("--addr needs a value"),
            },
            "--chaos-check" => chaos_check = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let Some(addr) = addr else {
        usage("serveprobe needs --addr");
    };
    let client = ServeClient::new(addr);

    // Liveness.
    let health = client
        .get("/healthz")
        .unwrap_or_else(|e| fail(&format!("healthz: {e}")));
    if health.status != 200 {
        fail(&format!("healthz returned {}", health.status));
    }
    let doc = health.json().unwrap_or_else(|e| fail(&e));
    if field(&doc, "ok").as_bool() != Some(true) {
        fail("healthz body is not ok");
    }

    // Slice round-trip.
    let slice = client
        .post(
            "/slice",
            &Json::object([
                ("source", Json::str(FIXED)),
                ("input", Json::Array(vec![Json::Int(6)])),
            ]),
        )
        .unwrap_or_else(|e| fail(&format!("slice: {e}")));
    if slice.status != 200 {
        fail(&format!("slice returned {}: {}", slice.status, slice.body));
    }
    let doc = slice.json().unwrap_or_else(|e| fail(&e));
    if field(&doc, "static_size").as_int().unwrap_or(0) == 0 {
        fail("slice reported an empty static slice");
    }

    // Locate: cold miss, then a warm hit with a byte-identical report.
    let cold = client
        .post("/locate", &locate_body())
        .unwrap_or_else(|e| fail(&format!("locate: {e}")));
    if cold.status != 200 {
        fail(&format!("locate returned {}: {}", cold.status, cold.body));
    }
    let cold_doc = cold.json().unwrap_or_else(|e| fail(&e));
    let warm = client
        .post("/locate", &locate_body())
        .unwrap_or_else(|e| fail(&format!("warm locate: {e}")));
    let warm_doc = warm.json().unwrap_or_else(|e| fail(&e));
    if field(&warm_doc, "cache").as_str() != Some("hit") {
        fail("second locate did not hit the artifact cache");
    }
    if normalized_report(&cold_doc) != normalized_report(&warm_doc) {
        fail("cold and warm reports differ beyond warmth counters");
    }

    // Structured errors.
    let bad = client
        .request("POST", "/locate", Some("{not json"))
        .unwrap_or_else(|e| fail(&e));
    if bad.status != 400 {
        fail(&format!("malformed body returned {}", bad.status));
    }
    let lost = client.get("/nope").unwrap_or_else(|e| fail(&e));
    if lost.status != 404 {
        fail(&format!("unknown route returned {}", lost.status));
    }

    // Metrics exporter.
    let metrics = client.get("/metrics").unwrap_or_else(|e| fail(&e));
    if metrics.status != 200 || !metrics.body.contains("omislice_serve_requests_total") {
        fail("metrics exporter is missing serve counters");
    }

    if chaos_check {
        run_chaos_check(&client, &cold_doc);
    }
    println!("serveprobe: all checks passed");
}

/// Fires an injected handler panic concurrently with clean locates: the
/// panic must come back as a structured 500 and the clean requests must
/// succeed with the same report as before.
fn run_chaos_check(client: &ServeClient, baseline: &Json) {
    let plan = FaultPlan::parse("handler=panic").expect("a valid fault plan");
    let mut chaos_body = locate_body();
    if let Json::Object(pairs) = &mut chaos_body {
        pairs.push(("fault_plan".to_string(), Json::str(plan.to_string())));
    }
    let addr = client.addr().to_string();
    let clean_threads: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || ServeClient::new(addr).post("/locate", &locate_body()))
        })
        .collect();
    let crashed = client
        .post("/locate", &chaos_body)
        .unwrap_or_else(|e| fail(&format!("chaos locate: {e}")));
    if crashed.status != 500 {
        fail(&format!(
            "injected panic returned {} instead of a structured 500",
            crashed.status
        ));
    }
    let doc = crashed.json().unwrap_or_else(|e| fail(&e));
    let code = doc
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    if code != Some("panic") {
        fail(&format!("injected panic reported code {code:?}"));
    }
    for t in clean_threads {
        let r = t
            .join()
            .unwrap_or_else(|_| fail("clean locate thread panicked"))
            .unwrap_or_else(|e| fail(&format!("clean locate: {e}")));
        if r.status != 200 {
            fail(&format!(
                "clean locate alongside chaos returned {}",
                r.status
            ));
        }
        let doc = r.json().unwrap_or_else(|e| fail(&e));
        if normalized_report(&doc) != normalized_report(baseline) {
            fail("clean locate report drifted while chaos was in flight");
        }
    }
    println!("serveprobe: chaos check passed (panic isolated, clean requests byte-identical)");
}
