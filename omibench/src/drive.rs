//! Driving the real product from outside, with all tracing off: one
//! `omislice locate` process per CLI localization (started by the
//! [`Spawner`]), and `POST /locate` requests against a spawned `omislice
//! serve`.

use crate::pipeline::normalize_served;
use crate::spawner::{Spawner, Status, LOCATE_TIMEOUT};
use crate::sys;
use omislice_bench::client::ServeClient;
use omislice_obs::Json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One pool version, ready for both front ends.
pub struct Prepared {
    pub label: String,
    pub faulty_path: PathBuf,
    pub fixed_path: PathBuf,
    pub csv: String,
    /// The `POST /locate` body.
    pub body: String,
    /// The traced pass's report.
    pub reference: String,
}

/// One measured localization.
#[derive(Debug, Clone)]
pub struct Sample {
    pub version: usize,
    pub ms: f64,
    /// `None` when the localization succeeded and matched the reference.
    pub error: Option<String>,
    /// The report says `root cause captured : yes`.
    pub found: bool,
    /// Served only: the artifact cache answered (`hit`) or built (`miss`).
    pub cache_hit: Option<bool>,
    /// CLI only: the child's peak resident set.
    pub max_rss_kib: Option<u64>,
}

fn found_in(report: &str) -> bool {
    report.lines().any(|l| l == "root cause captured : yes")
}

/// Runs one `omislice locate` for `v` through the spawner and checks its
/// stdout against the reference byte-for-byte.
pub fn locate_cli(spawner: &mut Spawner, v: &Prepared, version: usize) -> Sample {
    let run = spawner.run(&v.faulty_path, &v.fixed_path, &v.csv);
    let report = String::from_utf8_lossy(&run.payload);
    let error = match run.status {
        Status::Exit(0) if report == v.reference => None,
        Status::Exit(0) => Some(first_difference(&v.reference, &report)),
        Status::Exit(n) => {
            let err = std::fs::read_to_string(spawner.stderr_path()).unwrap_or_default();
            Some(format!("exit {n}: {}", err.trim()))
        }
        Status::Signal => Some("killed by a signal".to_string()),
        Status::Timeout => Some(format!("timed out after {LOCATE_TIMEOUT:?}")),
        Status::Error => Some(report.to_string()),
    };
    Sample {
        version,
        ms: run.ms,
        found: run.status == Status::Exit(0) && found_in(&report),
        error,
        cache_hit: None,
        max_rss_kib: run.max_rss_kib,
    }
}

/// A short description of where `got` first departs from `want`.
fn first_difference(want: &str, got: &str) -> String {
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
    format!(
        "report differs from the reference at line {}: want `{}`, got `{}`",
        line + 1,
        want.lines().nth(line).unwrap_or("<end>"),
        got.lines().nth(line).unwrap_or("<end>"),
    )
}

/// A running `omislice serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts `omislice serve` on an ephemeral port and waits for the
    /// line announcing the bound address.
    ///
    /// # Errors
    ///
    /// Returns a message when the process cannot start or never
    /// announces its address.
    pub fn start(bin: &Path, workers: usize, stderr_path: &Path) -> Result<Server, String> {
        let stderr = std::fs::File::create(stderr_path)
            .map_err(|e| format!("cannot create `{}`: {e}", stderr_path.display()))?;
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn `{} serve`: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        // "omislice serve listening on 127.0.0.1:PORT (N workers)"
        server.addr = match (read, line.split_whitespace().nth(4)) {
            (Ok(_), Some(addr)) if addr.contains(':') => addr.to_string(),
            _ => {
                let err = std::fs::read_to_string(stderr_path).unwrap_or_default();
                return Err(format!(
                    "serve did not announce its address (got `{}`): {}",
                    line.trim(),
                    err.trim()
                ));
            }
        };
        Ok(server)
    }

    pub fn client(&self) -> ServeClient {
        ServeClient::new(self.addr.clone()).with_timeout(LOCATE_TIMEOUT)
    }

    /// The server's peak resident set so far.
    pub fn vm_hwm_kib(&self) -> Option<u64> {
        sys::vm_hwm_kib(self.child.id())
    }

    /// `GET /metrics?format=json` as name → value.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure or a malformed body.
    pub fn metrics(&self) -> Result<Vec<(String, f64)>, String> {
        let r = self.client().get("/metrics?format=json")?;
        if r.status != 200 {
            return Err(format!("/metrics returned {}", r.status));
        }
        let doc = r.json()?;
        let pairs = doc.as_object().ok_or("/metrics body is not an object")?;
        Ok(pairs
            .iter()
            .filter_map(|(k, v)| number(v).map(|n| (k.clone(), n)))
            .collect())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A JSON number as `f64`.
pub fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Float(x) => Some(*x),
        other => other.as_int().map(|n| n as f64),
    }
}

/// One served localization: the clock runs from the request write to the
/// end of the response read. A report must equal the reference after
/// [`normalize_served`].
pub fn locate_served(client: &ServeClient, v: &Prepared, version: usize) -> Sample {
    let t = Instant::now();
    let resp = client.request("POST", "/locate", Some(&v.body));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let mut sample = Sample {
        version,
        ms,
        error: None,
        found: false,
        cache_hit: None,
        max_rss_kib: None,
    };
    let checked = resp.and_then(|r| {
        if r.status != 200 {
            return Err(format!("status {}: {}", r.status, r.body.trim()));
        }
        let doc = r.json()?;
        let report = doc
            .get("report")
            .and_then(Json::as_str)
            .ok_or("response has no `report`")?;
        sample.found = found_in(report);
        sample.cache_hit = doc.get("cache").and_then(Json::as_str).map(|c| c == "hit");
        let (want, got) = (normalize_served(&v.reference), normalize_served(report));
        if want != got {
            return Err(first_difference(&want, &got));
        }
        Ok(())
    });
    sample.error = checked.err();
    sample
}

/// Closed-loop clients: each of `clients` threads sends its next request
/// only after the previous one completes. Request `i` targets version
/// `schedule(i)`; the loop ends when `stop` says so for the next index.
pub fn closed_loop(
    client: &ServeClient,
    versions: &[Prepared],
    clients: usize,
    schedule: &(dyn Fn(usize) -> usize + Sync),
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if stop(i) {
                    break;
                }
                let v = schedule(i);
                let sample = locate_served(client, &versions[v], v);
                samples
                    .lock()
                    .expect("no client panics while holding the sample lock")
                    .push(sample);
            });
        }
    });
    samples
        .into_inner()
        .expect("no client panics while holding the sample lock")
}
