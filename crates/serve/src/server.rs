//! The resident server: listener, bounded queue, fixed worker pool.
//!
//! Fault isolation follows the PR 7 taxonomy: a panicking handler is
//! caught with `catch_unwind` and becomes a structured 500 while every
//! other worker keeps serving; a full queue sheds load with 503 instead
//! of queueing unboundedly; and a request's recovery ledger is cleared
//! on entry so one request's degradations never leak into the next
//! response on the same worker thread.

use crate::api::{error_body, handle_locate, handle_slice, health_body, metrics_set, ApiError};
use crate::cache::{ArtifactCache, DEFAULT_CACHE_CAPACITY};
use omislice::omislice_trace::take_recovery;
use omislice::VerifyMemo;
use omislice_obs::Json;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction knobs; `Default` matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7745` (port 0 picks one).
    pub addr: String,
    /// Fixed worker pool size.
    pub workers: usize,
    /// Bounded connection queue depth; a full queue sheds 503.
    pub queue: usize,
    /// Artifact cache byte budget.
    pub cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7745".to_string(),
            workers: 4,
            queue: 64,
            cache_bytes: DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// Shared state every worker sees: the artifact cache, the persistent
/// verification memo, and the exported counters.
pub struct ServerState {
    pub cache: ArtifactCache,
    pub memo: Arc<VerifyMemo>,
    pub workers: usize,
    pub requests: AtomicU64,
    pub errors: AtomicU64,
    pub panics: AtomicU64,
    pub overloaded: AtomicU64,
    pub locates: AtomicU64,
    pub slices: AtomicU64,
}

impl ServerState {
    fn new(config: &ServeConfig) -> ServerState {
        ServerState {
            cache: ArtifactCache::new(config.cache_bytes),
            memo: VerifyMemo::shared(),
            workers: config.workers,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            locates: AtomicU64::new(0),
            slices: AtomicU64::new(0),
        }
    }
}

/// A running server; dropping it leaks the threads, so call
/// [`shutdown`](ServerHandle::shutdown) (or keep it alive forever).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process inspection in tests.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until every thread exits (the server runs until killed).
    pub fn join(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds the listener and starts the accept thread and worker pool.
///
/// # Errors
///
/// Returns a message when the address does not bind.
pub fn start(config: ServeConfig) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| format!("cannot bind `{}`: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let state = Arc::new(ServerState::new(&config));
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<TcpStream>(config.queue.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::new();
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        workers.push(
            std::thread::Builder::new()
                .name(format!("omislice-serve-{i}"))
                .spawn(move || loop {
                    let conn = rx.lock().unwrap().recv();
                    match conn {
                        Ok(stream) => handle_connection(&state, stream),
                        Err(_) => break, // accept thread gone: drain done
                    }
                })
                .map_err(|e| format!("cannot spawn worker: {e}"))?,
        );
    }

    let accept = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("omislice-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(mut returned)) => {
                            // Shed load on the accept thread: never block
                            // behind a slow pipeline.
                            state.overloaded.fetch_add(1, Ordering::Relaxed);
                            respond_json(
                                &mut returned,
                                503,
                                &error_body("overloaded", "request queue is full; retry"),
                            );
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            })
            .map_err(|e| format!("cannot spawn accept thread: {e}"))?
    };

    Ok(ServerHandle {
        addr,
        state,
        stop,
        accept: Some(accept),
        workers,
    })
}

fn respond_json(stream: &mut TcpStream, status: u16, body: &Json) {
    let text = format!("{body}\n");
    let _ = crate::http::write_response(stream, status, "application/json", text.as_bytes());
}

/// Serves one connection: frame, route, respond. Never panics outward.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    state.requests.fetch_add(1, Ordering::Relaxed);
    // One request's recovery ledger must not leak into the next.
    let _ = take_recovery();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match crate::http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_json(
                &mut stream,
                e.status,
                &error_body("bad-request", &e.message),
            );
            return;
        }
    };

    let (status, body) = route(state, &request);
    if status >= 400 {
        state.errors.fetch_add(1, Ordering::Relaxed);
    }
    match body {
        Body::Json(v) => respond_json(&mut stream, status, &v),
        Body::Text(t) => {
            let _ = crate::http::write_response(
                &mut stream,
                status,
                "text/plain; version=0.0.4",
                t.as_bytes(),
            );
        }
    }
}

enum Body {
    Json(Json),
    Text(String),
}

fn route(state: &ServerState, request: &crate::http::Request) -> (u16, Body) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, Body::Json(health_body(state))),
        ("GET", "/metrics") => {
            let set = metrics_set(state);
            if request.query.as_deref() == Some("format=json") {
                (200, Body::Json(set.to_json()))
            } else {
                (200, Body::Text(set.to_prometheus()))
            }
        }
        ("POST", "/locate") => guarded(state, &request.body, handle_locate),
        ("POST", "/slice") => guarded(state, &request.body, handle_slice),
        (_, "/healthz" | "/metrics" | "/locate" | "/slice") => (
            405,
            Body::Json(error_body(
                "method-not-allowed",
                &format!("{} is not supported on {}", request.method, request.path),
            )),
        ),
        (_, path) => (
            404,
            Body::Json(error_body("not-found", &format!("no route for {path}"))),
        ),
    }
}

/// Parses the JSON body and runs the handler under `catch_unwind`: a
/// crashing request becomes a structured 500, never a dead worker.
fn guarded(
    state: &ServerState,
    raw: &[u8],
    handler: fn(&ServerState, &Json) -> Result<Json, ApiError>,
) -> (u16, Body) {
    let text = match std::str::from_utf8(raw) {
        Ok(t) => t,
        Err(_) => return (400, Body::Json(error_body("bad-json", "body is not UTF-8"))),
    };
    let body = match omislice_obs::json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, Body::Json(error_body("bad-json", &e))),
    };
    match catch_unwind(AssertUnwindSafe(|| handler(state, &body))) {
        Ok(Ok(v)) => (200, Body::Json(v)),
        Ok(Err(e)) => (e.status, Body::Json(error_body(e.code, &e.message))),
        Err(panic) => {
            state.panics.fetch_add(1, Ordering::Relaxed);
            // The unwound pipeline may have noted recoveries; drop them.
            let _ = take_recovery();
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            (
                500,
                Body::Json(error_body(
                    "panic",
                    &format!("request handler panicked: {message}"),
                )),
            )
        }
    }
}
