//! `omislice-serve` — the resident fault-localization service.
//!
//! The paper's pipeline (trace → union dependence graph →
//! implicit-dependence verification) is fast enough at scale that
//! process startup and artifact re-parsing dominate a one-shot CLI
//! invocation. This crate promotes the pipeline into a long-running
//! threaded HTTP/JSON server: parsed programs, analyses, failing
//! traces, and the cross-iteration [`VerifyMemo`](omislice::VerifyMemo)
//! persist across requests in a byte-budgeted
//! [`ArtifactCache`](cache::ArtifactCache), shared immutably behind
//! `Arc`s.
//!
//! Endpoints:
//!
//! | Route          | Meaning                                      |
//! |----------------|----------------------------------------------|
//! | `POST /locate` | run fault localization for a program version |
//! | `POST /slice`  | dynamic backward / relevant slice            |
//! | `GET /metrics` | Prometheus text (or `?format=json`)          |
//! | `GET /healthz` | liveness                                     |
//!
//! Everything is hand-rolled over `std` (`TcpListener`, a bounded
//! `sync_channel`, `catch_unwind`) — the build environment is offline,
//! so the server takes no dependencies the interpreter does not already
//! have.

pub mod api;
pub mod cache;
pub mod http;
pub mod server;

pub use cache::{ArtifactCache, CacheStats, DEFAULT_CACHE_CAPACITY};
pub use server::{start, ServeConfig, ServerHandle, ServerState};
