//! # strudel-server
//!
//! A resident HTTP/1.1 classification daemon for Strudel — the serving
//! layer the ROADMAP's production north star asks for. The one-shot CLI
//! pays model load (or training) on every invocation; downstream
//! consumers of structure detection (ingestion services, RAG chunking
//! pipelines) call it per document at request time, where cold starts
//! dominate. `strudel serve` loads the trained model once, keeps it
//! warm, and classifies request bodies (raw CSV bytes) into the
//! canonical structure JSON of `Structure::to_json` — byte-identical to
//! `strudel detect --json` on the same input.
//!
//! Built on `std::net::TcpListener` only: zero external dependencies,
//! like the rest of the workspace.
//!
//! ## Endpoints
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/classify` (or `/`) | POST | classify raw CSV bytes → structure JSON |
//! | `/classify/stream` | POST | bounded-memory streaming classification: chunked request body → chunked NDJSON window events |
//! | `/pack` | POST | pack raw CSV bytes into the structure-aware container; the `X-Strudel-Pack-Key` header returns its content-hash address |
//! | `/pack/<key>` | GET | fetch a cached container, or selectively unpack it with `?table=N` / `?column=NAME[&table=N]` |
//! | `/healthz` | GET | liveness probe (`200 ok`) |
//! | `/metrics` | GET | Prometheus text: request/cache/shed counters + per-stage timings |
//! | `/admin/reload` | POST | validate + atomically swap the model (body: optional path) |
//! | `/admin/shutdown` | POST | graceful shutdown, draining in-flight requests |
//!
//! ## Operational properties
//!
//! - **Shard-per-core serving**: the listener is dup'ed into N
//!   shared-nothing shard threads, each driving its own accepted
//!   connections with a nonblocking `poll(2)` readiness loop — no
//!   accept queue, no lock on the accept→serve path. Connections are
//!   HTTP/1.1 keep-alive with pipelining, bounded by idle and
//!   per-connection request caps.
//! - **Admission control**: each shard owns a fixed connection budget;
//!   overflow is shed immediately with `503` + `Retry-After` +
//!   `Connection: close`, so latency stays bounded under overload.
//! - **Result caching**: one content-hash-keyed LRU maps request bytes
//!   to finished structure JSON, and a second one holds `/pack`
//!   containers; repeat requests skip the whole pipeline, whichever
//!   shard accepts them. Hit/miss counters for both cache families are
//!   exported via `/metrics`.
//! - **Per-request limits**: the core [`Limits`](strudel::Limits) and
//!   deadline machinery bounds bytes, rows, cells, and wall clock per
//!   request; an oversized body is refused with `413` *before* it is
//!   read.
//! - **Hot reload**: a new model file is fully loaded and validated
//!   (corrupt-model checks) before the `Arc` swap — a bad file never
//!   takes down the server.
//! - **Bounded-memory streaming**: `POST /classify/stream` pipes the
//!   request body (chunked transfer encoding or `Content-Length`)
//!   through a per-connection [`StreamClassifier`](strudel::StreamClassifier),
//!   emitting one NDJSON event per classified window as it closes plus
//!   a final summary — peak memory per connection is O(window),
//!   independent of body size.

#![warn(missing_docs)]

mod cache;
pub mod http;
pub mod loadtest;
mod metrics;
mod server;
mod shard;

pub use cache::{CacheKey, ResultCache};
pub use metrics::Registry;
pub use server::{Server, ServerConfig, ServerHandle};
