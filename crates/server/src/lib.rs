//! # gleipnir-server
//!
//! Gleipnir as a **network service**: a dependency-free HTTP/1.1 + JSON
//! daemon fronting one shared [`gleipnir_core::Engine`], with a
//! persistent SDP-certificate store that makes restarts warm and a
//! peer-sync protocol that lets a fleet of daemons share certificates.
//!
//! The transport is a **nonblocking reactor** (`reactor.rs` + `poll.rs`):
//! one event-loop thread multiplexes the listener and every connection
//! over `poll(2)` (no libc crate — the same direct-syscall trick as
//! `signal.rs`), parses requests incrementally (`http.rs`), and hands
//! complete requests to a bounded job queue drained by HTTP worker
//! threads. Keep-alive is the HTTP/1.1 default and pipelined requests
//! are answered in order (one request per connection is in flight at a
//! time). The whole-request deadline arms at accept (`408` for stalled
//! or trickling clients), idle keep-alive connections close silently,
//! and every error response is drained before close so it is never
//! RST'd out of the client's receive buffer.
//!
//! The library exposes everything the `gleipnir serve` subcommand (and the
//! integration tests and the repository benchmark) need:
//!
//! * [`spawn`] / [`ServerHandle`] — run a server in-process on any
//!   address (`127.0.0.1:0` for tests), shut it down gracefully;
//! * [`ServerConfig`] — address, worker count, **bounded serving
//!   capacity** (excess connections ⇒ `429`), whole-request and
//!   keep-alive deadlines, engine pool size, `--cache-dir`, `--peers`;
//! * [`json`] — the minimal JSON parser for request bodies;
//! * [`spec`] — the textual parameter specs shared with the CLI flags;
//! * [`wire`] — body ⇄ [`gleipnir_core::AnalysisRequest`] conversion;
//! * [`signal::install_shutdown_signals`] — SIGINT/SIGTERM → atomic flag.
//!
//! ## Endpoints
//!
//! | Endpoint | Body | Response |
//! |---|---|---|
//! | `POST /analyze` | GLQ source + params (see [`wire`]) | `{"ok":true,"report":{…}}` |
//! | `POST /batch` | `{"programs":[…]}` | per-entry results |
//! | `GET /healthz` | — | `{"ok":true,"status":"ok",…}` plus uptime, version, and worker/queue saturation |
//! | `GET /metrics` | — | the JSON keys of the metric catalog in `docs/OBSERVABILITY.md` |
//! | `GET /metrics?format=prometheus` | — | the catalog's Prometheus series (text exposition format v0.0.4) |
//! | `GET /trace/<id>` | — | the span tree for a recent request, by the `X-Trace-Id` its response carried (see `docs/OBSERVABILITY.md`) |
//! | `GET /certs/since/<seq>` | — | framed certificate records from sequence `<seq>` (the peer-sync feed) |
//!
//! Overload answers `429` (never a hang), malformed bytes `400`,
//! oversized heads or declared bodies `413`, stalled requests `408`,
//! semantically invalid requests and failed analyses `422`. Every
//! worker-routed response carries an `X-Trace-Id` header; `requests_total`
//! counts every response the server generates (routed responses *and*
//! protocol-level `429`/`400`/`413`/`408`), while `http_err` counts error
//! responses plus reads that died before producing one.
//!
//! ## Fleet certificate sharing
//!
//! With `--peers host:port,…` a gossip loop (`peer.rs`) polls each
//! peer's `/certs/since/<cursor>` feed and imports new records through
//! [`gleipnir_core::CertStore`]`::import_sync`, which **re-certifies
//! every record** (rebuild the SDP from the content address; the stored
//! dual must re-prove the stored ε) before it can answer anything — a
//! malicious or corrupt peer degrades to a cache miss, never an unsound
//! bound. Accepted records flow through the same persist path as local
//! solves, so sync is transitive and idempotent across restarts.
//!
//! ## Why certificates survive restarts
//!
//! Every `(ρ̂, δ)`-diamond certificate the engine pays for is appended to
//! `--cache-dir` (content-addressed, checksummed, with its weak-duality
//! dual vector). On startup the store is re-verified entry by entry —
//! see [`gleipnir_core::CertStore`] — so a second process answers the
//! same workload with **zero new SDP solves** and bit-identical ε, while
//! a corrupted store degrades to cache misses, never to an unsound bound.

#![warn(missing_docs)]

mod config;
mod http;
pub mod json;
mod metrics;
mod peer;
mod poll;
mod reactor;
mod server;
pub mod signal;
pub mod spec;
pub mod wire;

pub use config::ServerConfig;
pub use server::{spawn, ServerError, ServerHandle};
