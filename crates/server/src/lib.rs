//! mgba-server: a long-running, multi-session timing-query daemon.
//!
//! Loading a netlist, building the STA graph, and fitting mGBA weights
//! are the expensive steps of the paper's flow; a batch CLI pays them on
//! every invocation. This crate keeps calibrated [`session::Session`]s
//! resident — one per client-chosen session name — and serves cheap
//! queries (`slack`, `wns`, `tns`, `path`) and incremental what-if
//! experiments (`whatif_resize`) against them over a JSON-lines
//! protocol — std::net TCP or stdio, no external dependencies.
//!
//! Layout:
//!
//! - [`json`] — strict JSON parser for request lines (emission reuses
//!   [`obs::json::JsonWriter`]).
//! - [`proto`] — protocol v2 request/command grammar (session
//!   addressing, `hello` negotiation, structured error codes) and
//!   response envelopes; all failures route through
//!   [`mgba::MgbaError`].
//! - [`session`] — one resident design + engine + weights, every
//!   command handler, and the journal whose replay rebuilds a session
//!   after a panic or a restart.
//! - [`registry`] — the session shard map: one writer lane per session
//!   running every command in admission order, the gauges each lane
//!   publishes for other sessions' `metrics` rows, the always-on
//!   latency histograms ([`obs::metrics::Histogram`]) and the merged
//!   stats/metrics views.
//! - [`server`] — bounded-queue admission, deadlines, graceful drain,
//!   TCP/stdio front-ends.
//! - [`client`] — typed `Request`/`Response` wire API with
//!   connect/timeout/retry, shared by the CLI `query` command and the
//!   bench harness.
//! - [`wal`] — per-session write-ahead log: checksummed,
//!   length-prefixed records of acknowledged mutations, torn-tail
//!   recovery, and post-checkpoint compaction (`--state-dir`
//!   durability; see `DESIGN.md` §16).
//!
//! Protocol reference lives in `DESIGN.md` §13 (v2) and §9 (daemon
//! architecture); CLI usage in `README.md`.

pub mod client;
pub mod json;
pub mod proto;
pub mod registry;
pub mod server;
pub mod session;
pub mod suggest;
pub mod wal;

pub use client::{Client, ClientConfig, Response, WireError};
pub use server::{serve_stdio, serve_stream, Server, ServerConfig};
pub use session::Session;
