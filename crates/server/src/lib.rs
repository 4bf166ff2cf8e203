//! # structcast-server
//!
//! A long-lived, concurrent **analysis-query service** over cached
//! structcast sessions: clients ask points-to, alias, MOD/REF, and
//! model-comparison questions over a plain TCP socket and get answers
//! without ever re-running the front end or the solver for a program the
//! server has seen before.
//!
//! The paper's framework answers *queries* — what does `*p` point to, may
//! two lvalues alias, what may a function mod/ref — and the staged
//! pipeline (compile once → specialize per model → solve) makes serving
//! them cheap: stage 1 is cached per source hash, stages 2+3 per
//! `(program, model, options)`, and a warm query is a map lookup.
//!
//! ## Protocol
//!
//! Newline-delimited JSON over TCP — the only wire codec — implemented
//! entirely on `std` (`TcpListener` + a `std::thread` worker pool; the
//! [`json`] module is a hand-rolled parser/emitter). One request object
//! per line, one response object per line:
//!
//! ```text
//! → {"op": "load", "name": "bst"}
//! ← {"ok": true, "program": "bst", "hash": "…", "objects": 57, …}
//! → {"op": "points_to", "program": "bst", "var": "g_tree", "model": "offsets"}
//! ← {"ok": true, "var": "g_tree", "points_to": ["malloc_1", …], …}
//! ```
//!
//! Request kinds: `load`, `points_to`, `alias`, `modref`,
//! `compare_models`, `stats`, `shutdown` — see [`proto::Request`] and
//! `DESIGN.md` §7 for the grammar with one example per kind.
//!
//! ## In-process use
//!
//! ```
//! use structcast_server::{serve, Client, ServerConfig};
//! use structcast_server::json::Json;
//!
//! let handle = serve(&ServerConfig::default())?; // binds an ephemeral port
//! let mut client = Client::connect(handle.addr())?;
//! let resp = client.request(&Json::obj([
//!     ("op", Json::str("points_to")),
//!     ("program", Json::str("tagged-union")), // corpus programs auto-load
//!     ("var", Json::str("g_registry")),
//! ]))?;
//! assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
//! client.shutdown_server()?;
//! handle.wait();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod client;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod proto;
mod server;
pub mod snapshot;
pub mod wal;

pub use cache::{source_hash, ProgramEntry, SessionCache, Solved};
pub use client::{Client, RetryOpts};
pub use faults::FaultPlan;
pub use metrics::Metrics;
pub use proto::{QueryOpts, Request};
pub use server::{serve, ServerConfig, ServerHandle, SERVE_FLAGS};
pub use snapshot::{SnapshotError, SNAPSHOT_FILE};
