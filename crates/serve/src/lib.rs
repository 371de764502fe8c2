//! The ISE service front-end: `ised`, a long-lived daemon that turns the
//! batch pipeline (kernel in, ISEs out) into an always-on service —
//! the ROADMAP's serve-at-scale groundwork.
//!
//! Clients speak newline-delimited JSON over TCP (see [`proto`] for the
//! full request/response table): submit a program in the text IR of
//! [`isegen_ir::text`], request ISE selection under any
//! [`isegen_core::SearchConfig`] / port budget, and fetch the
//! synthesizable Verilog, netlist shapes and area estimates of the
//! resulting AFUs.
//!
//! What makes it a service rather than a CLI in a loop:
//!
//! * **Per-block context caching** ([`ServeCache`]): the O(V·E/64)
//!   search precomputation ([`isegen_core::ContextData`]) of every
//!   submitted block stays resident, LRU-bounded, keyed by the hash of
//!   the canonical IR text; repeated selections are memoised per
//!   `(application, configuration)`. Hit/miss/eviction counters are one
//!   `stats` request away.
//! * **Concurrent serving** ([`Server`]): one scoped worker thread per
//!   connection over the shared cache; a request's `threads` budget
//!   fans each of its cut searches out over that many threads. The TCP front
//!   is one private module shared with [`fleet::Router`].
//! * **Panic-proof request path**: hostile input — malformed JSON,
//!   truncated IR, zero port budgets, non-finite, negative or over-cap
//!   gain weights, unknown hashes, megabyte lines — produces structured
//!   error responses; a `catch_unwind` backstop keeps even a bug from
//!   killing the connection. Fuzzed in `tests/serve_roundtrip.rs`.
//!
//! # In-process example
//!
//! ```
//! use isegen_serve::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind(
//!     "127.0.0.1:0",
//!     ServerConfig { verbose: false, ..ServerConfig::default() },
//! )?;
//! let addr = server.local_addr();
//! std::thread::scope(|scope| -> std::io::Result<()> {
//!     let handle = scope.spawn(|| server.run());
//!     let mut conn = std::net::TcpStream::connect(addr)?;
//!     writeln!(conn, r#"{{"op":"ping"}}"#)?;
//!     writeln!(conn, r#"{{"op":"shutdown"}}"#)?;
//!     let mut lines = BufReader::new(conn).lines();
//!     assert!(lines.next().unwrap()?.contains("pong"));
//!     handle.join().expect("server thread")?;
//!     Ok(())
//! })?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod disk;
pub mod fleet;
mod front;
pub mod json;
pub mod proto;
mod server;
mod service;
pub mod wire;

pub use cache::{AppEntry, CacheCounters, DiskCounters, SelectionKey, ServeCache, SubmitError};
pub use proto::{ProtoError, RequestConfig};
pub use server::{Server, ServerConfig};
pub use service::Service;
pub use wire::{Framing, WireLimits, MAX_FRAME_BYTES, MAX_LINE_BYTES};
