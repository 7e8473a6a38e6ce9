//! # ic-serve — an embeddable similarity service
//!
//! Load instances once, answer many comparison requests over time: a
//! dependency-free request-serving layer over the [`ic_core::Comparator`],
//! for update-and-recompare workloads where callers should not have to
//! link the workspace and hold both instances in one process.
//!
//! Three layers:
//!
//! * [`catalog`] — a registry of named, schema-aligned instances loaded
//!   from CSV directories or registered programmatically, with
//!   copy-on-write snapshot replacement: in-flight requests never observe
//!   a torn update. Every mutation is one [`ic_store::CatalogOp`] applied
//!   through [`ServeCatalog::apply`]; opened with a [`ic_store::Storage`]
//!   backend the catalog is durable — ops are write-ahead logged and
//!   recovered (snapshot + WAL replay) on reopen.
//! * [`proto`] + [`frame`] + [`json`] — a length-prefixed JSON-lines wire
//!   format (hand-rolled encoder/decoder, no serde) with request kinds
//!   `load`, `list`, `compare`, `search`, `patch`, `stats`, `shutdown`,
//!   request ids echoed in responses, and typed error payloads mapped from
//!   [`ic_core::Error`].
//! * [`server`] (Linux-only) — the serving runtime: a bounded request
//!   queue feeding dedicated worker threads, admission control (queue-full
//!   returns `overloaded` instead of blocking), per-request deadlines,
//!   per-request [`ic_obs`] spans exported through `stats`, and graceful
//!   drain-then-close shutdown. Connections are driven by a
//!   readiness-based epoll event loop: bounded threads and memory at tens
//!   of thousands of connections, pipelined requests with out-of-order
//!   completion.
//! * [`sigcache`] — a signature-map cache keyed by instance pointer
//!   identity: hot catalog instances pay the sigmap build once, a `load`
//!   that replaces an instance invalidates its entry automatically
//!   (copy-on-write snapshots make staleness a pointer comparison), and a
//!   catalog-subscription sweep evicts entries for removed instances so
//!   nothing stays pinned forever.
//!
//! `search` requests run through an [`ic_index::CatalogIndex`] kept in
//! sync with the catalog: sketch + signature-overlap prefiltering chooses
//! which entries get a full comparison, and every returned score is
//! bit-identical to an unbudgeted `compare` of the same pair.
//!
//! All serve-layer locks are poison-tolerant: a panic inside one request
//! (engine bug, panicking observation sink) is answered with a typed
//! `internal` error and subsequent requests proceed normally.
//!
//! [`client`] is a small blocking client over the same protocol. It, the
//! catalog and the wire modules are portable; only the server needs Linux.
//!
//! ## In-process quickstart
//!
//! ```
//! use ic_serve::{Client, CompareOptions, Algo, Server, ServerConfig, ServeCatalog};
//! use ic_model::{Instance, Schema};
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(ServeCatalog::new(Schema::single("R", &["A", "B"])));
//! for name in ["v1", "v2"] {
//!     catalog.register_with(name, |cat| {
//!         let mut inst = Instance::new(name, cat);
//!         let (a, b) = (cat.konst("a"), cat.konst("b"));
//!         let n = cat.fresh_null();
//!         inst.insert(ic_model::RelId(0), vec![a, if name == "v1" { b } else { n }]);
//!         Ok(inst)
//!     }).unwrap();
//! }
//!
//! let server = Server::start(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::new(server.local_addr()).unwrap();
//! let scores = client
//!     .compare("v1", "v2", Algo::Signature, CompareOptions::default())
//!     .unwrap();
//! assert!(scores.signature.unwrap() > 0.0);
//! client.shutdown().unwrap();
//! server.wait();
//! ```
//!
//! The standalone binary (`cargo run -p ic-serve --bin serve`) exposes the
//! same server over a fixed port; see the README quickstart.

#![warn(missing_docs)]

pub mod catalog;
pub mod client;
#[cfg(target_os = "linux")]
mod conn;
pub mod frame;
pub mod json;
mod lockutil;
#[cfg(target_os = "linux")]
pub mod poll;
pub mod proto;
#[cfg(target_os = "linux")]
pub mod server;
pub mod sigcache;

pub use catalog::{ApplyOutcome, CatalogError, ServeCatalog, Snapshot};
pub use client::{
    Client, ClientBuilder, ClientError, CompareOptions, DiscoverOptions, DiscoveryResults,
};
pub use frame::{FrameError, FrameReader, MAX_FRAME_LEN};
pub use json::Json;
pub use proto::{
    Algo, AttrRef, CompareScores, DiscoveredFdInfo, DiscoveredKeyInfo, ErrorCode, InstanceInfo,
    PatchOp, PatchValue, Request, Response, SearchResult, SearchResults, ServerStats, SpanStat,
};
#[cfg(target_os = "linux")]
pub use server::{
    ConnStats, Server, ServerConfig, ServerHandle, COMPARE_LABEL, DISCOVER_LABEL, SEARCH_LABEL,
};
pub use sigcache::{SigCacheStats, SigMapCache};
