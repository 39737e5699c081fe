#![warn(missing_docs)]

//! # nucleus-serve — a concurrent query service over prepared spaces
//!
//! The hierarchies built by `nucleus-core` (Sarıyüce & Pinar, VLDB
//! 2016) become useful in production when they can be *queried*: which
//! nuclei contain vertex v, how dense is its community, what is the
//! densest subgraph the decomposition found. This crate provides that
//! layer, in two pieces:
//!
//! * **[`ServeState`]** — the query engine. Wraps a
//!   [`Prepared`](nucleus_core::Prepared) session, takes the hierarchy
//!   a persisted index stored or else builds it once on first use
//!   (cached as `Arc<Hierarchy>` behind a `OnceLock`), and answers
//!   typed requests — λ lookups,
//!   containing-nuclei chains, members, subtree structure, per-node
//!   density, the densest node, level profiles and stats — as
//!   lock-free reads over immutable state. Usable directly from a
//!   library or the one-shot `nucleus query` CLI.
//! * **[`serve`]** — the server. `std::net::TcpListener` plus a fixed
//!   pool of scoped worker threads (no async runtime, no external
//!   crates), speaking line-delimited JSON ([`protocol`]), with
//!   per-request metrics ([`metrics`]), per-request timeout and
//!   oversize guards, and graceful shutdown via a `shutdown` request
//!   or a signal file.
//! * **[`DynamicServeState`]** — the mutable engine. Holds a
//!   `nucleus-dynamic` graph as the source of truth and answers the
//!   same queries from an immutable epoch of it; a `mutate` request
//!   applies a batched edge-op stream, prepares the next epoch off the
//!   accept loop, and atomically swaps it in (the epoch counter shows
//!   up in `stats`).
//!
//! ```no_run
//! use nucleus_core::{Kind, Nucleus};
//! use nucleus_serve::{serve, Client, ServeConfig, ServeState};
//!
//! let g = nucleus_graph::CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
//! let prepared = Nucleus::builder(&g).kind(Kind::Truss).prepare().unwrap();
//! let state = ServeState::new(prepared);
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! std::thread::scope(|scope| {
//!     scope.spawn(|| serve(listener, &state, &ServeConfig::default()));
//!     let mut c = Client::connect(addr).unwrap();
//!     let resp = c.roundtrip(r#"{"query":"lambda","cell":0}"#).unwrap();
//!     assert!(resp.starts_with(r#"{"ok":true"#));
//!     c.roundtrip(r#"{"query":"shutdown"}"#).unwrap();
//! });
//! ```

pub mod client;
pub mod dynamic;
pub mod engine;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use dynamic::DynamicServeState;
pub use engine::{DensestAnswer, QueryAnswerer, ServeState};
pub use metrics::{Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use protocol::{
    err_response, ok_response, ErrorCode, ProtocolError, Query, Request, QUERY_NAMES,
};
pub use server::{serve, ServeConfig, ServerReport};
