#![warn(missing_docs)]

//! Compact undirected-graph substrate for nucleus decompositions.
//!
//! This crate provides the graph plumbing the peeling algorithms of
//! Sarıyüce & Pinar (VLDB 2016) are built on:
//!
//! * [`CsrGraph`] — an immutable, simple, undirected graph in compressed
//!   sparse row form with *stable undirected edge ids* (needed because the
//!   (2,3)-nucleus decomposition peels edges, not vertices);
//! * [`GraphBuilder`] — mutable edge accumulator that deduplicates,
//!   removes self-loops and produces a [`CsrGraph`];
//! * [`bucket`] — the two bucket-queue variants used by the paper:
//!   the Batagelj–Zaversnik min-bucket layout for peeling and a
//!   max-bucket cursor queue for the LCPS traversal;
//! * [`flat`] — fixed-arity flat record storage ([`FlatRecords`], CSR
//!   without graph semantics), the layout behind the materialized
//!   peeling backend;
//! * [`persist_io`] — the versioned, checksummed on-disk encoding of a
//!   flat record store plus the graph fingerprint that invalidates it;
//!   loading decodes a file back into a [`FlatRecords`];
//! * [`traversal`] — BFS and connected components;
//! * [`order`] — degree and degeneracy orderings;
//! * [`io`] — whitespace edge-list text format.
//!
//! Vertices and edges are identified by `u32`, which bounds graphs at
//! ~4.2 billion vertices/edges — far beyond what a single-node in-memory
//! decomposition can hold anyway, and half the memory of `usize` ids.

pub mod bucket;
pub mod builder;
pub mod csr;
pub mod error;
pub mod flat;
pub mod io;
pub mod metrics;
pub mod order;
pub mod persist_io;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, EdgeId, VertexId};
pub use error::GraphError;
pub use flat::FlatRecords;
pub use persist_io::{graph_fingerprint, GraphFingerprint, IndexImage};
