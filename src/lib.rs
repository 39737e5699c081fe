#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # nucleus-hierarchy
//!
//! Umbrella crate for the workspace reproducing **"Fast Hierarchy
//! Construction for Dense Subgraphs"** (Sarıyüce & Pinar, VLDB 2016):
//! k-core (1,2), (1,3), k-truss-community (2,3), (2,4) and
//! (3,4)-nucleus decompositions *with their full containment
//! hierarchies*, built by the paper's DFT and FND algorithms plus every
//! baseline the paper compares against.
//!
//! The heavy lifting lives in the member crates, re-exported here:
//!
//! * [`graph`] — CSR graphs, edge ids, bucket queues, I/O;
//! * [`dsf`] — classic and root-augmented disjoint-set forests;
//! * [`cliques`] — triangle / K4 enumeration substrate;
//! * [`gen`] — seeded synthetic generators and surrogate datasets;
//! * [`core`] — peeling, hierarchies, and the algorithms themselves;
//! * [`dynamic`] — batched incremental maintenance for mutable graphs.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the
//! `nucleus-bench` crate for the harness that regenerates every table
//! and figure of the paper's evaluation.

pub use nucleus_cliques as cliques;
pub use nucleus_core as core;
pub use nucleus_dsf as dsf;
pub use nucleus_dynamic as dynamic;
pub use nucleus_gen as gen;
pub use nucleus_graph as graph;

/// Everything a typical application needs.
pub mod prelude {
    pub use nucleus_core::prelude::*;
    pub use nucleus_dynamic::{DynamicGraph, EdgeOp, UpdateReport};
    pub use nucleus_graph::CsrGraph;
}
