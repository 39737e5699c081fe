#![warn(missing_docs)]

//! # nucleus-dynamic — batched incremental maintenance for mutable graphs
//!
//! The paper's sub-nucleus machinery (§3.1, T₁,₂ "subcores") descends
//! from the streaming k-core insight that one edge update perturbs λ
//! only within the subcore of the update's lower-λ endpoint. This crate
//! turns that into a subsystem: a [`DynamicGraph`] holds mutable
//! adjacency plus per-family λ state, and a batched
//! [`apply`](DynamicGraph::apply) coalesces the ops and re-peels only
//! the affected regions:
//!
//! * **(1,2) core** — exact incremental repair (bounded subcore
//!   traversal with a stamp trick);
//! * **(2,3) truss** — exact incremental repair (bounded sub-truss
//!   traversal, level-by-level promotion/demotion);
//! * **(1,3), (2,4), (3,4)** — scoped recompute over the touched
//!   connected components, with [`UpdateReport::strategy`] saying so.
//!
//! Every batch returns an [`UpdateReport`] whose accounting
//! (`applied + skipped + coalesced == batch length`) lets stream
//! callers detect typo'd ops, and whose `needs_reindex` bit — together
//! with [`DynamicGraph::fingerprint`] and
//! [`PreparedIndex::matches_fingerprint`](nucleus_core::PreparedIndex::matches_fingerprint)
//! — drives the invalidation story for persisted indexes and the serve
//! layer's epoch swapping.
//!
//! ```
//! use nucleus_core::Kind;
//! use nucleus_dynamic::{DynamicGraph, EdgeOp, Strategy};
//!
//! let g = nucleus_gen::classic::complete(4);
//! let mut dg = DynamicGraph::new(&g, Kind::Truss);
//! assert_eq!(dg.lambda_of_edge(0, 1), Some(2)); // K4: 2 triangles/edge
//! let report = dg.apply(&[EdgeOp::Delete(2, 3), EdgeOp::Delete(0, 3)]);
//! assert_eq!(report.applied, 2);
//! assert_eq!(report.strategy, Strategy::Incremental);
//! assert_eq!(dg.lambda_of_edge(0, 2), Some(1)); // triangle (0,1,2) left
//! assert_eq!(dg.lambda_of_edge(1, 3), Some(0)); // pendant edge
//! ```

mod cores;
mod graph;
mod ops;
mod scoped;
mod truss;

pub use graph::DynamicGraph;
pub use ops::{EdgeOp, Strategy, UpdateReport};
