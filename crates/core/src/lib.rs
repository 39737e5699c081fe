#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # nucleus-core — fast hierarchy construction for dense subgraphs
//!
//! A faithful implementation of *"Fast Hierarchy Construction for Dense
//! Subgraphs"* (Sarıyüce & Pinar, PVLDB 10(3), VLDB 2016): nucleus
//! decompositions — k-core = (1,2), vertices by triangles (1,3),
//! k-truss community = (2,3), edges by four-cliques (2,4) and the (3,4)
//! four-clique nuclei — **with the full containment hierarchy**, not
//! just the peeling numbers.
//!
//! ## Glossary (Table 2 of the paper)
//!
//! | symbol | here | meaning |
//! |--------|------|---------|
//! | K_r | *cell* | r-clique being peeled (vertex / edge / triangle) |
//! | K_s | *container* | s-clique providing the degree (edge / triangle / K4) |
//! | ω_s(u) | [`space::PeelBackend::degrees`] | number of containers of cell u |
//! | λ_s(u) | [`peel::Peeling::lambda`] | max k with u in a k-(r,s) nucleus |
//! | k-(r,s) nucleus | [`hierarchy::HierarchyNode`] subtree | maximal, K_s-connected, min ω ≥ k |
//! | T_{r,s} | sub-nucleus | maximal strongly-connected equal-λ cell set |
//! | T*_{r,s} | FND sub-nucleus | possibly non-maximal T (Alg. 8 artifact) |
//!
//! ## Quick start
//!
//! ```
//! use nucleus_core::prelude::*;
//!
//! // two triangles sharing an edge, plus a tail
//! let g = nucleus_graph::CsrGraph::from_edges(
//!     5,
//!     &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)],
//! );
//! let d = decompose(&g, Kind::Core, Algorithm::Fnd).unwrap();
//! assert_eq!(*d.peeling.lambda, [2, 2, 2, 2, 1]);
//! // one 1-core spanning everything, one 2-core inside it
//! assert_eq!(d.hierarchy.nuclei_at(1).len(), 1);
//! assert_eq!(d.hierarchy.nuclei_at(2).len(), 1);
//! ```
//!
//! [`decompose()`] runs with the default settings. [`Nucleus::builder`]
//! is the one place to choose the backend and thread count, and its [`Prepared`] session runs any number of algorithms
//! over one prepared space (see [`session`]).

pub mod algo;
pub mod decompose;
pub mod error;
pub mod export;
pub mod hierarchy;
pub mod peel;
pub mod persist;
pub mod plan;
pub mod report;
pub mod session;
pub mod skeleton;
pub mod space;
pub mod validate;
pub mod weighted;

#[cfg(test)]
pub(crate) mod test_graphs;

pub use algo::fnd::FrontierOptions;
pub use decompose::{
    decompose, hypo_baseline, Algorithm, Backend, Decomposition, Kind, PhaseTimes,
};
pub use error::CoreError;
pub use hierarchy::{Hierarchy, HierarchyNode};
pub use peel::{peel, Peeling};
pub use persist::PreparedIndex;
pub use plan::Plan;
pub use session::{Nucleus, NucleusBuilder, Prepared};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::algo::fnd::{
        build_hierarchy, fnd, fnd_classify, FndClassified, FndOptions, FrontierOptions,
    };
    pub use crate::algo::lcps::lcps;
    pub use crate::decompose::{
        decompose, hypo_baseline, Algorithm, Backend, Decomposition, Kind, PhaseTimes,
    };
    pub use crate::export::hierarchy_to_dot;
    pub use crate::hierarchy::{Hierarchy, HierarchyNode};
    pub use crate::peel::{peel, Peeling};
    pub use crate::persist::PreparedIndex;
    pub use crate::plan::Plan;
    pub use crate::report::{describe, nucleus_vertices, render_tree, summarize_nucleus};
    pub use crate::session::{Nucleus, NucleusBuilder, Prepared};
    pub use crate::space::{
        ContainerIndex, EdgeK4Space, EdgeSpace, IndexedSpace, PeelBackend, PeelSpace,
        TriangleSpace, VertexSpace, VertexTriangleSpace,
    };
    pub use crate::weighted::{weighted_core_decomposition, weighted_core_numbers};
}
