#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Disjoint-set forests for dense-subgraph hierarchy construction.
//!
//! Two structures are provided:
//!
//! * [`DisjointSets`] — the textbook union-find with union-by-rank and
//!   path compression (Algorithm 4 of Sarıyüce & Pinar, VLDB 2016);
//! * [`RootedForest`] — the paper's *new* variant (Algorithm 7), where
//!   each node carries **two** pointers:
//!   - `parent`: the permanent link of the hierarchy-skeleton tree
//!     (never rewritten by finds), and
//!   - `root`: the union-find link used to locate the *greatest
//!     ancestor* of a node quickly (path-compressed by `find_r`).
//!
//!   `link_r` sets both pointers of the losing root, so the skeleton tree
//!   and the union-find overlay stay consistent while `find_r` stays
//!   amortized-inverse-Ackermann fast.

pub mod classic;
pub mod rooted;

pub use classic::DisjointSets;
pub use rooted::RootedForest;
