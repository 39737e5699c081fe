//! Hierarchy-construction algorithms.
//!
//! * [`naive`] — Algorithms 2/3: one traversal per k level (baseline);
//! * [`dft`] — Algorithms 5/6: single decreasing-λ traversal with the
//!   root-augmented disjoint-set forest;
//! * [`fnd`] — Algorithms 8/9: traversal-free, hierarchy built during
//!   peeling (the paper's headline contribution);
//! * [`lcps`] — Matula & Beck's Level Component Priority Search, adapted
//!   with a bucket priority queue (k-core only, §5.1);
//! * [`hypo`] — the hypothetical best traversal-based baseline.

pub mod dft;
pub mod fnd;
pub mod hypo;
pub mod lcps;
pub mod naive;
