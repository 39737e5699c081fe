#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Deterministic synthetic graph generators.
//!
//! The VLDB'16 evaluation runs on nine real-world networks (SNAP, UF,
//! Network Repository) that cannot be redistributed or fetched offline.
//! This crate provides seeded generators whose outputs exercise the same
//! structural regimes (the registry is [`dataset_names`]; the
//! [`surrogate`] module docs give the per-dataset mapping), plus the
//! classic deterministic graphs and the paper's illustrative figure
//! graphs used throughout the test suite.
//!
//! All generators take an explicit `u64` seed and are fully reproducible.

pub mod ba;
pub mod classic;
pub mod er;
pub mod holme_kim;
pub mod karate;
pub mod paper;
pub mod planted;
pub mod rmat;
pub mod surrogate;
pub mod ws;

pub use surrogate::{dataset, dataset_names, Scale};
