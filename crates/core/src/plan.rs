//! Up-front resolution of a decomposition run: which backend will
//! actually execute, whether the requested combination is legal at all,
//! and a human-readable explanation.
//!
//! [`validate`] rejects an algorithm its family does not support with a
//! structured [`CoreError`], and [`Plan`] records the *resolved* choices
//! ([`Backend::Auto`] pinned to what will really run) together with the
//! size facts that drove them, so a caller — or the `nucleus decompose
//! --explain` CLI flag — can see what a run will do before paying for
//! it.
//!
//! Plans are produced by [`crate::session::Prepared::plan`];
//! [`crate::session::Prepared::run`] funnels through the same
//! [`validate`], so planning and running reject exactly the same
//! combinations.

use std::fmt;

use crate::decompose::{Algorithm, Backend, Kind};
use crate::error::CoreError;

/// Checks that `algorithm` applies to `kind`: [`Algorithm::Lcps`] is
/// defined for [`Kind::Core`] only ([`CoreError::UnsupportedAlgorithm`]).
/// Every other pair is legal.
pub fn validate(kind: Kind, algorithm: Algorithm) -> Result<(), CoreError> {
    if algorithm == Algorithm::Lcps && kind != Kind::Core {
        return Err(CoreError::UnsupportedAlgorithm {
            algorithm: "LCPS",
            kind: format!("{kind}"),
        });
    }
    Ok(())
}

/// The fully resolved description of one decomposition run: the
/// backend pinned to the concrete choice, plus the space facts the
/// decision was based on. Built by
/// [`crate::session::Prepared::plan`]; rendered by [`Plan::explain`]
/// (also the [`fmt::Display`] impl).
#[derive(Clone, Debug)]
pub struct Plan {
    /// The family that will be decomposed.
    pub kind: Kind,
    /// The algorithm that will run.
    pub algorithm: Algorithm,
    /// Resolved backend: [`Backend::Lazy`] or [`Backend::Materialized`],
    /// never `Auto`.
    pub backend: Backend,
    /// The peeling engine: always `"serial"`, the bucket-queue loop
    /// every session runs ([`crate::peel::peel`], or FND's extension of
    /// it). [`Plan::explain`] prints it on its `engine:` line.
    pub engine: &'static str,
    /// Effective worker threads (`0` already resolved to the CPU count).
    pub threads: usize,
    /// Number of cells (K_r's) in the prepared space.
    pub cells: usize,
    /// Total containers (Σ ω over all cells).
    pub containers: u64,
    /// Estimated [`crate::space::ContainerIndex`] footprint in bytes
    /// (what the `Auto` backend decision compared against its cap; the
    /// index is only actually allocated on materialized runs).
    pub index_bytes: usize,
    /// Why the backend came out as it did (e.g. "auto: estimated index
    /// 1.2 MiB ≤ 1 GiB cap").
    pub backend_reason: String,
    /// How the prepare phase ran (or will run) its cell enumeration —
    /// e.g. `"parallel (t=4)"`, `"serial"`, or
    /// `"skipped (persisted index)"`.
    pub enumeration: String,
}

impl Plan {
    /// Multi-line human-readable rendering: what will run, and why the
    /// backend resolved the way it did.
    pub fn explain(&self) -> String {
        format!(
            "plan: {} {} via {}\n  backend: {} — {}\n  engine:  {}\n  threads: {}\n  \
             enumeration: {}\n  \
             space:   {} cells, {} containers, estimated index {}",
            self.kind.name(),
            self.kind,
            self.algorithm,
            self.backend,
            self.backend_reason,
            self.engine,
            self.threads,
            self.enumeration,
            self.cells,
            self.containers,
            format_bytes(self.index_bytes),
        )
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// `1536` → `"1.5 KiB"`; keeps `explain` readable across 6 orders of
/// magnitude.
pub(crate) fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_each_conflict() {
        let err = validate(Kind::Truss, Algorithm::Lcps).unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedAlgorithm { .. }),
            "{err}"
        );
        // exactly the pairs `Algorithm::for_kind` lists pass
        for kind in Kind::all() {
            for algo in Algorithm::ALL {
                let legal = Algorithm::for_kind(kind).contains(&algo);
                assert_eq!(validate(kind, algo).is_ok(), legal, "{kind}/{algo}");
            }
        }
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(1536), "1.5 KiB");
        assert_eq!(format_bytes(3 << 20), "3.0 MiB");
        assert_eq!(format_bytes(5 << 30), "5.0 GiB");
    }
}
