//! Up-front resolution of a decomposition run: which backend and engine
//! will actually execute, whether the requested combination is legal at
//! all, and a human-readable explanation.
//!
//! This module is the single home of the cross-constraint checks
//! (frontier × lazy, frontier × LCPS, LCPS × non-core). [`validate`]
//! rejects contradictory combinations with structured [`CoreError`]s,
//! and [`Plan`] records the *resolved* choices ([`Backend::Auto`]
//! pinned to what will really run, and the engine) together with the
//! size facts that drove them, so a caller — or the `nucleus decompose
//! --explain` CLI flag — can see what a run will do before paying for
//! it.
//!
//! Plans are produced by [`crate::session::Prepared::plan`];
//! [`crate::session::Prepared::run`] funnels through the same
//! [`validate`], so planning and running reject exactly the same
//! combinations.

use std::fmt;

use crate::decompose::{Algorithm, Backend, Kind, PeelEngine};
use crate::error::CoreError;
use crate::peel::FrontierOptions;

/// Checks every cross-constraint between a family, an algorithm, a
/// backend policy and an engine policy — the single home of the rules:
///
/// 1. [`PeelEngine::Frontier`] drives every algorithm that runs
///    `Set-λ` ([`Algorithm::Naive`], [`Algorithm::Dft`], and — since
///    the sink-based parallel FND — [`Algorithm::Fnd`]); only
///    [`Algorithm::Lcps`], which walks the graph directly and never
///    peels, rejects it ([`CoreError::InvalidOptions`]).
/// 2. [`PeelEngine::Frontier`] needs O(1) repeated container access, so
///    an explicit [`Backend::Lazy`] contradicts it
///    ([`CoreError::InvalidOptions`]; `Auto` is fine — the frontier
///    request forces materialization past the size cap).
/// 3. [`Algorithm::Lcps`] is defined for [`Kind::Core`] only
///    ([`CoreError::UnsupportedAlgorithm`]).
///
/// The check order is observable (a request can violate several rules
/// at once): engine × algorithm first, then engine × backend, then
/// algorithm × kind.
pub fn validate(
    kind: Kind,
    algorithm: Algorithm,
    backend: Backend,
    engine: PeelEngine,
) -> Result<(), CoreError> {
    if !engine.supports(algorithm) {
        return Err(CoreError::InvalidOptions {
            reason: format!(
                "the frontier peeling engine cannot drive {algorithm}: it never runs Set-λ \
                 (every peeling algorithm — Naive, DFT, FND — accepts the frontier engine)"
            ),
        });
    }
    if engine == PeelEngine::Frontier && backend == Backend::Lazy {
        return Err(frontier_lazy_conflict());
    }
    if algorithm == Algorithm::Lcps && kind != Kind::Core {
        return Err(CoreError::UnsupportedAlgorithm {
            algorithm: "LCPS",
            kind: format!("{kind}"),
        });
    }
    Ok(())
}

/// The frontier × explicit-lazy rejection, shared between [`validate`]
/// and the prepare-time fast-fail in
/// [`crate::session::NucleusBuilder::prepare`] so the wording cannot
/// drift between the two call sites.
pub(crate) fn frontier_lazy_conflict() -> CoreError {
    CoreError::InvalidOptions {
        reason: "the frontier peeling engine needs O(1) repeated container access; \
                 use the materialized (or auto) backend"
            .to_string(),
    }
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
    /// The peeling engine.
    pub engine: PeelEngine,
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
    /// backend resolved the way it did. A frontier run also names the
    /// hybrid-round policy it runs under.
    pub fn explain(&self) -> String {
        let engine = match self.engine {
            PeelEngine::Serial => "serial".to_string(),
            PeelEngine::Frontier => format!(
                "frontier (hybrid, serial below {})",
                FrontierOptions::DEFAULT_SERIAL_ROUND_THRESHOLD
            ),
        };
        format!(
            "plan: {} {} via {}\n  backend: {} — {}\n  engine:  {engine}\n  threads: {}\n  \
             enumeration: {}\n  \
             space:   {} cells, {} containers, estimated index {}",
            self.kind.name(),
            self.kind,
            self.algorithm,
            self.backend,
            self.backend_reason,
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
        // engine × algorithm: only LCPS (never peels) rejects frontier;
        // FND rides it since the parallel path landed
        let err = validate(
            Kind::Core,
            Algorithm::Lcps,
            Backend::Auto,
            PeelEngine::Frontier,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions { .. }), "{err}");
        assert!(format!("{err}").contains("LCPS"));
        validate(
            Kind::Core,
            Algorithm::Fnd,
            Backend::Auto,
            PeelEngine::Frontier,
        )
        .expect("frontier FND is legal");
        // engine × backend
        let err = validate(
            Kind::Truss,
            Algorithm::Dft,
            Backend::Lazy,
            PeelEngine::Frontier,
        )
        .unwrap_err();
        assert!(format!("{err}").contains("materialized"), "{err}");
        // algorithm × kind
        let err = validate(
            Kind::Truss,
            Algorithm::Lcps,
            Backend::Auto,
            PeelEngine::Serial,
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedAlgorithm { .. }),
            "{err}"
        );
        // check order: frontier × LCPS outranks LCPS × kind
        let err = validate(
            Kind::Truss,
            Algorithm::Lcps,
            Backend::Auto,
            PeelEngine::Frontier,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions { .. }), "{err}");
        // every legal combination passes
        for kind in Kind::all() {
            for &algo in Algorithm::for_kind(kind) {
                validate(kind, algo, Backend::Auto, PeelEngine::Serial).unwrap();
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
