//! The vocabulary of a decomposition run — family ([`Kind`]), hierarchy
//! algorithm and [`Backend`] — and its result ([`Decomposition`]).
//!
//! Runs are configured in one place, [`crate::session::Nucleus::builder`].
//! [`decompose`] and [`hypo_baseline`] are default-settings shorthands
//! over it: they prepare a space, run once, and drop it. Callers that
//! run *several* algorithms (or repeated queries) over one graph should
//! hold a [`crate::session::Prepared`] instead — same results, bit for
//! bit, without re-enumerating cliques and rebuilding the container
//! index per call.

use std::time::Duration;

use nucleus_graph::CsrGraph;

use crate::error::CoreError;
use crate::hierarchy::Hierarchy;
use crate::peel::Peeling;
use crate::session::Nucleus;

/// Which decomposition family to run — all five (r, s) instances of the
/// paper's generic framework, in (r, s)-lexicographic order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// (1,2): k-core.
    Core,
    /// (1,3): vertex-triangle cores (vertices peeled by triangle count).
    VertexTriangle,
    /// (2,3): k-truss community.
    Truss,
    /// (2,4): edges peeled by four-clique count (the paper's Figure 1
    /// contrast instance).
    EdgeK4,
    /// (3,4): four-clique nuclei.
    Nucleus34,
}

impl Kind {
    /// `(r, s)` of the family.
    pub fn rs(self) -> (u32, u32) {
        match self {
            Kind::Core => (1, 2),
            Kind::VertexTriangle => (1, 3),
            Kind::Truss => (2, 3),
            Kind::EdgeK4 => (2, 4),
            Kind::Nucleus34 => (3, 4),
        }
    }

    /// All five families, in (r, s)-lexicographic order.
    pub fn all() -> [Kind; 5] {
        [
            Kind::Core,
            Kind::VertexTriangle,
            Kind::Truss,
            Kind::EdgeK4,
            Kind::Nucleus34,
        ]
    }

    /// Stable lowercase name, also the CLI spelling (`--kind core`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Core => "core",
            Kind::VertexTriangle => "vertex-triangle",
            Kind::Truss => "truss",
            Kind::EdgeK4 => "edge-k4",
            Kind::Nucleus34 => "nucleus34",
        }
    }

    /// Parses a [`Kind::name`] spelling or a bare `"r,s"` pair
    /// (`"vertex-triangle"` and `"1,3"` are equivalent). The error
    /// enumerates every accepted spelling.
    pub fn parse(token: &str) -> Result<Kind, CoreError> {
        Kind::all()
            .into_iter()
            .find(|k| {
                let (r, s) = k.rs();
                token == k.name() || token == format!("{r},{s}")
            })
            .ok_or_else(|| CoreError::UnknownName {
                what: "kind",
                token: token.to_string(),
                expected: Kind::all()
                    .map(|k| {
                        let (r, s) = k.rs();
                        format!("{}|{r},{s}", k.name())
                    })
                    .join(", "),
            })
    }
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (r, s) = self.rs();
        write!(f, "({r},{s})")
    }
}

/// Which hierarchy algorithm to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Per-level traversal (Alg. 2/3) — the baseline.
    Naive,
    /// Disjoint-set-forest traversal (Alg. 5/6).
    Dft,
    /// Traversal-free peeling-time construction (Alg. 8/9).
    Fnd,
    /// Matula–Beck priority search (k-core only).
    Lcps,
}

impl Algorithm {
    /// Every algorithm, in presentation order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Naive,
        Algorithm::Dft,
        Algorithm::Fnd,
        Algorithm::Lcps,
    ];

    /// All algorithms applicable to `kind` (LCPS is k-core only).
    pub fn for_kind(kind: Kind) -> &'static [Algorithm] {
        match kind {
            Kind::Core => &[
                Algorithm::Naive,
                Algorithm::Dft,
                Algorithm::Fnd,
                Algorithm::Lcps,
            ],
            _ => &[Algorithm::Naive, Algorithm::Dft, Algorithm::Fnd],
        }
    }

    /// Stable lowercase name, also the CLI spelling (`--algo fnd`).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Naive => "naive",
            Algorithm::Dft => "dft",
            Algorithm::Fnd => "fnd",
            Algorithm::Lcps => "lcps",
        }
    }

    /// Parses an [`Algorithm::name`] spelling; the error enumerates
    /// every accepted one.
    pub fn parse(token: &str) -> Result<Algorithm, CoreError> {
        Algorithm::ALL
            .into_iter()
            .find(|a| token == a.name())
            .ok_or_else(|| CoreError::UnknownName {
                what: "algorithm",
                token: token.to_string(),
                expected: Algorithm::ALL.map(|a| a.name()).join("|"),
            })
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Algorithm::Naive => "Naive",
            Algorithm::Dft => "DFT",
            Algorithm::Fnd => "FND",
            Algorithm::Lcps => "LCPS",
        };
        write!(f, "{name}")
    }
}

/// Which peeling backend drives the container enumeration
/// (see [`crate::space`] for the full trade-off discussion).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Re-enumerate containers on every visit (no extra memory).
    Lazy,
    /// Build a [`ContainerIndex`](crate::space::ContainerIndex) once,
    /// then peel/traverse flat arrays.
    Materialized,
    /// Materialize when the estimated index fits
    /// [`Backend::AUTO_BYTE_CAP`]; fall back to lazy otherwise.
    #[default]
    Auto,
}

impl Backend {
    /// `Auto` materializes while the estimated index stays under this
    /// cap (1 GiB): past it the index's build cost and memory traffic
    /// start competing with the peeling it is meant to accelerate.
    pub const AUTO_BYTE_CAP: usize = 1 << 30;

    /// The single home of the policy: `Lazy` never materializes,
    /// `Materialized` always does, `Auto` iff the estimated index fits
    /// [`Backend::AUTO_BYTE_CAP`].
    pub(crate) fn wants_index(self, est_bytes: usize) -> bool {
        match self {
            Backend::Lazy => false,
            Backend::Materialized => true,
            Backend::Auto => est_bytes <= Self::AUTO_BYTE_CAP,
        }
    }

    /// Parses a CLI spelling (`auto|lazy|materialized`).
    pub fn parse(token: &str) -> Result<Backend, CoreError> {
        match token {
            "auto" => Ok(Backend::Auto),
            "lazy" => Ok(Backend::Lazy),
            "materialized" => Ok(Backend::Materialized),
            other => Err(CoreError::UnknownName {
                what: "backend",
                token: other.to_string(),
                expected: "auto|lazy|materialized".to_string(),
            }),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Backend::Lazy => "lazy",
            Backend::Materialized => "materialized",
            Backend::Auto => "auto",
        };
        write!(f, "{name}")
    }
}

/// Wall-clock phase split, matching Figure 6's peeling/post-processing
/// decomposition. For FND "peeling" is the extended loop of Alg. 8; for
/// the others it is space construction + `Set-λ`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Peeling (including K_r enumeration / ω computation).
    pub peel: Duration,
    /// Hierarchy construction after (or interleaved with) peeling.
    pub post: Duration,
}

impl PhaseTimes {
    /// Total wall time.
    pub fn total(&self) -> Duration {
        self.peel + self.post
    }
}

/// Structure counters (Table 3 columns), populated by DFT/FND runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct SkeletonStats {
    /// Sub-nuclei created: |T| for DFT, |T*| for FND, nodes for others.
    pub subnuclei: usize,
    /// |c↓(T*)| (FND only; zero otherwise).
    pub adj_connections: usize,
}

/// Result of a full decomposition.
#[derive(Debug)]
pub struct Decomposition {
    /// Which family was decomposed.
    pub kind: Kind,
    /// Which algorithm produced it.
    pub algorithm: Algorithm,
    /// The backend that actually ran ([`Backend::Auto`] resolved to
    /// [`Backend::Lazy`] or [`Backend::Materialized`]).
    pub backend: Backend,
    /// λ per cell + peeling order.
    pub peeling: Peeling,
    /// The canonical hierarchy of nuclei.
    pub hierarchy: Hierarchy,
    /// Phase timings.
    pub times: PhaseTimes,
    /// Structure counters.
    pub stats: SkeletonStats,
}

/// Runs the chosen `algorithm` for `kind` on `g` with the default
/// [`Nucleus::builder`] settings (automatic backend, all CPUs).
/// Shorthand for `Nucleus::builder(g).kind(kind).prepare()?.run(algorithm)`;
/// build a [`crate::session::Prepared`] directly to choose the backend or
/// thread count, or to run several algorithms over one space.
///
/// # Errors
/// [`CoreError::UnsupportedAlgorithm`] when `algorithm` is
/// [`Algorithm::Lcps`] and `kind` is not [`Kind::Core`].
pub fn decompose(
    g: &CsrGraph,
    kind: Kind,
    algorithm: Algorithm,
) -> Result<Decomposition, CoreError> {
    Nucleus::builder(g).kind(kind).prepare()?.run(algorithm)
}

/// Runs the *Hypo* baseline for `kind` with the default
/// [`Nucleus::builder`] settings: peeling plus one full sweep
/// ([`crate::session::Prepared::hypo_baseline`]). Returns the phase
/// times and the number of s-connectivity components; no hierarchy is
/// produced (that is the point of the baseline).
pub fn hypo_baseline(g: &CsrGraph, kind: Kind) -> (PhaseTimes, usize) {
    Nucleus::builder(g)
        .kind(kind)
        .prepare()
        .expect("prepare never fails")
        .hypo_baseline()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ContainerIndex, PeelBackend, PeelSpace, VertexSpace};
    use crate::test_graphs;

    /// One builder session over `g`, run once.
    fn run_with(
        g: &CsrGraph,
        kind: Kind,
        algo: Algorithm,
        backend: Backend,
        threads: usize,
    ) -> Result<Decomposition, CoreError> {
        Nucleus::builder(g)
            .kind(kind)
            .backend(backend)
            .threads(threads)
            .prepare()?
            .run(algo)
    }

    #[test]
    fn all_algorithms_agree_on_all_kinds() {
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            let mut results = vec![];
            for &algo in Algorithm::for_kind(kind) {
                let d = decompose(&g, kind, algo).expect("runs");
                d.hierarchy.validate().expect("valid");
                results.push((algo, d.hierarchy));
            }
            for pair in results.windows(2) {
                assert_eq!(
                    pair[0].1, pair[1].1,
                    "{kind}: {} vs {} disagree",
                    pair[0].0, pair[1].0
                );
            }
        }
    }

    #[test]
    fn lcps_rejected_for_truss() {
        let g = test_graphs::nested_cores();
        let err = decompose(&g, Kind::Truss, Algorithm::Lcps).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedAlgorithm { .. }));
        assert!(format!("{err}").contains("LCPS"));
    }

    #[test]
    fn hypo_baseline_runs_everywhere() {
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            let (times, comps) = hypo_baseline(&g, kind);
            assert!(comps >= 1);
            assert!(times.total().as_nanos() > 0);
        }
    }

    #[test]
    fn backends_produce_identical_decompositions() {
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            for &algo in Algorithm::for_kind(kind) {
                if algo == Algorithm::Lcps {
                    continue;
                }
                let lazy = run_with(&g, kind, algo, Backend::Lazy, 2).expect("lazy");
                let mat = run_with(&g, kind, algo, Backend::Materialized, 2).expect("materialized");
                assert_eq!(lazy.peeling.lambda, mat.peeling.lambda, "{kind}/{algo} λ");
                assert_eq!(lazy.peeling.order, mat.peeling.order, "{kind}/{algo} order");
                assert_eq!(lazy.hierarchy, mat.hierarchy, "{kind}/{algo} hierarchy");
            }
        }
    }

    #[test]
    fn auto_backend_materializes_small_spaces() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let est = ContainerIndex::estimate_bytes_from(vs.r(), vs.s(), &vs.degrees());
        assert!(Backend::Auto.wants_index(est));
        assert!(!Backend::Lazy.wants_index(est));
        assert!(Backend::Materialized.wants_index(est));
        assert!(!Backend::Auto.wants_index(Backend::AUTO_BYTE_CAP + 1));
        assert_eq!(format!("{}", Backend::Auto), "auto");
        assert_eq!(Backend::default(), Backend::Auto);
    }

    #[test]
    fn hypo_baseline_backends_agree_on_components() {
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            let hypo = |backend, threads| {
                Nucleus::builder(&g)
                    .kind(kind)
                    .backend(backend)
                    .threads(threads)
                    .prepare()
                    .expect("prepare")
                    .hypo_baseline()
                    .1
            };
            let (lazy, mat) = (hypo(Backend::Lazy, 1), hypo(Backend::Materialized, 3));
            assert_eq!(lazy, mat, "{kind}");
        }
    }

    #[test]
    fn kind_display_and_rs() {
        assert_eq!(Kind::Core.rs(), (1, 2));
        assert_eq!(Kind::VertexTriangle.rs(), (1, 3));
        assert_eq!(Kind::EdgeK4.rs(), (2, 4));
        assert_eq!(format!("{}", Kind::Truss), "(2,3)");
        assert_eq!(format!("{}", Kind::VertexTriangle), "(1,3)");
        assert_eq!(format!("{}", Kind::EdgeK4), "(2,4)");
        assert_eq!(format!("{}", Algorithm::Fnd), "FND");
        assert_eq!(Algorithm::for_kind(Kind::Core).len(), 4);
        assert_eq!(Algorithm::for_kind(Kind::Nucleus34).len(), 3);
        assert_eq!(Algorithm::for_kind(Kind::VertexTriangle).len(), 3);
        assert_eq!(Algorithm::for_kind(Kind::EdgeK4).len(), 3);
        assert_eq!(Kind::all().len(), 5);
    }

    #[test]
    fn kind_and_algorithm_parsing() {
        // every kind round-trips through both spellings
        for kind in Kind::all() {
            assert_eq!(Kind::parse(kind.name()).unwrap(), kind);
            let (r, s) = kind.rs();
            assert_eq!(Kind::parse(&format!("{r},{s}")).unwrap(), kind);
        }
        assert_eq!(
            Kind::parse("vertex-triangle").unwrap(),
            Kind::VertexTriangle
        );
        assert_eq!(Kind::parse("2,4").unwrap(), Kind::EdgeK4);
        // the error lists the full, current set of spellings
        let err = Kind::parse("bogus").unwrap_err();
        let msg = format!("{err}");
        for kind in Kind::all() {
            assert!(msg.contains(kind.name()), "{msg}");
        }
        assert!(msg.contains("1,3") && msg.contains("2,4"), "{msg}");
        // algorithms
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::parse(algo.name()).unwrap(), algo);
        }
        let err = Algorithm::parse("bogus").unwrap_err();
        let msg = format!("{err}");
        for algo in Algorithm::ALL {
            assert!(msg.contains(algo.name()), "{msg}");
        }
        // backend spellings
        assert_eq!(
            Backend::parse("materialized").unwrap(),
            Backend::Materialized
        );
        assert!(Backend::parse("bogus").is_err());
    }
}
