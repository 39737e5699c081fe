//! The prepared-pipeline API: build a peeling space **once**, then run
//! any number of hierarchy algorithms (and baselines) over it.
//!
//! The paper's framework is generic in two orthogonal directions — the
//! (r, s) family and the hierarchy algorithm — and the expensive part
//! of a run is almost never the algorithm: it is enumerating the
//! cliques behind the space (triangles for (2,3)/(1,3), four-cliques
//! for (3,4)/(2,4)) and, on materialized runs, building the
//! [`ContainerIndex`]. The one-shot [`crate::decompose::decompose`]
//! rebuilds all of that per call; a serving system that answers many
//! queries — or a comparison workload that runs Naive, DFT *and* FND on
//! one graph — should pay for it once. The builder is also the one place
//! a run is configured:
//!
//! ```
//! use nucleus_core::prelude::*;
//!
//! let g = nucleus_graph::CsrGraph::from_edges(
//!     5,
//!     &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)],
//! );
//! let prepared = Nucleus::builder(&g).kind(Kind::Truss).prepare()?;
//! println!("{}", prepared.plan(Algorithm::Dft)?.explain());
//! let dft = prepared.run(Algorithm::Dft)?; // reuses the cached space
//! let fnd = prepared.run(Algorithm::Fnd)?; // ... and again
//! assert_eq!(dft.hierarchy, fnd.hierarchy);
//! # Ok::<(), nucleus_core::CoreError>(())
//! ```
//!
//! # Stages
//!
//! 1. **[`Nucleus::builder`]** collects the [`Kind`], the [`Backend`]
//!    policy and the worker-thread cap.
//! 2. **[`NucleusBuilder::prepare`]** does the expensive, run-invariant
//!    work: builds the space (clique enumeration, ω counts), resolves
//!    the [`Backend`] policy (including the `Auto` size estimate) and,
//!    when materialized, builds the [`ContainerIndex`].
//! 3. **[`Prepared::run`]** executes one algorithm over the cached
//!    space/index — bit-identical to a fresh session's run — and can be
//!    called any number of times; runs never mutate the prepared state.
//!    [`Prepared::plan`] returns the same decision as a [`Plan`]
//!    without running, and [`Prepared::hypo_baseline`] runs the Hypo
//!    baseline over the same cached space.
//!
//! Every run peels with the serial bucket-queue loop ([`crate::peel::peel`]).
//! Validation is centralized in [`crate::plan::validate`]: the one
//! check (LCPS × non-core) involves the algorithm, so it happens at
//! `plan`/`run` time, since one `Prepared` may serve different
//! algorithms.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nucleus_graph::CsrGraph;

use crate::algo::dft::dft;
use crate::algo::fnd::fnd;
use crate::algo::hypo::hypo_sweep;
use crate::algo::lcps::lcps;
use crate::algo::naive::naive;
use crate::decompose::{Algorithm, Backend, Decomposition, Kind, PhaseTimes, SkeletonStats};
use crate::error::CoreError;
use crate::hierarchy::Hierarchy;
use crate::peel::peel;
use crate::plan::{self, format_bytes, Plan};
use crate::space::{
    ContainerIndex, EdgeK4Space, EdgeSpace, IndexedSpace, PeelBackend, PeelSpace, TriangleSpace,
    VertexSpace, VertexTriangleSpace,
};

/// The five lazy spaces behind one door, so [`Prepared`] can own any of
/// them by value while the algorithms stay monomorphized per space.
enum AnySpace<'g> {
    Vertex(VertexSpace<'g>),
    VertexTriangle(VertexTriangleSpace<'g>),
    Edge(EdgeSpace<'g>),
    EdgeK4(EdgeK4Space<'g>),
    Triangle(TriangleSpace<'g>),
}

impl<'g> AnySpace<'g> {
    fn build(g: &'g CsrGraph, kind: Kind, threads: usize) -> Self {
        match kind {
            Kind::Core => AnySpace::Vertex(VertexSpace::with_threads(g, threads)),
            Kind::VertexTriangle => {
                AnySpace::VertexTriangle(VertexTriangleSpace::with_threads(g, threads))
            }
            Kind::Truss => AnySpace::Edge(EdgeSpace::with_threads(g, threads)),
            Kind::EdgeK4 => AnySpace::EdgeK4(EdgeK4Space::with_threads(g, threads)),
            Kind::Nucleus34 => AnySpace::Triangle(TriangleSpace::with_threads(g, threads)),
        }
    }
}

/// How a session's prepare phase runs its cell enumeration — the string
/// [`Plan::explain`] reports on the `enumeration:` line.
fn enumeration_mode(kind: Kind, threads: usize) -> String {
    if kind == Kind::Core {
        // ω here is a plain degree read; there is no enumeration pass
        "serial (degree read, nothing to enumerate)".to_string()
    } else if threads > 1 {
        format!("parallel (t={threads})")
    } else {
        "serial".to_string()
    }
}

/// Dispatches `$body` with `$s` bound to the concrete lazy space.
/// A macro rather than a visitor so `$body` monomorphizes per space
/// (zero-overhead dispatch).
macro_rules! with_space {
    ($space:expr, $s:ident => $body:expr) => {
        match &$space {
            AnySpace::Vertex($s) => $body,
            AnySpace::VertexTriangle($s) => $body,
            AnySpace::Edge($s) => $body,
            AnySpace::EdgeK4($s) => $body,
            AnySpace::Triangle($s) => $body,
        }
    };
}

/// Entry point of the prepared-pipeline API; see the [module docs]
/// (self) for the full walkthrough.
pub struct Nucleus;

impl Nucleus {
    /// Starts configuring a decomposition session over `g`. Defaults:
    /// [`Kind::Core`], automatic backend, all CPUs.
    pub fn builder(g: &CsrGraph) -> NucleusBuilder<'_> {
        NucleusBuilder {
            g,
            kind: Kind::Core,
            backend: Backend::Auto,
            threads: 0,
        }
    }
}

/// Builder for a [`Prepared`] session: the family, the backend policy
/// and the worker-thread cap, applied fluently.
#[derive(Clone, Copy, Debug)]
pub struct NucleusBuilder<'g> {
    g: &'g CsrGraph,
    kind: Kind,
    backend: Backend,
    threads: usize,
}

impl<'g> NucleusBuilder<'g> {
    /// Selects the (r, s) family (default [`Kind::Core`]).
    pub fn kind(mut self, kind: Kind) -> Self {
        self.kind = kind;
        self
    }

    /// Selects the backend policy (default [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Caps worker threads for clique enumeration, parallel ω counting
    /// and index construction (default `0` = all CPUs).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Does the run-invariant heavy lifting: builds the space (clique
    /// enumeration + ω counts), resolves the backend policy, and builds
    /// the [`ContainerIndex`] when the resolution says materialize.
    ///
    /// # Errors
    /// None: every kind, backend and thread setting composes, so this
    /// always returns `Ok`. The `Result` keeps callers that chain it
    /// (`prepare()?`, `.prepare().and_then(..)`) unchanged. The one
    /// algorithm-dependent rejection surfaces from [`Prepared::run`] /
    /// [`Prepared::plan`].
    pub fn prepare(self) -> Result<Prepared<'g>, CoreError> {
        let NucleusBuilder {
            g,
            kind,
            backend,
            threads,
        } = self;
        let threads = effective_threads(threads);
        let t0 = Instant::now();
        let space = AnySpace::build(g, kind, threads);
        let (cells, containers, index_bytes, backend_reason, index) = with_space!(space, s => {
            let counts = s.degrees();
            let containers: u64 = counts.iter().map(|&c| c as u64).sum();
            let est = ContainerIndex::estimate_bytes_from(s.r(), s.s(), &counts);
            let (materialize, reason) = resolve_backend(backend, est);
            let index = materialize.then(|| ContainerIndex::build_with_counts(s, counts, threads));
            (s.cell_count(), containers, est, reason, index)
        });
        Ok(Prepared {
            g,
            kind,
            backend: if index.is_some() {
                Backend::Materialized
            } else {
                Backend::Lazy
            },
            threads,
            space,
            index,
            stored: None,
            cells,
            containers,
            index_bytes,
            backend_reason,
            enumeration: enumeration_mode(kind, threads),
            prep_time: t0.elapsed(),
        })
    }

    /// Like [`NucleusBuilder::prepare`], but the [`ContainerIndex`]
    /// comes from a persisted file ([`crate::persist::PreparedIndex`])
    /// instead of being rebuilt — the load path behind
    /// `nucleus decompose --index`. Only the cheap parts of preparation
    /// remain: the lazy space is still constructed (it answers identity
    /// queries like `cell_vertices`), but clique-per-cell enumeration
    /// and the index build are skipped. The session keeps the index's
    /// stored hierarchy ([`Prepared::stored_hierarchy`]), so a server
    /// over it answers without a peel.
    ///
    /// The session's kind is taken **from the index** — the stored
    /// (r, s) pair is authoritative; a kind set on the builder is
    /// ignored (callers that care should compare
    /// [`crate::persist::PreparedIndex::kind`] first, as the CLI does).
    ///
    /// # Errors
    /// [`CoreError::InvalidOptions`] when the builder explicitly asked
    /// for [`Backend::Lazy`] (contradicts loading an index);
    /// [`CoreError::IndexMismatch`] when the index's graph fingerprint
    /// or cell count does not match `g`.
    pub fn prepare_from_index(
        self,
        index: crate::persist::PreparedIndex,
    ) -> Result<Prepared<'g>, CoreError> {
        let NucleusBuilder {
            g,
            kind: _,
            backend,
            threads,
        } = self;
        if backend == Backend::Lazy {
            return Err(CoreError::InvalidOptions {
                reason: "the lazy backend contradicts loading a persisted index; \
                         drop the explicit Backend::Lazy"
                    .to_string(),
            });
        }
        index.matches(g)?;
        let kind = index.kind();
        let threads = effective_threads(threads);
        let t0 = Instant::now();
        let space = AnySpace::build(g, kind, threads);
        let cells = with_space!(space, s => s.cell_count());
        // The fingerprint pins the edge list only up to a hash
        // collision, so cross-check the cell count too rather than
        // trusting the file.
        if cells != index.cells() {
            return Err(CoreError::IndexMismatch {
                path: index.path().to_string(),
                reason: format!(
                    "index covers {} cells, the graph's {} space has {}",
                    index.cells(),
                    kind,
                    cells
                ),
            });
        }
        let backend_reason = format!("loaded index from {}", index.path());
        let path = index.path().to_string();
        let containers = index.containers();
        let index_bytes = index.bytes();
        let (container_index, hierarchy) = index.into_parts();
        Ok(Prepared {
            g,
            kind,
            backend: Backend::Materialized,
            threads,
            space,
            index: Some(container_index),
            stored: Some((Arc::new(hierarchy), path)),
            cells,
            containers,
            index_bytes,
            backend_reason,
            enumeration: "skipped (persisted index)".to_string(),
            prep_time: t0.elapsed(),
        })
    }
}

/// A worker-thread setting with `0` resolved to the CPU count.
fn effective_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }
}

/// Resolves the backend policy into a concrete materialize/lazy
/// decision plus the human-readable "why" that [`Plan::explain`]
/// reports.
fn resolve_backend(backend: Backend, est_bytes: usize) -> (bool, String) {
    let materialize = backend.wants_index(est_bytes);
    let reason = match backend {
        Backend::Lazy | Backend::Materialized => "explicitly requested".to_string(),
        Backend::Auto => {
            let cap = format_bytes(Backend::AUTO_BYTE_CAP);
            let est = format_bytes(est_bytes);
            if materialize {
                format!("auto: estimated index {est} ≤ {cap} cap")
            } else {
                format!("auto: estimated index {est} exceeds the {cap} cap")
            }
        }
    };
    (materialize, reason)
}

/// A prepared decomposition session: the space (and, when materialized,
/// its [`ContainerIndex`]) built once, ready to serve any number of
/// [`Prepared::run`] calls. Runs never mutate the prepared state, so a
/// `Prepared` behaves like an immutable snapshot of the graph's
/// (r, s) structure.
pub struct Prepared<'g> {
    g: &'g CsrGraph,
    kind: Kind,
    /// Resolved: `Lazy` or `Materialized`, never `Auto`.
    backend: Backend,
    threads: usize,
    space: AnySpace<'g>,
    index: Option<ContainerIndex>,
    /// On a session loaded from a persisted index: the hierarchy it
    /// stored, and the index's path.
    stored: Option<(Arc<Hierarchy>, String)>,
    cells: usize,
    /// Σ ω over all cells.
    containers: u64,
    /// Estimated (or, for a loaded index, actual) index bytes.
    index_bytes: usize,
    backend_reason: String,
    /// How prepare ran its cell enumeration (see `enumeration_mode`).
    enumeration: String,
    prep_time: Duration,
}

impl<'g> Prepared<'g> {
    /// The family this session decomposes.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The resolved backend ([`Backend::Lazy`] or
    /// [`Backend::Materialized`]).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Effective worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of cells (K_r's) in the space.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Total containers (Σ ω over all cells), counted at prepare time.
    pub fn containers(&self) -> u64 {
        self.containers
    }

    /// Estimated [`ContainerIndex`] footprint in bytes (allocated only
    /// on materialized sessions).
    pub fn estimated_index_bytes(&self) -> usize {
        self.index_bytes
    }

    /// Wall time spent in [`NucleusBuilder::prepare`] (space build, ω
    /// counts, index build). Every [`Prepared::run`] folds this into
    /// its reported peel phase, matching the one-shot API's accounting.
    pub fn prep_time(&self) -> Duration {
        self.prep_time
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.g
    }

    /// The session's [`ContainerIndex`], when materialized — what
    /// [`Prepared::save`](crate::persist) serializes.
    pub(crate) fn container_index(&self) -> Option<&ContainerIndex> {
        self.index.as_ref()
    }

    /// On a session loaded from a persisted index, the hierarchy the
    /// index stored: the canonical tree every algorithm builds, there to
    /// read without a peel. `None` on a freshly prepared session.
    pub fn stored_hierarchy(&self) -> Option<&Arc<Hierarchy>> {
        self.stored.as_ref().map(|(tree, _)| tree)
    }

    /// Resolves — without running — exactly what [`Prepared::run`]
    /// would do for `algorithm`: the concrete backend and why, the
    /// thread count and space sizes.
    ///
    /// # Errors
    /// The same [`crate::plan::validate`] rejection `run` would
    /// report.
    pub fn plan(&self, algorithm: Algorithm) -> Result<Plan, CoreError> {
        plan::validate(self.kind, algorithm)?;
        Ok(Plan {
            kind: self.kind,
            algorithm,
            backend: self.backend,
            engine: "serial",
            threads: self.threads,
            cells: self.cells,
            containers: self.containers(),
            index_bytes: self.estimated_index_bytes(),
            backend_reason: self.backend_reason.clone(),
            enumeration: self.enumeration.clone(),
        })
    }

    /// Runs one algorithm over the cached space, producing the same
    /// [`Decomposition`] the one-shot API would — bit-identical λ,
    /// order and hierarchy — with the preparation cost amortized across
    /// calls. The reported peel phase includes [`Prepared::prep_time`]
    /// so phase splits stay comparable with [`mod@crate::decompose`].
    /// It always peels, stored hierarchy or not; on a session loaded
    /// from a persisted index it then compares its tree with the stored
    /// one.
    ///
    /// # Errors
    /// See [`crate::plan::validate`]; and [`CoreError::IndexCorrupt`]
    /// naming the hierarchy section when the stored tree is not the one
    /// the peel builds.
    pub fn run(&self, algorithm: Algorithm) -> Result<Decomposition, CoreError> {
        plan::validate(self.kind, algorithm)?;
        let d = if algorithm == Algorithm::Lcps {
            self.run_lcps()
        } else {
            with_space!(self.space, s => match &self.index {
                Some(index) => self.run_algo(&IndexedSpace::new(s, index), algorithm),
                None => self.run_algo(s, algorithm),
            })
        };
        match &self.stored {
            Some((tree, path)) if **tree != d.hierarchy => Err(CoreError::IndexCorrupt {
                path: path.clone(),
                reason: format!(
                    "hierarchy section: the stored tree is not the one {algorithm} builds"
                ),
            }),
            _ => Ok(d),
        }
    }

    /// LCPS: peel over the cached backend, then the Matula–Beck
    /// priority search directly on the graph. [`Prepared::run`] already
    /// validated `kind == Core`.
    fn run_lcps(&self) -> Decomposition {
        let t0 = Instant::now();
        let peeling = with_space!(self.space, s => match &self.index {
            Some(index) => peel(&IndexedSpace::new(s, index)),
            None => peel(s),
        });
        let peel_t = self.prep_time + t0.elapsed();
        let t1 = Instant::now();
        let hierarchy = lcps(self.g, &peeling);
        let post_t = t1.elapsed();
        Decomposition {
            kind: self.kind,
            algorithm: Algorithm::Lcps,
            backend: self.backend,
            stats: SkeletonStats {
                subnuclei: hierarchy.nucleus_count(),
                adj_connections: 0,
            },
            peeling,
            hierarchy,
            times: PhaseTimes {
                peel: peel_t,
                post: post_t,
            },
        }
    }

    /// The algorithm dispatch, monomorphized per space *and* backend,
    /// fed from the cached space.
    fn run_algo<S: PeelSpace>(&self, space: &S, algorithm: Algorithm) -> Decomposition {
        match algorithm {
            // `validate` rejects LCPS×non-core and `run` branches LCPS
            // off before dispatching to a backend.
            Algorithm::Lcps => unreachable!("LCPS never reaches backend dispatch"),
            Algorithm::Fnd => {
                let out = fnd(space);
                Decomposition {
                    kind: self.kind,
                    algorithm,
                    backend: self.backend,
                    peeling: out.peeling,
                    hierarchy: out.hierarchy,
                    times: PhaseTimes {
                        peel: self.prep_time + out.peel_time,
                        post: out.post_time,
                    },
                    stats: SkeletonStats {
                        subnuclei: out.stats.subnuclei,
                        adj_connections: out.stats.adj_connections,
                    },
                }
            }
            Algorithm::Naive | Algorithm::Dft => {
                let t0 = Instant::now();
                let peeling = peel(space);
                let peel_t = self.prep_time + t0.elapsed();
                let t1 = Instant::now();
                let (hierarchy, subnuclei) = match algorithm {
                    Algorithm::Naive => {
                        let h = naive(space, &peeling);
                        let c = h.nucleus_count();
                        (h, c)
                    }
                    _ => {
                        let (h, st) = dft(space, &peeling);
                        (h, st.subnuclei)
                    }
                };
                let post_t = t1.elapsed();
                Decomposition {
                    kind: self.kind,
                    algorithm,
                    backend: self.backend,
                    peeling,
                    hierarchy,
                    times: PhaseTimes {
                        peel: peel_t,
                        post: post_t,
                    },
                    stats: SkeletonStats {
                        subnuclei,
                        adj_connections: 0,
                    },
                }
            }
        }
    }

    /// Distinct vertices spanned by the member cells of hierarchy node
    /// `node` — [`crate::report::nucleus_vertices`] over the cached
    /// space, so session users can summarize nuclei without rebuilding
    /// one.
    pub fn nucleus_vertices(&self, hierarchy: &crate::hierarchy::Hierarchy, node: u32) -> Vec<u32> {
        with_space!(self.space, s => crate::report::nucleus_vertices(s, hierarchy, node))
    }

    /// Runs the *Hypo* baseline over the cached space: serial peeling
    /// plus one full sweep. Returns the phase times (peel includes
    /// [`Prepared::prep_time`]) and the number of s-connectivity
    /// components; no hierarchy is produced (that is the point of the
    /// baseline).
    pub fn hypo_baseline(&self) -> (PhaseTimes, usize) {
        fn run_on<B: crate::space::PeelBackend>(space: &B, prep: Duration) -> (PhaseTimes, usize) {
            let t0 = Instant::now();
            let _ = peel(space);
            let peel_t = prep + t0.elapsed();
            let t1 = Instant::now();
            let comps = hypo_sweep(space);
            (
                PhaseTimes {
                    peel: peel_t,
                    post: t1.elapsed(),
                },
                comps,
            )
        }
        with_space!(self.space, s => match &self.index {
            Some(index) => run_on(&IndexedSpace::new(s, index), self.prep_time),
            None => run_on(s, self.prep_time),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::hypo_baseline;
    use crate::test_graphs;

    #[test]
    fn prepared_runs_match_one_shot_for_all_kinds() {
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            let prepared = Nucleus::builder(&g)
                .kind(kind)
                .threads(2)
                .prepare()
                .unwrap();
            for &algo in Algorithm::for_kind(kind) {
                let one_shot = Nucleus::builder(&g)
                    .kind(kind)
                    .threads(2)
                    .prepare()
                    .unwrap()
                    .run(algo)
                    .unwrap();
                let run = prepared.run(algo).unwrap();
                assert_eq!(
                    run.peeling.lambda, one_shot.peeling.lambda,
                    "{kind}/{algo} λ"
                );
                assert_eq!(
                    run.peeling.order, one_shot.peeling.order,
                    "{kind}/{algo} order"
                );
                assert_eq!(run.hierarchy, one_shot.hierarchy, "{kind}/{algo} hierarchy");
                assert_eq!(run.backend, one_shot.backend, "{kind}/{algo} backend");
            }
        }
    }

    #[test]
    fn reruns_do_not_corrupt_prepared_state() {
        let g = test_graphs::nested_cores();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Materialized)
            .threads(2)
            .prepare()
            .unwrap();
        let first = prepared.run(Algorithm::Dft).unwrap();
        let second = prepared.run(Algorithm::Dft).unwrap();
        assert_eq!(first.peeling.lambda, second.peeling.lambda);
        assert_eq!(first.peeling.order, second.peeling.order);
        assert_eq!(first.hierarchy, second.hierarchy);
        // and a different algorithm on the same session still agrees
        let fnd = prepared.run(Algorithm::Fnd).unwrap();
        assert_eq!(fnd.hierarchy, first.hierarchy);
        let (_, comps1) = prepared.hypo_baseline();
        let (_, comps2) = prepared.hypo_baseline();
        assert_eq!(comps1, comps2);
    }

    #[test]
    fn plan_resolves_and_explains() {
        let g = test_graphs::nested_cores();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Truss)
            .threads(4)
            .prepare()
            .unwrap();
        // small graph + auto → materialized; the engine is serial
        assert_eq!(prepared.backend(), Backend::Materialized);
        let plan = prepared.plan(Algorithm::Dft).unwrap();
        assert_eq!(plan.backend, Backend::Materialized);
        assert_eq!(plan.engine, "serial");
        assert_eq!(plan.threads, 4);
        assert!(plan.cells > 0);
        let text = plan.explain();
        assert!(text.contains("truss"), "{text}");
        assert!(text.contains("(2,3)"), "{text}");
        assert!(text.contains("backend: materialized — auto:"), "{text}");
        assert!(text.contains("\n  engine:  serial\n"), "{text}");
        // prepared with 4 threads → the enumeration ran parallel
        assert!(text.contains("enumeration: parallel (t=4)"), "{text}");
        // Display goes through explain
        assert_eq!(format!("{plan}"), text);
    }

    #[test]
    fn plan_and_run_reject_what_validate_rejects() {
        let g = test_graphs::nested_cores();
        // LCPS × non-core dies at plan/run
        let prepared = Nucleus::builder(&g).kind(Kind::EdgeK4).prepare().unwrap();
        let err = prepared.plan(Algorithm::Lcps).unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedAlgorithm { .. }),
            "{err}"
        );
        let err = prepared.run(Algorithm::Lcps).unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedAlgorithm { .. }),
            "{err}"
        );
        // ... but every peeling algorithm runs on that same session
        assert!(prepared.run(Algorithm::Dft).is_ok());
        assert!(prepared.run(Algorithm::Fnd).is_ok());
    }

    #[test]
    fn lcps_reuses_a_materialized_session() {
        let g = test_graphs::nested_cores();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Core)
            .backend(Backend::Materialized)
            .prepare()
            .unwrap();
        let via_session = prepared.run(Algorithm::Lcps).unwrap();
        assert_eq!(via_session.backend, Backend::Materialized);
        let lazy = Nucleus::builder(&g)
            .backend(Backend::Lazy)
            .prepare()
            .unwrap()
            .run(Algorithm::Lcps)
            .unwrap();
        // each session reports its own backend; results agree
        assert_eq!(lazy.backend, Backend::Lazy);
        assert_eq!(via_session.peeling.lambda, lazy.peeling.lambda);
        assert_eq!(via_session.hierarchy, lazy.hierarchy);
    }

    #[test]
    fn hypo_baseline_matches_one_shot() {
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            let prepared = Nucleus::builder(&g).kind(kind).prepare().unwrap();
            let (_, comps) = prepared.hypo_baseline();
            let (_, one_shot) = hypo_baseline(&g, kind);
            assert_eq!(comps, one_shot, "{kind}");
        }
    }

    #[test]
    fn accessors_report_the_prepared_shape() {
        let g = test_graphs::nested_cores();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Lazy)
            .threads(3)
            .prepare()
            .unwrap();
        assert_eq!(prepared.kind(), Kind::Truss);
        assert_eq!(prepared.backend(), Backend::Lazy);
        assert_eq!(prepared.threads(), 3);
        assert_eq!(prepared.cells(), g.m());
        assert!(prepared.containers() > 0);
        assert!(prepared.estimated_index_bytes() > 0);
        assert!(std::ptr::eq(prepared.graph(), &g));
    }
}
