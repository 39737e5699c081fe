//! The query engine: answers typed requests over a shared, immutable
//! [`Prepared`] session and its lazily-built hierarchies.
//!
//! [`ServeState`] owns the prepared space and one [`OnceLock`] slot per
//! hierarchy algorithm. The first query that needs an algorithm's
//! hierarchy runs it (`Prepared::run`) and caches the result as an
//! `Arc<Hierarchy>`; every later query — from any thread — is a
//! lock-free read of the same tree, whose own point-lookup index is
//! also memoized (see `Hierarchy::nucleus_cells_slice`). The engine has
//! no interior mutability beyond those once-cells, which is what makes
//! it safe to share by reference across a worker pool.

use std::sync::{Arc, OnceLock};

use nucleus_core::hierarchy::NO_NODE;
use nucleus_core::{Algorithm, Hierarchy, Prepared};
use serde::Value;

use crate::protocol::{ErrorCode, ProtocolError, Query, Request};

/// Cap on how many vertices a `density`/`densest` computation will
/// touch per node; nuclei above it answer `too_large` rather than stall
/// a worker.
pub const DEFAULT_DENSITY_VERTEX_CAP: usize = 250_000;

/// What the server needs from a query engine: answer a parsed request,
/// and render the engine half of the `stats` payload. Implemented by
/// the immutable [`ServeState`] and the mutable
/// [`DynamicServeState`](crate::DynamicServeState) (which additionally
/// accepts `mutate` and swaps epochs underneath the same trait).
pub trait QueryAnswerer: Sync {
    /// Answers one parsed request (everything except `shutdown`, which
    /// the server intercepts).
    fn answer(&self, req: &Request) -> Result<Value, ProtocolError>;

    /// The `stats` payload; a server passes its request-metrics
    /// snapshot as `metrics`, one-shot callers pass `None`.
    fn stats_value(&self, metrics: Option<Value>) -> Value;
}

fn u<T: Into<u64>>(x: T) -> Value {
    Value::U64(x.into())
}

fn node_value(id: u32) -> Value {
    if id == NO_NODE {
        Value::Null
    } else {
        u(id)
    }
}

/// Best-density hierarchy node of one algorithm's hierarchy, cached
/// after the first `densest` query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DensestAnswer {
    /// Hierarchy node id.
    pub node: u32,
    /// λ of the node.
    pub lambda: u32,
    /// Vertices spanned by the node's member cells.
    pub vertices: usize,
    /// Edges of the spanned induced subgraph.
    pub edges: usize,
    /// Edge density `2e / (n (n - 1))` of the spanned subgraph.
    pub density: f64,
    /// Nodes skipped because they span more than the vertex cap.
    pub skipped_over_cap: usize,
}

type HierarchySlot = OnceLock<Result<Arc<Hierarchy>, ProtocolError>>;
type DensestSlot = OnceLock<Result<DensestAnswer, ProtocolError>>;

/// Shared immutable query state: a prepared space plus per-algorithm
/// hierarchy and densest-node caches.
pub struct ServeState<'g> {
    prepared: Prepared<'g>,
    /// Set in place by [`crate::DynamicServeState::with_default_algo`]
    /// on an epoch nothing shares yet.
    pub(crate) default_algo: Algorithm,
    hierarchies: [HierarchySlot; Algorithm::ALL.len()],
    densest: [DensestSlot; Algorithm::ALL.len()],
}

impl<'g> ServeState<'g> {
    /// Wraps a prepared session. The default algorithm is FND (the
    /// paper's fastest construction, supported by every kind).
    pub fn new(prepared: Prepared<'g>) -> ServeState<'g> {
        ServeState {
            prepared,
            default_algo: Algorithm::Fnd,
            hierarchies: std::array::from_fn(|_| OnceLock::new()),
            densest: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Overrides the algorithm used when a request names none.
    pub fn with_default_algo(mut self, algo: Algorithm) -> Self {
        self.default_algo = algo;
        self
    }

    /// The wrapped prepared session.
    pub fn prepared(&self) -> &Prepared<'g> {
        &self.prepared
    }

    /// The algorithm used when a request names none.
    pub fn default_algo(&self) -> Algorithm {
        self.default_algo
    }

    fn slot_of(algo: Algorithm) -> usize {
        Algorithm::ALL
            .iter()
            .position(|a| *a == algo)
            .expect("Algorithm::ALL is exhaustive")
    }

    /// Resolves a request's algorithm field against the prepared kind.
    pub fn resolve_algo(&self, requested: Option<Algorithm>) -> Result<Algorithm, ProtocolError> {
        let algo = requested.unwrap_or(self.default_algo);
        if Algorithm::for_kind(self.prepared.kind()).contains(&algo) {
            Ok(algo)
        } else {
            Err(ProtocolError::new(
                ErrorCode::Unsupported,
                format!(
                    "algorithm {} does not apply to kind {}",
                    algo.name(),
                    self.prepared.kind().name()
                ),
            ))
        }
    }

    /// The (lazily built, then cached) hierarchy for `algo`.
    pub fn hierarchy(&self, algo: Algorithm) -> Result<&Arc<Hierarchy>, ProtocolError> {
        let res = self.hierarchies[Self::slot_of(algo)].get_or_init(|| {
            self.prepared
                .run(algo)
                .map(|d| Arc::new(d.hierarchy))
                .map_err(|e| ProtocolError::new(ErrorCode::Internal, e.to_string()))
        });
        res.as_ref().map_err(Clone::clone)
    }

    /// Answers one parsed request. `Stats` reports engine state only
    /// (a server composes in its request metrics); `Shutdown` is a
    /// server-level request and answers `bad_request` here.
    pub fn answer(&self, req: &Request) -> Result<Value, ProtocolError> {
        let query = &req.query;
        match query {
            Query::Stats => return Ok(self.stats_value(None)),
            Query::Shutdown => {
                return Err(ProtocolError::bad_request(
                    "shutdown is a server control request; no server is attached",
                ))
            }
            Query::Mutate { .. } => {
                return Err(ProtocolError::new(
                    ErrorCode::Unsupported,
                    "this server is immutable; restart with --mutable to accept mutate",
                ))
            }
            _ => {}
        }
        let algo = self.resolve_algo(req.algo)?;
        let h = self.hierarchy(algo)?;
        match *query {
            Query::Lambda { cell } => self.answer_lambda(h, cell),
            Query::NucleiOf { cell } => self.answer_nuclei_of(h, cell),
            Query::Members { node, limit } => self.answer_members(h, node, limit),
            Query::Subtree { node } => self.answer_subtree(h, node),
            Query::Density { node } => self.answer_density(h, node),
            Query::Densest => self.answer_densest(algo),
            Query::LevelProfile => Ok(Self::level_profile_value(h)),
            Query::Stats | Query::Shutdown | Query::Mutate { .. } => {
                unreachable!("handled above")
            }
        }
    }

    fn check_cell(&self, h: &Hierarchy, cell: u32) -> Result<(), ProtocolError> {
        if (cell as usize) < h.lambdas().len() {
            Ok(())
        } else {
            Err(ProtocolError::bad_request(format!(
                "cell {cell} out of range (graph has {} cells)",
                h.lambdas().len()
            )))
        }
    }

    fn check_node(&self, h: &Hierarchy, node: u32) -> Result<(), ProtocolError> {
        if (node as usize) < h.len() {
            Ok(())
        } else {
            Err(ProtocolError::bad_request(format!(
                "node {node} out of range (hierarchy has {} nodes)",
                h.len()
            )))
        }
    }

    fn answer_lambda(&self, h: &Hierarchy, cell: u32) -> Result<Value, ProtocolError> {
        self.check_cell(h, cell)?;
        Ok(Value::Object(vec![
            ("cell".to_string(), u(cell)),
            ("lambda".to_string(), u(h.lambda_of(cell))),
            ("node".to_string(), node_value(h.node_of_cell(cell))),
        ]))
    }

    fn answer_nuclei_of(&self, h: &Hierarchy, cell: u32) -> Result<Value, ProtocolError> {
        self.check_cell(h, cell)?;
        let mut chain = Vec::new();
        let mut id = h.node_of_cell(cell);
        while id != NO_NODE {
            let n = h.node(id);
            chain.push(Value::Object(vec![
                ("node".to_string(), u(id)),
                ("lambda".to_string(), u(n.lambda)),
                ("cells".to_string(), u(n.subtree_cells)),
            ]));
            id = n.parent;
        }
        Ok(Value::Object(vec![
            ("cell".to_string(), u(cell)),
            ("lambda".to_string(), u(h.lambda_of(cell))),
            ("chain".to_string(), Value::Array(chain)),
        ]))
    }

    fn answer_members(
        &self,
        h: &Hierarchy,
        node: u32,
        limit: usize,
    ) -> Result<Value, ProtocolError> {
        self.check_node(h, node)?;
        let cells = h.nucleus_cells_slice(node);
        let vertices = self.prepared.nucleus_vertices(h, node);
        let listed_cells: Vec<Value> = cells.iter().take(limit).map(|c| u(*c)).collect();
        let listed_verts: Vec<Value> = vertices.iter().take(limit).map(|v| u(*v)).collect();
        Ok(Value::Object(vec![
            ("node".to_string(), u(node)),
            ("lambda".to_string(), u(h.node(node).lambda)),
            ("total_cells".to_string(), u(cells.len() as u64)),
            (
                "cells_truncated".to_string(),
                Value::Bool(cells.len() > limit),
            ),
            ("cells".to_string(), Value::Array(listed_cells)),
            ("total_vertices".to_string(), u(vertices.len() as u64)),
            (
                "vertices_truncated".to_string(),
                Value::Bool(vertices.len() > limit),
            ),
            ("vertices".to_string(), Value::Array(listed_verts)),
        ]))
    }

    fn answer_subtree(&self, h: &Hierarchy, node: u32) -> Result<Value, ProtocolError> {
        self.check_node(h, node)?;
        let n = h.node(node);
        let children: Vec<Value> = n
            .children
            .iter()
            .map(|&c| {
                let ch = h.node(c);
                Value::Object(vec![
                    ("node".to_string(), u(c)),
                    ("lambda".to_string(), u(ch.lambda)),
                    ("cells".to_string(), u(ch.subtree_cells)),
                    ("children".to_string(), u(ch.children.len() as u64)),
                ])
            })
            .collect();
        Ok(Value::Object(vec![
            ("node".to_string(), u(node)),
            ("lambda".to_string(), u(n.lambda)),
            ("parent".to_string(), node_value(n.parent)),
            ("delta_cells".to_string(), u(n.cells.len() as u64)),
            ("cells".to_string(), u(n.subtree_cells)),
            ("children".to_string(), Value::Array(children)),
        ]))
    }

    /// Density of one node: vertices spanned by its member cells, edges
    /// of the induced subgraph, `2e / (n (n - 1))`.
    fn density_of(&self, h: &Hierarchy, node: u32) -> Result<(usize, usize, f64), ProtocolError> {
        let vertices = self.prepared.nucleus_vertices(h, node);
        if vertices.len() > DEFAULT_DENSITY_VERTEX_CAP {
            return Err(ProtocolError::new(
                ErrorCode::TooLarge,
                format!(
                    "nucleus spans {} vertices, over the density cap {DEFAULT_DENSITY_VERTEX_CAP}",
                    vertices.len(),
                ),
            ));
        }
        let edges = self.prepared.graph().induced_edge_count(&vertices);
        let n = vertices.len();
        let density = if n < 2 {
            0.0
        } else {
            (2.0 * edges as f64) / (n as f64 * (n as f64 - 1.0))
        };
        Ok((n, edges, density))
    }

    fn answer_density(&self, h: &Hierarchy, node: u32) -> Result<Value, ProtocolError> {
        self.check_node(h, node)?;
        let (n, e, d) = self.density_of(h, node)?;
        Ok(Value::Object(vec![
            ("node".to_string(), u(node)),
            ("lambda".to_string(), u(h.node(node).lambda)),
            ("vertices".to_string(), u(n as u64)),
            ("edges".to_string(), u(e as u64)),
            ("density".to_string(), Value::F64(d)),
        ]))
    }

    /// The (cached) best-density node for `algo`'s hierarchy: scanned
    /// once over every non-root node, skipping nuclei above the vertex
    /// cap; ties keep the first (lowest-id) node.
    pub fn densest(&self, algo: Algorithm) -> Result<DensestAnswer, ProtocolError> {
        let res = self.densest[Self::slot_of(algo)].get_or_init(|| {
            let h = self.hierarchy(algo)?;
            let mut best: Option<DensestAnswer> = None;
            let mut skipped = 0usize;
            for id in 1..h.len() as u32 {
                match self.density_of(h, id) {
                    Ok((n, e, d)) => {
                        if best.is_none_or(|b| d > b.density) {
                            best = Some(DensestAnswer {
                                node: id,
                                lambda: h.node(id).lambda,
                                vertices: n,
                                edges: e,
                                density: d,
                                skipped_over_cap: 0,
                            });
                        }
                    }
                    Err(e) if e.code == ErrorCode::TooLarge => skipped += 1,
                    Err(e) => return Err(e),
                }
            }
            match best {
                Some(mut b) => {
                    b.skipped_over_cap = skipped;
                    Ok(b)
                }
                None => Err(ProtocolError::bad_request(
                    "hierarchy has no non-root nuclei under the density cap",
                )),
            }
        });
        res.clone()
    }

    fn answer_densest(&self, algo: Algorithm) -> Result<Value, ProtocolError> {
        let b = self.densest(algo)?;
        Ok(Value::Object(vec![
            ("node".to_string(), u(b.node)),
            ("lambda".to_string(), u(b.lambda)),
            ("vertices".to_string(), u(b.vertices as u64)),
            ("edges".to_string(), u(b.edges as u64)),
            ("density".to_string(), Value::F64(b.density)),
            ("skipped_over_cap".to_string(), u(b.skipped_over_cap as u64)),
        ]))
    }

    fn level_profile_value(h: &Hierarchy) -> Value {
        let profile: Vec<Value> = h.level_profile().into_iter().map(|c| u(c as u64)).collect();
        Value::Object(vec![
            ("max_lambda".to_string(), u(h.max_lambda())),
            ("nuclei".to_string(), u(h.nucleus_count() as u64)),
            ("profile".to_string(), Value::Array(profile)),
        ])
    }

    /// Engine-side `stats` payload. A server passes its request-metrics
    /// snapshot as `metrics`; the one-shot CLI passes `None`.
    pub fn stats_value(&self, metrics: Option<Value>) -> Value {
        let (r, s) = self.prepared.kind().rs();
        let built: Vec<Value> = Algorithm::ALL
            .iter()
            .filter(|a| matches!(self.hierarchies[Self::slot_of(**a)].get(), Some(Ok(_))))
            .map(|a| Value::Str(a.name().to_string()))
            .collect();
        Value::Object(vec![
            (
                "kind".to_string(),
                Value::Str(self.prepared.kind().name().to_string()),
            ),
            ("r".to_string(), u(r)),
            ("s".to_string(), u(s)),
            ("graph_n".to_string(), u(self.prepared.graph().n() as u64)),
            ("graph_m".to_string(), u(self.prepared.graph().m() as u64)),
            ("cells".to_string(), u(self.prepared.cells() as u64)),
            ("containers".to_string(), u(self.prepared.containers())),
            (
                "backend".to_string(),
                Value::Str(format!("{}", self.prepared.backend())),
            ),
            ("threads".to_string(), u(self.prepared.threads() as u64)),
            (
                "default_algo".to_string(),
                Value::Str(self.default_algo.name().to_string()),
            ),
            ("hierarchies_built".to_string(), Value::Array(built)),
            ("metrics".to_string(), metrics.unwrap_or(Value::Null)),
        ])
    }
}

impl QueryAnswerer for ServeState<'_> {
    fn answer(&self, req: &Request) -> Result<Value, ProtocolError> {
        ServeState::answer(self, req)
    }

    fn stats_value(&self, metrics: Option<Value>) -> Value {
        ServeState::stats_value(self, metrics)
    }
}

impl std::fmt::Debug for ServeState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("kind", &self.prepared.kind())
            .field("cells", &self.prepared.cells())
            .field("default_algo", &self.default_algo)
            .finish_non_exhaustive()
    }
}
