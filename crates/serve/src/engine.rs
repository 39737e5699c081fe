//! The query engine: answers typed requests over a shared, immutable
//! [`Prepared`] session and its hierarchy.
//!
//! [`ServeState`] owns the prepared space, one [`OnceLock`] slot for the
//! hierarchy and one for the densest node. On a session loaded from a
//! persisted index ([`Prepared::stored_hierarchy`]), [`ServeState::new`]
//! fills the hierarchy slot with the stored tree, so the server answers
//! its first query without a peel. Otherwise every algorithm builds the
//! identical canonical hierarchy, so a request's `algo` only picks which
//! one runs (`Prepared::run`) on first use. Either way the tree is
//! cached as an `Arc<Hierarchy>`, and every later query — from any
//! thread, naming any algorithm the kind supports — is a lock-free read
//! of the same tree.
//! That tree is plain immutable data, complete once built: a nucleus's
//! members are one contiguous run of its cell array
//! (`Hierarchy::nucleus_cells_slice`), and the per-level nucleus counts
//! are filled at construction. The engine has no interior mutability
//! beyond those once-cells, which is what makes it safe to share by
//! reference across a worker pool.

use std::sync::{Arc, OnceLock};

use nucleus_core::hierarchy::NO_NODE;
use nucleus_core::{Algorithm, Hierarchy, Prepared};
use serde::Value;

use crate::protocol::{ErrorCode, ProtocolError, Query, Request};

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

/// Best-density hierarchy node, cached after the first `densest` query.
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
}

/// What `stats` names as the source of a hierarchy a persisted index
/// stored, where a built one names its algorithm.
const FROM_INDEX: &str = "index";

/// Shared immutable query state: a prepared space plus its hierarchy
/// and densest node, each built once on first use.
pub struct ServeState<'g> {
    prepared: Prepared<'g>,
    /// Set in place by [`crate::DynamicServeState::with_default_algo`]
    /// on an epoch nothing shares yet.
    pub(crate) default_algo: Algorithm,
    /// The hierarchy, with its source: the name of the algorithm that
    /// built it, or [`FROM_INDEX`].
    hierarchy: OnceLock<Result<(&'static str, Arc<Hierarchy>), ProtocolError>>,
    densest: OnceLock<Result<DensestAnswer, ProtocolError>>,
}

impl<'g> ServeState<'g> {
    /// Wraps a prepared session. The default algorithm is FND (the
    /// paper's fastest construction, supported by every kind). A session
    /// loaded from a persisted index brings its stored hierarchy, which
    /// fills the hierarchy slot here, so no query peels.
    pub fn new(prepared: Prepared<'g>) -> ServeState<'g> {
        let hierarchy = match prepared.stored_hierarchy() {
            Some(tree) => OnceLock::from(Ok((FROM_INDEX, Arc::clone(tree)))),
            None => OnceLock::new(),
        };
        ServeState {
            prepared,
            default_algo: Algorithm::Fnd,
            hierarchy,
            densest: OnceLock::new(),
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

    /// Checks a request's algorithm against the prepared session: the
    /// kind must support it.
    fn check_algo(&self, algo: Algorithm) -> Result<(), ProtocolError> {
        if !Algorithm::for_kind(self.prepared.kind()).contains(&algo) {
            return Err(ProtocolError::new(
                ErrorCode::Unsupported,
                format!(
                    "algorithm {} does not apply to kind {}",
                    algo.name(),
                    self.prepared.kind().name()
                ),
            ));
        }
        Ok(())
    }

    /// The hierarchy: the stored one on a session loaded from a
    /// persisted index, otherwise built by `algo` if no request built it
    /// before. An algorithm the session cannot run is rejected before
    /// the cache is touched, so it never leaves an error there.
    pub fn hierarchy(&self, algo: Algorithm) -> Result<&Arc<Hierarchy>, ProtocolError> {
        self.check_algo(algo)?;
        let res = self.hierarchy.get_or_init(|| {
            self.prepared
                .run(algo)
                .map(|d| (algo.name(), Arc::new(d.hierarchy)))
                .map_err(|e| ProtocolError::new(ErrorCode::Internal, e.to_string()))
        });
        res.as_ref().map(|(_, h)| h).map_err(Clone::clone)
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
        let algo = req.algo.unwrap_or(self.default_algo);
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
    fn density_of(&self, h: &Hierarchy, node: u32) -> (usize, usize, f64) {
        let vertices = self.prepared.nucleus_vertices(h, node);
        let edges = self.prepared.graph().induced_edge_count(&vertices);
        let n = vertices.len();
        let density = if n < 2 {
            0.0
        } else {
            (2.0 * edges as f64) / (n as f64 * (n as f64 - 1.0))
        };
        (n, edges, density)
    }

    fn answer_density(&self, h: &Hierarchy, node: u32) -> Result<Value, ProtocolError> {
        self.check_node(h, node)?;
        let (n, e, d) = self.density_of(h, node);
        Ok(Value::Object(vec![
            ("node".to_string(), u(node)),
            ("lambda".to_string(), u(h.node(node).lambda)),
            ("vertices".to_string(), u(n as u64)),
            ("edges".to_string(), u(e as u64)),
            ("density".to_string(), Value::F64(d)),
        ]))
    }

    /// The (cached) best-density node of the hierarchy, which `algo`
    /// builds if no request built it before: scanned once over every
    /// non-root node; ties keep the first (lowest-id) node.
    pub fn densest(&self, algo: Algorithm) -> Result<DensestAnswer, ProtocolError> {
        self.check_algo(algo)?;
        let res = self.densest.get_or_init(|| {
            let h = self.hierarchy(algo)?;
            let mut best: Option<DensestAnswer> = None;
            for id in 1..h.len() as u32 {
                let (n, e, d) = self.density_of(h, id);
                if best.is_none_or(|b| d > b.density) {
                    best = Some(DensestAnswer {
                        node: id,
                        lambda: h.node(id).lambda,
                        vertices: n,
                        edges: e,
                        density: d,
                    });
                }
            }
            best.ok_or_else(|| ProtocolError::bad_request("hierarchy has no non-root nuclei"))
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
        ]))
    }

    fn level_profile_value(h: &Hierarchy) -> Value {
        let profile: Vec<Value> = h.level_profile().iter().map(|&c| u(c as u64)).collect();
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
        let built: Vec<Value> = match self.hierarchy.get() {
            Some(Ok((source, _))) => vec![Value::Str(source.to_string())],
            _ => Vec::new(),
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use nucleus_core::{Kind, Nucleus};
    use nucleus_graph::CsrGraph;

    fn ask(state: &ServeState<'_>, line: &str) -> Value {
        state
            .answer(&Request::parse(line).unwrap())
            .unwrap_or_else(|e| panic!("{line}: {} {}", e.code.as_str(), e.message))
    }

    fn num(v: &Value, name: &str) -> u64 {
        match v.field(name).unwrap() {
            Value::U64(n) => *n,
            other => panic!("{name}: {other:?}"),
        }
    }

    fn real(v: &Value, name: &str) -> f64 {
        match v.field(name).unwrap() {
            Value::F64(x) => *x,
            other => panic!("{name}: {other:?}"),
        }
    }

    /// Vertices, pairwise-counted induced edges and density of a vertex
    /// set, independent of `induced_edge_count`.
    fn pairwise(g: &CsrGraph, verts: &[u32]) -> (usize, usize, f64) {
        let mut edges = 0;
        for (i, &a) in verts.iter().enumerate() {
            edges += verts[i + 1..].iter().filter(|&&b| g.has_edge(a, b)).count();
        }
        let n = verts.len();
        let density = if n < 2 {
            0.0
        } else {
            (2.0 * edges as f64) / (n as f64 * (n as f64 - 1.0))
        };
        (n, edges, density)
    }

    #[test]
    fn density_answers_have_no_size_cap() {
        // One 2-core of 250 001 vertices: more than any former cap.
        let g = nucleus_gen::classic::cycle(250_001);
        let state = ServeState::new(Nucleus::builder(&g).kind(Kind::Core).prepare().unwrap());
        let v = ask(&state, r#"{"query":"density","node":1}"#);
        assert_eq!(num(&v, "vertices"), 250_001);
        assert_eq!(num(&v, "edges"), 250_001);
        let v = ask(&state, r#"{"query":"densest"}"#);
        assert_eq!(num(&v, "node"), 1);
        assert_eq!(num(&v, "vertices"), 250_001);
    }

    /// Every node's `density`, the `densest` node and the
    /// `level_profile` of one algorithm's hierarchy, checked against
    /// references computed from the hierarchy's nodes and the graph
    /// alone.
    fn check_against_references(g: &CsrGraph, kind: Kind, state: &ServeState<'_>, algo: Algorithm) {
        let a = algo.name();
        let h = state.hierarchy(algo).unwrap();
        let endpoints: Vec<[u32; 2]> = g.edges().map(|(_, u, v)| [u, v]).collect();
        let mut best: Option<(u32, f64)> = None;
        for id in 0..h.len() as u32 {
            let mut verts: Vec<u32> = h
                .nucleus_cells(id)
                .into_iter()
                .flat_map(|c| match kind {
                    Kind::Core => vec![c],
                    _ => endpoints[c as usize].to_vec(),
                })
                .collect();
            verts.sort_unstable();
            verts.dedup();
            let (n, e, d) = pairwise(g, &verts);
            let v = ask(
                state,
                &format!(r#"{{"query":"density","node":{id},"algo":"{a}"}}"#),
            );
            let tag = format!("{kind:?} {a} node {id}");
            assert_eq!(num(&v, "vertices"), n as u64, "{tag}");
            assert_eq!(num(&v, "edges"), e as u64, "{tag}");
            assert_eq!(real(&v, "density"), d, "{tag}");
            if id > 0 && best.is_none_or(|(_, b)| d > b) {
                best = Some((id, d));
            }
        }

        let v = ask(state, &format!(r#"{{"query":"densest","algo":"{a}"}}"#));
        let Value::Object(fields) = &v else {
            panic!("densest: {v:?}")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["node", "lambda", "vertices", "edges", "density"]);
        let (node, density) = best.expect("every graph here has a nucleus");
        assert_eq!(num(&v, "node"), node as u64, "{kind:?} {a}");
        assert_eq!(real(&v, "density"), density, "{kind:?} {a}");

        let mut profile = vec![0u64; h.max_lambda() as usize + 1];
        for node in h.nodes().skip(1) {
            for k in h.node(node.parent).lambda + 1..=node.lambda {
                profile[k as usize] += 1;
            }
        }
        let want = Value::Array(profile.into_iter().map(Value::U64).collect());
        let v = ask(
            state,
            &format!(r#"{{"query":"level_profile","algo":"{a}"}}"#),
        );
        assert_eq!(v.field("profile").unwrap(), &want, "{kind:?} {a}");
        assert_eq!(num(&v, "nuclei"), h.nucleus_count() as u64, "{kind:?} {a}");
    }

    /// Every query type over every cell and node (and one past each
    /// end), once per algorithm in [`Algorithm::ALL`]; `stats` is left
    /// out, since `hierarchies_built` names the builder.
    fn request_list(cells: usize, nodes: usize) -> Vec<String> {
        let mut list = Vec::new();
        for algo in Algorithm::ALL {
            let a = algo.name();
            for cell in 0..=cells {
                for query in ["lambda", "nuclei_of"] {
                    list.push(format!(
                        r#"{{"query":"{query}","cell":{cell},"algo":"{a}"}}"#
                    ));
                }
            }
            for node in 0..=nodes {
                list.push(format!(
                    r#"{{"query":"members","node":{node},"limit":8,"algo":"{a}"}}"#
                ));
                for query in ["subtree", "density"] {
                    list.push(format!(
                        r#"{{"query":"{query}","node":{node},"algo":"{a}"}}"#
                    ));
                }
            }
            for query in ["densest", "level_profile"] {
                list.push(format!(r#"{{"query":"{query}","algo":"{a}"}}"#));
            }
        }
        list
    }

    fn answer_bytes(state: &ServeState<'_>, line: &str) -> String {
        match state.answer(&Request::parse(line).unwrap()) {
            Ok(v) => serde_json::to_string(&v).unwrap(),
            Err(e) => format!("{} {}", e.code.as_str(), e.message),
        }
    }

    /// One hierarchy per state: the fixed request list answers
    /// byte-identically whichever algorithm builds the hierarchy, and
    /// `stats` names that one algorithm.
    #[test]
    fn answers_do_not_depend_on_the_first_algorithm() {
        let graphs = [
            nucleus_gen::planted::planted_cliques(6, &[8, 7, 6, 5], 42),
            nucleus_gen::karate::karate_club(),
        ];
        for g in &graphs {
            for kind in [Kind::Core, Kind::Truss] {
                let fresh = || ServeState::new(Nucleus::builder(g).kind(kind).prepare().unwrap());
                let reference = fresh();
                let nodes = reference.hierarchy(Algorithm::Fnd).unwrap().len();
                let list = request_list(reference.prepared().cells(), nodes);
                let want: Vec<String> = list.iter().map(|l| answer_bytes(&reference, l)).collect();
                for &first in Algorithm::for_kind(kind) {
                    let state = fresh();
                    let a = first.name();
                    answer_bytes(
                        &state,
                        &format!(r#"{{"query":"lambda","cell":0,"algo":"{a}"}}"#),
                    );
                    let stats = answer_bytes(&state, r#"{"query":"stats"}"#);
                    assert!(
                        stats.contains(&format!(r#""hierarchies_built":["{a}"]"#)),
                        "{stats}"
                    );
                    for (line, want) in list.iter().zip(&want) {
                        assert_eq!(
                            &answer_bytes(&state, line),
                            want,
                            "{kind:?} first {a}: {line}"
                        );
                    }
                }
            }
        }
    }

    /// A state over a session loaded from a persisted index answers
    /// with the stored tree: `stats` names the index as the source
    /// before any query, and the full request list answers
    /// byte-identically to a freshly prepared state.
    #[test]
    fn index_backed_state_answers_like_a_fresh_one() {
        let graphs = [
            nucleus_gen::planted::planted_cliques(6, &[8, 7, 6, 5], 42),
            nucleus_gen::karate::karate_club(),
        ];
        let dir = std::env::temp_dir().join("nucleus-serve-engine");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, g) in graphs.iter().enumerate() {
            for kind in [Kind::Core, Kind::Truss] {
                let fresh = || Nucleus::builder(g).kind(kind).prepare().unwrap();
                let path = dir.join(format!("{}-{i}-{}.nidx", std::process::id(), kind.name()));
                fresh().save(&path).unwrap();
                let index = nucleus_core::PreparedIndex::load(&path).unwrap();
                std::fs::remove_file(&path).ok();
                let loaded =
                    ServeState::new(Nucleus::builder(g).prepare_from_index(index).unwrap());
                let stats = answer_bytes(&loaded, r#"{"query":"stats"}"#);
                assert!(
                    stats.contains(r#""hierarchies_built":["index"]"#),
                    "{stats}"
                );
                let reference = ServeState::new(fresh());
                let nodes = reference.hierarchy(Algorithm::Fnd).unwrap().len();
                for line in request_list(reference.prepared().cells(), nodes) {
                    assert_eq!(
                        answer_bytes(&loaded, &line),
                        answer_bytes(&reference, &line),
                        "{kind:?}: {line}"
                    );
                }
            }
        }
    }

    /// An algorithm the session cannot run — LCPS on a truss state — is
    /// rejected before the one hierarchy slot is touched, so it cannot
    /// poison it.
    #[test]
    fn unsupported_algorithms_leave_the_cache_empty() {
        let g = nucleus_gen::karate::karate_club();
        let state = ServeState::new(Nucleus::builder(&g).kind(Kind::Truss).prepare().unwrap());
        let err = state.hierarchy(Algorithm::Lcps).unwrap_err();
        assert_eq!(err.code, ErrorCode::Unsupported);
        let err = state.densest(Algorithm::Lcps).unwrap_err();
        assert_eq!(err.code, ErrorCode::Unsupported);
        let err = state
            .answer(&Request::parse(r#"{"query":"densest","algo":"lcps"}"#).unwrap())
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Unsupported);
        assert!(answer_bytes(&state, r#"{"query":"stats"}"#).contains(r#""hierarchies_built":[]"#));
        assert!(state.hierarchy(Algorithm::Fnd).is_ok());
        assert!(state.densest(Algorithm::Fnd).is_ok());
        assert!(
            answer_bytes(&state, r#"{"query":"stats"}"#).contains(r#""hierarchies_built":["fnd"]"#)
        );
        // later LCPS requests are still rejected, not served
        let err = state.hierarchy(Algorithm::Lcps).unwrap_err();
        assert_eq!(err.code, ErrorCode::Unsupported);
        assert_eq!(err.message, "algorithm lcps does not apply to kind truss");
    }

    #[test]
    fn density_densest_and_level_profile_match_references() {
        let graphs = [
            nucleus_gen::planted::planted_cliques(6, &[8, 7, 6, 5], 42),
            nucleus_gen::karate::karate_club(),
        ];
        for g in &graphs {
            for kind in [Kind::Core, Kind::Truss] {
                let state = ServeState::new(Nucleus::builder(g).kind(kind).prepare().unwrap());
                for &algo in Algorithm::for_kind(kind) {
                    check_against_references(g, kind, &state, algo);
                }
            }
        }
    }
}
