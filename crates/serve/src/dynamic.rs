//! The mutable query engine: an epoch-swapping [`QueryAnswerer`] over
//! a [`DynamicGraph`].
//!
//! A [`DynamicServeState`] keeps two things:
//!
//! * the **source of truth** — a topology-mode [`DynamicGraph`] behind
//!   a mutex, fed by `mutate` requests (which batch, coalesce and
//!   count ops exactly like [`DynamicGraph::apply`]);
//! * the **current epoch** — an immutable [`ServeState`] prepared over
//!   a snapshot of the source, behind an `RwLock<Arc<_>>`.
//!
//! Queries clone the current epoch's `Arc` under a read lock and
//! answer from it lock-free, exactly as on an immutable server. A
//! `mutate` that applies at least one op rebuilds a fresh epoch on the
//! worker thread that received it — the accept loop and every other
//! worker keep answering from the old epoch — and then atomically
//! swaps it in, bumping the epoch counter surfaced in `stats`. In-
//! flight queries on the old epoch finish safely: their `Arc` keeps it
//! alive until the last one drops.
//!
//! A no-op batch (every op skipped or coalesced away) answers without
//! rebuilding and leaves the epoch unchanged, mirroring how
//! [`DynamicGraph::apply`] skips its generation bump. The default
//! algorithm lives on the epoch: each new epoch inherits the current
//! one's.

use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use nucleus_core::{Algorithm, Kind, Nucleus};
use nucleus_dynamic::{DynamicGraph, EdgeOp};
use nucleus_graph::CsrGraph;
use serde::Value;

use crate::engine::{QueryAnswerer, ServeState};
use crate::protocol::{ErrorCode, ProtocolError, Query, Request};

/// One immutable generation of the served space.
///
/// Drop order is load-bearing: `state` borrows `_graph` (see
/// [`Epoch::build`]), so `state` is declared first and therefore
/// dropped first.
struct Epoch {
    state: ServeState<'static>,
    epoch: u64,
    _graph: Box<CsrGraph>,
}

impl Epoch {
    /// Prepares a fresh epoch over `graph`.
    ///
    /// The `'static` is a private fiction: `state` really borrows the
    /// boxed graph, whose heap address is stable and which outlives
    /// `state` by field order. Neither field is ever moved out or
    /// replaced, and the borrow never escapes the `Epoch` (queries
    /// go through `&self.state`), so the unsafe lifetime extension
    /// cannot dangle.
    fn build(
        graph: CsrGraph,
        epoch: u64,
        kind: Kind,
        default_algo: Option<Algorithm>,
    ) -> Result<Epoch, ProtocolError> {
        let boxed = Box::new(graph);
        let gref: &'static CsrGraph = unsafe { &*(boxed.as_ref() as *const CsrGraph) };
        let prepared = Nucleus::builder(gref)
            .kind(kind)
            .prepare()
            .map_err(|e| ProtocolError::new(ErrorCode::Internal, e.to_string()))?;
        let mut state = ServeState::new(prepared);
        if let Some(algo) = default_algo {
            state = state.with_default_algo(algo);
        }
        Ok(Epoch {
            state,
            epoch,
            _graph: boxed,
        })
    }
}

/// A mutable [`QueryAnswerer`]: answers reads from the current epoch,
/// applies `mutate` batches to the source graph, and swaps in freshly
/// prepared epochs.
pub struct DynamicServeState {
    kind: Kind,
    /// Source of truth for topology; also serializes mutations.
    source: Mutex<DynamicGraph>,
    current: RwLock<Arc<Epoch>>,
}

impl DynamicServeState {
    /// Prepares epoch 0 over a snapshot of `g` for `kind`.
    ///
    /// # Errors
    /// [`ProtocolError`] with [`ErrorCode::Internal`] when the initial
    /// prepare fails.
    pub fn new(g: &CsrGraph, kind: Kind) -> Result<DynamicServeState, ProtocolError> {
        let epoch = Epoch::build(g.clone(), 0, kind, None)?;
        Ok(DynamicServeState {
            kind,
            source: Mutex::new(DynamicGraph::topology(g)),
            current: RwLock::new(Arc::new(epoch)),
        })
    }

    /// Overrides the algorithm used when a request names none. Sets it
    /// in place on the current epoch, keeping the hierarchy that epoch
    /// may have built already; later epochs inherit it.
    pub fn with_default_algo(mut self, algo: Algorithm) -> Self {
        let current = self.current.get_mut().expect("epoch lock poisoned");
        Arc::get_mut(current)
            .expect("epoch handles never outlive a request, so only the state holds one")
            .state
            .default_algo = algo;
        self
    }

    /// The served family.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The current epoch counter (0 until the first effective mutate).
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("epoch lock poisoned").epoch
    }

    /// Clones the current epoch handle; queries answer from this
    /// snapshot even if a mutate swaps mid-flight.
    fn epoch_handle(&self) -> Arc<Epoch> {
        Arc::clone(&self.current.read().expect("epoch lock poisoned"))
    }

    /// Applies one `mutate` batch: updates the source graph and, when
    /// any op applied, prepares and swaps in the next epoch.
    fn mutate(&self, ops: &[EdgeOp]) -> Result<Value, ProtocolError> {
        // Holding the source lock across the rebuild serializes
        // mutations; readers are unaffected (they only touch `current`).
        let mut source = self.source.lock().expect("source lock poisoned");
        let report = source.apply(ops);
        let rebuilt = report.applied > 0;
        let t0 = Instant::now();
        let epoch = if rebuilt {
            let (next, default_algo) = {
                let current = self.epoch_handle();
                (current.epoch + 1, current.state.default_algo())
            };
            let fresh = Epoch::build(source.to_graph(), next, self.kind, Some(default_algo))?;
            *self.current.write().expect("epoch lock poisoned") = Arc::new(fresh);
            next
        } else {
            self.epoch_handle().epoch
        };
        let u64v = |x: usize| Value::U64(x as u64);
        Ok(Value::Object(vec![
            ("applied".to_string(), u64v(report.applied)),
            ("skipped".to_string(), u64v(report.skipped)),
            ("coalesced".to_string(), u64v(report.coalesced)),
            ("inserted".to_string(), u64v(report.inserted)),
            ("deleted".to_string(), u64v(report.deleted)),
            (
                "needs_reindex".to_string(),
                Value::Bool(report.needs_reindex),
            ),
            ("rebuilt".to_string(), Value::Bool(rebuilt)),
            (
                "rebuild_ms".to_string(),
                Value::U64(if rebuilt {
                    t0.elapsed().as_millis().min(u64::MAX as u128) as u64
                } else {
                    0
                }),
            ),
            ("epoch".to_string(), Value::U64(epoch)),
            ("graph_n".to_string(), u64v(source.n())),
            ("graph_m".to_string(), u64v(source.m())),
        ]))
    }
}

impl QueryAnswerer for DynamicServeState {
    fn answer(&self, req: &Request) -> Result<Value, ProtocolError> {
        match &req.query {
            Query::Mutate { ops } => self.mutate(ops),
            Query::Stats => Ok(QueryAnswerer::stats_value(self, None)),
            _ => self.epoch_handle().state.answer(req),
        }
    }

    /// The current epoch's engine stats, plus `epoch` and
    /// `mutable: true`.
    fn stats_value(&self, metrics: Option<Value>) -> Value {
        let epoch = self.epoch_handle();
        let mut v = epoch.state.stats_value(metrics);
        if let Value::Object(entries) = &mut v {
            entries.push(("epoch".to_string(), Value::U64(epoch.epoch)));
            entries.push(("mutable".to_string(), Value::Bool(true)));
        }
        v
    }
}

impl std::fmt::Debug for DynamicServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicServeState")
            .field("kind", &self.kind)
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    fn answers_on(state: &dyn QueryAnswerer, line: &str) -> Result<Value, ProtocolError> {
        state.answer(&Request::parse(line).unwrap())
    }

    fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
        v.field(name).unwrap()
    }

    /// Every read query must answer bit-identically to a fresh
    /// immutable ServeState over the mutated snapshot.
    #[test]
    fn mutate_round_trip_is_bit_identical_to_fresh_state() {
        let g = nucleus_gen::karate::karate_club();
        let dyn_state = DynamicServeState::new(&g, Kind::Truss).unwrap();
        // {9,33} already exists and the repeated insert no-ops against
        // the simulated batch state: both are skips.
        let ops = r#"{"query":"mutate","ops":[["+",0,9],["+",9,33],["-",0,1],["+",0,9]]}"#;
        let v = answers_on(&dyn_state, ops).unwrap();
        assert_eq!(field(&v, "applied"), &Value::U64(2));
        assert_eq!(field(&v, "skipped"), &Value::U64(2));
        assert_eq!(field(&v, "coalesced"), &Value::U64(0));
        assert_eq!(field(&v, "rebuilt"), &Value::Bool(true));
        assert_eq!(field(&v, "epoch"), &Value::U64(1));
        assert_eq!(dyn_state.epoch(), 1);

        // The reference: a mutated CSR snapshot served immutably.
        let mutated = {
            let mut dg = DynamicGraph::topology(&g);
            dg.apply(&[EdgeOp::Insert(0, 9), EdgeOp::Delete(0, 1)]);
            dg.to_graph()
        };
        let prepared = Nucleus::builder(&mutated)
            .kind(Kind::Truss)
            .prepare()
            .unwrap();
        let fresh = ServeState::new(prepared);
        let queries = [
            r#"{"query":"lambda","cell":0}"#,
            r#"{"query":"lambda","cell":41}"#,
            r#"{"query":"nuclei_of","cell":7}"#,
            r#"{"query":"members","node":1}"#,
            r#"{"query":"subtree","node":0}"#,
            r#"{"query":"density","node":1}"#,
            r#"{"query":"densest"}"#,
            r#"{"query":"level_profile"}"#,
        ];
        for q in queries {
            let got = answers_on(&dyn_state, q);
            let want = fresh.answer(&Request::parse(q).unwrap());
            assert_eq!(
                got.map(|v| serde_json::to_string(&v).unwrap()),
                want.map(|v| serde_json::to_string(&v).unwrap()),
                "query: {q}"
            );
        }
    }

    #[test]
    fn noop_mutate_does_not_bump_the_epoch() {
        let g = nucleus_gen::karate::karate_club();
        let state = DynamicServeState::new(&g, Kind::Core).unwrap();
        // {0,1} exists; inserting it is a skip. Insert+delete of an
        // absent pair cancel: both coalesce away.
        let v = answers_on(
            &state,
            r#"{"query":"mutate","ops":[["+",0,1],["+",20,25],["-",20,25]]}"#,
        )
        .unwrap();
        assert_eq!(field(&v, "applied"), &Value::U64(0));
        assert_eq!(field(&v, "skipped"), &Value::U64(1));
        assert_eq!(field(&v, "coalesced"), &Value::U64(2));
        assert_eq!(field(&v, "rebuilt"), &Value::Bool(false));
        assert_eq!(state.epoch(), 0);
    }

    #[test]
    fn stats_surface_epoch_and_mutability() {
        let g = nucleus_gen::karate::karate_club();
        let state = DynamicServeState::new(&g, Kind::Core).unwrap();
        let v = answers_on(&state, r#"{"query":"stats"}"#).unwrap();
        assert_eq!(field(&v, "epoch"), &Value::U64(0));
        assert_eq!(field(&v, "mutable"), &Value::Bool(true));
        answers_on(&state, r#"{"query":"mutate","ops":[["-",0,1]]}"#).unwrap();
        let v = answers_on(&state, r#"{"query":"stats"}"#).unwrap();
        assert_eq!(field(&v, "epoch"), &Value::U64(1));
        assert_eq!(
            field(&v, "graph_m"),
            &Value::U64(g.m() as u64 - 1),
            "stats must reflect the mutated snapshot"
        );
    }

    /// Setting the default keeps epoch 0 (and the hierarchies it has
    /// built) instead of preparing it again, and later epochs inherit
    /// the default.
    #[test]
    fn default_algo_is_set_in_place_and_inherited() {
        let g = nucleus_gen::karate::karate_club();
        let state = DynamicServeState::new(&g, Kind::Truss).unwrap();
        answers_on(&state, r#"{"query":"lambda","cell":0}"#).unwrap();
        let state = state.with_default_algo(Algorithm::Dft);
        let stats =
            serde_json::to_string(&answers_on(&state, r#"{"query":"stats"}"#).unwrap()).unwrap();
        assert!(stats.contains(r#""hierarchies_built":["fnd"]"#), "{stats}");
        assert!(stats.contains(r#""default_algo":"dft""#), "{stats}");
        answers_on(&state, r#"{"query":"mutate","ops":[["-",0,1]]}"#).unwrap();
        let v = answers_on(&state, r#"{"query":"stats"}"#).unwrap();
        assert_eq!(field(&v, "epoch"), &Value::U64(1));
        assert_eq!(field(&v, "default_algo"), &Value::Str("dft".to_string()));
    }

    #[test]
    fn immutable_state_rejects_mutate() {
        let g = nucleus_gen::karate::karate_club();
        let prepared = Nucleus::builder(&g).kind(Kind::Core).prepare().unwrap();
        let state = ServeState::new(prepared);
        let err = state
            .answer(&Request::parse(r#"{"query":"mutate","ops":[["+",0,9]]}"#).unwrap())
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Unsupported);
        assert!(err.message.contains("--mutable"), "{err}");
    }
}
