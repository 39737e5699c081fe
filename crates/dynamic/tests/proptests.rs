//! Property tests: batched incremental maintenance is equivalent to a
//! full static recompute — `apply(batch)` ≡ `recompute()` for λ — on
//! random ER and BA graphs under random mutation streams (inserts,
//! deletes, mixed) chunked into 1-, 2- and 8-op batches.
//!
//! These are the correctness spine of `nucleus-dynamic`: the exact
//! (1,2)/(2,3) repairs and the scoped-recompute fallback all reduce to
//! "after any stream, the maintained λ equals the λ of a fresh peel of
//! the snapshot". CI runs this file in release like the other
//! equivalence suites.

use proptest::prelude::*;
use proptest::TestCaseError;

use nucleus_core::peel::peel;
use nucleus_core::space::VertexSpace;
use nucleus_core::Kind;
use nucleus_dynamic::{DynamicGraph, EdgeOp, Strategy as UpdateStrategy};
use nucleus_graph::persist_io::graph_fingerprint;
use nucleus_graph::CsrGraph;

/// Checks maintained λ against a fresh static peel of the snapshot.
fn assert_equivalent(dg: &DynamicGraph, context: &str) -> Result<(), TestCaseError> {
    let g = dg.to_graph();
    prop_assert_eq!(
        graph_fingerprint(&g),
        dg.fingerprint(),
        "fingerprint drifted: {}",
        context
    );
    let maintained = dg.lambda_snapshot(&g).expect("λ is maintained");
    let fresh = DynamicGraph::new(&g, dg.kind().expect("kind is maintained"));
    let expect = fresh.lambda_snapshot(&g).unwrap();
    prop_assert_eq!(maintained, expect, "λ drifted from recompute: {}", context);
    Ok(())
}

/// Drives one mutation stream through `apply` in fixed-size batches,
/// checking equivalence and report accounting after every batch.
fn run_stream(g: &CsrGraph, kind: Kind, ops: &[EdgeOp], batch: usize) -> Result<(), TestCaseError> {
    let mut dg = DynamicGraph::new(g, kind);
    for (i, chunk) in ops.chunks(batch).enumerate() {
        let before_gen = dg.generation();
        let r = dg.apply(chunk);
        let context = format!("{kind:?} batch #{i} (size {batch})");
        prop_assert_eq!(
            r.applied + r.skipped + r.coalesced,
            chunk.len(),
            "op accounting broken: {}",
            &context
        );
        prop_assert_eq!(r.applied, r.inserted + r.deleted, "{}", &context);
        prop_assert_eq!(r.needs_reindex, r.applied > 0, "{}", &context);
        prop_assert_eq!(
            dg.generation(),
            before_gen + u64::from(r.applied > 0),
            "{}",
            &context
        );
        let expect_strategy = match kind {
            Kind::Core | Kind::Truss => UpdateStrategy::Incremental,
            _ => UpdateStrategy::ScopedRecompute,
        };
        prop_assert_eq!(r.strategy, expect_strategy, "{}", &context);
        assert_equivalent(&dg, &context)?;
    }
    Ok(())
}

/// A random mutation stream over `n` vertices: `bias` controls the
/// insert/delete mix (pure-insert and pure-delete streams come out of
/// the extreme biases; ops on absent/present edges coalesce or skip).
fn stream_strategy(n: u32, len: usize) -> impl Strategy<Value = Vec<EdgeOp>> {
    proptest::collection::vec((0..n, 0..n, 0..100u32, proptest::bool::ANY), len..=len).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(u, v, bias, flip)| {
                    // Thirds: mostly-insert, mostly-delete, mixed.
                    let insert = match bias % 3 {
                        0 => bias % 10 != 0,
                        1 => bias % 10 == 0,
                        _ => flip,
                    };
                    if insert {
                        EdgeOp::Insert(u, v)
                    } else {
                        EdgeOp::Delete(u, v)
                    }
                })
                .collect()
        },
    )
}

fn er_graph(n: u32, seed: u64, p: f64) -> CsrGraph {
    nucleus_gen::er::gnp(n, p, seed)
}

fn ba_graph(n: u32, seed: u64) -> CsrGraph {
    nucleus_gen::ba::barabasi_albert(n, 3, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (1,2) exact maintenance ≡ recompute on ER streams.
    #[test]
    fn dynamic_equivalence_core_er(
        n in 6u32..28,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 24),
    ) {
        let g = er_graph(n, seed, 0.25);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        for batch in [1usize, 2, 8] {
            run_stream(&g, Kind::Core, &ops, batch)?;
        }
    }

    /// (2,3) exact maintenance ≡ recompute on ER streams.
    #[test]
    fn dynamic_equivalence_truss_er(
        n in 6u32..22,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 20),
    ) {
        let g = er_graph(n, seed, 0.35);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        for batch in [1usize, 2, 8] {
            run_stream(&g, Kind::Truss, &ops, batch)?;
        }
    }

    /// Core and truss maintenance ≡ recompute on BA (preferential
    /// attachment) streams — skewed degrees stress the subcore and
    /// sub-truss traversals differently than ER.
    #[test]
    fn dynamic_equivalence_core_truss_ba(
        n in 8u32..24,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 16),
    ) {
        let g = ba_graph(n, seed);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        for batch in [1usize, 2, 8] {
            run_stream(&g, Kind::Core, &ops, batch)?;
            run_stream(&g, Kind::Truss, &ops, batch)?;
        }
    }

    /// Scoped recompute ((1,3), (2,4), (3,4)) ≡ full recompute.
    #[test]
    fn dynamic_equivalence_scoped_kinds(
        n in 6u32..16,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 10),
    ) {
        let g = er_graph(n, seed, 0.4);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        for kind in [Kind::VertexTriangle, Kind::EdgeK4, Kind::Nucleus34] {
            for batch in [1usize, 2, 8] {
                run_stream(&g, kind, &ops, batch)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edge-by-edge (1,2) maintenance from an empty graph ≡ a static
    /// peel of the snapshot after every op; self-loops, repeated inserts
    /// and deletes of absent edges all come up.
    #[test]
    fn dynamic_cores_track_recompute(
        n in 4u32..20,
        ops in proptest::collection::vec((0u32..20, 0u32..20, prop::bool::ANY), 1..60),
    ) {
        let mut dg = DynamicGraph::with_vertices(n as usize, Kind::Core);
        for (a, b, insert) in ops {
            let (a, b) = (a % n, b % n);
            dg.apply(&[if insert { EdgeOp::Insert(a, b) } else { EdgeOp::Delete(a, b) }]);
            let g = dg.to_graph();
            let expect = peel(&VertexSpace::new(&g)).lambda;
            prop_assert_eq!(dg.core_numbers(), Some(&expect[..]));
        }
    }
}
