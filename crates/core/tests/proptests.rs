//! Property tests: all hierarchy algorithms agree with each other, with
//! the brute-force definitions, and with the paper's invariants — on
//! arbitrary random graphs.

use proptest::prelude::*;

use nucleus_core::algo::dft::dft;
use nucleus_core::algo::fnd::{build_hierarchy, fnd, fnd_classify, FndOptions, FndOutcome};
use nucleus_core::algo::lcps::lcps;
use nucleus_core::algo::naive::naive;
use nucleus_core::algo::tcp::{tcp_query, TcpIndex};
use nucleus_core::decompose::{Algorithm, Backend, Decomposition, Kind};
use nucleus_core::peel::{peel, peel_reference};
use nucleus_core::persist::PreparedIndex;
use nucleus_core::plan;
use nucleus_core::session::Nucleus;
use nucleus_core::space::materialized::record_arity;
use nucleus_core::space::{
    ContainerIndex, EdgeK4Space, EdgeSpace, IndexedSpace, PeelBackend, PeelSpace, TriangleSpace,
    VertexSpace, VertexTriangleSpace,
};
use nucleus_core::validate::check_semantics;
use nucleus_core::FrontierOptions;
use nucleus_graph::flat::{offsets_from_counts, FlatRecords};
use nucleus_graph::persist_io::{encode_index, graph_fingerprint};
use nucleus_graph::CsrGraph;

/// A fresh path under the system temp dir for one persisted index.
fn temp_index_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("nucleus-persist-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{}-{}-{tag}.nidx",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ))
}

/// A space's container records as its `for_each_container` enumerates
/// them, cell by cell: the reference every index fill must reproduce
/// record for record.
fn per_cell_records<S: PeelSpace>(space: &S) -> FlatRecords {
    let mut counts = Vec::with_capacity(space.cell_count());
    let mut data = Vec::new();
    for cell in 0..space.cell_count() as u32 {
        let mut count = 0u32;
        space.for_each_container(cell, |others| {
            data.extend_from_slice(others);
            count += 1;
        });
        counts.push(count);
    }
    let arity = record_arity(space.r(), space.s());
    FlatRecords::from_parts(offsets_from_counts(&counts), data, arity)
}

/// The bytes `Prepared::save` writes for a materialized `kind` session
/// prepared on `threads` threads.
fn saved_index_bytes(g: &CsrGraph, kind: Kind, threads: usize) -> Vec<u8> {
    let path = temp_index_path(kind.name());
    Nucleus::builder(g)
        .kind(kind)
        .backend(Backend::Materialized)
        .threads(threads)
        .prepare()
        .expect("prepare")
        .save(&path)
        .expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Pins every parallel prepare-phase builder to its serial twin,
/// bit-for-bit, at 1, 2 and 8 worker threads:
///
/// * triangle enumeration ([`TriangleList::build_with_threads`]) and the
///   edge→thirds index ([`TriangleIndex::build_with_threads`]) — the
///   shared substrate of the (1,3), (2,3), (2,4) and (3,4) spaces;
/// * the per-family ω-degree kernels (edge supports, per-vertex triangle
///   counts, per-edge K4 degrees, and the per-triangle K4 count that
///   lists each K4 once, against serial `k4_degrees`) that feed the
///   peeling loop;
/// * the fused container-record fills — (2,3) scattered from the
///   oriented triangle listing, (3,4) from the space's index — against
///   the lazy per-cell enumeration, record for record, and the bytes
///   `Prepared::save` writes against an image encoded from it;
/// * the whole prepared pipeline: `prepare` → FND at every thread count
///   must produce identical λ, peeling order and hierarchy for all five
///   kinds.
fn check_prepare_equivalence(g: &CsrGraph) {
    use nucleus_cliques::four_cliques::k4_degrees;
    use nucleus_cliques::triangles::edge_supports;
    use nucleus_cliques::{
        k4_degrees_parallel, k4_edge_degrees, k4_edge_degrees_parallel, vertex_triangle_counts,
        vertex_triangle_counts_parallel, TriangleIndex, TriangleList,
    };
    let tris = TriangleList::build(g);
    let index = TriangleIndex::build(g, &tris);
    let vtc = vertex_triangle_counts(g);
    let k4d = k4_edge_degrees(g, &index);
    let k4t = k4_degrees(g, &tris);
    let supports = edge_supports(g);
    let truss_records = per_cell_records(&EdgeSpace::new(g));
    let n34_records = per_cell_records(&TriangleSpace::new(g));
    let fingerprint = graph_fingerprint(g);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            k4t,
            k4_degrees_parallel(g, &tris, threads),
            "K4 triangle degrees at t={threads}"
        );
        let es = EdgeSpace::with_threads(g, threads);
        assert_eq!(supports, es.degrees(), "(2,3) ω at t={threads}");
        assert_eq!(
            truss_records,
            per_cell_records(&IndexedSpace::new(
                &es,
                &ContainerIndex::build(&es, threads)
            )),
            "(2,3) records at t={threads}"
        );
        let ts = TriangleSpace::with_threads(g, threads);
        assert_eq!(k4t, ts.degrees(), "(3,4) ω at t={threads}");
        assert_eq!(
            n34_records,
            per_cell_records(&IndexedSpace::new(
                &ts,
                &ContainerIndex::build(&ts, threads)
            )),
            "(3,4) records at t={threads}"
        );
        for (kind, records) in [
            (Kind::Truss, &truss_records),
            (Kind::Nucleus34, &n34_records),
        ] {
            let (r, s) = kind.rs();
            assert!(
                saved_index_bytes(g, kind, threads) == encode_index(r, s, fingerprint, records),
                "{kind} saved image at t={threads}"
            );
        }
        assert_eq!(
            tris,
            TriangleList::build_with_threads(g, threads),
            "TriangleList at t={threads}"
        );
        assert_eq!(
            index,
            TriangleIndex::build_with_threads(g, &tris, threads),
            "TriangleIndex at t={threads}"
        );
        if threads > 1 {
            assert_eq!(
                vtc,
                vertex_triangle_counts_parallel(g, threads),
                "vertex triangle counts at t={threads}"
            );
            assert_eq!(
                k4d,
                k4_edge_degrees_parallel(g, &index, threads),
                "K4 edge degrees at t={threads}"
            );
            assert_eq!(
                supports,
                nucleus_cliques::parallel::edge_supports_parallel(g, threads),
                "edge supports at t={threads}"
            );
        }
    }
    for kind in Kind::all() {
        let session = |threads| Nucleus::builder(g).kind(kind).threads(threads).prepare();
        let base = session(1).expect("prepare t=1");
        let fnd_base = base.run(Algorithm::Fnd).expect("FND t=1");
        for threads in [2usize, 8] {
            let p = session(threads).unwrap_or_else(|e| panic!("prepare {kind} t={threads}: {e}"));
            let out = p.run(Algorithm::Fnd).expect("FND");
            let label = format!("{kind} t={threads}");
            assert_eq!(fnd_base.peeling.lambda, out.peeling.lambda, "λ at {label}");
            assert_eq!(
                fnd_base.peeling.order, out.peeling.order,
                "order at {label}"
            );
            assert_eq!(fnd_base.hierarchy, out.hierarchy, "hierarchy at {label}");
        }
    }
}

/// Random graph strategy: up to `n_max` vertices, arbitrary edge subset.
fn graph_strategy(n_max: u32, m_max: usize) -> impl Strategy<Value = CsrGraph> {
    (2..=n_max).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=m_max)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, &edges))
    })
}

fn check_space_agreement<S: PeelSpace>(space: &S) {
    let p = peel(space);
    // 1. peeling matches the literal definition
    assert_eq!(p.lambda, peel_reference(space), "λ vs brute force");
    // 2. all algorithms produce the identical canonical hierarchy
    let h_naive = naive(space, &p);
    let (h_dft, _) = dft(space, &p);
    let out = fnd(space);
    assert_eq!(out.peeling.lambda, p.lambda, "FND λ");
    assert_eq!(h_naive, h_dft, "naive vs dft");
    assert_eq!(h_dft, out.hierarchy, "dft vs fnd");
    // 3. structural + semantic invariants
    h_dft.validate().expect("structural");
    check_semantics(space, &h_dft).expect("semantic");
}

/// Pins the materialized backend to the lazy one: identical ω degrees,
/// identical peeling (λ **and** processing order — the flat index must
/// replay the lazy enumeration order exactly), and identical FND
/// hierarchies, for any space. On both backends, FND's public halves
/// composed by hand ([`check_fnd_split`]) give `fnd`'s result too.
fn check_backend_equivalence<S: PeelSpace + Sync>(space: &S) {
    let lazy_fnd = fnd(space);
    check_fnd_split(space, &lazy_fnd);
    for threads in [1, 3] {
        let index = ContainerIndex::build(space, threads);
        let mat = IndexedSpace::new(space, &index);
        assert_eq!(space.degrees(), mat.degrees(), "ω degrees");
        let lazy_peel = peel(space);
        let mat_peel = peel(&mat);
        assert_eq!(lazy_peel.lambda, mat_peel.lambda, "λ");
        assert_eq!(lazy_peel.order, mat_peel.order, "peeling order");
        let mat_fnd = fnd(&mat);
        assert_eq!(lazy_fnd.hierarchy, mat_fnd.hierarchy, "FND hierarchy");
        check_semantics(&mat, &mat_fnd.hierarchy).expect("materialized semantics");
        check_fnd_split(&mat, &lazy_fnd);
    }
}

/// The split the repository benchmark's layer probe runs:
/// [`fnd_classify`] (Alg. 8), then [`build_hierarchy`] (Alg. 9), then
/// `into_hierarchy`, with the ignored parallel-only arguments set. The
/// classified peeling must be `want`'s λ and order, and the hierarchy
/// `want`'s.
fn check_fnd_split<S: PeelSpace>(space: &S, want: &FndOutcome) {
    let frontier = FrontierOptions {
        threads: 8,
        min_parallel_work: 0,
    };
    let cl = fnd_classify(space, FndOptions::default(), frontier);
    assert_eq!(cl.peeling.lambda, want.peeling.lambda, "classified λ");
    assert_eq!(cl.peeling.order, want.peeling.order, "classified order");
    let max_lambda = cl.peeling.max_lambda;
    let mut sk = cl.skeleton;
    build_hierarchy(&mut sk, &cl.adj, max_lambda, 8, 0);
    let h = sk
        .into_raw()
        .into_hierarchy(space.r(), space.s(), cl.peeling.lambda, max_lambda);
    assert_eq!(h, want.hierarchy, "fnd_classify + build_hierarchy");
}

/// Pins every builder session to the lazy reference session for one
/// kind, across every backend × algorithm combination:
///
/// * when [`plan::validate`] accepts the combination, the session
///   produces the reference's λ, peeling order and hierarchy, and
///   reports the backend its `plan` resolved;
/// * a **second** `run` on the same `Prepared` reproduces the first one
///   exactly — reuse does not corrupt the cached space or index;
/// * every algorithm outside [`Algorithm::for_kind`] fails at `run`
///   with the `CoreError` variant [`plan::validate`] returns;
/// * the Hypo baseline agrees on component counts.
fn check_session_equivalence(g: &CsrGraph, kind: Kind) {
    let reference = Nucleus::builder(g)
        .kind(kind)
        .backend(Backend::Lazy)
        .prepare()
        .expect("prepare never fails");
    let algos = Algorithm::for_kind(kind);
    let want: Vec<Decomposition> = algos
        .iter()
        .map(|&algo| reference.run(algo).expect("reference run"))
        .collect();
    let (_, want_comps) = reference.hypo_baseline();
    for backend in [Backend::Lazy, Backend::Materialized, Backend::Auto] {
        let p = Nucleus::builder(g)
            .kind(kind)
            .backend(backend)
            .threads(2)
            .prepare()
            .expect("prepare never fails");
        for algo in Algorithm::ALL {
            let label = format!("{kind}/{algo}/{backend}");
            let Some(i) = algos.iter().position(|&a| a == algo) else {
                let rejected = plan::validate(kind, algo).expect_err(&label);
                assert_eq!(
                    std::mem::discriminant(&rejected),
                    std::mem::discriminant(&p.run(algo).expect_err(&label)),
                    "{label}: validate says {rejected}"
                );
                continue;
            };
            let (want, new) = (&want[i], p.run(algo).expect(&label));
            assert_eq!(want.peeling.lambda, new.peeling.lambda, "{label} λ");
            assert_eq!(want.peeling.order, new.peeling.order, "{label} order");
            assert_eq!(want.hierarchy, new.hierarchy, "{label} hierarchy");
            let planned = p.plan(algo).expect(&label);
            assert_eq!(new.backend, planned.backend, "{label} resolution");
            // rerun on the same session: identical again
            let again = p.run(algo).expect(&label);
            assert_eq!(new.peeling.lambda, again.peeling.lambda, "{label} reuse λ");
            assert_eq!(
                new.peeling.order, again.peeling.order,
                "{label} reuse order"
            );
            assert_eq!(new.hierarchy, again.hierarchy, "{label} reuse hierarchy");
        }
        let (_, comps) = p.hypo_baseline();
        assert_eq!(comps, want_comps, "{kind}/{backend} hypo components");
    }
}

/// Pins the persisted-index path to the in-memory one: `save` → `load`
/// → `prepare_from_index` → `run` yields bit-identical λ, peeling order
/// and hierarchy for every algorithm of the kind, vs the `Prepared`
/// the index was saved from. Every byte of the λ/order/hierarchy
/// equality flows through the on-disk format, so any encode/decode
/// asymmetry fails loudly here.
fn check_persist_round_trip(g: &CsrGraph, kind: Kind) {
    let path = temp_index_path(kind.name());
    let prepared = Nucleus::builder(g)
        .kind(kind)
        .backend(Backend::Materialized)
        .threads(2)
        .prepare()
        .expect("prepare");
    prepared.save(&path).expect("save");
    let index = PreparedIndex::load(&path).expect("load");
    assert_eq!(index.kind(), kind, "stored kind");
    assert_eq!(index.cells(), prepared.cells(), "stored cell count");
    let restored = Nucleus::builder(g)
        .threads(2)
        .prepare_from_index(index)
        .expect("prepare_from_index");
    for &algo in Algorithm::for_kind(kind) {
        let label = format!("{kind}/{algo}");
        let fresh = prepared.run(algo).expect(&label);
        let loaded = restored.run(algo).expect(&label);
        assert_eq!(fresh.peeling.lambda, loaded.peeling.lambda, "{label} λ");
        assert_eq!(fresh.peeling.order, loaded.peeling.order, "{label} order");
        assert_eq!(fresh.hierarchy, loaded.hierarchy, "{label} hierarchy");
    }
    std::fs::remove_file(&path).ok();
}

/// Deterministic multi-model coverage for the persist round trip: one
/// Erdős–Rényi and one Barabási–Albert graph across all five families
/// (the proptests below cover adversarial random graphs).
#[test]
fn persist_round_trip_on_er_and_ba_models() {
    let er = nucleus_gen::er::gnp(80, 0.08, 5);
    let ba = nucleus_gen::ba::barabasi_albert(100, 3, 5);
    for g in [&er, &ba] {
        for kind in Kind::all() {
            check_persist_round_trip(g, kind);
        }
    }
}

/// Deterministic multi-model coverage for the session equivalence: one
/// Erdős–Rényi and one Barabási–Albert graph across all five families.
#[test]
fn session_equivalence_on_er_and_ba_models() {
    let er = nucleus_gen::er::gnp(80, 0.08, 5);
    let ba = nucleus_gen::ba::barabasi_albert(100, 3, 5);
    for g in [&er, &ba] {
        for kind in Kind::all() {
            check_session_equivalence(g, kind);
        }
    }
}

/// Deterministic multi-model coverage for the prepare-phase
/// equivalence: one Erdős–Rényi and one Barabási–Albert graph, dense
/// enough that every builder has real triangles and K4s to enumerate.
#[test]
fn prepare_equivalence_on_er_and_ba_models() {
    let er = nucleus_gen::er::gnp(80, 0.1, 7);
    let ba = nucleus_gen::ba::barabasi_albert(100, 4, 7);
    for g in [&er, &ba] {
        check_prepare_equivalence(g);
    }
}

/// Deterministic prepare-phase coverage beyond the random models: a
/// hub-heavy R-MAT graph (skewed degrees, so a few hub edges carry most
/// of the triangles and K4s), a triangle-free cycle and the empty graph;
/// then the K4-dense inputs of the (3,4) vertex-table kernels: K8,
/// where every triangle lies in 5 K4s, and the uk2005-s Small surrogate
/// (planted cliques of 8, 12 and 16 vertices); and a K5 beside 10,000
/// isolated vertices, whose per-worker vertex tables are sized by n
/// while there are 10 triangles.
#[test]
fn prepare_equivalence_on_rmat_and_degenerate_graphs() {
    use nucleus_gen::surrogate::{dataset, Scale};
    let rmat = nucleus_gen::rmat::rmat(7, 8, nucleus_gen::rmat::RmatParams::skewed(), 7);
    let cycle = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let empty = CsrGraph::from_edges(0, &[]);
    let k8 = nucleus_gen::classic::complete(8);
    let planted = dataset("uk2005-s", Scale::Small);
    let k5_edges: Vec<(u32, u32)> = nucleus_gen::classic::complete(5)
        .edges()
        .map(|(_, u, v)| (u, v))
        .collect();
    let k5_isolated = CsrGraph::from_edges(10_005, &k5_edges);
    for g in [&rmat, &cycle, &empty, &k8, &planted, &k5_isolated] {
        check_prepare_equivalence(g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prepare_equivalence(g in graph_strategy(14, 55)) {
        check_prepare_equivalence(&g);
    }

    #[test]
    fn persist_round_trip_core(g in graph_strategy(20, 70)) {
        check_persist_round_trip(&g, Kind::Core);
    }

    #[test]
    fn persist_round_trip_vertex_triangle(g in graph_strategy(14, 50)) {
        check_persist_round_trip(&g, Kind::VertexTriangle);
    }

    #[test]
    fn persist_round_trip_truss(g in graph_strategy(14, 55)) {
        check_persist_round_trip(&g, Kind::Truss);
    }

    #[test]
    fn persist_round_trip_edge_k4(g in graph_strategy(10, 40)) {
        check_persist_round_trip(&g, Kind::EdgeK4);
    }

    #[test]
    fn persist_round_trip_nucleus34(g in graph_strategy(12, 50)) {
        check_persist_round_trip(&g, Kind::Nucleus34);
    }

    #[test]
    fn session_equivalence_core(g in graph_strategy(20, 70)) {
        check_session_equivalence(&g, Kind::Core);
    }

    #[test]
    fn session_equivalence_vertex_triangle(g in graph_strategy(14, 50)) {
        check_session_equivalence(&g, Kind::VertexTriangle);
    }

    #[test]
    fn session_equivalence_truss(g in graph_strategy(14, 55)) {
        check_session_equivalence(&g, Kind::Truss);
    }

    #[test]
    fn session_equivalence_edge_k4(g in graph_strategy(10, 40)) {
        check_session_equivalence(&g, Kind::EdgeK4);
    }

    #[test]
    fn session_equivalence_nucleus34(g in graph_strategy(12, 50)) {
        check_session_equivalence(&g, Kind::Nucleus34);
    }

    #[test]
    fn backend_equivalence_core(g in graph_strategy(24, 80)) {
        check_backend_equivalence(&VertexSpace::new(&g));
    }

    #[test]
    fn backend_equivalence_truss(g in graph_strategy(16, 60)) {
        check_backend_equivalence(&EdgeSpace::new(&g));
    }

    #[test]
    fn backend_equivalence_nucleus34(g in graph_strategy(12, 50)) {
        check_backend_equivalence(&TriangleSpace::new(&g));
    }

    #[test]
    fn backend_equivalence_vertex_triangle(g in graph_strategy(14, 50)) {
        check_backend_equivalence(&VertexTriangleSpace::new(&g));
    }

    #[test]
    fn backend_equivalence_edge_k4(g in graph_strategy(10, 40)) {
        check_backend_equivalence(&EdgeK4Space::new(&g));
    }

    #[test]
    fn algorithms_agree_on_core(g in graph_strategy(24, 80)) {
        let vs = VertexSpace::new(&g);
        check_space_agreement(&vs);
        // LCPS too (k-core only)
        let p = peel(&vs);
        let h_lcps = lcps(&g, &p);
        let (h_dft, _) = dft(&vs, &p);
        prop_assert_eq!(h_lcps, h_dft);
    }

    #[test]
    fn algorithms_agree_on_truss(g in graph_strategy(16, 60)) {
        check_space_agreement(&EdgeSpace::new(&g));
    }

    #[test]
    fn algorithms_agree_on_nucleus34(g in graph_strategy(12, 50)) {
        check_space_agreement(&TriangleSpace::new(&g));
    }

    #[test]
    fn tcp_queries_match_hierarchy(g in graph_strategy(12, 40)) {
        let es = EdgeSpace::new(&g);
        let truss = peel(&es);
        let idx = TcpIndex::build(&g, &truss);
        let (h, _) = dft(&es, &truss);
        for k in 1..=h.max_lambda() {
            for node in h.nuclei_at(k) {
                let mut cells = h.nucleus_cells(node);
                cells.sort_unstable();
                let (u, v) = g.endpoints(cells[0]);
                let got = tcp_query(&g, &truss, &idx, u, v, k).expect("community exists");
                prop_assert_eq!(&got, &cells, "k={} node={}", k, node);
            }
        }
    }

    #[test]
    fn hierarchy_partitions_cells(g in graph_strategy(20, 70)) {
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        // every cell appears in exactly one delta, at its own λ
        let mut seen = vec![0u32; g.n()];
        for node in h.nodes() {
            for &c in &node.cells {
                seen[c as usize] += 1;
                prop_assert_eq!(p.lambda_of(c), node.lambda);
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn weighted_cores_with_unit_weights_match_plain(g in graph_strategy(20, 60)) {
        let weights = vec![1u64; g.m()];
        let wl = nucleus_core::weighted::weighted_core_numbers(&g, &weights);
        let plain = peel(&VertexSpace::new(&g)).lambda;
        let expect: Vec<u64> = plain.iter().map(|&l| l as u64).collect();
        prop_assert_eq!(wl, expect);
    }

    #[test]
    fn weighted_hierarchy_is_valid_for_random_weights(
        g in graph_strategy(14, 40),
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..5u64)).collect();
        let wd = nucleus_core::weighted::weighted_core_decomposition(&g, &weights);
        prop_assert!(wd.hierarchy.validate().is_ok());
        // deepest nuclei have the largest threshold
        if let Some(&last) = wd.levels.last() {
            let top = wd.hierarchy.nuclei_at(wd.hierarchy.max_lambda());
            for id in top {
                prop_assert_eq!(wd.threshold(id), last);
            }
        }
    }

    #[test]
    fn nuclei_are_nested(g in graph_strategy(20, 70)) {
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        // For every k, the union of k-nuclei is exactly {cells: λ ≥ k},
        // and each (k+1)-nucleus is contained in exactly one k-nucleus.
        for k in 1..=h.max_lambda() {
            let mut union: Vec<u32> = vec![];
            for id in h.nuclei_at(k) {
                union.extend(h.nucleus_cells(id));
            }
            union.sort_unstable();
            let expect: Vec<u32> = (0..g.n() as u32).filter(|&c| p.lambda_of(c) >= k).collect();
            prop_assert_eq!(union, expect, "level {}", k);
        }
    }
}
