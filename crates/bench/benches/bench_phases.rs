//! Phase split across the whole pipeline: the prepare phase (clique
//! enumeration, ω degrees, index and container-record builds), the
//! peel, and the two post-peel passes (DFT traversal, FND hierarchy
//! assembly) — so both the paper's "FND total ≈ DFT peeling" claim
//! (Figure 6) and this repo's prepare work are directly measurable.
//!
//! Per input and space, the rows are:
//!
//! * `read-edge-list` — the graph layer: [`read_edge_list`] over the
//!   input written with [`write_edge_list`] to memory (parse, relabel,
//!   CSR build), the step before any prepare;
//! * `enumerate-serial/-tN` — the enumeration kernel feeding ω degrees:
//!   `edge_supports` for (2,3), `TriangleList::build` for (3,4)
//!   (`-tN` is the bit-identical parallel twin);
//! * `index-build-serial/-tN` — for (2,3) the container records, filled
//!   from the oriented triangle listing ([`edge_companion_records`] over
//!   a pre-built orientation and supports); for (3,4) the edge→thirds
//!   [`TriangleIndex`] over a pre-built triangle list;
//! * `degrees-serial/-tN` ((3,4) only) — the public per-triangle K4
//!   degree entry points: `k4_degrees`, the three-way
//!   full-neighbour-list reference, and `k4_degrees_parallel`, which
//!   builds its own triangle index and orientation before listing K4s;
//! * `degrees-oriented-serial/-tN` ((3,4) only) — the ω pass prepare
//!   runs: [`k4_degrees_oriented`] (each K4 listed once) over the
//!   orientation the triangle enumeration built and a pre-built
//!   triangle index;
//! * `records-serial/-tN` ((3,4) only) — the per-cell container-record
//!   fill, over a space whose index and ω are already built;
//! * `peel-only`, `dft-post-only`, `fnd-total` — the historical
//!   Figure 6 rows, unchanged in meaning;
//! * `hierarchy-assembly-serial/-tN` — `BuildHierarchy` (Alg. 9) alone,
//!   over a pre-classified FND run (`fnd_classify`). Each iteration
//!   clones the skeleton inside the timer (the shim has no
//!   `iter_batched`); the clone cost is identical in both rows, so the
//!   serial/parallel *difference* is the assembly pass itself. The `-tN`
//!   row forces the worker path (`min_parallel_work = 0`);
//! * `prepare-total-t1/-tN` — the whole session prepare
//!   (`Nucleus::builder(..).threads(t).prepare()`), the end-to-end
//!   number users see.
//!
//! At one thread count the prepare sub-steps add up to
//! `prepare-total`: `enumerate + index-build` for (2,3), and
//! `enumerate + index-build + degrees-oriented + records` for (3,4).
//!
//! `-tN` uses every available CPU and at least 2, so on a single-core
//! host it records spawn overhead as pure loss — same convention as
//! `bench_peel_engine`. JSON results land in
//! `results/BENCH_phases_*.json`.
//!
//! `NUCLEUS_BENCH_SMOKE=1` shrinks the inputs and sampling so CI can
//! assert the bench target runs end to end and emits its JSON.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nucleus_bench::smoke;
use nucleus_cliques::parallel::edge_supports_parallel;
use nucleus_cliques::triangles::edge_supports;
use nucleus_cliques::{
    edge_companion_records, k4_degrees_oriented, k4_degrees_parallel, OrientedAdjacency,
    TriangleIndex, TriangleList,
};
use nucleus_core::algo::dft::dft;
use nucleus_core::algo::fnd::{build_hierarchy, fnd, fnd_classify};
use nucleus_core::prelude::*;
use nucleus_graph::flat::offsets_from_counts;
use nucleus_graph::io::{read_edge_list, write_edge_list};
use nucleus_graph::CsrGraph;

/// Same generated models as `bench_peel_engine`, so prepare rows stay
/// comparable with the peel rows measured there.
fn inputs() -> Vec<(&'static str, CsrGraph)> {
    if smoke() {
        return vec![("ba-n2000", nucleus_gen::ba::barabasi_albert(2_000, 4, 7))];
    }
    vec![
        (
            "rmat-s11",
            nucleus_gen::rmat::rmat(11, 8, nucleus_gen::rmat::RmatParams::skewed(), 7),
        ),
        ("ba-n20000", nucleus_gen::ba::barabasi_albert(20_000, 6, 7)),
        (
            "ba-n200000-m3",
            nucleus_gen::ba::barabasi_albert(200_000, 3, 7),
        ),
    ]
}

fn all_threads() -> usize {
    // On a single-core host still bench 2 workers so the committed
    // JSONs record the spawn path's overhead honestly.
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .max(2)
}

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group.sample_size(10);
    if smoke() {
        group.measurement_time(std::time::Duration::from_millis(200));
        group.warm_up_time(std::time::Duration::from_millis(20));
    } else {
        group.measurement_time(std::time::Duration::from_secs(2));
        group.warm_up_time(std::time::Duration::from_millis(200));
    }
}

/// The assembly-only rows, shared between the two spaces: classify once
/// outside the timer, then re-run `BuildHierarchy` per iteration on a
/// fresh clone of the skeleton.
fn bench_assembly<S: nucleus_core::space::PeelSpace + Sync>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    mat: &IndexedSpace<'_, S>,
) {
    let tn = all_threads();
    let classified = fnd_classify(mat, FndOptions::default(), FrontierOptions::default());
    let max_lambda = classified.peeling.max_lambda;
    group.bench_with_input(
        BenchmarkId::new("hierarchy-assembly-serial", name),
        &classified,
        |b, cl| {
            b.iter(|| {
                let mut sk = cl.skeleton.clone();
                build_hierarchy(&mut sk, &cl.adj, max_lambda, 1, usize::MAX);
                sk.len()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("hierarchy-assembly-t{tn}"), name),
        &classified,
        |b, cl| {
            b.iter(|| {
                let mut sk = cl.skeleton.clone();
                build_hierarchy(&mut sk, &cl.adj, max_lambda, tn, 0);
                sk.len()
            });
        },
    );
}

/// The graph-read row: `g` as edge-list text in memory, read back.
fn bench_read(group: &mut criterion::BenchmarkGroup<'_>, name: &str, g: &CsrGraph) {
    let mut text = Vec::new();
    write_edge_list(g, &mut text).expect("write to memory");
    group.bench_with_input(
        BenchmarkId::new("read-edge-list", name),
        &text,
        |b, text| {
            b.iter(|| read_edge_list(text.as_slice()).expect("read back").m());
        },
    );
}

/// The session-prepare rows: everything between the input graph and a
/// runnable `Prepared` (space build, enumeration, ω degrees, backend
/// resolution, index materialization).
fn bench_prepare_total(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    g: &CsrGraph,
    kind: Kind,
) {
    let tn = all_threads();
    for threads in [1usize, tn] {
        let label = format!("prepare-total-t{threads}");
        group.bench_with_input(BenchmarkId::new(label, name), g, |b, g| {
            b.iter(|| {
                Nucleus::builder(g)
                    .kind(kind)
                    .threads(threads)
                    .prepare()
                    .expect("prepare")
                    .cells()
            });
        });
    }
}

fn bench_phases_truss(c: &mut Criterion) {
    let mut group = c.benchmark_group("phases_truss");
    configure(&mut group);
    let tn = all_threads();
    for (name, g) in &inputs() {
        bench_read(&mut group, name, g);
        // Prepare phase, split into its two passes over one
        // orientation: the support count (ω degrees) and the container
        // records filled from the same triangle listing.
        group.bench_with_input(BenchmarkId::new("enumerate-serial", name), g, |b, g| {
            b.iter(|| edge_supports(g).len());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("enumerate-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| edge_supports_parallel(g, tn).len());
            },
        );
        let oriented = OrientedAdjacency::build(g);
        let offsets = offsets_from_counts(&edge_supports(g));
        group.bench_with_input(BenchmarkId::new("index-build-serial", name), g, |b, g| {
            b.iter(|| edge_companion_records(g, &oriented, &offsets, 1).len());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("index-build-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| edge_companion_records(g, &oriented, &offsets, tn).len());
            },
        );
        // Figure 6 rows: peel alone, DFT post alone, FND end-to-end.
        group.bench_with_input(BenchmarkId::new("peel-only", name), g, |b, g| {
            b.iter(|| {
                let es = EdgeSpace::new(g);
                peel(&es).max_lambda
            });
        });
        let es = EdgeSpace::new(g);
        let p = peel(&es);
        group.bench_with_input(BenchmarkId::new("dft-post-only", name), g, |b, _| {
            b.iter(|| dft(&es, &p).0.nucleus_count());
        });
        group.bench_with_input(BenchmarkId::new("fnd-total", name), g, |b, g| {
            b.iter(|| {
                let es = EdgeSpace::new(g);
                fnd(&es).hierarchy.nucleus_count()
            });
        });
        let containers = ContainerIndex::build(&es, all_threads());
        bench_assembly(&mut group, name, &IndexedSpace::new(&es, &containers));
        bench_prepare_total(&mut group, name, g, Kind::Truss);
    }
    group.finish();
}

fn bench_phases_nucleus34(c: &mut Criterion) {
    let mut group = c.benchmark_group("phases_nucleus34");
    configure(&mut group);
    let tn = all_threads();
    for (name, g) in &inputs() {
        bench_read(&mut group, name, g);
        // Prepare phase, split into its four passes: triangle
        // enumeration, edge→thirds index, per-triangle K4 degrees and
        // the container records.
        group.bench_with_input(BenchmarkId::new("enumerate-serial", name), g, |b, g| {
            b.iter(|| TriangleList::build(g).len());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("enumerate-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| TriangleList::build_with_threads(g, tn).len());
            },
        );
        let tris = TriangleList::build(g);
        group.bench_with_input(BenchmarkId::new("index-build-serial", name), g, |b, g| {
            b.iter(|| TriangleIndex::build(g, &tris).incidence_count());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("index-build-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| TriangleIndex::build_with_threads(g, &tris, tn).incidence_count());
            },
        );
        group.bench_with_input(BenchmarkId::new("degrees-serial", name), g, |b, g| {
            b.iter(|| nucleus_cliques::four_cliques::k4_degrees(g, &tris).len());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("degrees-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| k4_degrees_parallel(g, &tris, tn).len());
            },
        );
        let oriented = OrientedAdjacency::build(g);
        let index = TriangleIndex::build(g, &tris);
        group.bench_with_input(
            BenchmarkId::new("degrees-oriented-serial", name),
            g,
            |b, _| {
                b.iter(|| k4_degrees_oriented(&oriented, &tris, &index, 1).len());
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("degrees-oriented-t{tn}"), name),
            g,
            |b, _| {
                b.iter(|| k4_degrees_oriented(&oriented, &tris, &index, tn).len());
            },
        );
        for threads in [1, tn] {
            let label = if threads == 1 {
                "records-serial".to_string()
            } else {
                format!("records-t{threads}")
            };
            // ω, and with it the index the fill reads, is built once
            // outside the timer.
            let ts = TriangleSpace::with_threads(g, threads);
            let counts = ts.degrees();
            group.bench_with_input(BenchmarkId::new(label, name), g, |b, _| {
                b.iter(|| {
                    ContainerIndex::build_with_counts(&ts, counts.clone(), threads)
                        .container_count()
                });
            });
        }
        // Figure 6 rows.
        group.bench_with_input(BenchmarkId::new("peel-only", name), g, |b, g| {
            b.iter(|| {
                let ts = TriangleSpace::new(g);
                peel(&ts).max_lambda
            });
        });
        let ts = TriangleSpace::new(g);
        let p = peel(&ts);
        group.bench_with_input(BenchmarkId::new("dft-post-only", name), g, |b, _| {
            b.iter(|| dft(&ts, &p).0.nucleus_count());
        });
        group.bench_with_input(BenchmarkId::new("fnd-total", name), g, |b, g| {
            b.iter(|| {
                let ts = TriangleSpace::new(g);
                fnd(&ts).hierarchy.nucleus_count()
            });
        });
        let containers = ContainerIndex::build(&ts, all_threads());
        bench_assembly(&mut group, name, &IndexedSpace::new(&ts, &containers));
        bench_prepare_total(&mut group, name, g, Kind::Nucleus34);
    }
    group.finish();
}

criterion_group!(benches, bench_phases_truss, bench_phases_nucleus34);
criterion_main!(benches);
