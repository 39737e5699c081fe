//! Lazy vs materialized peeling backend on generated inputs.
//!
//! For each graph (Erdős–Rényi, Barabási–Albert, R-MAT) and each of the
//! (2,3) and (3,4) spaces, three costs are measured:
//!
//! * `lazy/…` — `Set-λ` peeling through on-the-fly container
//!   enumeration (sorted-list intersections per visit);
//! * `materialized/…` — the same peeling through an [`IndexedSpace`]
//!   over a pre-built index (flat index scans only);
//! * `build-index/…` — the one-time parallel [`ContainerIndex`]
//!   construction the materialized rows amortize.
//!
//! Space construction (triangle/K4 enumeration for the ω values) is
//! done once outside the timed region for *both* backends, so the rows
//! isolate exactly the repeated-enumeration cost the flat index
//! removes. JSON results land in `results/BENCH_backend_*.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nucleus_core::peel::peel;
use nucleus_core::space::{ContainerIndex, EdgeSpace, IndexedSpace, PeelSpace, TriangleSpace};
use nucleus_graph::CsrGraph;

/// Deterministic inputs, smallest to largest (by edge count).
fn inputs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "rmat-s11",
            nucleus_gen::rmat::rmat(11, 8, nucleus_gen::rmat::RmatParams::skewed(), 7),
        ),
        ("er-n3000", nucleus_gen::er::gnp(3000, 0.01, 7)),
        ("ba-n20000", nucleus_gen::ba::barabasi_albert(20_000, 6, 7)),
    ]
}

fn bench_space<S: PeelSpace + Sync>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    space: &S,
) {
    group.bench_with_input(BenchmarkId::new("lazy", name), space, |b, s| {
        b.iter(|| peel(s).max_lambda);
    });
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let index = ContainerIndex::build(space, threads);
    let mat = IndexedSpace::new(space, &index);
    group.bench_with_input(BenchmarkId::new("materialized", name), &mat, |b, m| {
        b.iter(|| peel(m).max_lambda);
    });
    group.bench_with_input(BenchmarkId::new("build-index", name), space, |b, s| {
        b.iter(|| ContainerIndex::build(s, threads).container_count());
    });
}

fn bench_backend_truss(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_truss");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for (name, g) in &inputs() {
        let space = EdgeSpace::new(g);
        bench_space(&mut group, name, &space);
    }
    group.finish();
}

fn bench_backend_nucleus34(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_nucleus34");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for (name, g) in &inputs() {
        let space = TriangleSpace::new(g);
        bench_space(&mut group, name, &space);
    }
    group.finish();
}

criterion_group!(benches, bench_backend_truss, bench_backend_nucleus34);
criterion_main!(benches);
