//! Serial vs frontier peeling engine, crossed with the lazy and
//! materialized backends, on generated inputs.
//!
//! For each graph (Erdős–Rényi, Barabási–Albert, R-MAT) and each of the
//! (2,3) and (3,4) spaces, five rows are measured:
//!
//! * `serial-lazy/…` — bucket-queue `Set-λ` over on-the-fly container
//!   enumeration (the paper's sequential baseline);
//! * `serial-materialized/…` — the same loop over an [`IndexedSpace`]
//!   on a pre-built index: the engine every session runs by default;
//! * `frontier-lazy/…` — frontier rounds over on-the-fly enumeration
//!   (quantifies how much the engine needs the flat index);
//! * `frontier-materialized-t1/…` — frontier rounds over the index on
//!   one thread: the engine's algorithmic constants, isolated from
//!   parallelism (plain load/store decrements, no bucket maintenance);
//! * `frontier-materialized-tN/…` — the same with N = all available
//!   CPUs, at least 2 (on a single-core host spawn overhead is pure
//!   loss; the committed JSONs come from a 2-CPU host).
//!
//! The `frontier-*` rows above run with the hybrid drain *disabled*
//! (`serial_round_threshold: 0`) so their meaning stays fixed across
//! PRs. On top of them:
//!
//! * `frontier-hybrid-t1`/`-tN/…` — frontier rounds with the default
//!   hybrid policy (mid-level frontiers below 64 cells drain their
//!   λ-level serially; a level opening with under 1/8 of the remaining
//!   cells hands the whole residual to the serial bucket queue), the
//!   configuration `PeelEngine::Frontier` actually ships with;
//! * `fnd-serial/…` — serial FND (Alg. 8) over the index: peel *plus*
//!   hierarchy construction, the end-to-end baseline;
//! * `fnd-frontier-t1`/`-tN/…` — parallel FND riding the hybrid
//!   frontier engine; comparing against `fnd-serial` prices the whole
//!   parallel hierarchy construction, not just the peel.
//!
//! Space construction and (for the materialized rows) the index build
//! happen outside the timed region, so rows isolate peeling-loop cost
//! only. JSON results land in `results/BENCH_peel_engine_*.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nucleus_core::algo::fnd::{fnd, fnd_parallel};
use nucleus_core::peel::{peel, peel_parallel_with, FrontierOptions};
use nucleus_core::space::{ContainerIndex, EdgeSpace, IndexedSpace, PeelSpace, TriangleSpace};
use nucleus_graph::CsrGraph;

/// Deterministic inputs, smallest to largest (by edge count); same
/// models as `bench_backend` so rows stay comparable across PRs.
fn inputs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "rmat-s11",
            nucleus_gen::rmat::rmat(11, 8, nucleus_gen::rmat::RmatParams::skewed(), 7),
        ),
        ("er-n3000", nucleus_gen::er::gnp(3000, 0.01, 7)),
        ("ba-n20000", nucleus_gen::ba::barabasi_albert(20_000, 6, 7)),
        // sparse, wide-frontier regime: most cells peel in a handful of
        // huge λ levels — the frontier engine's best case
        (
            "ba-n200000-m3",
            nucleus_gen::ba::barabasi_albert(200_000, 3, 7),
        ),
    ]
}

fn bench_space<S: PeelSpace + Sync>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    space: &S,
) {
    // On a single-core host still bench 2 workers so the committed
    // JSONs record the spawn path's overhead honestly.
    let all_threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .max(2);
    // Pure frontier rounds: the historical rows, hybrid drain off.
    let pure = |threads: usize| FrontierOptions {
        threads,
        serial_round_threshold: 0,
        ..FrontierOptions::default()
    };
    // What `PeelEngine::Frontier` ships: default hybrid threshold.
    let hybrid = |threads: usize| FrontierOptions {
        threads,
        ..FrontierOptions::default()
    };
    group.bench_with_input(BenchmarkId::new("serial-lazy", name), space, |b, s| {
        b.iter(|| peel(s).max_lambda);
    });
    group.bench_with_input(BenchmarkId::new("frontier-lazy", name), space, |b, s| {
        b.iter(|| peel_parallel_with(s, pure(1)).max_lambda);
    });
    let index = ContainerIndex::build(space, all_threads);
    let mat = IndexedSpace::new(space, &index);
    group.bench_with_input(
        BenchmarkId::new("serial-materialized", name),
        &mat,
        |b, m| {
            b.iter(|| peel(m).max_lambda);
        },
    );
    group.bench_with_input(
        BenchmarkId::new("frontier-materialized-t1", name),
        &mat,
        |b, m| {
            b.iter(|| peel_parallel_with(m, pure(1)).max_lambda);
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("frontier-materialized-t{all_threads}"), name),
        &mat,
        |b, m| {
            b.iter(|| peel_parallel_with(m, pure(all_threads)).max_lambda);
        },
    );
    group.bench_with_input(
        BenchmarkId::new("frontier-hybrid-t1", name),
        &mat,
        |b, m| {
            b.iter(|| peel_parallel_with(m, hybrid(1)).max_lambda);
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("frontier-hybrid-t{all_threads}"), name),
        &mat,
        |b, m| {
            b.iter(|| peel_parallel_with(m, hybrid(all_threads)).max_lambda);
        },
    );
    group.bench_with_input(BenchmarkId::new("fnd-serial", name), &mat, |b, m| {
        b.iter(|| fnd(m).peeling.max_lambda);
    });
    group.bench_with_input(BenchmarkId::new("fnd-frontier-t1", name), &mat, |b, m| {
        b.iter(|| fnd_parallel(m, 1).peeling.max_lambda);
    });
    group.bench_with_input(
        BenchmarkId::new(format!("fnd-frontier-t{all_threads}"), name),
        &mat,
        |b, m| {
            b.iter(|| fnd_parallel(m, all_threads).peeling.max_lambda);
        },
    );
}

fn bench_peel_engine_truss(c: &mut Criterion) {
    let mut group = c.benchmark_group("peel_engine_truss");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for (name, g) in &inputs() {
        let space = EdgeSpace::new(g);
        bench_space(&mut group, name, &space);
    }
    group.finish();
}

fn bench_peel_engine_nucleus34(c: &mut Criterion) {
    let mut group = c.benchmark_group("peel_engine_nucleus34");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for (name, g) in &inputs() {
        let space = TriangleSpace::new(g);
        bench_space(&mut group, name, &space);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_peel_engine_truss,
    bench_peel_engine_nucleus34
);
criterion_main!(benches);
