//! Persisted-index round trips: what `nucleus prepare --out` costs once
//! and what `nucleus decompose --index` and `nucleus serve --index` save
//! on every later run.
//!
//! For each graph and each of the (2,3)/(3,4) families, six costs:
//!
//! * `prepare/…` — the full materialized session build (clique
//!   enumeration + ω counts + container index) that `save` snapshots;
//! * `save/…` — one FND run over the prepared index, for the hierarchy
//!   the image stores, then serializing both to disk;
//! * `load/…` — reading + validating the image (checksums, records, the
//!   stored hierarchy rebuilt and checked against ω);
//! * `fresh/…` — a cold `decompose` call, rebuilding everything;
//! * `indexed/…` — the persisted path of `decompose --index` end to end:
//!   load the file, `prepare_from_index`, run FND (which also compares
//!   its tree with the stored one). The acceptance bar is ≥5× under
//!   `fresh/…` on the largest input;
//! * `serve-ready/…` — the persisted path of `serve --index`: load the
//!   file and `prepare_from_index`, after which the stored hierarchy
//!   answers with no peel.
//!
//! Both paths produce bit-identical hierarchies (pinned by the persist
//! round-trip proptests). JSON results land in
//! `results/BENCH_persist_*.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nucleus_core::decompose::{decompose, Algorithm, Backend, Kind};
use nucleus_core::persist::PreparedIndex;
use nucleus_core::session::Nucleus;
use nucleus_graph::CsrGraph;

/// Deterministic inputs, smallest to largest (by edge count); the same
/// set `bench_prepared_reuse` measures.
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

fn index_path(group: &str, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nucleus-bench-persist");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{group}-{name}.nidx", std::process::id()))
}

fn bench_kind(c: &mut Criterion, kind: Kind, group_name: &str) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for (name, g) in &inputs() {
        let path = index_path(group_name, name);
        group.bench_with_input(BenchmarkId::new("prepare", name), g, |b, g| {
            b.iter(|| {
                Nucleus::builder(g)
                    .kind(kind)
                    .backend(Backend::Materialized)
                    .prepare()
                    .unwrap()
                    .cells()
            });
        });
        let prepared = Nucleus::builder(g)
            .kind(kind)
            .backend(Backend::Materialized)
            .prepare()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("save", name), &prepared, |b, p| {
            b.iter(|| p.save(&path).unwrap());
        });
        prepared.save(&path).unwrap();
        group.bench_with_input(BenchmarkId::new("load", name), &path, |b, path| {
            b.iter(|| PreparedIndex::load(path).unwrap().containers());
        });
        group.bench_with_input(BenchmarkId::new("fresh", name), g, |b, g| {
            b.iter(|| {
                decompose(g, kind, Algorithm::Fnd)
                    .unwrap()
                    .hierarchy
                    .nucleus_count()
            });
        });
        group.bench_with_input(BenchmarkId::new("indexed", name), g, |b, g| {
            b.iter(|| {
                let index = PreparedIndex::load(&path).unwrap();
                Nucleus::builder(g)
                    .prepare_from_index(index)
                    .unwrap()
                    .run(Algorithm::Fnd)
                    .unwrap()
                    .hierarchy
                    .nucleus_count()
            });
        });
        group.bench_with_input(BenchmarkId::new("serve-ready", name), g, |b, g| {
            b.iter(|| {
                let index = PreparedIndex::load(&path).unwrap();
                Nucleus::builder(g)
                    .prepare_from_index(index)
                    .unwrap()
                    .stored_hierarchy()
                    .expect("a loaded session stores its hierarchy")
                    .nucleus_count()
            });
        });
        std::fs::remove_file(&path).ok();
    }
    group.finish();
}

fn bench_persist_truss(c: &mut Criterion) {
    bench_kind(c, Kind::Truss, "persist_truss");
}

fn bench_persist_nucleus34(c: &mut Criterion) {
    bench_kind(c, Kind::Nucleus34, "persist_nucleus34");
}

criterion_group!(benches, bench_persist_truss, bench_persist_nucleus34);
criterion_main!(benches);
