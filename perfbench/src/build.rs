//! `build-truss` and `build-nucleus34`: repeated end-to-end FND builds,
//! graph → `Prepared` → `Hierarchy`, each checked against a serial
//! one-thread reference computed before the timed window.

use std::path::Path;
use std::time::{Duration, Instant};

use nucleus_cliques::parallel::edge_supports_parallel;
use nucleus_cliques::{k4_degrees_parallel, TriangleIndex, TriangleList};
use nucleus_core::algo::fnd::{build_hierarchy, fnd_classify, FndOptions};
use nucleus_core::space::{ContainerIndex, EdgeSpace, IndexedSpace, PeelSpace, TriangleSpace};
use nucleus_core::{Algorithm, Decomposition, FrontierOptions, Kind, Nucleus, Prepared};
use nucleus_graph::CsrGraph;

use crate::gen::read_graph_file;
use crate::trace::Trace;
use crate::util::{hierarchy_fingerprint, median, peak_rss_mib, reset_peak_rss, secs, tail};
use crate::{Args, Outcome, Workload};

/// Set-up repeats before the timed window; `setup_s` is the median.
pub const SETUP_ROUNDS: usize = 5;

/// Repeats of each per-layer probe in a traced run.
const PROBE_ROUNDS: usize = 3;
/// Set-up is read again once per this interval of the timed window:
/// a read of a few milliseconds swings by ±30% from one second to the
/// next on a shared host, so samples spread over the whole run give a
/// steadier median than back-to-back ones.
const SETUP_RESAMPLE: Duration = Duration::from_secs(1);

/// One timed read of the workload's graph, as a `graph.read` span.
fn timed_read(path: &Path, tr: &mut Trace) -> Result<(CsrGraph, f64), String> {
    let t0 = Instant::now();
    let g = tr.span("graph.read", None, || read_graph_file(path))?;
    Ok((g, secs(t0.elapsed())))
}

/// Named exact-repeat counts of one decomposition.
pub type Counts = [(&'static str, f64); 10];

/// The exact-repeat counts of one FND decomposition `d` of `g`, run
/// over the prepared session `p`.
pub fn counts(g: &CsrGraph, p: &Prepared, d: &Decomposition) -> Counts {
    let (h, st) = (&d.hierarchy, &d.stats);
    [
        ("graph.vertices", g.n() as f64),
        ("graph.edges", g.m() as f64),
        ("core.cells", p.cells() as f64),
        ("core.containers", p.containers() as f64),
        ("core.index_bytes", p.estimated_index_bytes() as f64),
        ("core.subnuclei", st.subnuclei as f64),
        ("core.adj_connections", st.adj_connections as f64),
        ("core.hierarchy_nodes", h.len() as f64),
        (
            "core.nodes_per_subnucleus",
            h.len() as f64 / st.subnuclei.max(1) as f64,
        ),
        ("core.max_lambda", h.max_lambda() as f64),
    ]
}

fn build_once(g: &CsrGraph, kind: Kind) -> Result<Decomposition, String> {
    Nucleus::builder(g)
        .kind(kind)
        .prepare()
        .and_then(|p| p.run(Algorithm::Fnd))
        .map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let kind = match args.workload {
        Workload::BuildTruss => Kind::Truss,
        _ => Kind::Nucleus34,
    };
    let mut tr = Trace::new(args.trace);
    let mut out = Outcome::default();
    let path = crate::gen::graph_path(&args.dir);
    let mut setup = Vec::new();
    let mut graph = None;
    for _ in 0..SETUP_ROUNDS {
        let (g, t) = timed_read(&path, &mut tr)?;
        setup.push(t);
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up round");

    // Oracle: a serial, one-thread FND run, untimed.
    let reference = Nucleus::builder(&g)
        .kind(kind)
        .threads(1)
        .prepare()
        .and_then(|p| p.run(Algorithm::Fnd))
        .map_err(|e| format!("reference build: {e}"))?;
    let want = hierarchy_fingerprint(&reference.hierarchy);
    drop(reference);

    // One untimed warm-up build, which also reports the resolved plan.
    let prepared = Nucleus::builder(&g)
        .kind(kind)
        .prepare()
        .map_err(|e| e.to_string())?;
    let plan = prepared.plan(Algorithm::Fnd).map_err(|e| e.to_string())?;
    let threads = prepared.threads();
    let warm = prepared.run(Algorithm::Fnd).map_err(|e| e.to_string())?;
    let counts = counts(&g, &prepared, &warm);
    drop((prepared, warm));

    // Timed window. A traced run alternates untraced and traced builds,
    // so the two medians give the tracing overhead.
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut resample = Instant::now() + SETUP_RESAMPLE;
    while Instant::now() < deadline || plain.is_empty() {
        if Instant::now() >= resample {
            setup.push(timed_read(&path, &mut tr)?.1);
            resample += SETUP_RESAMPLE;
        }
        let with_spans = tr.enabled() && plain.len() > traced.len();
        reset_peak_rss();
        let t0 = Instant::now();
        let d = if with_spans {
            let b = tr.begin("build", None);
            let p = tr.begin("core.prepare", Some(b));
            let prepared = Nucleus::builder(&g).kind(kind).prepare();
            tr.end(p);
            let r = tr.begin("core.run_fnd", Some(b));
            let d = prepared.and_then(|p| p.run(Algorithm::Fnd));
            tr.end(r);
            tr.end(b);
            d.map_err(|e| e.to_string())
        } else {
            build_once(&g, kind)
        };
        let dt = secs(t0.elapsed());
        peaks.push(peak_rss_mib());
        if with_spans {
            traced.push(dt);
        } else {
            plain.push(dt);
        }
        out.attempted += 1;
        match d {
            Ok(d) if hierarchy_fingerprint(&d.hierarchy) == want => {}
            _ => out.failed += 1,
        }
    }
    let rss = median(&peaks);

    let ms: Vec<f64> = plain.iter().map(|s| s * 1e3).collect();
    let (pct, tail_ms) = tail(&ms);
    out.set("setup_s", median(&setup));
    out.set("latency_ms_p50", median(&ms));
    out.set("latency_ms_tail", tail_ms);
    out.set(
        "throughput_per_s",
        plain.len() as f64 / plain.iter().sum::<f64>(),
    );
    out.set("peak_rss_mib", rss);
    out.note(format!(
        "plan: {} backend, {} engine, {threads} threads",
        plan.backend, plan.engine
    ));
    out.note(format!(
        "setup_s = {:.4} s (median of {} reads spread over the run)",
        median(&setup),
        setup.len()
    ));
    out.note(format!(
        "build_s_p50 = {:.4} s over {} builds",
        median(&plain),
        plain.len()
    ));
    out.note(format!(
        "build_s_tail = p{pct} = {:.4} s over {} builds",
        tail_ms / 1e3,
        plain.len()
    ));
    out.note(format!(
        "peak_rss_mib = {rss:.1} MiB (median over builds of the peak during each)"
    ));

    if tr.enabled() {
        for (name, v) in counts {
            out.set(name, v);
        }
        probe_layers(&g, kind, threads, want, &mut tr, &mut out);
        out.set("graph.read_s", tr.median("graph.read"));
        out.set("core.prepare_s", tr.median("core.prepare"));
        out.set("core.run_fnd_s", tr.median("core.run_fnd"));
        let cliques = tr.median("cliques.enumerate")
            + tr.median("cliques.triangle_index")
            + tr.median("cliques.k4_degrees");
        out.set("core.prepare_self_s", tr.median("core.prepare") - cliques);
        out.set("trace.uncovered_ratio", tr.uncovered_ratio("build"));
        out.set("trace.overhead_ratio", median(&traced) / median(&plain));
    }
    Ok(out)
}

/// Times the layers under one build by calling each crate's public
/// entry points directly: the clique kernels prepare runs, then the
/// materialized FND pipeline split into classify, hierarchy assembly
/// and the lookup index. The probe's hierarchy must match the oracle.
fn probe_layers(
    g: &CsrGraph,
    kind: Kind,
    threads: usize,
    want: u64,
    tr: &mut Trace,
    out: &mut Outcome,
) {
    for _ in 0..PROBE_ROUNDS {
        out.attempted += 1;
        let ok = match kind {
            Kind::Truss => {
                let sup = tr.span("cliques.enumerate", None, || {
                    edge_supports_parallel(g, threads)
                });
                out.set(
                    "cliques.triangles",
                    sup.iter().map(|&s| s as f64).sum::<f64>() / 3.0,
                );
                let space = EdgeSpace::with_threads(g, threads);
                probe_core(&space, threads, tr) == want
            }
            _ => {
                let tris = tr.span("cliques.enumerate", None, || {
                    TriangleList::build_with_threads(g, threads)
                });
                tr.span("cliques.triangle_index", None, || {
                    TriangleIndex::build_with_threads(g, &tris, threads)
                });
                let k4 = tr.span("cliques.k4_degrees", None, || {
                    k4_degrees_parallel(g, &tris, threads)
                });
                out.set("cliques.triangles", tris.len() as f64);
                out.set(
                    "cliques.k4",
                    k4.iter().map(|&d| d as f64).sum::<f64>() / 4.0,
                );
                let space = TriangleSpace::with_threads(g, threads);
                probe_core(&space, threads, tr) == want
            }
        };
        if !ok {
            out.failed += 1;
        }
    }
    for (metric, span) in [
        ("cliques.enumerate_s", "cliques.enumerate"),
        ("cliques.triangle_index_s", "cliques.triangle_index"),
        ("cliques.k4_degrees_s", "cliques.k4_degrees"),
        ("core.fnd_classify_s", "core.fnd_classify"),
        ("core.build_hierarchy_s", "core.build_hierarchy"),
        ("core.hierarchy_index_s", "core.hierarchy_index"),
    ] {
        out.set(metric, tr.median(span));
    }
}

/// The materialized frontier FND pipeline from public parts; returns the
/// fingerprint of the hierarchy it assembles.
fn probe_core<S: PeelSpace + Sync>(space: &S, threads: usize, tr: &mut Trace) -> u64 {
    let counts = space.degrees();
    let index = ContainerIndex::build_with_counts(space, counts, threads);
    let indexed = IndexedSpace::new(space, &index);
    let frontier = FrontierOptions {
        threads,
        ..FrontierOptions::default()
    };
    let cl = tr.span("core.fnd_classify", None, || {
        fnd_classify(&indexed, FndOptions::default(), frontier)
    });
    let mut sk = cl.skeleton;
    let max_lambda = cl.peeling.max_lambda;
    tr.span("core.build_hierarchy", None, || {
        build_hierarchy(
            &mut sk,
            &cl.adj,
            max_lambda,
            threads,
            frontier.min_parallel_work,
        )
    });
    let h = sk
        .into_raw()
        .into_hierarchy(space.r(), space.s(), cl.peeling.lambda, max_lambda);
    tr.span("core.hierarchy_index", None, || {
        h.nucleus_cells_slice(0).len()
    });
    hierarchy_fingerprint(&h)
}
