//! Input generation: every workload's files come from its seed alone,
//! so the same seed always gives the same inputs.

use std::fs::File;
use std::path::Path;

use nucleus_core::{Backend, Kind, Nucleus};
use nucleus_gen::holme_kim::holme_kim;
use nucleus_gen::rmat::{rmat, RmatParams};
use nucleus_graph::io::{read_edge_list_file, write_edge_list};
use nucleus_graph::CsrGraph;

use crate::{Args, Workload};

/// Holme–Kim size of `build-truss`: wide, shallow (2,3) hierarchy.
pub const BUILD_TRUSS_N: u32 = 40_000;
/// R-MAT scale of `build-nucleus34`: K4-heavy, deep (3,4) hierarchy.
pub const BUILD_NUCLEUS34_SCALE: u32 = 11;
/// Holme–Kim size of both serve workloads.
pub const SERVE_N: u32 = 20_000;

pub fn graph_path(dir: &Path) -> std::path::PathBuf {
    dir.join("graph.txt")
}

/// Reads the workload's edge list on a fresh thread. Per-thread state
/// made whole processes parse either all fast or all slow (about 55 or
/// 90 ms on build-truss); a fresh thread per read resamples it, so the
/// median over set-up rounds is steady.
pub fn read_graph_file(path: &Path) -> Result<CsrGraph, String> {
    std::thread::scope(|s| {
        s.spawn(|| read_edge_list_file(path))
            .join()
            .map_err(|_| "graph reader panicked".to_string())?
            .map_err(|e| format!("read {path:?}: {e}"))
    })
}

pub fn index_path(dir: &Path) -> std::path::PathBuf {
    dir.join("graph.truss.nidx")
}

fn model(workload: Workload, seed: u64) -> CsrGraph {
    match workload {
        Workload::BuildTruss => holme_kim(BUILD_TRUSS_N, 6, 0.6, seed),
        Workload::BuildNucleus34 => rmat(BUILD_NUCLEUS34_SCALE, 8, RmatParams::skewed(), seed),
        Workload::ServeRead | Workload::ServeMutable => holme_kim(SERVE_N, 5, 0.5, seed),
    }
}

pub fn generate(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("create {:?}: {e}", args.dir))?;
    let g = model(args.workload, args.seed);
    let path = graph_path(&args.dir);
    let file = File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
    write_edge_list(&g, file).map_err(|e| format!("write {path:?}: {e}"))?;
    if args.workload == Workload::ServeRead {
        // The index must fingerprint the graph exactly as the reader
        // relabels it, so it is built from the file, not from `g`.
        let g = read_edge_list_file(&path).map_err(|e| format!("read {path:?}: {e}"))?;
        Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Materialized)
            .prepare()
            .and_then(|p| p.save(index_path(&args.dir)))
            .map_err(|e| format!("persist index: {e}"))?;
    }
    Ok(())
}
