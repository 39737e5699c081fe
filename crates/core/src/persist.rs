//! Saving and loading prepared sessions: the on-disk index behind
//! `nucleus prepare --out` / `nucleus decompose --index`.
//!
//! `results/BENCH_prepared_reuse_*.json` show that preparation (clique
//! enumeration plus the [`ContainerIndex`] build) dominates end-to-end
//! decomposition time, yet a process restart used to throw that work
//! away. This module persists a materialized [`Prepared`] session's
//! index in the format of [`nucleus_graph::persist_io`] (see its module
//! docs for the exact byte layout and the version-bump policy) and
//! loads it back as a [`PreparedIndex`]: a fully *validated* image,
//! decoded into the same [`FlatRecords`](nucleus_graph::FlatRecords)
//! that a fresh prepare builds, which
//! [`NucleusBuilder::prepare_from_index`](crate::session::NucleusBuilder::prepare_from_index)
//! then peels through like any built index.
//!
//! # Trust and invalidation
//!
//! Loading never trusts the bytes: [`PreparedIndex::load`] verifies the
//! magic, format version, whole-file and per-section checksums, section
//! bounds, record-structure invariants, that every record names a cell
//! the index covers, and that the stored (r, s) pair names a supported
//! [`Kind`] whose record arity matches. Binding the
//! index to a graph additionally checks the stored *fingerprint*
//! (vertex count, edge count, hash of the canonical edge list) against
//! the live graph. Each failure mode maps to a typed error:
//!
//! * [`CoreError::IndexCorrupt`] — the bytes are structurally bad;
//! * [`CoreError::IndexMismatch`] — valid bytes, wrong graph or kind;
//! * [`CoreError::IndexIo`] — the file could not be read or written.
//!
//! The fingerprint catches any change to the edge set, degree-preserving
//! rewires included (up to a 64-bit hash collision). It hashes vertex
//! ids, so the same graph relabeled is a different graph to it.
//!
//! ```no_run
//! use nucleus_core::prelude::*;
//!
//! # fn demo(g: &nucleus_graph::CsrGraph) -> Result<(), nucleus_core::CoreError> {
//! // Pay for preparation once …
//! let prepared = Nucleus::builder(g)
//!     .kind(Kind::Truss)
//!     .backend(Backend::Materialized)
//!     .prepare()?;
//! prepared.save("graph.truss.nidx")?;
//!
//! // … and skip it on every later run (usually another process).
//! let index = PreparedIndex::load("graph.truss.nidx")?;
//! let restored = Nucleus::builder(g).prepare_from_index(index)?;
//! let d = restored.run(Algorithm::Dft)?;
//! # let _ = d;
//! # Ok(())
//! # }
//! ```

use std::path::Path;

use nucleus_graph::persist_io::{graph_fingerprint, IndexImage};
use nucleus_graph::{CsrGraph, GraphError};

use crate::decompose::Kind;
use crate::error::CoreError;
use crate::session::Prepared;
use crate::space::materialized::record_arity;
use crate::space::ContainerIndex;

/// Maps a graph-crate loader error onto the typed core family: I/O
/// failures keep their own variant, everything else means the bytes are
/// bad.
fn map_graph_error(path: &str, e: GraphError) -> CoreError {
    match e {
        GraphError::Io(io) => CoreError::IndexIo {
            path: path.to_string(),
            reason: io.to_string(),
        },
        other => CoreError::IndexCorrupt {
            path: path.to_string(),
            reason: other.to_string(),
        },
    }
}

/// A loaded, validated persisted index, not yet bound to a graph.
///
/// Produced by [`PreparedIndex::load`]; consumed by
/// [`NucleusBuilder::prepare_from_index`](crate::session::NucleusBuilder::prepare_from_index),
/// which checks the fingerprint against the builder's graph and then
/// serves containers from the decoded records.
#[derive(Clone, Debug)]
pub struct PreparedIndex {
    image: IndexImage,
    kind: Kind,
    path: String,
}

impl PreparedIndex {
    /// Reads and validates the index file at `path`.
    ///
    /// # Errors
    /// [`CoreError::IndexIo`] when the file cannot be read;
    /// [`CoreError::IndexCorrupt`] when the bytes fail any structural
    /// check (see the [module docs](self)); [`CoreError::IndexMismatch`]
    /// when the stored (r, s) pair names no supported kind.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, CoreError> {
        let label = path.as_ref().display().to_string();
        let image = IndexImage::read_file(path.as_ref()).map_err(|e| map_graph_error(&label, e))?;
        Self::from_image(image, label)
    }

    /// Validates an in-memory byte image under a diagnostic `label`
    /// (used in error messages where a file path would be). This is the
    /// hook fuzz tests feed bytes through.
    pub fn from_bytes(bytes: Vec<u8>, label: &str) -> Result<Self, CoreError> {
        let image = IndexImage::from_bytes(bytes).map_err(|e| map_graph_error(label, e))?;
        Self::from_image(image, label.to_string())
    }

    fn from_image(image: IndexImage, path: String) -> Result<Self, CoreError> {
        let h = *image.header();
        let kind = Kind::all()
            .into_iter()
            .find(|k| k.rs() == (h.r, h.s))
            .ok_or_else(|| CoreError::IndexMismatch {
                path: path.clone(),
                reason: format!("stored family ({},{}) is not a supported kind", h.r, h.s),
            })?;
        let expect_arity = record_arity(h.r, h.s);
        if h.arity as usize != expect_arity {
            return Err(CoreError::IndexCorrupt {
                path,
                reason: format!(
                    "stored arity {} contradicts family ({},{}) (needs {expect_arity})",
                    h.arity, h.r, h.s
                ),
            });
        }
        // Records are container records here: every word is a co-cell
        // id, and peeling indexes per-cell arrays with it.
        let top = image.records().data().iter().copied().max();
        if let Some(id) = top.filter(|&id| u64::from(id) >= h.cells) {
            return Err(CoreError::IndexCorrupt {
                path,
                reason: format!(
                    "a record names cell {id}, but the index covers {} cells",
                    h.cells
                ),
            });
        }
        Ok(PreparedIndex { image, kind, path })
    }

    /// The (r, s) family the index was built for.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Number of peeling cells the index covers.
    pub fn cells(&self) -> usize {
        self.image.header().cells as usize
    }

    /// Total container records (Σ ω over all cells).
    pub fn containers(&self) -> u64 {
        self.image.header().records
    }

    /// Size of the index file in bytes.
    pub fn bytes(&self) -> usize {
        self.image.len()
    }

    /// Where the index was loaded from (a path, or the label given to
    /// [`PreparedIndex::from_bytes`]).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Checks the stored graph fingerprint against `g`.
    ///
    /// # Errors
    /// [`CoreError::IndexMismatch`] naming the first disagreeing
    /// component (n, m, or the edge-list hash).
    pub fn matches(&self, g: &CsrGraph) -> Result<(), CoreError> {
        self.matches_fingerprint(&graph_fingerprint(g))
    }

    /// Checks the stored graph fingerprint against an already-computed
    /// `live` fingerprint — e.g. `DynamicGraph::fingerprint()` from the
    /// `nucleus-dynamic` crate, so mutable-graph callers can fail
    /// closed without materialising a CSR snapshot first.
    ///
    /// # Errors
    /// [`CoreError::IndexMismatch`], as for [`PreparedIndex::matches`].
    pub fn matches_fingerprint(
        &self,
        live: &nucleus_graph::persist_io::GraphFingerprint,
    ) -> Result<(), CoreError> {
        let stored = self.image.header().fingerprint;
        let reason = if stored.n != live.n {
            format!(
                "index was built for n = {}, graph has n = {}",
                stored.n, live.n
            )
        } else if stored.m != live.m {
            format!(
                "index was built for m = {}, graph has m = {}",
                stored.m, live.m
            )
        } else if stored.edge_hash != live.edge_hash {
            "edge list changed since the index was built".to_string()
        } else {
            return Ok(());
        };
        Err(CoreError::IndexMismatch {
            path: self.path.clone(),
            reason,
        })
    }

    /// Converts into the [`ContainerIndex`] a session peels through.
    pub(crate) fn into_container_index(self) -> ContainerIndex {
        ContainerIndex::from_records(self.image.into_records())
    }
}

impl Prepared<'_> {
    /// Writes this session's [`ContainerIndex`] to `path` in the
    /// persisted format, stamped with the graph's fingerprint, so a
    /// later process can [`PreparedIndex::load`] it instead of
    /// re-preparing.
    ///
    /// # Errors
    /// [`CoreError::InvalidOptions`] on lazy sessions (there is no
    /// index to save); [`CoreError::IndexIo`] when the file cannot be
    /// written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CoreError> {
        let index = self
            .container_index()
            .ok_or_else(|| CoreError::InvalidOptions {
                reason: "only materialized sessions can be saved; \
                     prepare with Backend::Materialized (or Auto on a graph under the cap)"
                    .to_string(),
            })?;
        let label = path.as_ref().display().to_string();
        let (r, s) = self.kind().rs();
        let fp = graph_fingerprint(self.graph());
        let file = std::fs::File::create(path.as_ref()).map_err(|e| CoreError::IndexIo {
            path: label.clone(),
            reason: e.to_string(),
        })?;
        let mut w = std::io::BufWriter::new(file);
        index
            .write_to(&mut w, r, s, fp)
            .map_err(|e| map_graph_error(&label, e))?;
        use std::io::Write as _;
        w.flush().map_err(|e| CoreError::IndexIo {
            path: label,
            reason: e.to_string(),
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{Algorithm, Backend, Kind};
    use crate::session::Nucleus;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nucleus-persist-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_round_trip_matches_in_memory() {
        let g = nucleus_gen::karate::karate_club();
        let path = tmp("truss.nidx");
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Materialized)
            .prepare()
            .unwrap();
        prepared.save(&path).unwrap();

        let index = PreparedIndex::load(&path).unwrap();
        assert_eq!(index.kind(), Kind::Truss);
        assert_eq!(index.cells(), g.m());
        assert!(index.containers() > 0);
        assert!(index.bytes() > 0);
        index.matches(&g).unwrap();

        let restored = Nucleus::builder(&g).prepare_from_index(index).unwrap();
        assert_eq!(restored.kind(), Kind::Truss);
        assert_eq!(restored.backend(), Backend::Materialized);
        let plan = restored.plan(Algorithm::Dft).unwrap();
        assert!(plan.backend_reason.contains("loaded index"), "{plan}");
        for &algo in Algorithm::for_kind(Kind::Truss) {
            let fresh = prepared.run(algo).unwrap();
            let loaded = restored.run(algo).unwrap();
            assert_eq!(fresh.peeling.lambda, loaded.peeling.lambda, "{algo} λ");
            assert_eq!(fresh.peeling.order, loaded.peeling.order, "{algo} order");
            assert_eq!(fresh.hierarchy, loaded.hierarchy, "{algo} hierarchy");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resaving_a_loaded_index_emits_identical_bytes() {
        // A loaded index is decoded, and saving encodes it afresh, so
        // this pins the round trip byte for byte on every kind.
        let g = nucleus_gen::karate::karate_club();
        for kind in Kind::all() {
            let path = tmp(&format!("resave-{}.nidx", kind.name()));
            Nucleus::builder(&g)
                .kind(kind)
                .backend(Backend::Materialized)
                .prepare()
                .unwrap()
                .save(&path)
                .unwrap();
            let original = std::fs::read(&path).unwrap();
            let restored = Nucleus::builder(&g)
                .prepare_from_index(PreparedIndex::load(&path).unwrap())
                .unwrap();
            let path2 = tmp(&format!("resave2-{}.nidx", kind.name()));
            restored.save(&path2).unwrap();
            assert_eq!(original, std::fs::read(&path2).unwrap(), "{kind}");
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(&path2).ok();
        }
    }

    #[test]
    fn save_on_lazy_session_errors() {
        let g = nucleus_gen::karate::karate_club();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Lazy)
            .prepare()
            .unwrap();
        let err = prepared.save(tmp("lazy.nidx")).unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions { .. }), "{err}");
        assert!(err.to_string().contains("materialized"), "{err}");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = PreparedIndex::load(tmp("does-not-exist.nidx")).unwrap_err();
        assert!(matches!(err, CoreError::IndexIo { .. }), "{err}");
    }

    #[test]
    fn mismatched_graph_is_rejected_with_typed_error() {
        let g = nucleus_gen::karate::karate_club();
        let path = tmp("mismatch.nidx");
        Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Materialized)
            .prepare()
            .unwrap()
            .save(&path)
            .unwrap();
        let index = PreparedIndex::load(&path).unwrap();
        // Same vertex count, one extra edge: m and the degrees change.
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        edges.push((0, 9));
        edges.sort_unstable();
        edges.dedup();
        let edited = CsrGraph::from_edges(g.n(), &edges);
        assert_ne!(edited.m(), g.m(), "test graph must actually change");
        let err = index.matches(&edited).unwrap_err();
        assert!(matches!(err, CoreError::IndexMismatch { .. }), "{err}");
        assert!(err.to_string().contains("does not match"), "{err}");
        let err = Nucleus::builder(&edited)
            .prepare_from_index(index)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CoreError::IndexMismatch { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matches_fingerprint_fails_closed_after_mutation() {
        let g = nucleus_gen::karate::karate_club();
        let path = tmp("fp-mutation.nidx");
        Nucleus::builder(&g)
            .kind(Kind::Core)
            .backend(Backend::Materialized)
            .prepare()
            .unwrap()
            .save(&path)
            .unwrap();
        let index = PreparedIndex::load(&path).unwrap();
        index.matches_fingerprint(&graph_fingerprint(&g)).unwrap();
        // A same-n, same-m rewiring still fails: the edge hash drifts.
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        let swap = edges
            .iter()
            .position(|&(u, v)| u == 0 && !edges.contains(&(1, v)) && v > 1)
            .unwrap();
        edges[swap] = (1, edges[swap].1);
        edges.sort_unstable();
        let rewired = CsrGraph::from_edges(g.n(), &edges);
        assert_eq!(rewired.m(), g.m());
        let err = index
            .matches_fingerprint(&graph_fingerprint(&rewired))
            .unwrap_err();
        assert!(matches!(err, CoreError::IndexMismatch { .. }), "{err}");
        assert!(err.to_string().contains("edge list changed"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_kind_is_overridden_by_the_index() {
        let g = nucleus_gen::karate::karate_club();
        let path = tmp("kind-override.nidx");
        Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Materialized)
            .prepare()
            .unwrap()
            .save(&path)
            .unwrap();
        let restored = Nucleus::builder(&g)
            .kind(Kind::Core) // ignored: the file says truss
            .prepare_from_index(PreparedIndex::load(&path).unwrap())
            .unwrap();
        assert_eq!(restored.kind(), Kind::Truss);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explicit_lazy_backend_conflicts_with_an_index() {
        let g = nucleus_gen::karate::karate_club();
        let path = tmp("lazy-conflict.nidx");
        Nucleus::builder(&g)
            .kind(Kind::Core)
            .backend(Backend::Materialized)
            .prepare()
            .unwrap()
            .save(&path)
            .unwrap();
        let err = Nucleus::builder(&g)
            .backend(Backend::Lazy)
            .prepare_from_index(PreparedIndex::load(&path).unwrap())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
