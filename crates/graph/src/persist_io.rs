//! On-disk encoding of a persisted container index and its hierarchy.
//!
//! A persisted index file stores one [`crate::flat::FlatRecords`] (the
//! materialized (r,s) container incidence built by the core crate) as
//! its per-cell ω counts and its record words, then the canonical
//! hierarchy of nuclei as a node table and the owning node of every
//! cell, behind a header that pins down *which* graph and *which*
//! decomposition kind the bytes belong to. Everything is little-endian
//! and 8-byte aligned. [`IndexImage::from_bytes`] checks the bytes and
//! decodes the records into the same `FlatRecords` a fresh build
//! produces, so a loaded index and a built one are served alike, and the
//! hierarchy sections into the plain tables the core crate rebuilds its
//! `Hierarchy` from.
//!
//! # Layout (version 4)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"NUCINDX1"
//!      8     8  file hash: [`hash64`] over the whole file with these
//!               8 bytes zeroed (detects any single flipped byte)
//!     16     4  format version (u32, currently 4)
//!     20     4  r (u32)        — nucleus family parameter
//!     24     4  s (u32)        — nucleus family parameter
//!     28     4  arity (u32)    — words per record, C(s,r) - 1
//!     32     8  n (u64)        — graph vertex count   ┐
//!     40     8  m (u64)        — graph edge count     │ fingerprint
//!     48     8  edge hash      — [`edge_list_hash`]   ┘
//!     56     8  cells (u64)    — number of peeling cells
//!     64     8  records (u64)  — total container records
//!     72     8  nodes (u64)    — hierarchy nodes, the root included
//!     80     8  counts hash    ┐
//!     88     8  data hash      │ [`hash64`] of each section
//!     96     8  nodes hash     │
//!    104     8  owners hash    ┘
//!    112     …  counts: cells × u32 ω, zero-padded to 8 bytes
//!      …     …  data: records × arity × u32 words, zero-padded to 8 bytes
//!      …     …  nodes: nodes × (λ u32, parent u32), by canonical id; the
//!               root is node 0 with parent u32::MAX
//!      …     …  owners: cells × u32 node ids, zero-padded to 8 bytes
//! ```
//!
//! Each fact is stored once. ω is the counts section; the record
//! offsets a `FlatRecords` indexes by are their prefix sum, which the
//! loader rebuilds. A cell's λ is its owner's λ, and the hierarchy's
//! children, pre-order cell runs and level counts follow from the node
//! table and the owners, so none of them is stored. The header places
//! every section: the counts start at byte 112, each later section at
//! the padded end of the one before, and the file ends at the padded end
//! of the owners, so there is no section table. The section hashes are
//! redundant with the file hash; they are kept so that a reader can name
//! the corrupt section.
//!
//! The loader checks all of the layout (see [`IndexImage::from_bytes`]),
//! so every file it accepts is the one [`encode_index`] writes for the
//! decoded records and tables: it re-saves to its own bytes. Whether the
//! tables form a canonical hierarchy that agrees with ω is the core
//! crate's check, since only it knows what a hierarchy is.
//!
//! # Compatibility policy
//!
//! Any change to the header layout, section encoding, or the meaning of
//! an existing field bumps [`FORMAT_VERSION`]; loaders reject files with
//! a different version outright (no migration shims at this stage).
//! Adding a section also bumps the version, because the header, not a
//! table, says where each section sits.
//!
//! The fingerprint hashes `n`, `m` and the canonical edge list, so any
//! change to the edge set, a degree-preserving rewire included, gives a
//! different fingerprint (up to a 64-bit hash collision). Earlier
//! versions, each rejected as an unsupported version (re-run
//! `nucleus prepare`):
//!
//! * version 1 hashed the degree sequence instead and missed such
//!   rewires;
//! * version 2 stored ω twice (counts and record offsets) behind a
//!   section table;
//! * version 3 stored the counts and records only, so every loaded
//!   session peeled before it could answer; version 4 adds the node
//!   table and the owners.

use std::ops::Range;
use std::path::Path;

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::flat::FlatRecords;

/// Magic bytes opening every persisted index file.
pub const MAGIC: [u8; 8] = *b"NUCINDX1";
/// Current format version; see the module docs for the bump rule.
pub const FORMAT_VERSION: u32 = 4;
/// Fixed header length in bytes (magic through the owners hash); the
/// counts section starts here.
pub const HEADER_LEN: usize = 112;
/// Byte range of the whole-file hash, zeroed while hashing.
pub const FILE_HASH_RANGE: Range<usize> = 8..16;
/// The sections in file order, by the name errors give them, with the
/// header offset of each one's hash.
pub const SECTIONS: [(&str, usize); 4] = [
    ("counts", 80),
    ("data", 88),
    ("hierarchy nodes", 96),
    ("hierarchy owners", 104),
];

/// Largest record arity a header may state. The nucleus families store
/// `C(s,r) - 1` co-cell ids per record, which for the supported `s ≤ 4`
/// is at most 5; 8 leaves headroom while still refusing a header whose
/// arity no family produces.
pub const MAX_ARITY: usize = 8;

const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const HASH_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The dependency-free checksum this format uses for both the whole
/// file and each section: FNV-style multiply-xor over 8-byte
/// little-endian chunks (zero-padded tail), finished with the length.
///
/// Each step `h = (h ^ chunk) * PRIME` is a bijection of `h` (odd
/// multiplier mod 2^64), so two equal-length inputs differing in any
/// byte diverge at the first differing chunk and stay divergent
/// through every later step — the guarantee behind the loader's
/// "every flipped byte is rejected" property — while hashing runs a
/// word, not a byte, at a time (index files are megabytes; the load
/// path hashes each byte twice, once for the file and once for its
/// section). Changing this function is a format break: bump
/// [`FORMAT_VERSION`].
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = HASH_SEED;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().unwrap())).wrapping_mul(HASH_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(HASH_PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(HASH_PRIME)
}

/// [`hash64`] of a canonical edge list (`u < v`, ascending), streamed:
/// each edge is the little-endian word `u | v << 32`, so the result
/// equals `hash64` over the list's `(u32, u32)` bytes without building
/// them. Changing this function is a format break, as for `hash64`.
pub fn edge_list_hash(edges: impl IntoIterator<Item = (u32, u32)>) -> u64 {
    let mut h = HASH_SEED;
    let mut len = 0u64;
    for (u, v) in edges {
        h = (h ^ (u64::from(u) | u64::from(v) << 32)).wrapping_mul(HASH_PRIME);
        len += 8;
    }
    (h ^ len).wrapping_mul(HASH_PRIME)
}

/// Identity of the graph an index was built from: enough to reject an
/// index when the graph has since changed shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphFingerprint {
    /// Vertex count.
    pub n: u64,
    /// Undirected edge count.
    pub m: u64,
    /// [`edge_list_hash`] of the canonical edge list.
    pub edge_hash: u64,
}

/// Fingerprints `g` for index validation; see [`GraphFingerprint`].
pub fn graph_fingerprint(g: &CsrGraph) -> GraphFingerprint {
    GraphFingerprint {
        n: g.n() as u64,
        m: g.m() as u64,
        edge_hash: edge_list_hash(g.edge_endpoints().iter().copied()),
    }
}

/// Parsed fixed header of an index file.
#[derive(Clone, Copy, Debug)]
pub struct IndexHeader {
    /// Format version the file was written with.
    pub version: u32,
    /// Nucleus family parameter r (cell clique size).
    pub r: u32,
    /// Nucleus family parameter s (container clique size).
    pub s: u32,
    /// Words per record, `C(s,r) - 1`.
    pub arity: u32,
    /// Fingerprint of the source graph.
    pub fingerprint: GraphFingerprint,
    /// Number of peeling cells.
    pub cells: u64,
    /// Total container records.
    pub records: u64,
    /// Hierarchy nodes, the root included.
    pub nodes: u64,
}

/// Where the header puts the sections of an image with `cells` cells,
/// `words` record words and `nodes` hierarchy nodes: the byte range of
/// each section of [`SECTIONS`], and the file length. The counts start at
/// [`HEADER_LEN`], each later section at the padded end of the one
/// before, and the file ends at the padded end of the last. `None` when
/// a size overflows the address space.
fn layout(cells: u64, words: u64, nodes: u64) -> Option<([Range<usize>; 4], usize)> {
    let lens = [
        cells.checked_mul(4)?,
        words.checked_mul(4)?,
        nodes.checked_mul(8)?,
        cells.checked_mul(4)?,
    ];
    let mut ranges: [Range<usize>; 4] = Default::default();
    let mut at = HEADER_LEN as u64;
    for (range, len) in ranges.iter_mut().zip(lens) {
        let end = at.checked_add(len)?;
        *range = usize::try_from(at).ok()?..usize::try_from(end).ok()?;
        at = end.checked_next_multiple_of(8)?;
    }
    Some((ranges, usize::try_from(at).ok()?))
}

/// Encodes `flat` and a hierarchy into the version-4 byte image for the
/// `(r, s)` family of a graph with fingerprint `fp`. The hierarchy is
/// `nodes`, (λ, parent) per node by canonical id, and `owners`, the
/// owning node of every cell.
///
/// # Panics
/// When `owners` does not hold one node per cell of `flat`.
pub fn encode_index(
    r: u32,
    s: u32,
    fp: GraphFingerprint,
    flat: &FlatRecords,
    nodes: &[(u32, u32)],
    owners: &[u32],
) -> Vec<u8> {
    let cells = flat.cells();
    assert_eq!(owners.len(), cells, "one owner per cell");
    let (sections, len) = layout(cells as u64, flat.data().len() as u64, nodes.len() as u64)
        .expect("an in-memory image fits the address space");
    let mut buf = vec![0u8; len];

    buf[0..8].copy_from_slice(&MAGIC);
    // bytes 8..16 (file hash) stay zero until the end
    buf[16..20].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf[20..24].copy_from_slice(&r.to_le_bytes());
    buf[24..28].copy_from_slice(&s.to_le_bytes());
    buf[28..32].copy_from_slice(&(flat.arity() as u32).to_le_bytes());
    buf[32..40].copy_from_slice(&fp.n.to_le_bytes());
    buf[40..48].copy_from_slice(&fp.m.to_le_bytes());
    buf[48..56].copy_from_slice(&fp.edge_hash.to_le_bytes());
    buf[56..64].copy_from_slice(&(cells as u64).to_le_bytes());
    buf[64..72].copy_from_slice(&(flat.record_count() as u64).to_le_bytes());
    buf[72..80].copy_from_slice(&(nodes.len() as u64).to_le_bytes());

    let [counts, data, node_table, owner_ids] = sections.clone();
    put_words(&mut buf[counts], (0..cells as u32).map(|c| flat.count(c)));
    put_words(&mut buf[data], flat.data().iter().copied());
    put_words(
        &mut buf[node_table],
        nodes.iter().flat_map(|&(lambda, parent)| [lambda, parent]),
    );
    put_words(&mut buf[owner_ids], owners.iter().copied());
    for ((_, at), section) in SECTIONS.into_iter().zip(sections) {
        let h = hash64(&buf[section]);
        buf[at..at + 8].copy_from_slice(&h.to_le_bytes());
    }

    let hash = hash64(&buf);
    buf[FILE_HASH_RANGE].copy_from_slice(&hash.to_le_bytes());
    buf
}

/// Writes `words` little-endian into `section`, one per 4 bytes.
fn put_words(section: &mut [u8], words: impl Iterator<Item = u32>) {
    for (slot, w) in section.chunks_exact_mut(4).zip(words) {
        slot.copy_from_slice(&w.to_le_bytes());
    }
}

/// A fully validated index file, decoded.
///
/// Construction ([`IndexImage::from_bytes`]) is the trust boundary for
/// the layout: it verifies the magic, version, header, layout and
/// checksums, rebuilds the record offsets from the counts and checks the
/// record structure, then keeps the header, the decoded [`FlatRecords`]
/// and the hierarchy tables as stored, and drops the file bytes.
#[derive(Clone, Debug)]
pub struct IndexImage {
    header: IndexHeader,
    records: FlatRecords,
    nodes: Vec<(u32, u32)>,
    owners: Vec<u32>,
    bytes: usize,
}

fn bad(msg: impl Into<String>) -> GraphError {
    GraphError::Format(msg.into())
}

fn u32_at(buf: &[u8], i: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&buf[i..i + 4]);
    u32::from_le_bytes(w)
}

/// The little-endian `u32` words of `bytes`.
fn words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|w| u32_at(w, 0))
}

fn u64_at(buf: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&buf[i..i + 8]);
    u64::from_le_bytes(w)
}

/// Refuses `bytes`, padding that starts at file offset `at` and that
/// the writer leaves zero, unless all are zero.
fn check_zero_padding(bytes: &[u8], at: usize) -> Result<(), GraphError> {
    match bytes.iter().position(|&b| b != 0) {
        Some(i) => Err(bad(format!(
            "padding byte {} is {:#04x}, must be 0",
            at + i,
            bytes[i]
        ))),
        None => Ok(()),
    }
}

impl IndexImage {
    /// Validates `buf` as a version-4 index image and decodes its
    /// records and hierarchy tables.
    ///
    /// Returns [`GraphError::Format`] (or [`GraphError::Records`] from
    /// [`FlatRecords::try_from_parts`]) on any violation — truncation,
    /// bad magic, unsupported version, checksum mismatch, an invalid
    /// header, a file length other than the one the header implies, a
    /// nonzero padding byte, or counts that do not sum to the header's
    /// record count. So every image it accepts is the one
    /// [`encode_index`] writes for the decoded records and tables. Never
    /// panics on untrusted bytes.
    pub fn from_bytes(mut buf: Vec<u8>) -> Result<Self, GraphError> {
        if buf.len() < 16 {
            return Err(bad(format!("truncated file: {} bytes", buf.len())));
        }
        if buf[0..8] != MAGIC {
            return Err(bad("bad magic (not a nucleus index file)"));
        }
        if buf.len() < 20 {
            return Err(bad(format!("truncated header: {} bytes", buf.len())));
        }
        // Version before the header length and the checksums, so an
        // older or future file reports "unsupported version" rather than
        // a short header or a checksum mismatch.
        let version = u32_at(&buf, 16);
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported index version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        if buf.len() < HEADER_LEN {
            return Err(bad(format!(
                "truncated header: {} bytes, need {HEADER_LEN}",
                buf.len()
            )));
        }
        // The hash covers the file with its own field zeroed; the
        // buffer is dropped after decoding, so zero it in place.
        let stored_hash = u64_at(&buf, 8);
        buf[FILE_HASH_RANGE].fill(0);
        let actual = hash64(&buf);
        if actual != stored_hash {
            return Err(bad(format!(
                "file checksum mismatch (stored {stored_hash:#018x}, computed {actual:#018x})"
            )));
        }
        let header = IndexHeader {
            version,
            r: u32_at(&buf, 20),
            s: u32_at(&buf, 24),
            arity: u32_at(&buf, 28),
            fingerprint: GraphFingerprint {
                n: u64_at(&buf, 32),
                m: u64_at(&buf, 40),
                edge_hash: u64_at(&buf, 48),
            },
            cells: u64_at(&buf, 56),
            records: u64_at(&buf, 64),
            nodes: u64_at(&buf, 72),
        };
        if header.r == 0 || header.r >= header.s {
            return Err(bad(format!(
                "invalid family (r, s) = ({}, {})",
                header.r, header.s
            )));
        }
        if header.arity == 0 || header.arity as usize > MAX_ARITY {
            return Err(bad(format!("invalid arity {}", header.arity)));
        }
        if header.cells > u32::MAX as u64 {
            return Err(bad(format!("cell count {} exceeds u32 ids", header.cells)));
        }

        let (sections, len) = header
            .records
            .checked_mul(u64::from(header.arity))
            .and_then(|words| layout(header.cells, words, header.nodes))
            .ok_or_else(|| bad("section sizes overflow"))?;
        if buf.len() != len {
            return Err(bad(format!(
                "file is {} bytes, its header puts the end at {len}",
                buf.len()
            )));
        }
        let padding_ends = sections.iter().skip(1).map(|next| next.start).chain([len]);
        for (section, padding_end) in sections.iter().zip(padding_ends) {
            check_zero_padding(&buf[section.end..padding_end], section.end)?;
        }
        for ((name, at), section) in SECTIONS.into_iter().zip(&sections) {
            let stored = u64_at(&buf, at);
            let actual = hash64(&buf[section.clone()]);
            if actual != stored {
                return Err(bad(format!(
                    "{name} section checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
                )));
            }
        }
        let [counts, data, nodes, owners] = sections;

        // The record offsets are the prefix sum of the counts, which
        // must reach the header's record count: the data was sized by it.
        let mut offsets = Vec::with_capacity(counts.len() / 4 + 1);
        let mut total = 0usize;
        offsets.push(total);
        for w in buf[counts].chunks_exact(4) {
            total = total
                .checked_add(u32_at(w, 0) as usize)
                .ok_or_else(|| bad("counts overflow the address space"))?;
            offsets.push(total);
        }
        if total as u64 != header.records {
            return Err(bad(format!(
                "counts sum to {total} records, header says {}",
                header.records
            )));
        }
        let data = words(&buf[data]).collect();
        let records = FlatRecords::try_from_parts(offsets, data, header.arity as usize)?;
        let nodes = buf[nodes]
            .chunks_exact(8)
            .map(|w| (u32_at(w, 0), u32_at(w, 4)))
            .collect();
        let owners = words(&buf[owners]).collect();

        Ok(IndexImage {
            header,
            records,
            nodes,
            owners,
            bytes: buf.len(),
        })
    }

    /// Reads and validates the index file at `path`.
    pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Parsed header of the image.
    pub fn header(&self) -> &IndexHeader {
        &self.header
    }

    /// The decoded record store.
    pub fn records(&self) -> &FlatRecords {
        &self.records
    }

    /// The stored hierarchy's node table: (λ, parent) per node, by
    /// canonical id, as the file holds it.
    pub fn nodes(&self) -> &[(u32, u32)] {
        &self.nodes
    }

    /// The stored owning node of every cell, as the file holds it.
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    /// Takes the decoded record store, dropping the hierarchy tables.
    pub fn into_records(self) -> FlatRecords {
        self.records
    }

    /// Size of the file the image was decoded from, in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::offsets_from_counts;

    fn sample_flat() -> FlatRecords {
        let offsets = offsets_from_counts(&[2, 0, 1, 3]);
        let data: Vec<u32> = (0..12).collect();
        FlatRecords::from_parts(offsets, data, 2)
    }

    fn sample_graph() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    /// A root and one λ = 1 node owning three of the four cells: the
    /// format does not check the tree, so any tables of the right sizes
    /// do.
    const SAMPLE_NODES: [(u32, u32); 2] = [(0, u32::MAX), (1, 0)];
    const SAMPLE_OWNERS: [u32; 4] = [1, 0, 1, 1];

    fn sample_image_bytes() -> Vec<u8> {
        encode_index(
            2,
            3,
            graph_fingerprint(&sample_graph()),
            &sample_flat(),
            &SAMPLE_NODES,
            &SAMPLE_OWNERS,
        )
    }

    #[test]
    fn hash_distinguishes_every_byte_flip_and_length() {
        // The format's integrity story rests on two properties of
        // `hash64` (see its docs): equal-length inputs differing in
        // any single byte hash differently, and appending bytes —
        // even zeros, which the tail padding could otherwise absorb —
        // changes the hash.
        let base: Vec<u8> = (0..41u8).map(|i| i.wrapping_mul(37)).collect();
        let h = hash64(&base);
        for i in 0..base.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = base.clone();
                bad[i] ^= flip;
                assert_ne!(hash64(&bad), h, "byte {i} flip {flip:#x}");
            }
        }
        let mut extended = base.clone();
        extended.push(0);
        assert_ne!(hash64(&extended), h, "zero-extension must not collide");
        assert_ne!(hash64(&base[..base.len() - 1]), h, "truncation");
    }

    #[test]
    fn fingerprint_tracks_shape() {
        let g = sample_graph();
        let fp = graph_fingerprint(&g);
        assert_eq!(fp.n, 4);
        assert_eq!(fp.m, 5);
        // Removing an edge changes m and the edge hash.
        let g2 = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3)]);
        let fp2 = graph_fingerprint(&g2);
        assert_ne!(fp, fp2);
        assert_ne!(fp.edge_hash, fp2.edge_hash);
        // A degree-preserving rewire of the 4-cycle 0-1-2-3 into
        // 0-2-1-3 (drop {0,1} and {2,3}, add {0,2} and {1,3}) keeps n,
        // m and every degree but not the edge hash.
        let cycle = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let rewired = CsrGraph::from_edges(4, &[(0, 2), (1, 2), (1, 3), (0, 3)]);
        let degrees = |g: &CsrGraph| g.vertices().map(|v| g.degree(v)).collect::<Vec<_>>();
        assert_eq!(degrees(&cycle), degrees(&rewired));
        assert_ne!(graph_fingerprint(&cycle), graph_fingerprint(&rewired));
    }

    #[test]
    fn edge_list_hash_is_hash64_of_the_edge_bytes() {
        let g = sample_graph();
        let bytes: Vec<u8> = g
            .edge_endpoints()
            .iter()
            .flat_map(|&(u, v)| [u.to_le_bytes(), v.to_le_bytes()].concat())
            .collect();
        assert_eq!(graph_fingerprint(&g).edge_hash, hash64(&bytes));
        assert_eq!(edge_list_hash([]), hash64(&[]));
    }

    #[test]
    fn encode_then_load_round_trips() {
        let flat = sample_flat();
        let img = IndexImage::from_bytes(sample_image_bytes()).unwrap();
        let h = img.header();
        assert_eq!(h.version, FORMAT_VERSION);
        assert_eq!((h.r, h.s), (2, 3));
        assert_eq!(h.arity as usize, flat.arity());
        assert_eq!(h.cells as usize, flat.cells());
        assert_eq!(h.records as usize, flat.record_count());
        assert_eq!(h.nodes as usize, SAMPLE_NODES.len());
        assert_eq!(h.fingerprint, graph_fingerprint(&sample_graph()));
        assert_eq!(img.records(), &flat);
        assert_eq!(img.nodes(), SAMPLE_NODES);
        assert_eq!(img.owners(), SAMPLE_OWNERS);
        // header, 4 counts, 12 data words, 2 node rows, 4 owners
        assert_eq!(img.bytes(), HEADER_LEN + 16 + 48 + 16 + 16);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("nucleus-persist-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rt-{}.nidx", std::process::id()));
        let flat = sample_flat();
        std::fs::write(&path, sample_image_bytes()).unwrap();
        let img = IndexImage::read_file(&path).unwrap();
        assert_eq!(img.into_records(), flat);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut bytes = sample_image_bytes();
        bytes[0] = b'X';
        let err = IndexImage::from_bytes(bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = sample_image_bytes();
        bytes[16..20].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal so the version check (not the hash) is what trips.
        let mut hashed = bytes.clone();
        hashed[FILE_HASH_RANGE].fill(0);
        let h = hash64(&hashed);
        bytes[FILE_HASH_RANGE].copy_from_slice(&h.to_le_bytes());
        let err = IndexImage::from_bytes(bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn rejects_every_truncation() {
        let bytes = sample_image_bytes();
        for len in 0..bytes.len() {
            assert!(
                IndexImage::from_bytes(bytes[..len].to_vec()).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
    }

    #[test]
    fn rejects_every_flipped_byte() {
        let bytes = sample_image_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            assert!(
                IndexImage::from_bytes(bad).is_err(),
                "flipped byte {i} was accepted"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample_image_bytes();
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        assert!(IndexImage::from_bytes(bytes).is_err());
    }

    #[test]
    fn empty_store_round_trips() {
        let flat = FlatRecords::from_parts(vec![0], vec![], 2);
        let fp = graph_fingerprint(&sample_graph());
        let bytes = encode_index(2, 3, fp, &flat, &SAMPLE_NODES[..1], &[]);
        let img = IndexImage::from_bytes(bytes).unwrap();
        assert_eq!(img.header().cells, 0);
        assert_eq!(img.records().record_count(), 0);
        assert_eq!(img.nodes(), &SAMPLE_NODES[..1]);
    }

    /// A file of an older version is refused naming its version, even
    /// when it is shorter than this version's header.
    #[test]
    fn rejects_older_versions_by_number() {
        for version in 1..FORMAT_VERSION {
            let mut bytes = sample_image_bytes();
            bytes[16..20].copy_from_slice(&version.to_le_bytes());
            bytes.truncate(88);
            let err = IndexImage::from_bytes(bytes).unwrap_err();
            let named = format!("unsupported index version {version}");
            assert!(err.to_string().contains(&named), "{err}");
        }
    }
}
