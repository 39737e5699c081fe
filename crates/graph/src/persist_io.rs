//! On-disk encoding of a persisted container index.
//!
//! A persisted index file stores one [`crate::flat::FlatRecords`] (the
//! materialized (r,s) container incidence built by the core crate) plus
//! the per-cell ω counts, behind a header that pins down *which* graph
//! and *which* decomposition kind the bytes belong to. Everything is
//! little-endian and 8-byte aligned. [`IndexImage::from_bytes`] checks
//! the bytes and decodes them into the same `FlatRecords` a fresh build
//! produces, so a loaded index and a built one are served alike.
//!
//! # Layout (version 2)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"NUCINDX1"
//!      8     8  file hash: [`hash64`] over the whole file with these
//!               8 bytes zeroed (detects any single flipped byte)
//!     16     4  format version (u32, currently 2)
//!     20     4  r (u32)        — nucleus family parameter
//!     24     4  s (u32)        — nucleus family parameter
//!     28     4  arity (u32)    — words per record, C(s,r) - 1
//!     32     8  n (u64)        — graph vertex count   ┐
//!     40     8  m (u64)        — graph edge count     │ fingerprint
//!     48     8  edge hash      — [`edge_list_hash`]   ┘
//!     56     8  cells (u64)    — number of peeling cells
//!     64     8  records (u64)  — total container records
//!     72     4  section count (u32, currently 3)
//!     76     4  reserved (u32, 0)
//!     80    96  3 × 32-byte section entries:
//!               { tag u32, reserved u32, offset u64, len u64, hash u64 }
//!    176     …  payload sections, 8-byte aligned, zero padding between
//! ```
//!
//! Sections appear in tag order: `COUNTS` (cells × u32 ω counts),
//! `OFFSETS` ((cells + 1) × u64 record offsets), `DATA`
//! (records × arity × u32 words). Each entry carries its own
//! [`hash64`] so a loader can localize corruption. The layout is
//! canonical: each section starts at the end of the one before (the
//! header, for the first) padded to 8 bytes, the file ends at the
//! padded end of `DATA`, and the reserved words and padding bytes are
//! zero. The loader checks all of it, so a file it accepts re-saves to
//! its own bytes.
//!
//! # Compatibility policy
//!
//! Any change to the header layout, section encoding, or the meaning of
//! an existing field bumps [`FORMAT_VERSION`]; loaders reject files with
//! a different version outright (no migration shims at this stage).
//! Adding a *new* section tag also bumps the version, because the
//! section count is validated exactly.
//!
//! The fingerprint hashes `n`, `m` and the canonical edge list, so any
//! change to the edge set, a degree-preserving rewire included, gives a
//! different fingerprint (up to a 64-bit hash collision). Version 1
//! hashed the degree sequence instead and missed such rewires; its
//! files are rejected as an unsupported version.

use std::io::Write;
use std::path::Path;

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::flat::FlatRecords;

/// Magic bytes opening every persisted index file.
pub const MAGIC: [u8; 8] = *b"NUCINDX1";
/// Current format version; see the module docs for the bump rule.
pub const FORMAT_VERSION: u32 = 2;
/// Fixed header length in bytes (magic through the section table).
pub const HEADER_LEN: usize = 176;
/// Byte range of the whole-file hash, zeroed while hashing.
pub const FILE_HASH_RANGE: std::ops::Range<usize> = 8..16;

/// Section tag: per-cell ω counts, `cells` × u32.
pub const SEC_COUNTS: u32 = 1;
/// Section tag: record offsets, `(cells + 1)` × u64.
pub const SEC_OFFSETS: u32 = 2;
/// Section tag: record words, `records * arity` × u32.
pub const SEC_DATA: u32 = 3;
const SECTION_COUNT: usize = 3;
const SECTION_ENTRY_LEN: usize = 32;

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
}

fn pad8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

/// Encodes `flat` (plus its per-cell counts) into the version-2 byte
/// image for the `(r, s)` family of a graph with fingerprint `fp`.
pub fn encode_index(r: u32, s: u32, fp: GraphFingerprint, flat: &FlatRecords) -> Vec<u8> {
    let cells = flat.cells();
    let records = flat.record_count();
    let arity = flat.arity();

    let counts: Vec<u8> = flat.counts().iter().flat_map(|c| c.to_le_bytes()).collect();
    let offsets: Vec<u8> = flat
        .offsets()
        .iter()
        .flat_map(|&o| (o as u64).to_le_bytes())
        .collect();
    let data: Vec<u8> = flat.data().iter().flat_map(|w| w.to_le_bytes()).collect();
    let sections: [(u32, &[u8]); SECTION_COUNT] = [
        (SEC_COUNTS, &counts),
        (SEC_OFFSETS, &offsets),
        (SEC_DATA, &data),
    ];

    let mut total = HEADER_LEN;
    for (_, body) in &sections {
        total = pad8(total) + body.len();
    }
    let mut buf = vec![0u8; pad8(total)];

    buf[0..8].copy_from_slice(&MAGIC);
    // bytes 8..16 (file hash) stay zero until the end
    buf[16..20].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf[20..24].copy_from_slice(&r.to_le_bytes());
    buf[24..28].copy_from_slice(&s.to_le_bytes());
    buf[28..32].copy_from_slice(&(arity as u32).to_le_bytes());
    buf[32..40].copy_from_slice(&fp.n.to_le_bytes());
    buf[40..48].copy_from_slice(&fp.m.to_le_bytes());
    buf[48..56].copy_from_slice(&fp.edge_hash.to_le_bytes());
    buf[56..64].copy_from_slice(&(cells as u64).to_le_bytes());
    buf[64..72].copy_from_slice(&(records as u64).to_le_bytes());
    buf[72..76].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    // bytes 76..80 reserved, zero

    let mut cursor = HEADER_LEN;
    for (i, (tag, body)) in sections.iter().enumerate() {
        cursor = pad8(cursor);
        let e = 80 + i * SECTION_ENTRY_LEN;
        buf[e..e + 4].copy_from_slice(&tag.to_le_bytes());
        // entry reserved u32 stays zero
        buf[e + 8..e + 16].copy_from_slice(&(cursor as u64).to_le_bytes());
        buf[e + 16..e + 24].copy_from_slice(&(body.len() as u64).to_le_bytes());
        buf[e + 24..e + 32].copy_from_slice(&hash64(body).to_le_bytes());
        buf[cursor..cursor + body.len()].copy_from_slice(body);
        cursor += body.len();
    }

    let hash = hash64(&buf);
    buf[FILE_HASH_RANGE].copy_from_slice(&hash.to_le_bytes());
    buf
}

/// Streams [`encode_index`]'s image to `w`.
pub fn write_index<W: Write>(
    w: &mut W,
    r: u32,
    s: u32,
    fp: GraphFingerprint,
    flat: &FlatRecords,
) -> Result<(), GraphError> {
    w.write_all(&encode_index(r, s, fp, flat))?;
    Ok(())
}

/// A fully validated index file, decoded.
///
/// Construction ([`IndexImage::from_bytes`]) is the trust boundary: it
/// verifies the magic, version, whole-file and per-section checksums,
/// section-table bounds, the structural invariants of the flat records
/// and the counts section against them, then keeps the header and the
/// decoded [`FlatRecords`] and drops the file bytes.
#[derive(Clone, Debug)]
pub struct IndexImage {
    header: IndexHeader,
    records: FlatRecords,
    len: usize,
}

fn bad(msg: impl Into<String>) -> GraphError {
    GraphError::Format(msg.into())
}

fn u32_at(buf: &[u8], i: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&buf[i..i + 4]);
    u32::from_le_bytes(w)
}

fn u64_at(buf: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&buf[i..i + 8]);
    u64::from_le_bytes(w)
}

/// Refuses `bytes`, which start at file offset `at` and which the
/// writer leaves zero (`what`: a reserved word or padding), unless all
/// are zero.
fn check_zero(bytes: &[u8], at: usize, what: &str) -> Result<(), GraphError> {
    match bytes.iter().position(|&b| b != 0) {
        Some(i) => Err(bad(format!(
            "{what} byte {} is {:#04x}, must be 0",
            at + i,
            bytes[i]
        ))),
        None => Ok(()),
    }
}

impl IndexImage {
    /// Validates `buf` as a version-2 index image and decodes its
    /// records.
    ///
    /// Returns [`GraphError::Format`] (or [`GraphError::Records`] from
    /// [`FlatRecords::try_from_parts`]) on any violation — truncation,
    /// bad magic, unsupported version, checksum mismatch, a section
    /// that does not start at the padded end of the one before, a
    /// nonzero reserved word or padding byte, bytes past the padded end
    /// of the last section, malformed record structure, or counts that
    /// disagree with the offsets. So every image it accepts is the one
    /// [`encode_index`] writes for the decoded records. Never panics on
    /// untrusted bytes.
    pub fn from_bytes(mut buf: Vec<u8>) -> Result<Self, GraphError> {
        if buf.len() < 16 {
            return Err(bad(format!("truncated file: {} bytes", buf.len())));
        }
        if buf[0..8] != MAGIC {
            return Err(bad("bad magic (not a nucleus index file)"));
        }
        if buf.len() < HEADER_LEN {
            return Err(bad(format!(
                "truncated header: {} bytes, need {HEADER_LEN}",
                buf.len()
            )));
        }
        // Version before checksums, so a future-version file reports
        // "unsupported version" rather than a checksum mismatch.
        let version = u32_at(&buf, 16);
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported index version {version} (this build reads {FORMAT_VERSION})"
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
        let section_count = u32_at(&buf, 72) as usize;
        if section_count != SECTION_COUNT {
            return Err(bad(format!(
                "expected {SECTION_COUNT} sections, header says {section_count}"
            )));
        }
        check_zero(&buf[76..80], 76, "header reserved word")?;

        let expected_lens: [u64; SECTION_COUNT] = [
            header
                .cells
                .checked_mul(4)
                .ok_or_else(|| bad("counts size overflows"))?,
            (header.cells + 1)
                .checked_mul(8)
                .ok_or_else(|| bad("offsets size overflows"))?,
            header
                .records
                .checked_mul(header.arity as u64)
                .and_then(|w| w.checked_mul(4))
                .ok_or_else(|| bad("data size overflows"))?,
        ];
        let expected_tags = [SEC_COUNTS, SEC_OFFSETS, SEC_DATA];
        let mut ranges = [0..0, 0..0, 0..0];
        let mut prev_end = HEADER_LEN as u64;
        for i in 0..SECTION_COUNT {
            let e = 80 + i * SECTION_ENTRY_LEN;
            let tag = u32_at(&buf, e);
            if tag != expected_tags[i] {
                return Err(bad(format!(
                    "section {i}: expected tag {}, found {tag}",
                    expected_tags[i]
                )));
            }
            check_zero(&buf[e + 4..e + 8], e + 4, "section reserved word")?;
            // Each section starts where the writer puts it: at the end
            // of the one before, padded to 8 bytes.
            let off = u64_at(&buf, e + 8);
            let len = u64_at(&buf, e + 16);
            let start = prev_end.next_multiple_of(8);
            if off != start {
                return Err(bad(format!(
                    "section {i}: offset {off}, the layout puts it at {start}"
                )));
            }
            let end = off
                .checked_add(len)
                .ok_or_else(|| bad(format!("section {i}: bounds overflow")))?;
            if end > buf.len() as u64 {
                return Err(bad(format!(
                    "section {i}: extends to {end}, file is {} bytes",
                    buf.len()
                )));
            }
            let gap = prev_end as usize..off as usize;
            check_zero(&buf[gap.clone()], gap.start, "padding")?;
            if len != expected_lens[i] {
                return Err(bad(format!(
                    "section {i}: length {len} does not match header (expected {})",
                    expected_lens[i]
                )));
            }
            let range = off as usize..end as usize;
            let stored = u64_at(&buf, e + 24);
            let actual = hash64(&buf[range.clone()]);
            if actual != stored {
                return Err(bad(format!(
                    "section {i}: checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
                )));
            }
            ranges[i] = range;
            prev_end = end;
        }
        let [counts, offsets, data] = ranges;
        let file_end = pad8(data.end);
        if buf.len() != file_end {
            return Err(bad(format!(
                "file is {} bytes, its last section ends it at {file_end}",
                buf.len()
            )));
        }
        check_zero(&buf[data.end..], data.end, "padding")?;

        // Structural validation of the record store itself.
        let offsets = buf[offsets]
            .chunks_exact(8)
            .map(|w| usize::try_from(u64_at(w, 0)))
            .collect::<Result<Vec<usize>, _>>()
            .map_err(|_| bad("record offset exceeds the address space"))?;
        let data = buf[data].chunks_exact(4).map(|w| u32_at(w, 0)).collect();
        let records = FlatRecords::try_from_parts(offsets, data, header.arity as usize)?;
        if records.record_count() as u64 != header.records {
            return Err(bad(format!(
                "offsets imply {} records, header says {}",
                records.record_count(),
                header.records
            )));
        }
        // Cross-check the counts section against the offsets: a loaded
        // index must never disagree with itself about ω.
        let implied = records.offsets().windows(2).map(|w| w[1] - w[0]);
        let stored = buf[counts].chunks_exact(4).map(|w| u32_at(w, 0));
        for (cell, (expect, stored)) in implied.zip(stored).enumerate() {
            if stored as usize != expect {
                return Err(bad(format!(
                    "cell {cell}: counts section says {stored}, offsets imply {expect}"
                )));
            }
        }

        Ok(IndexImage {
            header,
            records,
            len: buf.len(),
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

    /// Takes the decoded record store.
    pub fn into_records(self) -> FlatRecords {
        self.records
    }

    /// Size of the file the image was decoded from, in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the file held no bytes (never, for a valid image).
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    fn sample_image_bytes() -> Vec<u8> {
        encode_index(2, 3, graph_fingerprint(&sample_graph()), &sample_flat())
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
        assert_eq!(h.fingerprint, graph_fingerprint(&sample_graph()));
        assert_eq!(img.records(), &flat);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("nucleus-persist-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rt-{}.nidx", std::process::id()));
        let flat = sample_flat();
        let mut file = std::fs::File::create(&path).unwrap();
        write_index(&mut file, 2, 3, graph_fingerprint(&sample_graph()), &flat).unwrap();
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
        let bytes = encode_index(2, 3, graph_fingerprint(&sample_graph()), &flat);
        let img = IndexImage::from_bytes(bytes).unwrap();
        assert_eq!(img.header().cells, 0);
        assert_eq!(img.records().record_count(), 0);
    }
}
