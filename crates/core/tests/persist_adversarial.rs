//! Adversarial tests for the persisted-index loader: every way the
//! bytes can be wrong — truncated, bit-flipped, mislabeled, stale —
//! must surface as a *typed* [`CoreError`], never a panic and never a
//! silently wrong index. The whole-file checksum makes most of these
//! deterministic: any byte change is caught.

use nucleus_core::decompose::{Algorithm, Backend, Kind};
use nucleus_core::error::CoreError;
use nucleus_core::persist::PreparedIndex;
use nucleus_core::session::Nucleus;
use nucleus_graph::persist_io::{hash64, FILE_HASH_RANGE, FORMAT_VERSION, MAX_ARITY};
use nucleus_graph::CsrGraph;
use rand::{Rng, SeedableRng};

/// A valid index image for the karate club's `kind` space, produced
/// through the real save path. Every call saves to a path of its own:
/// tests run in parallel, and two of them sharing a file could read it
/// half-written or after the other removed it.
fn valid_image(kind: Kind) -> (CsrGraph, Vec<u8>) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let g = nucleus_gen::karate::karate_club();
    let dir = std::env::temp_dir().join("nucleus-persist-adversarial");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{}-{}-{}.nidx",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
        kind.name()
    ));
    Nucleus::builder(&g)
        .kind(kind)
        .backend(Backend::Materialized)
        .prepare()
        .unwrap()
        .save(&path)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (g, bytes)
}

/// Recomputes and re-stamps the whole-file hash, so a test can tamper
/// with a *specific* field and still get past the checksum — proving
/// the field's own validation (not just the hash) catches it.
fn reseal(bytes: &mut [u8]) {
    bytes[FILE_HASH_RANGE].fill(0);
    let h = hash64(bytes);
    bytes[FILE_HASH_RANGE].copy_from_slice(&h.to_le_bytes());
}

/// Byte range of section `i` (0 counts, 1 offsets, 2 data), read off
/// the section table.
fn section(bytes: &[u8], i: usize) -> std::ops::Range<usize> {
    let entry = 80 + i * 32;
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let start = word(entry + 8);
    start..start + word(entry + 16)
}

/// [`reseal`], after re-stamping every section hash: tampering inside a
/// section then gets past both checksums and meets the loader's
/// structural checks.
fn reseal_sections(bytes: &mut [u8]) {
    for i in 0..3 {
        let h = hash64(&bytes[section(bytes, i)]);
        let at = 80 + i * 32 + 24;
        bytes[at..at + 8].copy_from_slice(&h.to_le_bytes());
    }
    reseal(bytes);
}

/// Offset `j` of the offsets section.
fn offset(bytes: &[u8], j: usize) -> u64 {
    let at = section(bytes, 1).start + j * 8;
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn set_offset(bytes: &mut [u8], j: usize, value: u64) {
    let at = section(bytes, 1).start + j * 8;
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// Overwrites `u32` word `j` of section `i` (0 counts, 2 data).
fn set_word(bytes: &mut [u8], i: usize, j: usize, value: u32) {
    let at = section(bytes, i).start + j * 4;
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

fn expect_corrupt(bytes: Vec<u8>, what: &str) {
    match PreparedIndex::from_bytes(bytes, "test-image") {
        Err(CoreError::IndexCorrupt { .. }) => {}
        Err(other) => panic!("{what}: expected IndexCorrupt, got {other}"),
        Ok(_) => panic!("{what}: corrupt image was accepted"),
    }
}

#[test]
fn valid_image_loads_for_every_kind() {
    for kind in Kind::all() {
        let (g, bytes) = valid_image(kind);
        let index = PreparedIndex::from_bytes(bytes, "valid").unwrap();
        assert_eq!(index.kind(), kind);
        index.matches(&g).unwrap();
        let restored = Nucleus::builder(&g).prepare_from_index(index).unwrap();
        assert!(restored.run(Algorithm::Dft).is_ok(), "{kind}");
    }
}

#[test]
fn wrong_magic_is_corrupt() {
    let (_, mut bytes) = valid_image(Kind::Truss);
    bytes[0..4].copy_from_slice(b"NOPE");
    reseal(&mut bytes);
    expect_corrupt(bytes, "wrong magic");
}

#[test]
fn future_version_is_corrupt_and_names_the_version() {
    let (_, mut bytes) = valid_image(Kind::Truss);
    bytes[16..20].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    reseal(&mut bytes);
    match PreparedIndex::from_bytes(bytes, "future") {
        Err(CoreError::IndexCorrupt { reason, .. }) => {
            assert!(reason.contains("version"), "{reason}");
        }
        other => panic!("expected IndexCorrupt naming the version, got {other:?}"),
    }
}

/// Version 1 stamped a degree-sequence hash, which cannot vouch for
/// the edge list: such files are refused, not reinterpreted.
#[test]
fn version_one_files_are_rejected() {
    let (_, mut bytes) = valid_image(Kind::Truss);
    bytes[16..20].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut bytes);
    match PreparedIndex::from_bytes(bytes, "version 1") {
        Err(CoreError::IndexCorrupt { reason, .. }) => {
            assert!(reason.contains("unsupported index version 1"), "{reason}");
        }
        other => panic!("expected IndexCorrupt naming version 1, got {other:?}"),
    }
}

#[test]
fn every_truncation_is_rejected() {
    let (_, bytes) = valid_image(Kind::Truss);
    for len in 0..bytes.len() {
        expect_corrupt(bytes[..len].to_vec(), &format!("truncated to {len}"));
    }
}

#[test]
fn every_flipped_byte_is_rejected() {
    // One image per kind keeps this affordable while covering all five
    // section layouts (arity 1 through 5).
    for kind in [Kind::Core, Kind::Truss, Kind::EdgeK4] {
        let (_, bytes) = valid_image(kind);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            expect_corrupt(bad, &format!("{kind}: flipped byte {i}"));
        }
    }
}

#[test]
fn resealed_section_tampering_is_still_caught() {
    // Flip a data byte AND fix the whole-file hash: the per-section
    // checksum must catch it on its own.
    let (_, mut bytes) = valid_image(Kind::Truss);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    reseal(&mut bytes);
    expect_corrupt(bytes, "resealed data flip");
}

#[test]
fn fingerprint_mismatch_is_typed_not_silent() {
    let (g, bytes) = valid_image(Kind::Truss);
    let index = PreparedIndex::from_bytes(bytes, "stale").unwrap();

    // Graph edited after save: one more edge.
    let mut edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u, v)).collect();
    edges.push((0, 9));
    edges.sort_unstable();
    edges.dedup();
    let grown = CsrGraph::from_edges(g.n(), &edges);
    let err = index.matches(&grown).unwrap_err();
    assert!(matches!(err, CoreError::IndexMismatch { .. }), "{err}");

    // Same n and m, one edge moved elsewhere.
    let mut rewired: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u, v)).collect();
    let pos = rewired
        .iter()
        .position(|&(u, v)| (u, v) == (0, 1))
        .expect("karate has edge (0,1)");
    rewired[pos] = (26, 28);
    let moved = CsrGraph::from_edges(g.n(), &rewired);
    assert_eq!(moved.n(), g.n());
    assert_eq!(moved.m(), g.m());
    let err = index.matches(&moved).unwrap_err();
    match err {
        CoreError::IndexMismatch { reason, .. } => {
            assert!(reason.contains("edge list changed"), "{reason}");
        }
        other => panic!("expected IndexMismatch on the edge hash, got {other}"),
    }

    // A degree-preserving rewire: `- a b`, `- c d`, `+ a d`, `+ c b`.
    let (a, b, c, d) = g
        .edges()
        .flat_map(|(_, a, b)| g.edges().map(move |(_, c, d)| (a, b, c, d)))
        .find(|&(a, b, c, d)| {
            a != c && a != d && b != c && b != d && !g.has_edge(a, d) && !g.has_edge(c, b)
        })
        .expect("karate has two rewirable edges");
    let mut edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(_, u, v)| (u, v))
        .filter(|&e| e != (a, b) && e != (c, d))
        .collect();
    edges.extend([(a, d), (c, b)]);
    let rewired = CsrGraph::from_edges(g.n(), &edges);
    assert_eq!((rewired.n(), rewired.m()), (g.n(), g.m()));
    assert!(g.vertices().all(|v| rewired.degree(v) == g.degree(v)));
    match index.matches(&rewired).unwrap_err() {
        CoreError::IndexMismatch { reason, .. } => {
            assert!(reason.contains("edge list changed"), "{reason}");
        }
        other => panic!("expected IndexMismatch for the rewire, got {other}"),
    }

    let err = Nucleus::builder(&grown)
        .prepare_from_index(index)
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");
}

#[test]
fn swapped_family_header_is_rejected() {
    // Claim a (1,2) index is (2,3): arity 1 contradicts the truss
    // family's record width even after resealing every checksum.
    let (_, mut bytes) = valid_image(Kind::Core);
    bytes[20..24].copy_from_slice(&2u32.to_le_bytes());
    bytes[24..28].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut bytes);
    expect_corrupt(bytes, "family/arity contradiction");
}

#[test]
fn unsupported_family_is_a_mismatch() {
    // (2,5) is a coherent header (arity C(5,2)-1 = 9 > MAX_ARITY, so
    // use (1,4): arity 3) but names no supported kind.
    let (_, mut bytes) = valid_image(Kind::Nucleus34);
    bytes[20..24].copy_from_slice(&1u32.to_le_bytes());
    bytes[24..28].copy_from_slice(&4u32.to_le_bytes());
    reseal(&mut bytes);
    match PreparedIndex::from_bytes(bytes, "alien family") {
        Err(CoreError::IndexMismatch { reason, .. }) => {
            assert!(reason.contains("not a supported kind"), "{reason}");
        }
        other => panic!("expected IndexMismatch, got {other:?}"),
    }
}

/// Damage inside a section, with every checksum re-stamped, reaches the
/// record validator, the counts cross-check or the cell-id bound and is
/// refused there with a reason naming what is wrong. Header arities
/// outside `1..=MAX_ARITY` are refused before any section is read.
#[test]
fn resealed_record_damage_is_refused_by_its_own_check() {
    type Edit = fn(&mut [u8]);
    let data_length = "data length must be record_count * arity".to_string();
    let cases: Vec<(String, Edit)> = vec![
        // A record naming a cell past the header's count used to load,
        // then panic inside FND on an out-of-bounds bucket lookup.
        ("a record names cell 4294967040".into(), |b| {
            set_word(b, 2, 0, 0xFFFF_FF00)
        }),
        ("invalid arity 0".into(), |b| b[28..32].fill(0)),
        (format!("invalid arity {}", MAX_ARITY + 1), |b| {
            b[28..32].copy_from_slice(&(MAX_ARITY as u32 + 1).to_le_bytes())
        }),
        ("offsets must start at 0".into(), |b| set_offset(b, 0, 1)),
        ("offsets must be monotone".into(), |b| {
            set_offset(b, 1, u64::MAX)
        }),
        // Offsets ending one record short of the data, then one past it.
        (data_length.clone(), |b| {
            let cells = section(b, 1).len() / 8 - 1;
            let last = offset(b, cells);
            for j in 1..=cells {
                let o = offset(b, j).min(last - 1);
                set_offset(b, j, o);
            }
        }),
        (data_length, |b| {
            let cells = section(b, 1).len() / 8 - 1;
            let last = offset(b, cells);
            set_offset(b, cells, last + 1);
        }),
        ("counts section says".into(), |b| {
            let count = offset(b, 1) as u32;
            set_word(b, 0, 0, count + 1)
        }),
    ];
    for kind in [Kind::Core, Kind::Truss, Kind::Nucleus34] {
        let (_, original) = valid_image(kind);
        for (reason_part, edit) in &cases {
            let mut bytes = original.clone();
            edit(&mut bytes);
            reseal_sections(&mut bytes);
            match PreparedIndex::from_bytes(bytes, "resealed") {
                Err(CoreError::IndexCorrupt { reason, .. }) => {
                    assert!(reason.contains(reason_part.as_str()), "{kind}: {reason}");
                }
                other => panic!("{kind}, {reason_part}: expected IndexCorrupt, got {other:?}"),
            }
        }
    }
}

/// The writer emits one layout for given records: every section at the
/// padded end of the one before, zero reserved words and padding, and
/// the file ending at the padded end of the data section. Bytes that
/// differ from it anywhere, with every checksum re-stamped, are refused
/// with a reason naming the spot, so every accepted file re-saves to its
/// own bytes. All five edits used to load.
#[test]
fn resealed_non_canonical_layouts_are_refused() {
    type Edit = fn(&mut Vec<u8>);
    let cases: Vec<(&str, &str, Edit)> = vec![
        ("16 bytes appended", "file is 1272 bytes", |b| {
            b.extend([0xAB; 16])
        }),
        (
            "header reserved byte 76 set",
            "header reserved word byte 76 is 0x01",
            |b| b[76] = 1,
        ),
        (
            "section 0 entry reserved byte 84 set",
            "section reserved word byte 84 is 0x01",
            |b| b[84] = 1,
        ),
        ("padding byte 356 set", "padding byte 356 is 0xff", |b| {
            // 45 cells × 4 bytes of counts end at 356, 4 bytes short of
            // the 8-aligned start of the offsets section
            assert_eq!((section(b, 0).end, section(b, 1).start), (356, 360));
            b[356] = 0xFF
        }),
        (
            "data section moved 8 bytes later over a zero gap",
            "section 2: offset",
            |b| {
                let start = section(b, 2).start;
                b.splice(start..start, [0; 8]);
                let at = 80 + 2 * 32 + 8;
                b[at..at + 8].copy_from_slice(&(start as u64 + 8).to_le_bytes());
            },
        ),
    ];
    let (_, original) = valid_image(Kind::Nucleus34);
    assert_eq!(original.len(), 1256, "karate (3,4) image");
    let mut accepted = vec![];
    for (what, reason_part, edit) in &cases {
        let mut bytes = original.clone();
        edit(&mut bytes);
        reseal_sections(&mut bytes);
        match PreparedIndex::from_bytes(bytes, "non-canonical") {
            Err(CoreError::IndexCorrupt { reason, .. }) => {
                assert!(reason.contains(reason_part), "{what}: {reason}");
            }
            Err(other) => panic!("{what}: expected IndexCorrupt, got {other}"),
            Ok(_) => accepted.push(*what),
        }
    }
    assert!(accepted.is_empty(), "accepted: {accepted:?}");
}

/// Byte-level fuzz: random flips, truncations, extensions and zeroed
/// ranges over a valid image. Any mutation that changes the bytes must
/// be rejected with a typed error — and none may panic (a panic fails
/// the test by aborting it).
#[test]
fn fuzzed_mutations_never_panic_and_never_load() {
    let (g, original) = valid_image(Kind::Truss);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    for iter in 0..300 {
        let mut bytes = original.clone();
        let mutations = rng.gen_range(1..4u32);
        for _ in 0..mutations {
            match rng.gen_range(0..4u32) {
                0 if !bytes.is_empty() => {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] ^= rng.gen_range(1..=255u8);
                }
                1 if !bytes.is_empty() => {
                    let keep = rng.gen_range(0..bytes.len());
                    bytes.truncate(keep);
                }
                2 => {
                    let extra = rng.gen_range(1..64usize);
                    bytes.extend((0..extra).map(|_| rng.gen_range(0..=255u8)));
                }
                _ if !bytes.is_empty() => {
                    let start = rng.gen_range(0..bytes.len());
                    let end = (start + rng.gen_range(1..32usize)).min(bytes.len());
                    bytes[start..end].fill(0);
                }
                _ => {}
            }
        }
        let changed = bytes != original;
        match PreparedIndex::from_bytes(bytes, "fuzz") {
            Ok(index) => {
                assert!(
                    !changed,
                    "iteration {iter}: mutated image was accepted as valid"
                );
                // The untouched image must still behave.
                index.matches(&g).unwrap();
            }
            Err(
                CoreError::IndexCorrupt { .. }
                | CoreError::IndexMismatch { .. }
                | CoreError::IndexIo { .. },
            ) => {}
            Err(other) => panic!("iteration {iter}: untyped error {other}"),
        }
    }
}
