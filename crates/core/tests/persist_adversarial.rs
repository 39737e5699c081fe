//! Adversarial tests for the persisted-index loader: every way the
//! bytes can be wrong — truncated, bit-flipped, mislabeled, stale —
//! must surface as a *typed* [`CoreError`], never a panic and never a
//! silently wrong index. The whole-file checksum makes most of these
//! deterministic: any byte change is caught.

use nucleus_core::decompose::{Algorithm, Backend, Kind};
use nucleus_core::error::CoreError;
use nucleus_core::persist::PreparedIndex;
use nucleus_core::session::Nucleus;
use nucleus_graph::persist_io::{hash64, FILE_HASH_RANGE, FORMAT_VERSION, HEADER_LEN, MAX_ARITY};
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

/// Header field `at` (the u64 fields: cells at 56, records at 64).
fn header_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Byte ranges of the counts and data sections, where the header puts
/// them: the counts from byte 88, the data from the padded end of the
/// counts.
fn sections(bytes: &[u8]) -> [std::ops::Range<usize>; 2] {
    let arity = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    let counts = HEADER_LEN..HEADER_LEN + 4 * header_u64(bytes, 56) as usize;
    let data_start = counts.end.next_multiple_of(8);
    let data = data_start..data_start + 4 * arity * header_u64(bytes, 64) as usize;
    [counts, data]
}

/// [`reseal`], after re-stamping both section hashes (header bytes 72
/// and 80): tampering inside a section then gets past every checksum
/// and meets the loader's structural checks. A section the header
/// places past the end of the file keeps its stale hash; the loader
/// refuses such a file on its length first.
fn reseal_sections(bytes: &mut [u8]) {
    for (i, section) in sections(bytes).into_iter().enumerate() {
        if let Some(body) = bytes.get(section) {
            let h = hash64(body);
            let at = 72 + 8 * i;
            bytes[at..at + 8].copy_from_slice(&h.to_le_bytes());
        }
    }
    reseal(bytes);
}

/// `u32` word `j` of section `i` (0 counts, 1 data).
fn word(bytes: &[u8], i: usize, j: usize) -> u32 {
    let at = sections(bytes)[i].start + j * 4;
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Overwrites `u32` word `j` of section `i` (0 counts, 1 data).
fn set_word(bytes: &mut [u8], i: usize, j: usize, value: u32) {
    let at = sections(bytes)[i].start + j * 4;
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Index of the first cell with a nonzero count.
fn first_counted_cell(bytes: &[u8]) -> usize {
    (0..).find(|&j| word(bytes, 0, j) > 0).unwrap()
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
        // The 88-byte header, then the counts and the data, each padded
        // to 8 bytes: nothing else.
        let pad8 = |len: u64| len.next_multiple_of(8) as usize;
        let arity = u64::from(u32::from_le_bytes(bytes[28..32].try_into().unwrap()));
        let (cells, records) = (header_u64(&bytes, 56), header_u64(&bytes, 64));
        assert_eq!(
            bytes.len(),
            88 + pad8(4 * cells) + pad8(4 * arity * records),
            "{kind}"
        );
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
/// the edge list, and version 2 stored ω twice behind a section table:
/// such files are refused, not reinterpreted.
#[test]
fn version_one_files_are_rejected() {
    for version in [1u32, 2] {
        let (_, mut bytes) = valid_image(Kind::Truss);
        bytes[16..20].copy_from_slice(&version.to_le_bytes());
        reseal(&mut bytes);
        match PreparedIndex::from_bytes(bytes, "old version") {
            Err(CoreError::IndexCorrupt { reason, .. }) => {
                let named = format!("unsupported index version {version}");
                assert!(reason.contains(&named), "{reason}");
            }
            other => panic!("expected IndexCorrupt naming version {version}, got {other:?}"),
        }
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
/// counts-sum check or the cell-id bound and is refused there with a
/// reason naming what is wrong. Header arities outside `1..=MAX_ARITY`
/// are refused before any section is read.
#[test]
fn resealed_record_damage_is_refused_by_its_own_check() {
    type Edit = fn(&mut [u8]);
    let cases: Vec<(String, Edit)> = vec![
        // A record naming a cell past the header's count used to load,
        // then panic inside FND on an out-of-bounds bucket lookup.
        ("a record names cell 4294967040".into(), |b| {
            set_word(b, 1, 0, 0xFFFF_FF00)
        }),
        ("invalid arity 0".into(), |b| b[28..32].fill(0)),
        (format!("invalid arity {}", MAX_ARITY + 1), |b| {
            b[28..32].copy_from_slice(&(MAX_ARITY as u32 + 1).to_le_bytes())
        }),
        // Counts summing to one record past the header's count, then
        // one short of it.
        ("counts sum to".into(), |b| {
            let j = first_counted_cell(b);
            set_word(b, 0, j, word(b, 0, j) + 1)
        }),
        ("counts sum to".into(), |b| {
            let j = first_counted_cell(b);
            set_word(b, 0, j, word(b, 0, j) - 1)
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

/// The writer emits one layout for given records: the counts from byte
/// 88, the data at the padded end of the counts, zero padding, and the
/// file ending at the padded end of the data. Bytes that differ from it
/// anywhere, with every checksum re-stamped, are refused with a reason
/// naming the spot, so every accepted file re-saves to its own bytes.
#[test]
fn resealed_non_canonical_layouts_are_refused() {
    type Edit = fn(&mut Vec<u8>);
    let cases: Vec<(&str, &str, Edit)> = vec![
        (
            "16 bytes appended",
            "file is 816 bytes, its header puts the end at 800",
            |b| b.extend([0xAB; 16]),
        ),
        (
            "one record more in the header than in the file",
            "file is 800 bytes, its header puts the end at 816",
            |b| {
                let records = header_u64(b, 64) + 1;
                b[64..72].copy_from_slice(&records.to_le_bytes());
            },
        ),
        ("padding byte 268 set", "padding byte 268 is 0xff", |b| {
            // 45 cells × 4 bytes of counts end at 268, 4 bytes short of
            // the 8-aligned start of the data
            let [counts, data] = sections(b);
            assert_eq!((counts.end, data.start), (268, 272));
            b[268] = 0xFF
        }),
        ("padding byte 788 set", "padding byte 788 is 0xff", |b| {
            // Every kind writes an even number of data words (2m, 3T × 2
            // twice, 6K × 5, 4K × 3), so drop one of the 44 records to
            // leave 43 × 3 words ending at 788, 4 bytes short of the end
            b[64..72].copy_from_slice(&43u64.to_le_bytes());
            let j = first_counted_cell(b);
            let count = word(b, 0, j);
            set_word(b, 0, j, count - 1);
            b.truncate(792);
            assert_eq!(sections(b)[1].end, 788);
            b[788] = 0xFF
        }),
    ];
    let (_, original) = valid_image(Kind::Nucleus34);
    assert_eq!(original.len(), 800, "karate (3,4) image");
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
