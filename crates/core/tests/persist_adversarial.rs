//! Adversarial tests for the persisted-index loader: every way the
//! bytes can be wrong — truncated, bit-flipped, mislabeled, stale —
//! must surface as a *typed* [`CoreError`], never a panic and never a
//! silently wrong index. The whole-file checksum makes most of these
//! deterministic: any byte change is caught.

use nucleus_core::decompose::{Algorithm, Backend, Kind};
use nucleus_core::error::CoreError;
use nucleus_core::hierarchy::NO_NODE;
use nucleus_core::persist::PreparedIndex;
use nucleus_core::session::Nucleus;
use nucleus_graph::persist_io::{
    hash64, FILE_HASH_RANGE, FORMAT_VERSION, HEADER_LEN, MAX_ARITY, SECTIONS,
};
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

/// Header field `at` (the u64 fields: cells at 56, records at 64,
/// nodes at 72).
fn header_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Byte ranges of the counts, data, hierarchy nodes and hierarchy owners
/// sections, where the header puts them: the counts from byte 112, each
/// later section from the padded end of the one before.
fn sections(bytes: &[u8]) -> [std::ops::Range<usize>; 4] {
    let arity = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    let [cells, records, nodes] = [56, 64, 72].map(|at| header_u64(bytes, at) as usize);
    let mut at = HEADER_LEN;
    [4 * cells, 4 * arity * records, 8 * nodes, 4 * cells].map(|len| {
        let section = at..at + len;
        at = section.end.next_multiple_of(8);
        section
    })
}

/// [`reseal`], after re-stamping every section hash (header bytes 80 to
/// 104): tampering inside a section then gets past every checksum and
/// meets the loader's structural checks. A section the header places
/// past the end of the file keeps its stale hash; the loader refuses
/// such a file on its length first.
fn reseal_sections(bytes: &mut [u8]) {
    for ((_, at), section) in SECTIONS.into_iter().zip(sections(bytes)) {
        if let Some(body) = bytes.get(section) {
            let h = hash64(body);
            bytes[at..at + 8].copy_from_slice(&h.to_le_bytes());
        }
    }
    reseal(bytes);
}

/// `u32` word `j` of section `i` (0 counts, 1 data, 2 nodes, 3 owners).
fn word(bytes: &[u8], i: usize, j: usize) -> u32 {
    let at = sections(bytes)[i].start + j * 4;
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Overwrites `u32` word `j` of section `i` (0 counts, 1 data, 2 nodes,
/// 3 owners).
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
        // The 112-byte header, then the counts, the data, the node table
        // and the owners, each padded to 8 bytes: nothing else.
        let pad8 = |len: u64| len.next_multiple_of(8) as usize;
        let arity = u64::from(u32::from_le_bytes(bytes[28..32].try_into().unwrap()));
        let [cells, records, nodes] = [56, 64, 72].map(|at| header_u64(&bytes, at));
        assert_eq!(
            bytes.len(),
            112 + pad8(4 * cells) + pad8(4 * arity * records) + pad8(8 * nodes) + pad8(4 * cells),
            "{kind}"
        );
        let index = PreparedIndex::from_bytes(bytes, "valid").unwrap();
        assert_eq!(index.kind(), kind);
        index.matches(&g).unwrap();
        let restored = Nucleus::builder(&g).prepare_from_index(index).unwrap();
        let stored = restored
            .stored_hierarchy()
            .expect("a loaded session stores its tree");
        assert_eq!(stored.len() as u64, nodes, "{kind}");
        assert_eq!(**stored, restored.run(Algorithm::Dft).unwrap().hierarchy);
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
/// the edge list, version 2 stored ω twice behind a section table, and
/// version 3 stored no hierarchy: such files are refused, not
/// reinterpreted.
#[test]
fn version_one_files_are_rejected() {
    for version in [1u32, 2, 3] {
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
/// counts-sum check or the record checks and is refused there with a
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
        // A record naming its own cell used to load, then panic inside
        // FND's forest union. The first data word is the first record
        // of the first cell with any.
        ("names the cell itself".into(), |b| {
            set_word(b, 1, 0, first_counted_cell(b) as u32)
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
    for kind in Kind::all() {
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

/// The writer emits one layout for given records and hierarchy: the
/// counts from byte 112, each later section at the padded end of the
/// one before, zero padding, and the file ending at the padded end of
/// the owners. Bytes that differ from it anywhere, with every checksum
/// re-stamped, are refused with a reason naming the spot, so every
/// accepted file re-saves to its own bytes.
#[test]
fn resealed_non_canonical_layouts_are_refused() {
    type Edit = fn(&mut Vec<u8>);
    let cases: Vec<(&str, &str, Edit)> = vec![
        (
            "16 bytes appended",
            "file is 1056 bytes, its header puts the end at 1040",
            |b| b.extend([0xAB; 16]),
        ),
        (
            "one record more in the header than in the file",
            "file is 1040 bytes, its header puts the end at 1056",
            |b| {
                let records = header_u64(b, 64) + 1;
                b[64..72].copy_from_slice(&records.to_le_bytes());
            },
        ),
        ("padding byte 292 set", "padding byte 292 is 0xff", |b| {
            // 45 cells × 4 bytes of counts end at 292, 4 bytes short of
            // the 8-aligned start of the data
            let [counts, data, ..] = sections(b);
            assert_eq!((counts.end, data.start), (292, 296));
            b[292] = 0xFF
        }),
        ("padding byte 812 set", "padding byte 812 is 0xff", |b| {
            // Every kind writes an even number of data words (2m, 3T × 2
            // twice, 6K × 5, 4K × 3), so drop the last of the 44 records
            // to leave 43 × 3 words ending at 812, 4 bytes short of the
            // node table, which moves 8 bytes earlier
            b[64..72].copy_from_slice(&43u64.to_le_bytes());
            let j = first_counted_cell(b);
            let count = word(b, 0, j);
            set_word(b, 0, j, count - 1);
            b.drain(812..820);
            assert_eq!(sections(b)[1].end, 812);
            b[812] = 0xFF
        }),
        ("padding byte 1036 set", "padding byte 1036 is 0xff", |b| {
            // 45 owners end 4 bytes short of the end of the file
            assert_eq!(sections(b)[3].end, 1036);
            b[1036] = 0xFF
        }),
    ];
    let (_, original) = valid_image(Kind::Nucleus34);
    assert_eq!(original.len(), 1040, "karate (3,4) image");
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

/// `(λ, parent)` of node `k`, read off the node table section.
fn node_row(bytes: &[u8], k: usize) -> (u32, u32) {
    (word(bytes, 2, 2 * k), word(bytes, 2, 2 * k + 1))
}

/// λ of `cell`: its owner's λ.
fn cell_lambda(bytes: &[u8], cell: usize) -> u32 {
    node_row(bytes, word(bytes, 3, cell) as usize).0
}

/// A hierarchy section that the format accepts, every checksum
/// re-stamped, but that is no canonical tree consistent with ω, is
/// refused with [`CoreError::IndexCorrupt`] naming the hierarchy section
/// and the check that caught it. Each kind here stores at least three
/// nodes, two children of the root as nodes 1 and 2, which the swap
/// case exchanges.
#[test]
fn resealed_hierarchy_damage_is_refused() {
    type Edit = fn(&mut Vec<u8>);
    let cases: Vec<(&str, &str, Edit)> = vec![
        ("an owner past the node table", "is not a node", |b| {
            let nodes = header_u64(b, 72) as u32;
            set_word(b, 3, 0, nodes)
        }),
        ("a parent at or after its child", "bad parent", |b| {
            let last = header_u64(b, 72) as usize - 1;
            set_word(b, 2, 2 * last + 1, last as u32)
        }),
        ("a child λ not above its parent's", "bad parent", |b| {
            // The last node moves under node 1 and takes its λ, which
            // is no larger than its own and at least 1: ω still holds
            let (last, lambda) = (header_u64(b, 72) as usize - 1, node_row(b, 1).0);
            set_word(b, 2, 2 * last, lambda);
            set_word(b, 2, 2 * last + 1, 1)
        }),
        ("a node that owns no cell", "owns no cell", |b| {
            // The last node's cells move to node 1, whose λ is no larger
            // and at least 1: ω still holds
            let last = header_u64(b, 72) as u32 - 1;
            for cell in 0..header_u64(b, 56) as usize {
                if word(b, 3, cell) == last {
                    set_word(b, 3, cell, 1);
                }
            }
        }),
        ("two nodes swapped", "canonical", |b| {
            // Nodes 1 and 2 trade ids in the table, the parents and the
            // owners: the same tree, out of canonical order
            let (one, two) = (node_row(b, 1), node_row(b, 2));
            assert_eq!(
                (one.1, two.1),
                (0, 0),
                "nodes 1 and 2 are children of the root"
            );
            for (k, (lambda, parent)) in [(1, two), (2, one)] {
                set_word(b, 2, 2 * k, lambda);
                set_word(b, 2, 2 * k + 1, parent);
            }
            let swap = |id: u32| match id {
                1 => 2,
                2 => 1,
                id => id,
            };
            for k in 3..header_u64(b, 72) as usize {
                let parent = node_row(b, k).1;
                set_word(b, 2, 2 * k + 1, swap(parent));
            }
            for cell in 0..header_u64(b, 56) as usize {
                let owner = word(b, 3, cell);
                set_word(b, 3, cell, swap(owner));
            }
        }),
        ("a cell with λ above ω", "but lies in", |b| {
            // One container moves from a cell whose λ equals its ω to
            // another cell in a container: the counts still sum to the
            // header's records, and every record still names a cell
            // other than the one it now belongs to
            let cells = header_u64(b, 56) as usize;
            let c = (0..cells)
                .find(|&c| word(b, 0, c) >= 1 && cell_lambda(b, c) == word(b, 0, c))
                .expect("a cell whose λ is its ω");
            let omega_c = word(b, 0, c);
            set_word(b, 0, c, omega_c - 1);
            let d = (0..cells)
                .filter(|&d| d != c && word(b, 0, d) >= 1)
                .find(|&d| {
                    let mut moved = b.clone();
                    set_word(&mut moved, 0, d, word(b, 0, d) + 1);
                    !some_record_names_its_cell(&moved)
                })
                .expect("a cell that can take the container");
            let omega_d = word(b, 0, d);
            set_word(b, 0, d, omega_d + 1);
        }),
        (
            "a root-only tree over cells in containers",
            "has λ 0 but lies in",
            |b| {
                // One node row, the root, and every cell its own
                let [.., nodes, owners] = sections(b);
                let owners_len = owners.len().next_multiple_of(8);
                b.truncate(nodes.start);
                b.extend(0u32.to_le_bytes());
                b.extend(NO_NODE.to_le_bytes());
                b.extend(vec![0; owners_len]);
                b[72..80].copy_from_slice(&1u64.to_le_bytes());
            },
        ),
    ];
    for kind in [Kind::Truss, Kind::EdgeK4, Kind::Nucleus34] {
        let (_, original) = valid_image(kind);
        for (what, reason_part, edit) in &cases {
            let mut bytes = original.clone();
            edit(&mut bytes);
            reseal_sections(&mut bytes);
            match PreparedIndex::from_bytes(bytes, "resealed tree") {
                Err(CoreError::IndexCorrupt { reason, .. }) => {
                    assert!(
                        reason.contains("hierarchy section"),
                        "{kind}, {what}: {reason}"
                    );
                    assert!(reason.contains(reason_part), "{kind}, {what}: {reason}");
                }
                other => panic!("{kind}, {what}: expected IndexCorrupt, got {other:?}"),
            }
        }
    }
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

/// The cell whose records hold word `j` of the data section: the
/// counts' prefix sum, in words, against `j`.
fn cell_of_data_word(bytes: &[u8], j: usize) -> u32 {
    let arity = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    let mut end = 0;
    (0..)
        .find(|&c| {
            end += arity * word(bytes, 0, c as usize) as usize;
            j < end
        })
        .unwrap()
}

/// Whether some record names the cell it belongs to.
fn some_record_names_its_cell(bytes: &[u8]) -> bool {
    let words = sections(bytes)[1].len() / 4;
    (0..words).any(|j| word(bytes, 1, j) == cell_of_data_word(bytes, j))
}

/// Resealed fuzz of the records: one to three words of the data section
/// set to another cell, the word's own cell or a cell past the end,
/// with every checksum re-stamped, so each image meets the loader's
/// structural checks. None may panic, in the loader or in FND. An image
/// that loads runs to its stored tree, or `run` refuses it when its
/// tree differs.
#[test]
fn resealed_record_fuzz_never_panics() {
    let images = if cfg!(debug_assertions) { 300 } else { 3000 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_da7a);
    for kind in Kind::all() {
        let (g, original) = valid_image(kind);
        let words = sections(&original)[1].len() / 4;
        let cells = header_u64(&original, 56) as u32;
        let (mut refused, mut loaded, mut caught) = (0, 0, 0);
        for iter in 0..images {
            let mut bytes = original.clone();
            for _ in 0..rng.gen_range(1..=3u32) {
                let j = rng.gen_range(0..words);
                let value = match rng.gen_range(0..4u32) {
                    0 => cell_of_data_word(&bytes, j),
                    1 => cells + rng.gen_range(0..3u32),
                    _ => rng.gen_range(0..cells),
                };
                set_word(&mut bytes, 1, j, value);
            }
            reseal_sections(&mut bytes);
            let index = match PreparedIndex::from_bytes(bytes, "resealed fuzz") {
                Ok(index) => index,
                Err(CoreError::IndexCorrupt { .. }) => {
                    refused += 1;
                    continue;
                }
                Err(other) => panic!("{kind}, image {iter}: expected IndexCorrupt, got {other}"),
            };
            loaded += 1;
            let restored = Nucleus::builder(&g).prepare_from_index(index).unwrap();
            match restored.run(Algorithm::Fnd) {
                Ok(d) => assert_eq!(
                    Some(&d.hierarchy),
                    restored.stored_hierarchy().map(|t| &**t),
                    "{kind}, image {iter}"
                ),
                Err(CoreError::IndexCorrupt { .. }) => caught += 1,
                Err(other) => panic!("{kind}, image {iter}: expected IndexCorrupt, got {other}"),
            }
        }
        // Every outcome occurs: the loader refuses some images, and of
        // those it loads, some run to the stored tree and some not.
        assert!(
            refused > 0 && caught > 0 && loaded > caught,
            "{kind}: {refused} refused, {loaded} loaded, {caught} caught by run"
        );
    }
}
