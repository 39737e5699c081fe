//! End-to-end persisted-index flow through the CLI: generate a graph,
//! `prepare --out` an index, then `decompose --index` — the output must
//! match a fresh `decompose` exactly, and a stale index must fail with
//! a non-zero (Err) result naming the mismatch.

use std::path::PathBuf;

use nucleus_hierarchy::graph::persist_io::{encode_index, IndexImage};

fn cli(argv: &[&str]) -> Result<String, String> {
    let mut out = Vec::new();
    nucleus_cli::run(argv.iter().map(|s| s.to_string()).collect(), &mut out)?;
    Ok(String::from_utf8(out).unwrap())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nucleus-integration-persist");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

/// Everything after the first line; the first line carries wall-clock
/// timings that legitimately differ between runs.
fn body(out: &str) -> String {
    out.lines().skip(1).collect::<Vec<_>>().join("\n")
}

#[test]
fn prepare_then_decompose_matches_fresh_decompose() {
    let graph = tmp("ba.txt");
    let graph_s = graph.to_str().unwrap();
    cli(&[
        "generate", "--model", "ba", "--n", "300", "--m", "4", "--seed", "11", "--out", graph_s,
    ])
    .unwrap();

    for kind in ["truss", "nucleus34"] {
        let index = tmp(&format!("ba.{kind}.nidx"));
        let index_s = index.to_str().unwrap();
        let prepared = cli(&[
            "prepare", "--input", graph_s, "--kind", kind, "--out", index_s,
        ])
        .unwrap();
        assert!(prepared.contains("wrote"), "{prepared}");

        let fresh = cli(&[
            "decompose",
            "--input",
            graph_s,
            "--kind",
            kind,
            "--algo",
            "fnd",
            "--depth",
            "4",
        ])
        .unwrap();
        let indexed = cli(&[
            "decompose",
            "--input",
            graph_s,
            "--index",
            index_s,
            "--algo",
            "fnd",
            "--depth",
            "4",
        ])
        .unwrap();
        assert_eq!(body(&fresh), body(&indexed), "{kind}: outputs diverge");

        // Redundant --kind is accepted when it agrees with the file.
        let with_kind = cli(&[
            "decompose",
            "--input",
            graph_s,
            "--index",
            index_s,
            "--kind",
            kind,
            "--algo",
            "fnd",
            "--depth",
            "4",
        ])
        .unwrap();
        assert_eq!(body(&fresh), body(&with_kind));

        // One-shot queries answer from the stored tree, byte for byte
        // as from a fresh prepare, and `stats` names the index.
        for query in [
            &["--type", "level_profile"][..],
            &["--type", "subtree", "--node", "1"],
        ] {
            let from = |source: &[&str]| {
                let argv = [&["query", "--input", graph_s][..], source, query].concat();
                cli(&argv).unwrap()
            };
            assert_eq!(
                from(&["--index", index_s]),
                from(&["--kind", kind]),
                "{query:?}"
            );
        }
        let stats = cli(&[
            "query", "--input", graph_s, "--index", index_s, "--type", "stats",
        ])
        .unwrap();
        assert!(
            stats.contains(r#""hierarchies_built":["index"]"#),
            "{stats}"
        );

        // The plan must attribute the backend to the loaded index.
        let explained = cli(&[
            "decompose",
            "--input",
            graph_s,
            "--index",
            index_s,
            "--explain",
        ])
        .unwrap();
        assert!(explained.contains("loaded index"), "{explained}");

        std::fs::remove_file(&index).ok();
    }
    std::fs::remove_file(&graph).ok();
}

#[test]
fn index_for_a_changed_graph_exits_with_an_error() {
    let graph = tmp("karate.txt");
    let graph_s = graph.to_str().unwrap();
    cli(&["generate", "--model", "karate", "--out", graph_s]).unwrap();

    let index = tmp("karate.truss.nidx");
    let index_s = index.to_str().unwrap();
    cli(&[
        "prepare", "--input", graph_s, "--kind", "truss", "--out", index_s,
    ])
    .unwrap();

    // A different graph behind the same path: the fingerprint check
    // must reject the pairing (the binary maps Err to exit code 1).
    let other = tmp("er.txt");
    let other_s = other.to_str().unwrap();
    cli(&[
        "generate", "--model", "er", "--n", "34", "--p", "0.1", "--seed", "3", "--out", other_s,
    ])
    .unwrap();
    let err = cli(&["decompose", "--input", other_s, "--index", index_s]).unwrap_err();
    assert!(err.contains("does not match"), "{err}");

    // Conflicting --kind is also refused.
    let err = cli(&[
        "decompose",
        "--input",
        graph_s,
        "--index",
        index_s,
        "--kind",
        "core",
    ])
    .unwrap_err();
    assert!(err.contains("conflicts"), "{err}");

    for p in [&graph, &index, &other] {
        std::fs::remove_file(p).ok();
    }
}

/// A resealed image whose hierarchy is canonical and agrees with ω, but
/// is not the tree peeling builds: two sibling nuclei of one λ merged
/// into one. The loader cannot tell without the peel the stored tree
/// saves, so the image loads and serves its tree; `decompose --index`
/// peels anyway, compares, and refuses it.
#[test]
fn a_wrong_canonical_tree_serves_but_decompose_refuses_it() {
    let graph = tmp("karate-merged.txt");
    let graph_s = graph.to_str().unwrap();
    cli(&["generate", "--model", "karate", "--out", graph_s]).unwrap();
    let index = tmp("karate-merged.truss.nidx");
    let index_s = index.to_str().unwrap();
    cli(&[
        "prepare", "--input", graph_s, "--kind", "truss", "--out", index_s,
    ])
    .unwrap();

    let image = IndexImage::from_bytes(std::fs::read(&index).unwrap()).unwrap();
    let (mut nodes, mut owners) = (image.nodes().to_vec(), image.owners().to_vec());
    let (a, b) = (1..nodes.len())
        .flat_map(|a| (a + 1..nodes.len()).map(move |b| (a, b)))
        .find(|&(a, b)| nodes[a] == nodes[b])
        .expect("karate's truss tree has two sibling nuclei of one λ");
    // Node b's cells and children go to node a, and later ids close up.
    let merge = |id: u32| match id as usize {
        id if id == b => a as u32,
        id if id > b => id as u32 - 1,
        id => id as u32,
    };
    nodes.remove(b);
    for node in &mut nodes[1..] {
        node.1 = merge(node.1);
    }
    for owner in &mut owners {
        *owner = merge(*owner);
    }
    let h = image.header();
    let merged = encode_index(h.r, h.s, h.fingerprint, image.records(), &nodes, &owners);
    std::fs::write(&index, merged).unwrap();

    let query = |source: &[&str], ty: &str| {
        let argv = [&["query", "--input", graph_s][..], source, &["--type", ty]].concat();
        cli(&argv).unwrap()
    };
    let served = query(&["--index", index_s], "level_profile");
    assert!(served.contains(r#""ok":true"#), "{served}");
    assert_ne!(served, query(&["--kind", "truss"], "level_profile"));
    let err = cli(&["decompose", "--input", graph_s, "--index", index_s]).unwrap_err();
    assert!(err.contains("hierarchy section"), "{err}");

    for p in [&graph, &index] {
        std::fs::remove_file(p).ok();
    }
}
