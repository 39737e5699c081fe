//! End-to-end parallel-FND flow through the CLI: `decompose --algo fnd
//! --engine frontier` must produce the same hierarchy rendering as the
//! serial engine on every peeling family, and `--explain` must name the
//! frontier engine and its hybrid-round policy.

use std::path::PathBuf;

fn cli(argv: &[&str]) -> Result<String, String> {
    let mut out = Vec::new();
    nucleus_cli::run(argv.iter().map(|s| s.to_string()).collect(), &mut out)?;
    Ok(String::from_utf8(out).unwrap())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nucleus-integration-parallel-fnd");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

/// Everything after the first line; the first line carries wall-clock
/// timings that legitimately differ between runs.
fn body(out: &str) -> String {
    out.lines().skip(1).collect::<Vec<_>>().join("\n")
}

#[test]
fn frontier_fnd_matches_serial_on_every_kind() {
    let graph = tmp("ba.txt");
    let graph_s = graph.to_str().unwrap();
    cli(&[
        "generate", "--model", "ba", "--n", "250", "--m", "4", "--seed", "7", "--out", graph_s,
    ])
    .unwrap();

    for kind in ["core", "vertex-triangle", "truss", "edge-k4", "nucleus34"] {
        let serial = cli(&[
            "decompose",
            "--input",
            graph_s,
            "--kind",
            kind,
            "--algo",
            "fnd",
            "--engine",
            "serial",
            "--depth",
            "4",
        ])
        .unwrap();
        assert!(serial.contains("[serial]"), "{kind}: {serial}");
        let frontier = cli(&[
            "decompose",
            "--input",
            graph_s,
            "--kind",
            kind,
            "--algo",
            "fnd",
            "--engine",
            "frontier",
            "--threads",
            "2",
            "--depth",
            "4",
        ])
        .unwrap();
        assert!(
            frontier.contains("[materialized][frontier]"),
            "{kind}: {frontier}"
        );
        assert_eq!(
            body(&serial),
            body(&frontier),
            "{kind}: hierarchies diverge"
        );
    }
    std::fs::remove_file(&graph).ok();
}

#[test]
fn explain_names_the_hybrid_round_policy() {
    let graph = tmp("karate.txt");
    let graph_s = graph.to_str().unwrap();
    cli(&["generate", "--model", "karate", "--out", graph_s]).unwrap();

    let explained = cli(&[
        "decompose",
        "--input",
        graph_s,
        "--kind",
        "truss",
        "--algo",
        "fnd",
        "--engine",
        "frontier",
        "--threads",
        "2",
        "--explain",
    ])
    .unwrap();
    assert!(explained.contains("plan:"), "{explained}");
    assert!(explained.contains("frontier"), "{explained}");
    assert!(explained.contains("hybrid, serial below 64"), "{explained}");

    std::fs::remove_file(&graph).ok();
}
