//! Persistence round-trips: graphs through the text format,
//! hierarchies through serde JSON — decomposition results must survive.

use nucleus_hierarchy::gen::{dataset, Scale};
use nucleus_hierarchy::graph::io;
use nucleus_hierarchy::prelude::*;

#[test]
fn graph_text_round_trip_preserves_decomposition() {
    let g = dataset("mit-s", Scale::Small);
    let mut buf = Vec::new();
    io::write_edge_list(&g, &mut buf).expect("write");
    let g2 = io::read_edge_list(buf.as_slice()).expect("read");
    // The text loader remaps labels in first-seen order, so compare
    // relabeling-invariant facts: λ histogram and hierarchy shape.
    let d1 = decompose(&g, Kind::Core, Algorithm::Fnd).unwrap();
    let d2 = decompose(&g2, Kind::Core, Algorithm::Fnd).unwrap();
    assert_eq!(d1.peeling.lambda_histogram(), d2.peeling.lambda_histogram());
    assert_eq!(d1.hierarchy.nucleus_count(), d2.hierarchy.nucleus_count());
    assert_eq!(d1.hierarchy.max_lambda(), d2.hierarchy.max_lambda());
    assert_eq!(d1.hierarchy.depth(), d2.hierarchy.depth());
}

#[test]
fn hierarchy_serde_json_round_trip() {
    let g = dataset("uk2005-s", Scale::Small);
    let d = decompose(&g, Kind::Nucleus34, Algorithm::Fnd).unwrap();
    let json = serde_json::to_string(&d.hierarchy).expect("serialize");
    let back: Hierarchy = serde_json::from_str(&json).expect("deserialize");
    assert!(back == d.hierarchy);
    back.validate().expect("still valid after round trip");
}

#[test]
fn files_on_disk_round_trip() {
    let dir = std::env::temp_dir().join("nucleus-hierarchy-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("karate.txt");
    let g = nucleus_hierarchy::gen::karate::karate_club();
    io::write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
    let g2 = io::read_edge_list_file(&path).unwrap();
    assert_eq!(g2.n(), 34);
    assert_eq!(g2.m(), 78);
    std::fs::remove_file(&path).ok();
}
