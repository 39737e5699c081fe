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

/// karate's (2,3) FND hierarchy as compact JSON, pinned byte for byte:
/// the export format `decompose --json` writes.
const KARATE_TRUSS_JSON: &str = concat!(
    r#"{"r":2,"s":3,"nodes":[{"lambda":0,"parent":4294967295,"children":[1,2,3],"cells":[9,"#,
    r#"15,23,27,29,30,44,45,52,57,63],"subtree_cells":78},"#,
    r#"{"lambda":1,"parent":0,"children":[],"cells":[3,4,5,8,35,36,37,38,39,40],"#,
    r#""subtree_cells":10},"#,
    r#"{"lambda":1,"parent":0,"children":[4,5],"cells":[7,10,12,13,14,20,21,22,26,31,33,46,"#,
    r#"47,48,49,50,51,53,54,55,56,58,66,67,68,69,70,75,76],"subtree_cells":54},"#,
    r#"{"lambda":1,"parent":0,"children":[],"cells":[62,64,65],"subtree_cells":3},"#,
    r#"{"lambda":2,"parent":2,"children":[],"cells":[41,42,43,59,60,61,71,72,73,74,77],"#,
    r#""subtree_cells":11},"#,
    r#"{"lambda":3,"parent":2,"children":[],"cells":[0,1,2,6,11,16,17,18,19,24,25,28,32,"#,
    r#"34],"subtree_cells":14}],"#,
    r#""cell_node":[5,5,5,1,1,1,5,2,1,0,2,5,2,2,2,0,5,5,5,5,2,2,2,0,5,5,2,0,5,0,0,2,5,2,5,"#,
    r#"1,1,1,1,1,1,4,4,4,0,0,2,2,2,2,2,2,0,2,2,2,2,0,2,4,4,4,3,0,3,3,2,2,2,2,2,4,4,4,4,2,2,"#,
    r#"4],"#,
    r#""lambda":[3,3,3,1,1,1,3,1,1,0,1,3,1,1,1,0,3,3,3,3,1,1,1,0,3,3,1,0,3,0,0,1,3,1,3,1,1,"#,
    r#"1,1,1,1,2,2,2,0,0,1,1,1,1,1,1,0,1,1,1,1,0,1,2,2,2,1,0,1,1,1,1,1,1,1,2,2,2,2,1,1,2],"#,
    r#""max_lambda":3}"#,
);

#[test]
fn karate_truss_json_is_byte_stable() {
    let g = nucleus_hierarchy::gen::karate::karate_club();
    let d = decompose(&g, Kind::Truss, Algorithm::Fnd).unwrap();
    assert_eq!(
        serde_json::to_string(&d.hierarchy).unwrap(),
        KARATE_TRUSS_JSON
    );
    let back: Hierarchy = serde_json::from_str(KARATE_TRUSS_JSON).expect("deserialize");
    assert!(back == d.hierarchy);
}

/// `KARATE_TRUSS_JSON` with its only `from` replaced by `to`.
fn damaged(from: &str, to: &str) -> String {
    assert_eq!(KARATE_TRUSS_JSON.matches(from).count(), 1, "{from}");
    KARATE_TRUSS_JSON.replacen(from, to, 1)
}

/// `KARATE_TRUSS_JSON` with nodes 4 and 5, two children of node 2, trading
/// ids everywhere: a consistent tree whose nodes are out of canonical
/// (λ, first cell) order.
fn swapped_siblings() -> String {
    let mut v: serde_json::Value = serde_json::from_str(KARATE_TRUSS_JSON).unwrap();
    let serde_json::Value::Object(fields) = &mut v else {
        panic!("not an object")
    };
    for (name, field) in fields.iter_mut() {
        let serde_json::Value::Array(items) = field else {
            continue;
        };
        match name.as_str() {
            "nodes" => items.swap(4, 5),
            "cell_node" => {
                for id in items.iter_mut() {
                    if let serde_json::Value::U64(x @ (4 | 5)) = id {
                        *x = 9 - *x;
                    }
                }
            }
            _ => {}
        }
    }
    serde_json::to_string(&v).unwrap()
}

/// A one-nucleus hierarchy over `cells` cells, all of them the
/// nucleus's with λ = `lambda`, in the export format.
fn one_nucleus(r: u32, s: u32, cells: u32, lambda: u32) -> String {
    let ids: Vec<String> = (0..cells).map(|c| c.to_string()).collect();
    let each = |x: String| vec![x; cells as usize].join(",");
    format!(
        concat!(
            r#"{{"r":{r},"s":{s},"nodes":[{{"lambda":0,"parent":4294967295,"children":[1],"#,
            r#""cells":[],"subtree_cells":{cells}}},{{"lambda":{lambda},"parent":0,"#,
            r#""children":[],"cells":[{ids}],"subtree_cells":{cells}}}],"#,
            r#""cell_node":[{owners}],"lambda":[{lambdas}],"max_lambda":{lambda}}}"#
        ),
        r = r,
        s = s,
        cells = cells,
        lambda = lambda,
        ids = ids.join(","),
        owners = each("1".into()),
        lambdas = each(lambda.to_string()),
    )
}

/// Damaged hierarchy JSON gets an error, never a panic: ids past the end,
/// broken tree links, counts and owners that disagree with the deltas,
/// nodes out of canonical order, an (r, s) outside the five families and
/// a λ above what the family allows over its cells — the last two would
/// otherwise size per-level arrays by a λ of 2³² - 1.
#[test]
fn corrupt_hierarchy_json_is_rejected() {
    let cases = [
        (
            "child id past the last node",
            damaged(r#""children":[1,2,3]"#, r#""children":[1,2,3,77]"#),
        ),
        (
            "root delta past the last cell",
            damaged("57,63],", "57,63,9999],"),
        ),
        (
            "a cell in two nodes",
            damaged(r#""cells":[62,64,65]"#, r#""cells":[3,62,64,65]"#),
        ),
        (
            "a cell in the root and a nucleus",
            damaged("[9,15,23,", "[3,9,15,23,"),
        ),
        (
            "child λ not above its parent's",
            damaged(r#"{"lambda":2,"parent":2"#, r#"{"lambda":1,"parent":2"#),
        ),
        (
            "wrong subtree_cells",
            damaged(r#""subtree_cells":54"#, r#""subtree_cells":55"#),
        ),
        (
            "cell_node disagrees with the deltas",
            damaged(r#""cell_node":[5,5,5,1,"#, r#""cell_node":[5,5,5,2,"#),
        ),
        (
            "λ longer than cell_node",
            damaged(r#",2],"max_lambda""#, r#",2,0],"max_lambda""#),
        ),
        (
            "λ shorter than cell_node",
            damaged(r#",2],"max_lambda""#, r#"],"max_lambda""#),
        ),
        (
            "max λ far above every λ",
            damaged(r#""max_lambda":3"#, r#""max_lambda":4000000000"#),
        ),
        ("nodes out of canonical order", swapped_siblings()),
        ("(1,64) is not a family", one_nucleus(1, 64, 2, u32::MAX)),
        (
            "(1,3) λ above C(65535, 2)",
            one_nucleus(1, 3, 65_536, u32::MAX),
        ),
    ];
    for (what, json) in cases {
        assert!(serde_json::from_str::<Hierarchy>(&json).is_err(), "{what}");
    }
    // The same shape within bounds reads back: K5's (1,3) tree.
    let k5: Hierarchy = serde_json::from_str(&one_nucleus(1, 3, 5, 6)).expect("K5, (1,3)");
    assert_eq!((k5.max_lambda(), k5.nucleus_count()), (6, 1));
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
