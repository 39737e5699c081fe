//! Graph serialization: whitespace edge-list text.
//!
//! The text format accepts the conventions of SNAP / Network Repository /
//! Matrix Market-ish exports that the paper's datasets ship in: one edge
//! per line, `#`/`%`-prefixed comment lines, whitespace or comma
//! separators, arbitrary vertex labels remapped densely on load.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::CsrGraph;
use crate::error::GraphError;

/// Reads an edge-list from any reader.
///
/// Vertex labels may be arbitrary non-negative integers; they are
/// remapped to a dense `0..n` range in first-seen order. Returns the
/// graph; self-loops and duplicates are removed.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut remap: HashMap<u64, u32> = HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let intern = |label: u64, remap: &mut HashMap<u64, u32>| -> u32 {
        let next = remap.len() as u32;
        *remap.entry(label).or_insert(next)
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty());
        let parse = |tok: Option<&str>| -> Result<u64, GraphError> {
            tok.and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| GraphError::Parse {
                    line: lineno + 1,
                    content: trimmed.chars().take(80).collect(),
                })
        };
        let a = parse(parts.next())?;
        let b = parse(parts.next())?;
        // Extra columns (weights, timestamps) are ignored.
        let u = intern(a, &mut remap);
        let v = intern(b, &mut remap);
        edges.push((u, v));
    }
    let n = remap.len();
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Reads an edge-list file from `path`. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes `g` as a plain edge list (one `u v` pair per line).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nucleus-hierarchy edge list: n={} m={}", g.n(), g.m())?;
    for (_, u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_text_with_comments_and_commas() {
        let text = "# comment\n% another\n10 20\n20,30 999\n\n10 30\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3); // labels 10, 20, 30 remapped
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn rejects_garbage() {
        let err = read_edge_list("1 banana\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn text_round_trip() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
    }
}
