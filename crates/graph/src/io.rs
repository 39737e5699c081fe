//! Graph serialization: whitespace edge-list text.
//!
//! The text format accepts the conventions of SNAP / Network Repository /
//! Matrix Market-ish exports that the paper's datasets ship in: one edge
//! per line, `#`/`%`-prefixed comment lines, whitespace or comma
//! separators, arbitrary vertex labels remapped densely on load.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::CsrGraph;
use crate::error::GraphError;

/// Read buffer of [`read_edge_list`]. Lines are copied out of it one
/// at a time into a reused buffer; the input is never held whole.
const READ_BUFFER: usize = 1 << 16;

/// Reads an edge-list from any reader.
///
/// Each line holds one edge: two non-negative integer labels (an
/// optional leading `+`, at most `u64::MAX`) separated by whitespace
/// or commas; further columns are ignored. Blank lines and lines whose
/// first non-blank character is `#` or `%` are skipped. Labels are
/// remapped to a dense `0..n` range in first-seen order. Returns the
/// graph; self-loops and duplicates are removed.
///
/// When every label is below `4 × lines + 1024`, counting edge lines,
/// labels are remapped through a table indexed by label, so its memory
/// stays proportional to the input; sparser or larger labels go through
/// a hash map.
///
/// # Errors
/// [`GraphError::Parse`] names the first line whose first two columns
/// are not labels; [`GraphError::Io`] reports a failed read, invalid
/// UTF-8, or more than `u32::MAX` distinct labels.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut reader = BufReader::with_capacity(READ_BUFFER, reader);
    let mut line = Vec::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    // Set by the first label of 2^32 or more: from then on `pairs`
    // holds vertex ids, assigned as each line is read.
    let mut ids: Option<HashMap<u64, u32>> = None;
    let mut max_label = 0u32;
    let mut lineno = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        lineno += 1;
        let Some((a, b)) = parse_line(&line, lineno)? else {
            continue;
        };
        if let Some(map) = &mut ids {
            pairs.push((intern(map, a)?, intern(map, b)?));
        } else if let (Ok(a), Ok(b)) = (u32::try_from(a), u32::try_from(b)) {
            max_label = max_label.max(a).max(b);
            pairs.push((a, b));
        } else {
            let mut map = relabel_hashed(&mut pairs)?;
            pairs.push((intern(&mut map, a)?, intern(&mut map, b)?));
            ids = Some(map);
        }
    }
    // The table costs 4 bytes per label up to the largest: at most 16
    // bytes per pair plus 4 KiB, whatever labels the input names.
    let dense = u64::from(max_label) < 4 * pairs.len() as u64 + 1024;
    let n = match ids {
        Some(map) => map.len(),
        None if dense => relabel_dense(&mut pairs, max_label)?,
        None => relabel_hashed(&mut pairs)?.len(),
    };
    Ok(CsrGraph::from_edges(n, &pairs))
}

/// Rewrites raw labels (all at most `max_label`) to first-seen vertex
/// ids in place through a table indexed by label; returns the vertex
/// count.
fn relabel_dense(pairs: &mut [(u32, u32)], max_label: u32) -> Result<usize, GraphError> {
    const UNSEEN: u32 = u32::MAX;
    let mut table = vec![UNSEEN; max_label as usize + 1];
    let mut n = 0;
    for x in pairs.iter_mut().flat_map(|(a, b)| [a, b]) {
        let id = &mut table[*x as usize];
        if *id == UNSEEN {
            *id = fresh_id(n)?;
            n += 1;
        }
        *x = *id;
    }
    Ok(n)
}

/// Rewrites raw labels to first-seen vertex ids in place through a hash
/// map, which it returns for later labels.
fn relabel_hashed(pairs: &mut [(u32, u32)]) -> Result<HashMap<u64, u32>, GraphError> {
    let mut map = HashMap::new();
    for x in pairs.iter_mut().flat_map(|(a, b)| [a, b]) {
        *x = intern(&mut map, u64::from(*x))?;
    }
    Ok(map)
}

/// The vertex id of `label`, assigning the next one on first sight.
fn intern(map: &mut HashMap<u64, u32>, label: u64) -> Result<u32, GraphError> {
    let next = map.len();
    match map.entry(label) {
        Entry::Occupied(e) => Ok(*e.get()),
        Entry::Vacant(e) => Ok(*e.insert(fresh_id(next)?)),
    }
}

/// `count` as the id of a new vertex. `u32::MAX` marks unseen labels
/// in [`relabel_dense`]'s table, so it is never an id.
fn fresh_id(count: usize) -> Result<u32, GraphError> {
    u32::try_from(count)
        .ok()
        .filter(|&id| id != u32::MAX)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "edge list names more than u32::MAX distinct vertices",
            )
            .into()
        })
}

/// The two labels of one line (including its `\n`), or `None` for a
/// blank or comment line.
///
/// All-ASCII lines are scanned as bytes. Any other line goes through
/// `str`, so Unicode whitespace still separates and trims, and invalid
/// UTF-8 is an error.
fn parse_line(line: &[u8], lineno: usize) -> Result<Option<(u64, u64)>, GraphError> {
    if !line.is_ascii() {
        let line = std::str::from_utf8(line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            return Ok(None);
        }
        let mut parts = trimmed
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty());
        let mut label = || parts.next().and_then(|t| t.parse::<u64>().ok());
        return match (label(), label()) {
            (Some(a), Some(b)) => Ok(Some((a, b))),
            _ => Err(parse_error(lineno, trimmed.chars())),
        };
    }
    let start = line
        .iter()
        .position(|&b| !is_blank(b))
        .unwrap_or(line.len());
    if matches!(line.get(start), None | Some(b'#' | b'%')) {
        return Ok(None);
    }
    let mut at = start;
    match (scan_label(line, &mut at), scan_label(line, &mut at)) {
        (Some(a), Some(b)) => Ok(Some((a, b))),
        _ => {
            let end = line
                .iter()
                .rposition(|&b| !is_blank(b))
                .map_or(start, |i| i + 1);
            let trimmed = &line[start..end];
            Err(parse_error(lineno, trimmed.iter().map(|&b| char::from(b))))
        }
    }
}

/// `char::is_whitespace` on ASCII: `\t`, `\n`, `\v`, `\f`, `\r` and space.
fn is_blank(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Parses the next label of an ASCII line, from `*at` past any
/// separators, as `u64::from_str` does: an optional `+`, then at least
/// one digit, within range. Moves `*at` past it; `None` when the next
/// token is missing or not a label.
fn scan_label(line: &[u8], at: &mut usize) -> Option<u64> {
    let separator = |b: u8| is_blank(b) || b == b',';
    let mut i = *at;
    while line.get(i).is_some_and(|&b| separator(b)) {
        i += 1;
    }
    if line.get(i) == Some(&b'+') {
        i += 1;
    }
    let digits = i;
    let mut label = 0u64;
    while let Some(&b) = line.get(i) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            if separator(b) {
                break;
            }
            return None;
        }
        label = label.checked_mul(10)?.checked_add(u64::from(digit))?;
        i += 1;
    }
    if i == digits {
        return None;
    }
    *at = i;
    Some(label)
}

fn parse_error(line: usize, trimmed: impl Iterator<Item = char>) -> GraphError {
    GraphError::Parse {
        line,
        content: trimmed.take(80).collect(),
    }
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

    /// The line-at-a-time `String` reader [`read_edge_list`] replaced:
    /// the reference its graphs and errors must match.
    fn read_edge_list_reference<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
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
            let u = intern(a, &mut remap);
            let v = intern(b, &mut remap);
            edges.push((u, v));
        }
        let n = remap.len();
        Ok(CsrGraph::from_edges(n, &edges))
    }

    /// Panics unless both readers return the same graph or the same
    /// error for `input`.
    fn assert_matches_reference(input: &[u8]) {
        let got = read_edge_list(input);
        let want = read_edge_list_reference(input);
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.n(), w.n(), "n for {input:?}");
                assert_eq!(
                    g.edge_endpoints(),
                    w.edge_endpoints(),
                    "edges for {input:?}"
                );
                for v in w.vertices() {
                    assert_eq!(g.neighbors(v), w.neighbors(v), "N({v}) for {input:?}");
                    assert_eq!(
                        g.neighbor_edge_ids(v),
                        w.neighbor_edge_ids(v),
                        "edge ids of {v} for {input:?}"
                    );
                }
            }
            (
                Err(GraphError::Parse { line, content }),
                Err(GraphError::Parse {
                    line: want_line,
                    content: want_content,
                }),
            ) => assert_eq!((line, content), (want_line, want_content), "{input:?}"),
            (Err(GraphError::Io(_)), Err(GraphError::Io(_))) => {}
            (got, want) => panic!("{input:?}: got {got:?}, reference gave {want:?}"),
        }
    }

    /// xorshift64: deterministic inputs with no rand dependency.
    fn rng(mut state: u64) -> impl FnMut(usize) -> usize {
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        }
    }

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

    #[test]
    fn grammar_cases_match_the_reference() {
        for input in [
            "",
            "\n\n",
            "# c\r\n% d\r\n10,20 5\r\n20\t30\r\n+30 10 x\r\n1000000000000 10\r\n",
            "1 2\n2 3\n3 x\n",
            "+ 1 2\n",
            "++1 2\n",
            "-1 2\n",
            "1 -2\n",
            "1\n",
            ",1,,2,\n",
            " \x0b1\x0c2\r\n",
            "1 2 junk \u{2003} more\n",
            "1\u{a0}2\n",
            "\u{2003}#1 2\n3 4\n",
            "\u{a0}\n1 2\n",
            "1 18446744073709551615\n18446744073709551615 2\n",
            "1 18446744073709551616\n",
            "5 6\n# \u{ff}\n",
            "0001 01\n1 2",
            "1\x002\n",
            "7 7\n7 8\n8 7\n",
            "1 2\n2 3\n4294967296 1\n3 4\n",
        ] {
            assert_matches_reference(input.as_bytes());
        }
        for input in [&b"1 2\n\xff 3\n"[..], b"1 2\n# \xc3\n", b"\xc3\xa9 1\n"] {
            assert_matches_reference(input);
        }
    }

    #[test]
    fn dense_and_hashed_relabeling_agree_with_the_reference() {
        // One shape under three label offsets: the dense table, the
        // hash map for sparse u32 labels, and the u64 path. Shifting
        // every label keeps first-seen order, so the graphs are equal.
        let mut next = rng(0x243f_6a88_85a3_08d3);
        let shape: Vec<(u64, u64)> = (0..500)
            .map(|_| (next(300) as u64, next(300) as u64))
            .collect();
        let mut graphs = Vec::new();
        for offset in [0u64, 3_000_000, 1 << 40] {
            let text: String = shape
                .iter()
                .map(|&(a, b)| format!("{} {}\n", a + offset, b + offset))
                .collect();
            assert_matches_reference(text.as_bytes());
            graphs.push(read_edge_list(text.as_bytes()).unwrap());
        }
        for g in &graphs[1..] {
            assert_eq!(g.n(), graphs[0].n());
            assert_eq!(g.edge_endpoints(), graphs[0].edge_endpoints());
        }
    }

    #[test]
    fn ids_stop_below_u32_max() {
        assert_eq!(fresh_id(0).unwrap(), 0);
        assert_eq!(fresh_id(u32::MAX as usize - 1).unwrap(), u32::MAX - 1);
        assert!(matches!(
            fresh_id(u32::MAX as usize),
            Err(GraphError::Io(_))
        ));
        assert!(matches!(fresh_id(usize::MAX), Err(GraphError::Io(_))));
    }

    /// A label for a well-formed line: small (the dense table), from
    /// 10^6 (sparse) or from 2^32 (the u64 path). `big` in 0..3 sets
    /// how often the large ones appear: never, rarely or often.
    fn label(next: &mut impl FnMut(usize) -> usize, big: usize) -> u64 {
        match next(32) {
            0..=1 if big > 0 => 1_000_000 + next(3) as u64,
            2..=3 if big > 0 => (1 << 32) + next(3) as u64,
            4..=11 if big > 1 => 1_000_000 + next(3) as u64,
            _ => next(25) as u64,
        }
    }

    /// Random byte strings over the grammar's alphabet and its edge
    /// cases: the reader returns exactly the reference's graph or error.
    #[test]
    fn random_inputs_match_the_reference() {
        const PIECES: &[&[u8]] = &[
            b"0",
            b"1",
            b"7",
            b"42",
            b"18446744073709551615",
            b"18446744073709551616",
            b"1000000",
            b"4294967296",
            b"+",
            b"-",
            b",",
            b"\t",
            b"\r",
            b"\r\n",
            b"#",
            b"%",
            b"\x0b",
            b"\x0c",
            "\u{a0}".as_bytes(),
            "\u{2003}".as_bytes(),
            b"\xff",
            b"\xc3",
            b"x",
        ];
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..20_000 {
            let mut input = Vec::new();
            let big = next(3);
            for _ in 0..next(40) {
                match next(10) {
                    // mostly well-formed lines, so whole graphs get built
                    0..=4 => {
                        let (a, b) = (label(&mut next, big), label(&mut next, big));
                        let sep = [" ", "\t", ",", " , ", "\u{a0}"][next(5)];
                        input.extend_from_slice(format!("{a}{sep}{b}").as_bytes());
                    }
                    5..=6 => input.extend_from_slice(b" "),
                    7 => input.extend_from_slice(b"\n"),
                    _ => input.extend_from_slice(PIECES[next(PIECES.len())]),
                }
                if next(3) == 0 {
                    input.push(b'\n');
                }
            }
            assert_matches_reference(&input);
        }
    }

    /// Byte-level fuzz over a valid edge list: flips, truncations,
    /// random extensions and zeroed ranges give a graph or a typed
    /// error, never a panic.
    #[test]
    fn fuzzed_edge_lists_never_panic() {
        let mut text = Vec::new();
        let g = CsrGraph::from_edges(
            30,
            &(0..60).map(|i| (i % 30, i * 7 % 30)).collect::<Vec<_>>(),
        );
        write_edge_list(&g, &mut text).unwrap();
        let mut next = rng(0x5eed);
        for _ in 0..2_000 {
            let mut bytes = text.clone();
            for _ in 0..1 + next(3) {
                match next(4) {
                    0 if !bytes.is_empty() => {
                        let i = next(bytes.len());
                        bytes[i] ^= 1 + next(255) as u8;
                    }
                    1 => bytes.truncate(next(bytes.len() + 1)),
                    2 => bytes.extend((0..1 + next(64)).map(|_| next(256) as u8)),
                    _ if !bytes.is_empty() => {
                        let start = next(bytes.len());
                        let end = (start + 1 + next(32)).min(bytes.len());
                        bytes[start..end].fill(0);
                    }
                    _ => {}
                }
            }
            match read_edge_list(bytes.as_slice()) {
                Ok(_) | Err(GraphError::Parse { .. } | GraphError::Io(_)) => {}
                Err(other) => panic!("untyped error {other}"),
            }
            assert_matches_reference(&bytes);
        }
    }
}
