#![warn(missing_docs)]

//! Benchmark harness for regenerating the paper's evaluation
//! (Tables 1, 3, 4, 5 and Figure 6) on the offline surrogate datasets.
//!
//! Shared between the `table*`/`figure*` binaries and the criterion
//! benches: dataset selection, phase-timed algorithm runs, and
//! markdown/CSV table rendering written under `results/`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nucleus_core::algo::tcp::TcpIndex;
use nucleus_core::prelude::*;
use nucleus_gen::{dataset, Scale};
use nucleus_graph::CsrGraph;

pub mod experiments;
pub mod stats;

/// The three datasets Table 1 headlines (surrogate names).
pub const TABLE1_DATASETS: [&str; 3] = ["stanford3-s", "twitter-hb-s", "uk2005-s"];

/// All nine surrogate datasets in Table 3 row order.
pub fn all_datasets() -> &'static [&'static str] {
    nucleus_gen::dataset_names()
}

/// Parses the scale from `--scale small|medium|large` argv or the
/// `NUCLEUS_BENCH_SCALE` env var; defaults to `Medium`.
pub fn scale_from_args() -> Scale {
    let mut args = std::env::args().skip(1);
    let mut scale = std::env::var("NUCLEUS_BENCH_SCALE").unwrap_or_default();
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next() {
                scale = v;
            }
        }
    }
    match scale.as_str() {
        "small" => Scale::Small,
        "large" => Scale::Large,
        _ => Scale::Medium,
    }
}

/// Loads a surrogate dataset by name at the given scale.
pub fn load(name: &str, scale: Scale) -> CsrGraph {
    dataset(name, scale)
}

/// One timed algorithm run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Algorithm label (`Naive`, `DFT`, `FND`, `LCPS`, `Hypo`, `TCP*`).
    pub label: String,
    /// Peeling phase (includes clique enumeration).
    pub peel: Duration,
    /// Post-processing phase (traversal / BuildHierarchy / index build).
    pub post: Duration,
    /// Nuclei found (0 for baselines that do not build the hierarchy).
    pub nuclei: usize,
}

impl RunResult {
    /// Total wall time.
    pub fn total(&self) -> Duration {
        self.peel + self.post
    }
}

/// Runs one hierarchy algorithm with phase timing.
pub fn run_algorithm(g: &CsrGraph, kind: Kind, algo: Algorithm) -> RunResult {
    let d = decompose(g, kind, algo).expect("algorithm supports kind");
    RunResult {
        label: algo.to_string(),
        peel: d.times.peel,
        post: d.times.post,
        nuclei: d.hierarchy.nucleus_count(),
    }
}

/// Runs the Hypo baseline (peeling + one sweep, no hierarchy).
pub fn run_hypo(g: &CsrGraph, kind: Kind) -> RunResult {
    let (times, _comps) = hypo_baseline(g, kind);
    RunResult {
        label: "Hypo".into(),
        peel: times.peel,
        post: times.post,
        nuclei: 0,
    }
}

/// Runs peeling + TCP index construction (the Table 5 TCP* column:
/// the index alone, before any community queries).
pub fn run_tcp_construction(g: &CsrGraph) -> RunResult {
    let t0 = Instant::now();
    let es = EdgeSpace::new(g);
    let truss = peel(&es);
    let peel_t = t0.elapsed();
    let t1 = Instant::now();
    let idx = TcpIndex::build(g, &truss);
    let post_t = t1.elapsed();
    std::hint::black_box(idx.size());
    RunResult {
        label: "TCP*".into(),
        peel: peel_t,
        post: post_t,
        nuclei: 0,
    }
}

/// Formats a duration in adaptive units, `1.23s` / `56.7ms`.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Speedup of `base` over `fast` as the paper reports it (`12.58x`).
pub fn speedup(base: Duration, fast: Duration) -> String {
    if fast.is_zero() {
        return "inf".into();
    }
    format!("{:.2}x", base.as_secs_f64() / fast.as_secs_f64())
}

/// Markdown table builder.
#[derive(Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: vec![],
        }
    }

    /// Appends one row (must match the header length).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity");
        self.rows.push(row);
    }

    /// Renders GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(out, " {c:w$} |");
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{:-<1$}|", "", w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes a rendered experiment (markdown + CSV) under `results/` and
/// echoes the markdown to stdout.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("\n## {title}\n");
    println!("{}", table.to_markdown());
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.md")), table.to_markdown());
        let _ = std::fs::write(dir.join(format!("{name}.csv")), table.to_csv());
    }
}

/// Whether `NUCLEUS_BENCH_SMOKE` is set (to anything but `0`): the
/// custom-main benches then shrink their inputs and sampling so CI can
/// run them end to end in seconds.
pub fn smoke() -> bool {
    std::env::var("NUCLEUS_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Whether cargo passed `--bench` (a `cargo bench` run, not a
/// `cargo test` pass over the bench target): the custom-main benches
/// write their JSON only then.
pub fn emitting() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Where `BENCH_*.json` files land: `NUCLEUS_BENCH_RESULTS`, else
/// `results/` next to the nearest `Cargo.lock` — the criterion shim's
/// discovery, so every bench's files co-locate.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NUCLEUS_BENCH_RESULTS") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut probe = cwd.clone();
    loop {
        if probe.join("Cargo.lock").exists() {
            return probe.join("results");
        }
        if !probe.pop() {
            return cwd.join("results");
        }
    }
}

/// Writes `BENCH_{group}.json` under [`results_dir`] when
/// [`emitting`]: the group name plus one pre-rendered JSON object per
/// row, the layout the criterion shim writes.
pub fn write_bench_json(group: &str, rows: &[String]) {
    if !emitting() {
        return;
    }
    let dir = results_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("BENCH_{group}.json"));
    let body = rows
        .iter()
        .map(|r| format!("    {r}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!("{{\n  \"group\": \"{group}\",\n  \"benchmarks\": [\n{body}\n  ]\n}}\n");
    std::fs::write(&path, json).unwrap();
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "long,value"]);
        let md = t.to_markdown();
        assert!(md.contains("| a"));
        assert!(md.lines().count() == 3);
        let csv = t.to_csv();
        assert!(csv.contains("\"long,value\""));
    }

    #[test]
    fn durations_format_adaptively() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_micros(7)).ends_with("µs"));
    }

    #[test]
    fn speedup_formats() {
        assert_eq!(
            speedup(Duration::from_secs(10), Duration::from_secs(4)),
            "2.50x"
        );
    }

    #[test]
    fn small_run_produces_consistent_results() {
        let g = load("mit-s", Scale::Small);
        let fnd = run_algorithm(&g, Kind::Truss, Algorithm::Fnd);
        let dft = run_algorithm(&g, Kind::Truss, Algorithm::Dft);
        assert_eq!(fnd.nuclei, dft.nuclei);
        let hypo = run_hypo(&g, Kind::Truss);
        assert_eq!(hypo.nuclei, 0);
        let tcp = run_tcp_construction(&g);
        assert_eq!(tcp.label, "TCP*");
    }
}
