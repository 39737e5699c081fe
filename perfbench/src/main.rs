//! `perfbench`: the repository's end-to-end benchmark.
//!
//! Two subcommands, run as separate processes by `run.py`:
//!
//! * `gen --workload W --seed N --dir D` writes the workload's inputs
//!   (an edge list, plus a persisted index for `serve-read`) from the
//!   seed with `nucleus-gen`;
//! * `run --workload W --seed N --seconds S --trace 0|1 --dir D` reads
//!   only those files, measures for `S` seconds, checks every output
//!   against an oracle, and prints one JSON result as its last line:
//!   the end-to-end metrics untraced, the per-layer metrics traced.

mod build;
mod gen;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The query types of the serve mixes, in protocol slot order.
pub const READ_TYPES: [&str; 7] = [
    "lambda",
    "nuclei_of",
    "members",
    "subtree",
    "density",
    "densest",
    "level_profile",
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload never reaches reports 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("graph.read_s", "s"),
        ("graph.vertices", "count"),
        ("graph.edges", "count"),
        ("cliques.enumerate_s", "s"),
        ("cliques.triangle_index_s", "s"),
        ("cliques.k4_degrees_s", "s"),
        ("cliques.triangles", "count"),
        ("cliques.k4", "count"),
        ("core.prepare_s", "s"),
        ("core.prepare_self_s", "s"),
        ("core.cells", "count"),
        ("core.containers", "count"),
        ("core.index_bytes", "bytes"),
        ("core.run_fnd_s", "s"),
        ("core.fnd_classify_s", "s"),
        ("core.build_hierarchy_s", "s"),
        ("core.subnuclei", "count"),
        ("core.adj_connections", "count"),
        ("core.hierarchy_nodes", "count"),
        ("core.nodes_per_subnucleus", "ratio"),
        ("core.max_lambda", "count"),
        ("core.hierarchy_index_s", "s"),
        ("persist.load_s", "s"),
        ("persist.prepare_from_index_s", "s"),
        ("persist.index_bytes", "bytes"),
        ("serve.dynamic_state_new_s", "s"),
        ("serve.parse_us_p50", "us"),
        ("serve.render_us_p50", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for t in READ_TYPES {
        m.push((format!("serve.answer.{t}_us_p50"), "us"));
        m.push((format!("serve.answer.{t}_us_p99"), "us"));
    }
    for (n, u) in [
        ("serve.densest_scan_s", "s"),
        ("serve.transport_us_p50", "us"),
        ("serve.requests", "count"),
        ("serve.mutate_ms_p50", "ms"),
        ("serve.mutate_time_share", "ratio"),
        ("dynamic.apply_us_p50", "us"),
        ("dynamic.to_graph_ms_p50", "ms"),
        ("serve.epoch_prepare_ms_p50", "ms"),
        ("serve.epoch_hierarchy_ms_p50", "ms"),
        ("dynamic.applied_per_op", "ratio"),
        ("dynamic.coalesced", "count"),
        ("dynamic.maintain_truss_us_p50", "us"),
        ("dynamic.scope_cells", "count"),
        ("trace.uncovered_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BuildTruss,
    BuildNucleus34,
    ServeRead,
    ServeMutable,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        Ok(match s {
            "build-truss" => Workload::BuildTruss,
            "build-nucleus34" => Workload::BuildNucleus34,
            "serve-read" => Workload::ServeRead,
            "serve-mutable" => Workload::ServeMutable,
            other => return Err(format!("unknown workload `{other}`")),
        })
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: PathBuf,
}

/// What a workload run hands back: operation counts, metric values by
/// name, and human-readable lines printed before the JSON result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let cmd = it.next().ok_or("missing subcommand (gen|run)")?;
    let (mut workload, mut seed, mut seconds, mut trace, mut dir) =
        (None, 1u64, 10.0f64, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            "--dir" => dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
        dir: dir.ok_or("missing --dir")?,
    };
    Ok((cmd, args))
}

fn print_result(args: &Args, out: &Outcome) {
    for line in &out.notes {
        println!("{line}");
    }
    println!(
        "error_ratio = {} ({} of {} operations failed or mismatched the oracle)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let (cmd, args) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "gen" => gen::generate(&args).map(|()| None),
        "run" => match args.workload {
            Workload::BuildTruss | Workload::BuildNucleus34 => build::run(&args),
            Workload::ServeRead => serve::run_read(&args),
            Workload::ServeMutable => serve::run_mutable(&args),
        }
        .map(Some),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(Some(out)) => {
            print_result(&args, &out);
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
