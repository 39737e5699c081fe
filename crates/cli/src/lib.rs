#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Implementation of the `nucleus` command-line tool.
//!
//! Subcommands:
//!
//! * `generate` — emit a synthetic graph as an edge list;
//! * `prepare` — build a materialized container index and its
//!   hierarchy once and persist both to disk;
//! * `decompose` — run a nucleus decomposition, print the hierarchy,
//!   optionally export it as JSON; `--index` skips preparation by
//!   loading a persisted index;
//! * `stats` — basic structural statistics of a graph;
//! * `update` — apply a batched edge-mutation stream (`+ U V`/`- U V`
//!   lines) to a graph with `nucleus-dynamic`, reporting what changed
//!   and optionally verifying against a full recompute;
//! * `serve` — run the concurrent query service (`nucleus-serve`) over
//!   a prepared space, speaking line-delimited JSON on a TCP port;
//!   `--mutable` serves a dynamic graph that accepts `mutate` requests
//!   and swaps epochs;
//! * `query` — either the legacy k-truss-community lookup of an edge
//!   (`--u/--v/--k`), answered from the (2,3) hierarchy FND builds, or
//!   a one-shot protocol query answered by the same engine the server
//!   uses (`--type ...`), locally or against a running server
//!   (`--connect`).
//!
//! Argument parsing is hand-rolled (no external CLI dependency): flags
//! are `--name value` pairs, collected into [`Args`]. Each subcommand
//! accepts exactly the flags it reads; any other flag is an error
//! before the command does any work.

use std::collections::HashMap;
use std::io::Write;

use nucleus_core::prelude::*;
use nucleus_dynamic::{DynamicGraph, EdgeOp, UpdateReport};
use nucleus_gen::rmat::RmatParams;
use nucleus_graph::{io, CsrGraph};
use nucleus_serve::{serve, Client, DynamicServeState, Request, ServeConfig, ServeState};

/// Parsed command line: subcommand + `--flag value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: String,
    /// Flag → value map.
    pub flags: HashMap<String, String>,
}

impl Args {
    /// Flags that take no value: their presence means `"true"`.
    const BOOL_FLAGS: &'static [&'static str] = &["explain", "mutable", "verify"];

    /// Parses from an argv-style iterator (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut it = argv.into_iter();
        let command = it.next().unwrap_or_default();
        let mut flags = HashMap::new();
        while let Some(tok) = it.next() {
            let name = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {tok:?}"))?;
            if Self::BOOL_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value);
        }
        Ok(Args { command, flags })
    }

    /// Presence of a boolean flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Required flag.
    pub fn need(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required --{name}"))
    }

    /// Optional flag with default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(|s| s.as_str()).unwrap_or(default)
    }

    /// Optional numeric flag.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
        }
    }
}

/// Every flag each subcommand reads. [`run`] rejects any other flag
/// before the command starts, so a typo cannot run silently with
/// defaults; [`USAGE`] lists each of them.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    (
        "generate",
        "model out seed n m p k scale blocks block-size p-in p-out count",
    ),
    ("prepare", "input kind out threads"),
    (
        "decompose",
        "input kind index algo backend threads explain json dot depth",
    ),
    ("stats", "input"),
    ("update", "input ops kind batch out json verify"),
    (
        "serve",
        "graph input index kind mutable bind port workers algo queue-depth timeout-ms \
         max-line-bytes signal-file addr-file threads",
    ),
    (
        "query",
        "input u v k type request cell node limit algo id index kind threads connect",
    ),
];

/// The flags each `generate` model reads besides `--seed`, as
/// [`USAGE`] pairs them. [`cmd_generate`] rejects any other model flag
/// before generating.
const MODEL_FLAGS: &[(&str, &str)] = &[
    ("er", "n p"),
    ("ba", "n m"),
    ("hk", "n m p"),
    ("ws", "n k p"),
    ("rmat", "scale m"),
    ("planted", "blocks block-size p-in p-out"),
    ("cliques", "count"),
    ("karate", ""),
];

/// Rejects any flag `args.command` does not read, naming the flag and
/// the subcommand. Commands without an entry in [`COMMAND_FLAGS`]
/// (help, unknown commands) take no flags worth checking.
fn check_flags(args: &Args) -> Result<(), String> {
    let Some((_, known)) = COMMAND_FLAGS.iter().find(|(c, _)| *c == args.command) else {
        return Ok(());
    };
    // `min` picks the same offender on every run (the map is unordered).
    let unknown = args
        .flags
        .keys()
        .filter(|f| !known.split_whitespace().any(|k| k == f.as_str()));
    match unknown.min() {
        None => Ok(()),
        Some(flag) => Err(format!(
            "unknown flag --{flag} for `nucleus {}` (see `nucleus help`)",
            args.command
        )),
    }
}

/// Usage text.
pub const USAGE: &str = "\
nucleus — dense-subgraph hierarchies (Sariyuce & Pinar, VLDB 2016)

USAGE:
  nucleus generate  --model <er|ba|hk|rmat|ws|planted|cliques|karate> [model flags] --out FILE
  nucleus prepare   --input FILE --kind <see below> --out INDEX [--threads N]
  nucleus decompose --input FILE
                    --kind <core|vertex-triangle|truss|edge-k4|nucleus34>
                           (or the (r,s) pair: 1,2 | 1,3 | 2,3 | 2,4 | 3,4)
                    [--index INDEX] [--algo <naive|dft|fnd|lcps>]
                    [--backend <auto|lazy|materialized>]
                    [--threads N] [--explain]
                    [--json FILE] [--dot FILE] [--depth N]
  nucleus stats     --input FILE
  nucleus update    --input FILE --ops OPS
                    [--kind KIND] [--batch N] [--out FILE]
                    [--json FILE] [--verify]
  nucleus serve     --graph FILE [--index INDEX | --kind KIND]
                    [--mutable] [--bind ADDR] [--port P] [--workers N] [--algo A]
                    [--queue-depth N] [--timeout-ms MS] [--max-line-bytes B]
                    [--signal-file FILE] [--addr-file FILE] [--threads N]
  nucleus query     --input FILE --u U --v V --k K        (k-truss edge lookup, K >= 1)
  nucleus query     ( --type <lambda|nuclei-of|members|subtree|density|
                              densest|level-profile|stats>
                      [--cell C] [--node N] [--limit L] [--algo A] [--id I]
                    | --request JSON )
                    ( --input FILE [--index INDEX | --kind KIND] [--threads N]
                    | --connect HOST:PORT )

model flags (every model also takes --seed S):
  er --n N --p P    ba --n N --m M    hk --n N --m M --p P    ws --n N --k K --p P
  rmat --scale S --m M    planted --blocks B --block-size Z --p-in P --p-out P
  cliques --count C
examples:
  nucleus generate --model ba --n 10000 --m 5 --out web.txt
  nucleus decompose --input web.txt --kind truss --algo fnd --depth 3
  nucleus decompose --input web.txt --kind 2,4 --explain
  nucleus prepare   --input web.txt --kind truss --out web.truss.nidx
  nucleus decompose --input web.txt --index web.truss.nidx --algo dft

With --index, --kind is optional (the index file stores the family) and
must agree with the file when given; the index is rejected if the graph
changed since `prepare`. `serve` and `query` answer from the hierarchy
the index stores, with no peel; `decompose` peels and refuses an index
whose stored hierarchy differs from its own.

`update` reads OPS as one op per line (`+ U V`, `- U V`, `#` comments),
applies it in `--batch`-sized batches (0 = one batch) with exact
incremental maintenance for core/truss and scoped recompute for the
higher kinds, and prints a JSON report; `--verify` cross-checks the
maintained lambdas against a full recompute, `--out` writes the mutated
edge list.

`serve` speaks line-delimited JSON (one request object per line, one
response per line) on --bind (default 127.0.0.1); `--port 0` binds an
ephemeral port, written to --addr-file for scripts. --input is an alias
of --graph, and --queue-depth sizes the hand-off queue between the
accept loop and the workers. Stop it with a {\"query\":\"shutdown\"}
request or by creating the --signal-file; request metrics are dumped on
exit.
With --mutable (requires --kind, not --index), `mutate` requests apply
edge ops and atomically swap in a freshly prepared epoch; the epoch
counter is surfaced in `stats`.
";

/// Runs the CLI; returns the process exit code.
pub fn run<W: Write>(argv: Vec<String>, out: &mut W) -> Result<(), String> {
    let args = Args::parse(argv)?;
    check_flags(&args)?;
    match args.command.as_str() {
        "generate" => cmd_generate(&args, out),
        "prepare" => cmd_prepare(&args, out),
        "decompose" => cmd_decompose(&args, out),
        "stats" => cmd_stats(&args, out),
        "update" => cmd_update(&args, out),
        "serve" => cmd_serve(&args, out),
        "query" => cmd_query(&args, out),
        "" | "help" | "--help" | "-h" => {
            let _ = write!(out, "{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn load_graph(args: &Args) -> Result<CsrGraph, String> {
    let path = args.need("input")?;
    io::read_edge_list_file(path).map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_generate<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let model = args.need("model")?;
    if let Some((_, own)) = MODEL_FLAGS.iter().find(|(m, _)| *m == model) {
        let reads = |f: &str| {
            ["model", "out", "seed"].contains(&f) || own.split_whitespace().any(|o| o == f)
        };
        // `min` picks the same offender on every run (the map is unordered).
        if let Some(flag) = args.flags.keys().filter(|f| !reads(f)).min() {
            return Err(format!(
                "--{flag} does not apply to --model {model} (see `nucleus help`)"
            ));
        }
    }
    let seed: u64 = args.num("seed", 42u64)?;
    let n: u32 = args.num("n", 1000u32)?;
    // Every model's parameters are checked here, before generating, so
    // a bad flag is an error naming it rather than a generator panic.
    let g = match model {
        "er" => nucleus_gen::er::gnp(n, probability(args, "p", 0.01)?, seed),
        "ba" => nucleus_gen::ba::barabasi_albert(n, attachments(args, n)?, seed),
        "hk" => nucleus_gen::holme_kim::holme_kim(
            n,
            attachments(args, n)?,
            probability(args, "p", 0.7)?,
            seed,
        ),
        "rmat" => {
            let scale: u32 = args.num("scale", 12u32)?;
            if scale > 31 {
                return Err(format!(
                    "--scale must be at most 31 (vertex ids are 32-bit), got {scale}"
                ));
            }
            let edge_factor = args.num("m", 8u32)?;
            nucleus_gen::rmat::rmat(scale, edge_factor, RmatParams::skewed(), seed)
        }
        "ws" => {
            let k: u32 = args.num("k", 6u32)?;
            if !(k.is_multiple_of(2) && k >= 2 && k < n) {
                return Err(format!(
                    "--k must be even, at least 2 and below --n ({n}), got {k}"
                ));
            }
            nucleus_gen::ws::watts_strogatz(n, k, probability(args, "p", 0.1)?, seed)
        }
        "planted" => {
            let blocks: u32 = args.num("blocks", 10u32)?;
            let block_size: u32 = args.num("block-size", 50u32)?;
            if blocks.checked_mul(block_size).is_none() {
                return Err(format!(
                    "--blocks × --block-size must fit 32-bit vertex ids, got {blocks} × {block_size}"
                ));
            }
            nucleus_gen::planted::planted_partition(
                blocks,
                block_size,
                probability(args, "p-in", 0.3)?,
                probability(args, "p-out", 0.01)?,
                seed,
            )
        }
        "cliques" => {
            let count: u32 = args.num("count", 20u32)?;
            if count == 0 {
                return Err("--count must be at least 1".to_string());
            }
            nucleus_gen::planted::planted_cliques(count, &[10, 16, 22], seed)
        }
        "karate" => nucleus_gen::karate::karate_club(),
        other => return Err(format!("unknown model {other:?}")),
    };
    let path = args.need("out")?;
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    io::write_edge_list(&g, file).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "wrote {path}: {} vertices, {} edges", g.n(), g.m());
    Ok(())
}

/// A probability flag of `generate`: a number in [0, 1].
fn probability(args: &Args, name: &str, default: f64) -> Result<f64, String> {
    let p: f64 = args.num(name, default)?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("--{name} must be in [0, 1], got {p}"))
    }
}

/// `--m` of the preferential-attachment models: the links each new
/// vertex makes, at least 1 and below `--n`.
fn attachments(args: &Args, n: u32) -> Result<u32, String> {
    let m: u32 = args.num("m", 3u32)?;
    if m == 0 || m >= n {
        return Err(format!(
            "--m must be at least 1 and below --n ({n}), got {m}"
        ));
    }
    Ok(m)
}

// Spelling → value parsing lives in nucleus-core (`Kind::parse` & co.),
// so the accepted sets — and the error messages enumerating them — have
// one home and can never drift from what the library supports.

fn parse_kind(s: &str) -> Result<Kind, String> {
    Kind::parse(s).map_err(|e| e.to_string())
}

fn parse_algo(s: &str) -> Result<Algorithm, String> {
    Algorithm::parse(s).map_err(|e| e.to_string())
}

fn parse_backend(s: &str) -> Result<Backend, String> {
    Backend::parse(s).map_err(|e| e.to_string())
}

fn cmd_prepare<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let g = load_graph(args)?;
    let kind = parse_kind(args.need("kind")?)?;
    let out_path = args.need("out")?;
    let prepared = Nucleus::builder(&g)
        .kind(kind)
        .backend(Backend::Materialized)
        .threads(args.num("threads", 0usize)?)
        .prepare()
        .map_err(|e| e.to_string())?;
    prepared.save(out_path).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    let _ = writeln!(
        out,
        "wrote {out_path}: {} {} index, {} cells, {} containers, {bytes} bytes",
        kind.name(),
        kind,
        prepared.cells(),
        prepared.containers(),
    );
    Ok(())
}

/// Loads the persisted index `--index` names, if any. `--kind` is
/// optional next to it (the file stores the family) but must agree
/// with the file when given.
fn load_index(args: &Args) -> Result<Option<PreparedIndex>, String> {
    let Some(index_path) = args.flags.get("index") else {
        return Ok(None);
    };
    let index = PreparedIndex::load(index_path).map_err(|e| e.to_string())?;
    if let Some(spec) = args.flags.get("kind") {
        let requested = parse_kind(spec)?;
        if requested != index.kind() {
            return Err(format!(
                "--kind {} conflicts with {index_path}, which stores a {} ({}) index",
                requested.name(),
                index.kind().name(),
                index.kind(),
            ));
        }
    }
    Ok(Some(index))
}

fn cmd_decompose<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let g = load_graph(args)?;
    let algo = parse_algo(args.get_or("algo", "fnd"))?;
    let backend = parse_backend(args.get_or("backend", "auto"))?;
    let builder = Nucleus::builder(&g)
        .backend(backend)
        .threads(args.num("threads", 0usize)?);
    // Each branch rejects an algorithm the family lacks before `prepare`
    // spends time on clique enumeration / index construction the run
    // could never use.
    let prepared = match load_index(args)? {
        Some(index) => {
            nucleus_core::plan::validate(index.kind(), algo).map_err(|e| e.to_string())?;
            builder.prepare_from_index(index)
        }
        None => {
            let kind = parse_kind(args.need("kind")?)?;
            nucleus_core::plan::validate(kind, algo).map_err(|e| e.to_string())?;
            builder.kind(kind).prepare()
        }
    }
    .map_err(|e| e.to_string())?;
    if args.flag("explain") {
        let plan = prepared.plan(algo).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "{}", plan.explain());
    }
    let d = prepared.run(algo).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "{}", describe(&d));
    let depth: usize = args.num("depth", 3usize)?;
    let _ = write!(out, "{}", render_tree(&d.hierarchy, depth, 12));
    if let Some(path) = args.flags.get("json") {
        let json = serde_json::to_string_pretty(&d.hierarchy).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "hierarchy exported to {path}");
    }
    if let Some(path) = args.flags.get("dot") {
        let dot = nucleus_core::export::hierarchy_to_dot(&d.hierarchy, 200);
        std::fs::write(path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "GraphViz tree exported to {path}");
    }
    Ok(())
}

fn cmd_stats<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let g = load_graph(args)?;
    let tris = nucleus_cliques::TriangleList::build(&g);
    let k4 = nucleus_cliques::four_cliques::k4_count(&g, &tris);
    let (_, degeneracy) = nucleus_graph::order::degeneracy_order(&g);
    let (_, components) = nucleus_graph::traversal::connected_components(&g);
    let _ = writeln!(out, "vertices     {}", g.n());
    let _ = writeln!(out, "edges        {}", g.m());
    let _ = writeln!(out, "triangles    {}", tris.len());
    let _ = writeln!(out, "four-cliques {k4}");
    let _ = writeln!(out, "max degree   {}", g.max_degree());
    let _ = writeln!(out, "degeneracy   {degeneracy}");
    let _ = writeln!(out, "components   {components}");
    Ok(())
}

/// Builds the prepared session a `serve` / engine-`query` run answers
/// from: `--index FILE` loads a persisted index (which must match the
/// graph and any explicit `--kind`), otherwise `--kind` prepares from
/// scratch with the materialized backend (the right default for a
/// read-mostly serving workload).
fn prepare_for_engine(g: &CsrGraph, args: &Args) -> Result<Prepared, String> {
    let builder = Nucleus::builder(g).threads(args.num("threads", 0usize)?);
    match load_index(args)? {
        Some(index) => builder.prepare_from_index(index),
        None => builder
            .kind(parse_kind(args.need("kind")?)?)
            .backend(Backend::Materialized)
            .prepare(),
    }
    .map_err(|e| e.to_string())
}

/// Renders an [`UpdateReport`] (plus run context) as a JSON line.
fn update_report_json(
    report: &UpdateReport,
    batches: usize,
    update_ms: u128,
    n: usize,
    m: usize,
    verified: Option<bool>,
) -> String {
    let verified = match verified {
        None => "null".to_string(),
        Some(ok) => ok.to_string(),
    };
    format!(
        concat!(
            r#"{{"applied":{},"skipped":{},"coalesced":{},"inserted":{},"deleted":{},"#,
            r#""cells_changed":{},"scope_cells":{},"strategy":"{}","needs_reindex":{},"#,
            r#""batches":{},"update_ms":{},"graph_n":{},"graph_m":{},"verified":{}}}"#
        ),
        report.applied,
        report.skipped,
        report.coalesced,
        report.inserted,
        report.deleted,
        report.cells_changed,
        report.scope_cells,
        report.strategy.name(),
        report.needs_reindex,
        batches,
        update_ms,
        n,
        m,
        verified,
    )
}

fn cmd_update<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let g = load_graph(args)?;
    let ops_path = args.need("ops")?;
    let text =
        std::fs::read_to_string(ops_path).map_err(|e| format!("cannot read {ops_path}: {e}"))?;
    let ops = EdgeOp::parse_stream(&text).map_err(|e| format!("{ops_path}: {e}"))?;
    let kind = parse_kind(args.get_or("kind", "core"))?;
    let batch: usize = args.num("batch", 0usize)?;
    let mut dg = DynamicGraph::new(&g, kind);
    let t0 = std::time::Instant::now();
    let mut total = UpdateReport::default();
    let mut batches = 0usize;
    for chunk in ops.chunks(if batch == 0 { ops.len().max(1) } else { batch }) {
        total.absorb(&dg.apply(chunk));
        batches += 1;
    }
    let update_ms = t0.elapsed().as_millis();
    let verified = if args.flag("verify") {
        let snapshot = dg.to_graph();
        let maintained = dg.lambda_snapshot(&snapshot).expect("kinded graph has λ");
        let fresh = DynamicGraph::new(&snapshot, kind);
        let expect = fresh
            .lambda_snapshot(&snapshot)
            .expect("kinded graph has λ");
        if maintained != expect {
            return Err(format!(
                "--verify FAILED: maintained λ diverges from a full recompute \
                 ({} of {} cells differ)",
                maintained
                    .iter()
                    .zip(&expect)
                    .filter(|(a, b)| a != b)
                    .count(),
                expect.len(),
            ));
        }
        Some(true)
    } else {
        None
    };
    if let Some(out_path) = args.flags.get("out") {
        let file = std::fs::File::create(out_path)
            .map_err(|e| format!("cannot create {out_path}: {e}"))?;
        io::write_edge_list(&dg.to_graph(), file).map_err(|e| e.to_string())?;
    }
    let line = update_report_json(&total, batches, update_ms, dg.n(), dg.m(), verified);
    if let Some(json_path) = args.flags.get("json") {
        std::fs::write(json_path, format!("{line}\n"))
            .map_err(|e| format!("cannot write {json_path}: {e}"))?;
    }
    let _ = writeln!(out, "{line}");
    Ok(())
}

fn cmd_serve<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args
        .flags
        .get("graph")
        .or_else(|| args.flags.get("input"))
        .ok_or_else(|| "missing required --graph".to_string())?;
    if args.flag("mutable") && args.flags.contains_key("index") {
        return Err(
            "--mutable conflicts with --index: a persisted index is pinned to one \
             graph fingerprint; use --kind and let the server prepare each epoch"
                .to_string(),
        );
    }
    let g = io::read_edge_list_file(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let default_algo = parse_algo(args.get_or("algo", "fnd"))?;
    let config = ServeConfig {
        workers: args.num("workers", 4usize)?,
        request_timeout: std::time::Duration::from_millis(args.num("timeout-ms", 10_000u64)?),
        max_line_bytes: args.num("max-line-bytes", 1usize << 20)?,
        queue_depth: args.num("queue-depth", 128usize)?,
        signal_file: args.flags.get("signal-file").map(std::path::PathBuf::from),
    };
    let port: u16 = args.num("port", 0u16)?;
    let bind = args.get_or("bind", "127.0.0.1");
    let listener = std::net::TcpListener::bind((bind, port))
        .map_err(|e| format!("cannot bind {bind}:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(p) = args.flags.get("addr-file") {
        std::fs::write(p, addr.to_string()).map_err(|e| format!("cannot write {p}: {e}"))?;
    }
    let report = if args.flag("mutable") {
        let kind = parse_kind(args.need("kind")?)?;
        let state = DynamicServeState::new(&g, kind)
            .map_err(|e| e.to_string())?
            .with_default_algo(default_algo);
        let _ = writeln!(
            out,
            "serving {} {} on {addr} (mutable, epoch 0): {} workers, default algo {}",
            kind.name(),
            kind,
            config.workers.max(1),
            default_algo.name(),
        );
        let _ = out.flush();
        serve(listener, &state, &config).map_err(|e| e.to_string())?
    } else {
        let prepared = prepare_for_engine(&g, args)?;
        let kind = prepared.kind();
        let state = ServeState::new(prepared).with_default_algo(default_algo);
        let _ = writeln!(
            out,
            "serving {} {} on {addr}: {} cells, {} workers, default algo {}",
            kind.name(),
            kind,
            state.prepared().cells(),
            config.workers.max(1),
            default_algo.name(),
        );
        let _ = out.flush();
        serve(listener, &state, &config).map_err(|e| e.to_string())?
    };
    let _ = writeln!(out, "shutdown after {} connections", report.connections);
    let _ = write!(out, "{}", report.metrics.render_text());
    Ok(())
}

/// Assembles the request line an engine-mode `query` sends: either the
/// raw `--request` JSON, or one built from `--type` plus the id flags.
fn request_line(args: &Args) -> Result<String, String> {
    if let Some(raw) = args.flags.get("request") {
        return Ok(raw.clone());
    }
    let ty = args.need("type")?.replace('-', "_");
    let mut fields = vec![format!(r#""query":"{ty}""#)];
    for key in ["cell", "node", "limit", "id"] {
        if let Some(v) = args.flags.get(key) {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--{key}: bad number {v:?}"))?;
            fields.push(format!(r#""{key}":{n}"#));
        }
    }
    if let Some(a) = args.flags.get("algo") {
        fields.push(format!(r#""algo":"{a}""#));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}

/// One-shot protocol query: local (same engine as the server, no
/// network) or remote (`--connect HOST:PORT`). Prints the response
/// JSON line either way; scripts branch on its `ok` field.
fn cmd_query_engine<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let line = request_line(args)?;
    let response = if let Some(addr) = args.flags.get("connect") {
        let mut client =
            Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        client.roundtrip(&line).map_err(|e| e.to_string())?
    } else {
        let g = load_graph(args)?;
        let prepared = prepare_for_engine(&g, args)?;
        let mut state = ServeState::new(prepared);
        if let Some(a) = args.flags.get("algo") {
            state = state.with_default_algo(parse_algo(a)?);
        }
        match Request::parse(&line) {
            Err(e) => nucleus_serve::err_response(None, &e),
            Ok(req) => match state.answer(&req) {
                Ok(v) => nucleus_serve::ok_response(req.id, req.query.name(), v),
                Err(e) => nucleus_serve::err_response(req.id, &e),
            },
        }
    };
    let _ = writeln!(out, "{response}");
    Ok(())
}

fn cmd_query<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    // Engine mode: `--type`/`--request` (local or `--connect`) speak
    // the serve protocol; the flag-pair form below stays the legacy
    // k-truss edge lookup.
    if args.flags.contains_key("type")
        || args.flags.contains_key("request")
        || args.flags.contains_key("connect")
    {
        return cmd_query_engine(args, out);
    }
    // All three are required: a default would answer a query nobody
    // asked.
    let required = |name: &str| -> Result<u32, String> {
        let value = args.need(name)?;
        value
            .parse()
            .map_err(|_| format!("--{name}: bad number {value:?}"))
    };
    let (u, v, k) = (required("u")?, required("v")?, required("k")?);
    if k == 0 {
        return Err("--k: must be at least 1 (every community is a nucleus of λ ≥ 1)".to_string());
    }
    let g = load_graph(args)?;
    for (name, w) in [("u", u), ("v", v)] {
        if w as usize >= g.n() {
            return Err(format!(
                "--{name}: vertex {w} is not in the graph ({} vertices)",
                g.n()
            ));
        }
    }
    let edge = g
        .edge_id(u.min(v), u.max(v))
        .ok_or_else(|| format!("--u/--v: ({u},{v}) is not an edge of the graph"))?;
    let prepared = Nucleus::builder(&g)
        .kind(Kind::Truss)
        .threads(args.num("threads", 0usize)?)
        .prepare()
        .map_err(|e| e.to_string())?;
    let tree = prepared
        .run(Algorithm::Fnd)
        .map_err(|e| e.to_string())?
        .hierarchy;
    match tree.nucleus_of_cell_at(edge, k) {
        None => {
            let _ = writeln!(out, "no {k}-truss community contains edge ({u},{v})");
        }
        Some(node) => {
            let verts = prepared.nucleus_vertices(&tree, node);
            let _ = writeln!(
                out,
                "{k}-truss community of ({u},{v}): {} edges over {} vertices",
                tree.nucleus_cells_slice(node).len(),
                verts.len()
            );
            let _ = writeln!(out, "vertices: {verts:?}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> Result<String, String> {
        let mut buf = Vec::new();
        run(argv.iter().map(|s| s.to_string()).collect(), &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("nucleus-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_to_string(&["bogus"]).is_err());
    }

    #[test]
    fn generate_then_decompose_then_stats() {
        let path = tmp("karate.txt");
        let out = run_to_string(&["generate", "--model", "karate", "--out", &path]).unwrap();
        assert!(out.contains("34 vertices"));

        let out = run_to_string(&[
            "decompose",
            "--input",
            &path,
            "--kind",
            "core",
            "--algo",
            "lcps",
        ])
        .unwrap();
        assert!(out.contains("max λ = 4"), "got: {out}");

        let out = run_to_string(&["stats", "--input", &path]).unwrap();
        assert!(out.contains("degeneracy   4"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decompose_exports_json() {
        let graph_path = tmp("er.txt");
        run_to_string(&[
            "generate",
            "--model",
            "er",
            "--n",
            "60",
            "--p",
            "0.15",
            "--out",
            &graph_path,
        ])
        .unwrap();
        let json_path = tmp("h.json");
        let out = run_to_string(&[
            "decompose",
            "--input",
            &graph_path,
            "--kind",
            "truss",
            "--json",
            &json_path,
        ])
        .unwrap();
        assert!(out.contains("exported"));
        let data = std::fs::read_to_string(&json_path).unwrap();
        assert!(data.contains("\"nodes\""));
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn decompose_exports_dot() {
        let graph_path = tmp("dot-src.txt");
        run_to_string(&["generate", "--model", "karate", "--out", &graph_path]).unwrap();
        let dot_path = tmp("h.dot");
        let out = run_to_string(&[
            "decompose",
            "--input",
            &graph_path,
            "--kind",
            "core",
            "--dot",
            &dot_path,
        ])
        .unwrap();
        assert!(out.contains("GraphViz"));
        let dot = std::fs::read_to_string(&dot_path).unwrap();
        assert!(dot.starts_with("digraph"));
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&dot_path).ok();
    }

    #[test]
    fn decompose_backend_flags() {
        let path = tmp("backend.txt");
        run_to_string(&["generate", "--model", "karate", "--out", &path]).unwrap();
        let lazy = run_to_string(&[
            "decompose",
            "--input",
            &path,
            "--kind",
            "truss",
            "--backend",
            "lazy",
        ])
        .unwrap();
        assert!(lazy.contains("[lazy]"), "got: {lazy}");
        let mat = run_to_string(&[
            "decompose",
            "--input",
            &path,
            "--kind",
            "truss",
            "--backend",
            "materialized",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(mat.contains("[materialized]"), "got: {mat}");
        // identical hierarchies → identical renderings after the
        // timing line
        let tree = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tree(&lazy), tree(&mat));
        assert!(run_to_string(&[
            "decompose",
            "--input",
            &path,
            "--kind",
            "truss",
            "--backend",
            "bogus",
        ])
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decompose_all_five_kinds_with_explain() {
        let path = tmp("five-kinds.txt");
        run_to_string(&["generate", "--model", "karate", "--out", &path]).unwrap();
        for (name, rs) in [
            ("core", "(1,2)"),
            ("vertex-triangle", "(1,3)"),
            ("truss", "(2,3)"),
            ("edge-k4", "(2,4)"),
            ("nucleus34", "(3,4)"),
        ] {
            let out = run_to_string(&["decompose", "--input", &path, "--kind", name, "--explain"])
                .unwrap();
            assert!(out.contains("plan:"), "{name}: {out}");
            assert!(out.contains(rs), "{name}: {out}");
            assert!(out.contains("backend:"), "{name}: {out}");
            // the default engine is serial at any thread count
            assert!(out.contains("\n  engine:  serial\n"), "{name}: {out}");
        }
        // the bare (r,s) spellings select the same families
        let by_name = run_to_string(&["decompose", "--input", &path, "--kind", "edge-k4"]).unwrap();
        let by_rs = run_to_string(&["decompose", "--input", &path, "--kind", "2,4"]).unwrap();
        let tree = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tree(&by_name), tree(&by_rs));
        // unknown kinds enumerate the real set
        let err = run_to_string(&["decompose", "--input", &path, "--kind", "bogus"]).unwrap_err();
        assert!(err.contains("vertex-triangle"), "{err}");
        assert!(err.contains("edge-k4"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_finds_community() {
        let path = tmp("cliques.txt");
        run_to_string(&[
            "generate", "--model", "cliques", "--count", "3", "--out", &path,
        ])
        .unwrap();
        let out = run_to_string(&[
            "query", "--input", &path, "--u", "0", "--v", "1", "--k", "2",
        ])
        .unwrap();
        assert!(out.contains("community"), "got: {out}");
        std::fs::remove_file(&path).ok();
        // Karate's communities of edge (0,1) at each level; the TCP
        // index (nucleus_bench::algo::tcp) gives the same edge sets.
        let path = karate_graph("query-karate.txt");
        let six = "14 edges over 6 vertices\nvertices: [0, 1, 2, 3, 7, 12]\n";
        for (k, want) in [
            (
                "1",
                "1-truss community of (0,1): 54 edges over 25 vertices\n".to_string(),
            ),
            ("2", format!("2-truss community of (0,1): {six}")),
            ("3", format!("3-truss community of (0,1): {six}")),
            (
                "4",
                "no 4-truss community contains edge (0,1)\n".to_string(),
            ),
        ] {
            let argv = ["query", "--input", &path, "--u", "0", "--v", "1", "--k", k];
            let out = run_to_string(&argv).unwrap();
            assert!(out.starts_with(&want), "k = {k}: {out}");
        }
        // k = 0 names no nucleus: the root is the whole graph
        let err = karate_query_error(&path, &["--u", "0", "--v", "1", "--k", "0"]);
        assert!(err.starts_with("--k: must be at least 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The legacy lookup's failures, each on the karate club: an error
    /// naming the cause, not a panic and not an answer for edge (0,0).
    fn karate_query_error(path: &str, flags: &[&str]) -> String {
        let mut argv = vec!["query", "--input", path];
        argv.extend_from_slice(flags);
        run_to_string(&argv).unwrap_err()
    }

    fn karate_graph(name: &str) -> String {
        let path = tmp(name);
        run_to_string(&["generate", "--model", "karate", "--out", &path]).unwrap();
        path
    }

    #[test]
    fn query_requires_u_v_and_k() {
        let path = karate_graph("query-missing.txt");
        for (flags, missing) in [
            (&["--k", "2"][..], "--u"),
            (&["--u", "0", "--k", "2"][..], "--v"),
            (&["--u", "0", "--v", "1"][..], "--k"),
        ] {
            let err = karate_query_error(&path, flags);
            assert!(
                err.contains(&format!("missing required {missing}")),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_refuses_vertices_outside_the_graph() {
        let path = karate_graph("query-range.txt");
        let err = karate_query_error(&path, &["--u", "99", "--v", "100", "--k", "2"]);
        assert!(
            err.contains("--u: vertex 99 is not in the graph (34 vertices)"),
            "{err}"
        );
        let err = karate_query_error(&path, &["--u", "0", "--v", "99", "--k", "2"]);
        assert!(err.contains("--v: vertex 99"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_refuses_non_edges() {
        let path = karate_graph("query-non-edge.txt");
        let err = karate_query_error(&path, &["--u", "0", "--v", "33", "--k", "2"]);
        assert!(err.contains("(0,33) is not an edge"), "{err}");
        let err = karate_query_error(&path, &["--u", "5", "--v", "5", "--k", "2"]);
        assert!(err.contains("(5,5) is not an edge"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_engine_one_shot_answers_protocol_queries() {
        let path = tmp("engine-query.txt");
        run_to_string(&[
            "generate", "--model", "cliques", "--count", "4", "--out", &path,
        ])
        .unwrap();
        let out = run_to_string(&[
            "query", "--input", &path, "--kind", "truss", "--type", "lambda", "--cell", "0",
            "--id", "7",
        ])
        .unwrap();
        assert!(
            out.starts_with(r#"{"ok":true,"id":7,"query":"lambda""#),
            "got: {out}"
        );
        let out = run_to_string(&[
            "query", "--input", &path, "--kind", "truss", "--type", "densest",
        ])
        .unwrap();
        assert!(out.contains(r#""density":"#), "got: {out}");
        let out = run_to_string(&[
            "query", "--input", &path, "--kind", "truss", "--type", "stats",
        ])
        .unwrap();
        assert!(out.contains(r#""kind":"truss""#), "got: {out}");
        // `-` spellings work, and protocol errors stay typed JSON, not
        // process failures
        let out = run_to_string(&[
            "query",
            "--input",
            &path,
            "--kind",
            "truss",
            "--type",
            "level-profile",
        ])
        .unwrap();
        assert!(out.contains(r#""query":"level_profile""#), "got: {out}");
        let out = run_to_string(&[
            "query", "--input", &path, "--kind", "truss", "--type", "lambda", "--cell", "9999999",
        ])
        .unwrap();
        assert!(out.contains(r#""code":"bad_request""#), "got: {out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_round_trip_through_the_cli_surface() {
        let path = tmp("serve-src.txt");
        run_to_string(&[
            "generate", "--model", "cliques", "--count", "4", "--out", &path,
        ])
        .unwrap();
        let addr_file = tmp("serve-addr.txt");
        std::fs::remove_file(&addr_file).ok();
        let server = {
            let argv: Vec<String> = [
                "serve",
                "--graph",
                &path,
                "--kind",
                "truss",
                "--port",
                "0",
                "--workers",
                "2",
                "--addr-file",
                &addr_file,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                run(argv, &mut buf).unwrap();
                String::from_utf8(buf).unwrap()
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never wrote {addr_file}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let q = run_to_string(&["query", "--connect", &addr, "--type", "level-profile"]).unwrap();
        assert!(q.starts_with(r#"{"ok":true"#), "got: {q}");
        let q = run_to_string(&[
            "query",
            "--connect",
            &addr,
            "--request",
            r#"{"query":"shutdown"}"#,
        ])
        .unwrap();
        assert!(q.contains("stopping"), "got: {q}");
        let served = server.join().unwrap();
        assert!(served.contains("serving truss"), "got: {served}");
        assert!(served.contains("requests 2"), "got: {served}");
        assert!(served.contains("level_profile: 1"), "got: {served}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&addr_file).ok();
    }

    #[test]
    fn update_applies_an_ops_stream_and_verifies() {
        let path = tmp("update-src.txt");
        run_to_string(&["generate", "--model", "karate", "--out", &path]).unwrap();
        let ops = tmp("update-ops.txt");
        // The edge-list reader relabels vertices by first appearance, so
        // ops are chosen against the round-tripped graph: vertex 0's
        // neighbors there are exactly 1..=16.
        std::fs::write(
            &ops,
            "# churn\n+ 0 33\n- 0 1\n+ 0 33\n- 0 2\n+ 0 30\n- 0 30\n",
        )
        .unwrap();
        let json = tmp("update-report.json");
        for (kind, strategy) in [
            ("core", "incremental"),
            ("truss", "incremental"),
            ("1,3", "scoped_recompute"),
        ] {
            let out = run_to_string(&[
                "update", "--input", &path, "--ops", &ops, "--kind", kind, "--batch", "2",
                "--verify", "--json", &json,
            ])
            .unwrap();
            assert!(out.contains(r#""applied":3"#), "{kind}: {out}");
            assert!(out.contains(r#""skipped":1"#), "{kind}: {out}");
            assert!(out.contains(r#""coalesced":2"#), "{kind}: {out}");
            assert!(
                out.contains(&format!(r#""strategy":"{strategy}""#)),
                "{kind}: {out}"
            );
            assert!(out.contains(r#""needs_reindex":true"#), "{kind}: {out}");
            assert!(out.contains(r#""verified":true"#), "{kind}: {out}");
            assert_eq!(std::fs::read_to_string(&json).unwrap(), out);
        }
        // A pure no-op stream: nothing applied, no reindex needed.
        std::fs::write(&ops, "+ 0 1\n").unwrap();
        let out = run_to_string(&["update", "--input", &path, "--ops", &ops]).unwrap();
        assert!(out.contains(r#""applied":0"#), "{out}");
        assert!(out.contains(r#""needs_reindex":false"#), "{out}");
        // --out round-trips the mutated edge list.
        std::fs::write(&ops, "- 0 1\n").unwrap();
        let mutated = tmp("update-mutated.txt");
        run_to_string(&["update", "--input", &path, "--ops", &ops, "--out", &mutated]).unwrap();
        let g2 = io::read_edge_list_file(&mutated).unwrap();
        assert_eq!(g2.m(), nucleus_gen::karate::karate_club().m() - 1);
        for f in [&path, &ops, &json, &mutated] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn mutable_serve_round_trip_through_the_cli_surface() {
        let path = tmp("mserve-src.txt");
        run_to_string(&["generate", "--model", "karate", "--out", &path]).unwrap();
        let addr_file = tmp("mserve-addr.txt");
        std::fs::remove_file(&addr_file).ok();
        let server = {
            let argv: Vec<String> = [
                "serve",
                "--graph",
                &path,
                "--kind",
                "truss",
                "--mutable",
                "--port",
                "0",
                "--workers",
                "2",
                "--addr-file",
                &addr_file,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                run(argv, &mut buf).unwrap();
                String::from_utf8(buf).unwrap()
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never wrote {addr_file}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let q = run_to_string(&["query", "--connect", &addr, "--type", "stats"]).unwrap();
        assert!(q.contains(r#""epoch":0"#), "got: {q}");
        assert!(q.contains(r#""mutable":true"#), "got: {q}");
        let q = run_to_string(&[
            "query",
            "--connect",
            &addr,
            "--request",
            r#"{"query":"mutate","ops":[["+",0,33],["-",0,1]]}"#,
        ])
        .unwrap();
        assert!(q.contains(r#""applied":2"#), "got: {q}");
        assert!(q.contains(r#""epoch":1"#), "got: {q}");
        let q = run_to_string(&["query", "--connect", &addr, "--type", "stats"]).unwrap();
        assert!(q.contains(r#""epoch":1"#), "got: {q}");
        let q = run_to_string(&[
            "query",
            "--connect",
            &addr,
            "--request",
            r#"{"query":"shutdown"}"#,
        ])
        .unwrap();
        assert!(q.contains("stopping"), "got: {q}");
        let served = server.join().unwrap();
        assert!(served.contains("mutable, epoch 0"), "got: {served}");
        assert!(served.contains("mutate: 1"), "got: {served}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&addr_file).ok();
    }

    #[test]
    fn mutable_serve_rejects_an_index() {
        let err = run_to_string(&[
            "serve",
            "--graph",
            "x.txt",
            "--index",
            "x.nidx",
            "--mutable",
        ])
        .unwrap_err();
        assert!(err.contains("--mutable conflicts with --index"), "{err}");
    }

    #[test]
    fn prepare_then_decompose_from_index() {
        let path = tmp("persist-src.txt");
        run_to_string(&["generate", "--model", "karate", "--out", &path]).unwrap();
        let idx = tmp("persist.nidx");
        let out = run_to_string(&[
            "prepare", "--input", &path, "--kind", "truss", "--out", &idx,
        ])
        .unwrap();
        assert!(out.contains("truss"), "got: {out}");
        assert!(out.contains("cells"), "got: {out}");

        // --index without --kind: the family comes from the file
        let via_index = run_to_string(&[
            "decompose",
            "--input",
            &path,
            "--index",
            &idx,
            "--algo",
            "dft",
        ])
        .unwrap();
        assert!(via_index.contains("[materialized]"), "got: {via_index}");
        let fresh = run_to_string(&[
            "decompose",
            "--input",
            &path,
            "--kind",
            "truss",
            "--algo",
            "dft",
        ])
        .unwrap();
        let tree = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tree(&via_index), tree(&fresh));

        // --explain on an indexed run names the load as the reason
        let explained =
            run_to_string(&["decompose", "--input", &path, "--index", &idx, "--explain"]).unwrap();
        assert!(explained.contains("loaded index"), "got: {explained}");

        // an agreeing --kind is fine, a conflicting one is an error
        run_to_string(&[
            "decompose",
            "--input",
            &path,
            "--index",
            &idx,
            "--kind",
            "truss",
        ])
        .unwrap();
        let err = run_to_string(&[
            "decompose",
            "--input",
            &path,
            "--index",
            &idx,
            "--kind",
            "core",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts"), "got: {err}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn index_for_a_different_graph_is_rejected() {
        let path = tmp("persist-a.txt");
        run_to_string(&["generate", "--model", "karate", "--out", &path]).unwrap();
        let idx = tmp("persist-a.nidx");
        run_to_string(&[
            "prepare", "--input", &path, "--kind", "truss", "--out", &idx,
        ])
        .unwrap();
        let other = tmp("persist-b.txt");
        run_to_string(&[
            "generate", "--model", "er", "--n", "50", "--p", "0.2", "--out", &other,
        ])
        .unwrap();
        let err = run_to_string(&["decompose", "--input", &other, "--index", &idx]).unwrap_err();
        assert!(err.contains("does not match"), "got: {err}");
        // corrupt bytes surface the typed corrupt message, not a panic
        let mut bytes = std::fs::read(&idx).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let bad = tmp("persist-bad.nidx");
        std::fs::write(&bad, &bytes).unwrap();
        let err = run_to_string(&["decompose", "--input", &path, "--index", &bad]).unwrap_err();
        assert!(err.contains("corrupt"), "got: {err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&other).ok();
        std::fs::remove_file(&idx).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn flag_parsing_errors_are_reported() {
        assert!(run_to_string(&["decompose", "--input"]).is_err());
        assert!(run_to_string(&["decompose", "badflag"]).is_err());
        let out = run_to_string(&["decompose", "--kind", "core"]);
        assert!(out.is_err()); // missing --input
    }

    /// The command lines the CI smoke steps run (shell variables stand
    /// in as plain values).
    const CI_SMOKE_LINES: &[&str] = &[
        "generate --model cliques --count 6 --out /tmp/ci-smoke.txt",
        "decompose --input /tmp/ci-smoke.txt --kind truss --explain --depth 2",
        "prepare --input /tmp/ci-smoke.txt --kind truss --out /tmp/ci-smoke.nidx",
        "decompose --input /tmp/ci-smoke.txt --index /tmp/ci-smoke.nidx --explain --depth 2",
        "generate --model er --n 100 --p 0.05 --out /tmp/ci-other.txt",
        "decompose --input /tmp/ci-other.txt --index /tmp/ci-smoke.nidx",
        "generate --model hk --n 20000 --m 5 --p 0.5 --out /tmp/ci-hk.txt",
        "decompose --input /tmp/ci-hk-mixed.txt --kind truss --json /tmp/ci-hk-mixed.json",
        "stats --input /tmp/ci-hk-mixed.txt",
        "generate --model rmat --scale 8 --out /tmp/ci-rmat.txt",
        "prepare --input /tmp/ci-rmat.txt --kind core --threads 1 --out /tmp/ci-rmat-core-t1.nidx",
        "decompose --input /tmp/ci-rmat.txt --index /tmp/ci-rmat-core-t1.nidx --explain --depth 2 \
         --json /tmp/ci-rmat-core-index.json",
        "decompose --input /tmp/ci-rmat.txt --kind core --json /tmp/ci-rmat-core-fresh.json",
        "generate --model karate --out /tmp/ci-karate.txt",
        "query --input /tmp/ci-karate.txt --u 99 --v 100 --k 2",
        "serve --graph /tmp/ci-smoke.txt --index /tmp/ci-smoke.nidx --port 0 --workers 2 \
         --addr-file /tmp/ci-serve.addr",
        "query --connect 127.0.0.1:7077 --request {}",
        "query --input /tmp/ci-smoke.txt --kind truss --type densest",
        "update --input /tmp/ci-smoke.txt --ops /tmp/ci-ops.txt --kind truss --batch 2 --verify \
         --json /tmp/ci-update.json",
        "serve --graph /tmp/ci-smoke.txt --kind truss --mutable --port 0 --workers 2 \
         --addr-file /tmp/ci-mutserve.addr",
    ];

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // A typo and the flags `decompose` no longer has (the hybrid
        // threshold and the peeling engine) all fail, naming the flag
        // and the subcommand, before any work: the input file does not
        // exist, yet the error is about the flag.
        let removed = concat!("--frontier-serial", "-below");
        for (flag, value) in [("--thread", "2"), (removed, "0"), ("--engine", "frontier")] {
            let err = run_to_string(&[
                "decompose",
                "--input",
                "no-such-graph.txt",
                "--kind",
                "truss",
                flag,
                value,
            ])
            .unwrap_err();
            assert!(
                err.contains(&format!("unknown flag {flag} for `nucleus decompose`")),
                "{err}"
            );
        }
        // A flag another subcommand reads is still unknown here.
        let err = run_to_string(&["stats", "--input", "g.txt", "--kind", "core"]).unwrap_err();
        assert!(err.contains("--kind") && err.contains("stats"), "{err}");
        // Every CI smoke command line passes the check.
        for line in CI_SMOKE_LINES {
            let args = Args::parse(line.split_whitespace().map(str::to_string)).unwrap();
            check_flags(&args).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // USAGE lists every flag a subcommand reads.
        for (command, flags) in COMMAND_FLAGS {
            for flag in flags.split_whitespace() {
                let needle = format!("--{flag}");
                let listed = USAGE.match_indices(&needle).any(|(i, _)| {
                    !USAGE[i + needle.len()..]
                        .starts_with(|c: char| c.is_alphanumeric() || c == '-')
                });
                assert!(listed, "USAGE does not list {needle} (read by {command})");
            }
        }
    }

    #[test]
    fn model_flags_match_usage_and_the_generate_row() {
        // USAGE's "model flags" block: each model name, then its flags.
        let block = USAGE.split("also takes --seed S):").nth(1).unwrap();
        let block = block.split("examples:").next().unwrap();
        let mut listed: Vec<(&str, Vec<&str>)> = vec![("karate", vec![])];
        for tok in block.split_whitespace() {
            if MODEL_FLAGS.iter().any(|(m, _)| *m == tok) {
                listed.push((tok, vec![]));
            } else if let (Some(flag), Some(last)) = (tok.strip_prefix("--"), listed.last_mut()) {
                last.1.push(flag);
            }
        }
        for (model, own) in MODEL_FLAGS {
            let (_, flags) = listed.iter().find(|(m, _)| m == model).unwrap();
            assert_eq!(
                &own.split_whitespace().collect::<Vec<_>>(),
                flags,
                "{model}"
            );
        }
        // `generate` reads exactly the models' flags plus these three.
        let (_, row) = COMMAND_FLAGS
            .iter()
            .find(|(c, _)| *c == "generate")
            .unwrap();
        let mut row: Vec<&str> = row.split_whitespace().collect();
        let mut union: Vec<&str> = ["model", "out", "seed"].into();
        union.extend(
            MODEL_FLAGS
                .iter()
                .flat_map(|(_, own)| own.split_whitespace()),
        );
        row.sort_unstable();
        union.sort_unstable();
        union.dedup();
        assert_eq!(row, union);
    }
}
