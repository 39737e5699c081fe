//! `serve-read` and `serve-mutable`: a real `nucleus_serve::serve` TCP
//! server on an ephemeral port, driven by two closed-loop clients that
//! each replay a fixed, seeded request sequence for the timed window.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nucleus_core::{Algorithm, Kind, Nucleus, PreparedIndex};
use nucleus_dynamic::{DynamicGraph, EdgeOp};
use nucleus_graph::CsrGraph;
use nucleus_serve::{
    err_response, ok_response, serve, Client, DynamicServeState, ProtocolError, QueryAnswerer,
    Request, ServeConfig, ServeState,
};
use serde::Value;

use crate::build::{Counts, SETUP_ROUNDS};
use crate::gen::read_graph_file;
use crate::trace::Trace;
use crate::util::{
    hash_bytes, hierarchy_fingerprint, median, mix64, peak_rss_mib, quantile, reset_peak_rss, secs,
    tail, Rng,
};

use crate::{Args, Outcome, READ_TYPES};

/// One timed set-up round. A traced run alternates rounds with and
/// without spans, so the two medians give the tracing overhead.
struct Setup {
    secs: f64,
    traced: bool,
}

/// Whether set-up round `i` of a run records spans.
fn traced_round(trace: bool, i: usize) -> bool {
    trace && i.is_multiple_of(2)
}

/// Whether to set up once more: at least `min` rounds, then more until
/// a second of set-up time is spent (cheap set-ups repeat up to 25
/// times, so their median is steady).
fn more_setup(done: &[Setup], min: usize) -> bool {
    done.len() < min || (done.iter().map(|s| s.secs).sum::<f64>() < 1.0 && done.len() < 25)
}

fn setup_median(done: &[Setup], pick: impl Fn(&Setup) -> bool) -> f64 {
    let v: Vec<f64> = done.iter().filter(|s| pick(s)).map(|s| s.secs).collect();
    median(&v)
}

/// serve-read set-ups take seconds each (the cold `densest` scan), so
/// it repeats fewer of them than the other workloads.
const SERVE_READ_SETUP_ROUNDS: usize = 3;
/// Closed-loop clients, one connection each (the host has 2 CPUs).
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Member lists are capped as in `bench_serve`.
const MEMBER_LIMIT: u32 = 32;
/// serve-mutable: deletes (and as many inserts) per `mutate` batch, so
/// a batch holds 64 ops, the batch size of `bench_dynamic`'s batched
/// rows.
const PAIRS_PER_BATCH: usize = 32;
/// serve-mutable: reads a client sends between two of its batches. No
/// measured workload fixes this ratio; at 8 the first read after each
/// swap, which builds the new epoch's hierarchy, is about one read in
/// eight, so the read p99 lands among those first reads.
const READS_PER_BATCH: u64 = 8;
/// serve-mutable traced run: batches replayed in-process per layer.
const REPLAY_BATCHES: usize = 24;
/// Node queries on serve-read target nuclei spanning at most this many
/// vertices. `density` counts induced edges pairwise, O(V²), so the few
/// giant nuclei near the root take seconds each; the cold `densest`
/// scan in set-up already pays for all of them once.
const NODE_VERTEX_CAP: usize = 512;
/// serve-read splits its window over this many server sessions, each
/// with fresh server and client threads. Round trips of a few
/// microseconds move by ±10% from one two-second stretch to the next
/// on a shared host, so the run reports the median over sessions.
const READ_SESSIONS: usize = 10;
/// Query types of each mix, as indices into `READ_TYPES`. serve-mutable
/// leaves out `densest`, which would rescan every epoch, and `density`:
/// node ids drift across epochs and could land on a giant nucleus.
const READ_MIX: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];
const MUTABLE_MIX: [usize; 5] = [0, 1, 2, 3, 6];
/// The slot of a `mutate` request in `Rec::slot`.
const MUTATE: usize = READ_TYPES.len();

/// One completed client request.
struct Rec {
    /// Position in the client's request sequence.
    step: u64,
    /// Index into `READ_TYPES`, or `MUTATE`.
    slot: usize,
    secs: f64,
    ok: bool,
    hash: u64,
}

fn is_mutate(r: &Rec) -> bool {
    r.slot == MUTATE
}

struct ClientRun {
    /// Server session the client ran in.
    session: usize,
    /// Request-sequence id: the client's index across all sessions.
    id: usize,
    client: Client,
    recs: Vec<Rec>,
    /// Wall-clock span of the client's window.
    start: Instant,
    end: Instant,
    /// serve-mutable: the batches this client applied, in order.
    batches: Vec<Vec<EdgeOp>>,
    pool: Option<EdgePool>,
}

/// Request `step` of client `c`: the `bench_serve` read mix cycling
/// through `mix`, cell ids drawn below `cells` and node ids from
/// `nodes`, both from the seed.
fn read_line(
    seed: u64,
    c: usize,
    step: u64,
    cells: u64,
    nodes: &[u32],
    mix: &[usize],
) -> (usize, String) {
    let h = mix64(seed ^ mix64((c as u64) << 40 ^ step));
    let cell = h % cells.max(1);
    let node = nodes[((h >> 32) % nodes.len() as u64) as usize];
    let slot = mix[(step % mix.len() as u64) as usize];
    let line = match slot {
        0 => format!(r#"{{"query":"lambda","cell":{cell}}}"#),
        1 => format!(r#"{{"query":"nuclei_of","cell":{cell}}}"#),
        2 => format!(r#"{{"query":"members","node":{node},"limit":{MEMBER_LIMIT}}}"#),
        3 => format!(r#"{{"query":"subtree","node":{node}}}"#),
        4 => format!(r#"{{"query":"density","node":{node}}}"#),
        5 => r#"{"query":"densest"}"#.to_string(),
        _ => r#"{"query":"level_profile"}"#.to_string(),
    };
    (slot, line)
}

/// Renders an in-process answer exactly as the server's dispatch does.
fn render(req: &Request, res: Result<Value, ProtocolError>) -> String {
    match res {
        Ok(v) => ok_response(req.id, req.query.name(), v),
        Err(e) => err_response(req.id, &e),
    }
}

fn is_ok(resp: &str) -> bool {
    resp.starts_with(r#"{"ok":true"#)
}

fn field_u64(v: &Value, path: &[&str]) -> Option<u64> {
    let mut cur = v;
    for name in path {
        cur = cur.field(name).ok()?;
    }
    match cur {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// Runs the server and the two clients for the window; `client` drives
/// one connection and returns its records. Afterwards client 0 checks
/// the server's `stats` request count against what the clients sent and
/// shuts the server down.
fn drive<S, F>(
    state: &S,
    listener: TcpListener,
    out: &mut Outcome,
    client: F,
) -> Result<Vec<ClientRun>, String>
where
    S: QueryAnswerer,
    F: Fn(usize, SocketAddr, &Barrier) -> Result<ClientRun, String> + Sync,
{
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(listener, state, &config));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (client, barrier) = (&client, &barrier);
                scope.spawn(move || client(c, addr, barrier))
            })
            .collect();
        let runs: Vec<Result<ClientRun, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect();
        // Whatever happened, stop the server before leaving the scope.
        let stop = |c: &mut Client| c.roundtrip(r#"{"query":"shutdown"}"#);
        let mut runs = match runs.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(runs) => runs,
            Err(e) => {
                let _ = Client::connect(addr).and_then(|mut c| stop(&mut c));
                let _ = server.join();
                return Err(e);
            }
        };
        let sent: u64 = runs.iter().map(|r| r.recs.len() as u64).sum();
        let stats = runs[0].client.request(r#"{"query":"stats"}"#);
        let _ = stop(&mut runs[0].client);
        server
            .join()
            .map_err(|_| "server panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        let stats = stats.map_err(|e| format!("stats: {e}"))?;
        let served = field_u64(&stats, &["result", "metrics", "requests"]).unwrap_or(0);
        out.attempted += 1;
        if served != sent {
            out.failed += 1;
            out.note(format!(
                "server stats: {served} requests served, but the clients sent {sent}"
            ));
        }
        *out.metrics
            .entry("serve.requests".to_string())
            .or_insert(0.0) += served as f64;
        Ok(runs)
    })
}

/// Latency and throughput metrics common to both serve workloads, each
/// taken per server session; a run reports the median over its
/// sessions. `latency_ms_p50` is the median round trip of the requests
/// `p50_of` picks, `latency_ms_tail` the tail of those `tail_of` picks,
/// and throughput counts every request. Returns the p50, the tail's
/// percentile and the tail.
fn latency_metrics(
    runs: &[ClientRun],
    out: &mut Outcome,
    p50_of: impl Fn(&Rec) -> bool,
    tail_of: impl Fn(&Rec) -> bool,
) -> (f64, f64, f64) {
    let sessions = runs.iter().map(|r| r.session + 1).max().unwrap_or(0);
    let (mut p50s, mut tails, mut qps, mut pct, mut total) = (vec![], vec![], vec![], 0.0, 0);
    for s in 0..sessions {
        let part: Vec<&ClientRun> = runs.iter().filter(|r| r.session == s).collect();
        let ms = |pick: &dyn Fn(&Rec) -> bool| -> Vec<f64> {
            part.iter()
                .flat_map(|r| r.recs.iter().filter(|x| pick(x)).map(|x| x.secs * 1e3))
                .collect()
        };
        let ops: usize = part.iter().map(|r| r.recs.len()).sum();
        let start = part.iter().map(|r| r.start).min().expect("clients ran");
        let end = part.iter().map(|r| r.end).max().expect("clients ran");
        let (p, t) = tail(&ms(&tail_of));
        p50s.push(median(&ms(&p50_of)));
        tails.push(t);
        qps.push(ops as f64 / secs(end.duration_since(start)));
        pct = p;
        total += ops;
    }
    let (p50, tail_ms, qps) = (median(&p50s), median(&tails), median(&qps));
    out.set("latency_ms_p50", p50);
    out.set("latency_ms_tail", tail_ms);
    out.set("throughput_per_s", qps);
    out.note(format!(
        "qps = {qps:.1} 1/s ({total} requests, {CLIENTS} closed-loop clients, median of {sessions} sessions)"
    ));
    (p50, pct, tail_ms)
}

/// A fresh default truss prepare and FND run over `g`: its hierarchy
/// fingerprint and its exact-repeat counts.
fn fresh_fnd(g: &CsrGraph) -> Result<(u64, Counts), String> {
    let p = Nucleus::builder(g)
        .kind(Kind::Truss)
        .prepare()
        .map_err(|e| e.to_string())?;
    let d = p.run(Algorithm::Fnd).map_err(|e| e.to_string())?;
    Ok((
        hierarchy_fingerprint(&d.hierarchy),
        crate::build::counts(g, &p, &d),
    ))
}

fn finish_common(out: &mut Outcome, setup: &[Setup], rss: f64) {
    let setup_s = setup_median(setup, |_| true);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mib", rss);
    out.note(format!(
        "setup_s = {setup_s:.4} s (median of {} set-ups)",
        setup.len()
    ));
    out.note(format!("peak_rss_mib = {rss:.1} MiB"));
}

/// Per-layer metrics both serve workloads take from their set-up spans.
fn setup_layers(tr: &Trace, setup: &[Setup], out: &mut Outcome) {
    out.set("graph.read_s", tr.median("graph.read"));
    out.set("core.run_fnd_s", tr.median("core.run_fnd"));
    out.set("trace.uncovered_ratio", tr.uncovered_ratio("setup"));
    out.set(
        "trace.overhead_ratio",
        setup_median(setup, |s| s.traced) / setup_median(setup, |s| !s.traced),
    );
}

/// The immutable server over a persisted index.
pub fn run_read(args: &Args) -> Result<Outcome, String> {
    let mut tr = Trace::new(args.trace);
    let mut off = Trace::new(false);
    let mut out = Outcome::default();
    let path = crate::gen::graph_path(&args.dir);
    let index_path = crate::gen::index_path(&args.dir);
    let mut setup = Vec::new();
    loop {
        let traced = traced_round(args.trace, setup.len());
        let t = if traced { &mut tr } else { &mut off };
        let t0 = Instant::now();
        let s = t.begin("setup", None);
        let g = t.span("graph.read", Some(s), || read_graph_file(&path))?;
        let index = t
            .span("persist.load", Some(s), || PreparedIndex::load(&index_path))
            .map_err(|e| e.to_string())?;
        let index_bytes = index.bytes();
        let prepared = t
            .span("persist.prepare_from_index", Some(s), || {
                Nucleus::builder(&g).prepare_from_index(index)
            })
            .map_err(|e| e.to_string())?;
        let state = ServeState::new(prepared);
        let h = t
            .span("core.run_fnd", Some(s), || {
                state.hierarchy(Algorithm::Fnd).cloned()
            })
            .map_err(|e| e.to_string())?;
        t.span("core.hierarchy_index", Some(s), || {
            h.nucleus_cells_slice(0).len()
        });
        t.span("serve.densest_scan", Some(s), || {
            state.densest(Algorithm::Fnd)
        })
        .map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        t.end(s);
        setup.push(Setup {
            secs: secs(t0.elapsed()),
            traced,
        });
        if more_setup(&setup, SERVE_READ_SETUP_ROUNDS) {
            continue;
        }

        let cells = state.prepared().cells() as u64;
        let nodes: Vec<u32> = (0..h.len() as u32)
            .filter(|&n| state.prepared().nucleus_vertices(&h, n).len() <= NODE_VERTEX_CAP)
            .collect();
        out.note(format!(
            "node queries target {} of {} nuclei (at most {NODE_VERTEX_CAP} vertices)",
            nodes.len(),
            h.len()
        ));
        // Client records grow with the request rate, so the peak is read
        // once the server state is complete, before the window.
        let rss = peak_rss_mib();
        let (seed, window) = (args.seed, args.seconds);
        let line = |id: usize, step: u64| read_line(seed, id, step, cells, &nodes, &READ_MIX);
        let mut runs = Vec::new();
        let mut listener = Some(listener);
        for session in 0..READ_SESSIONS {
            let listener = match listener.take() {
                Some(l) => l,
                None => TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?,
            };
            let slice = window / READ_SESSIONS as f64;
            runs.extend(drive(&state, listener, &mut out, |c, addr, barrier| {
                let id = session * CLIENTS + c;
                read_client(session, id, addr, barrier, slice, |step| line(id, step))
            })?);
        }
        let (p50, pct, p99) = latency_metrics(&runs, &mut out, |_| true, |_| true);
        out.note(format!(
            "read_ms_p50 = {p50:.4} ms, read_ms_p{pct} = {p99:.4} ms"
        ));
        finish_common(&mut out, &setup, rss);

        // Oracle 1: every served response is byte-identical to the
        // in-process answer to the same line.
        let replay = replay_in_process(&state, &runs, |c, step| line(c, step).1);
        out.attempted += replay.checked;
        out.failed += replay.mismatched;
        // Oracle 2: the loaded index serves the hierarchy a fresh
        // prepare builds.
        let (fresh, counts) = fresh_fnd(&g)?;
        out.attempted += 1;
        if fresh != hierarchy_fingerprint(&h) {
            out.failed += 1;
        }

        if args.trace {
            replay.report(&runs, &mut out);
            setup_layers(&tr, &setup, &mut out);
            for (name, v) in counts.into_iter().chain([
                ("persist.index_bytes", index_bytes as f64),
                ("persist.load_s", tr.median("persist.load")),
                (
                    "persist.prepare_from_index_s",
                    tr.median("persist.prepare_from_index"),
                ),
                ("core.hierarchy_index_s", tr.median("core.hierarchy_index")),
                ("serve.densest_scan_s", tr.median("serve.densest_scan")),
            ]) {
                out.set(name, v);
            }
        }
        return Ok(out);
    }
}

/// A closed-loop read client: sends `line(step)` for step = 0, 1, …
/// until the window closes.
fn read_client(
    session: usize,
    c: usize,
    addr: SocketAddr,
    barrier: &Barrier,
    window: f64,
    line: impl Fn(u64) -> (usize, String),
) -> Result<ClientRun, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("client {c}: {e}"))?;
    let mut recs = Vec::new();
    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(window);
    let mut step = 0u64;
    while Instant::now() < deadline {
        let (slot, text) = line(step);
        let t0 = Instant::now();
        let resp = client
            .roundtrip(&text)
            .map_err(|e| format!("client {c}: {e}"))?;
        recs.push(Rec {
            step,
            slot,
            secs: secs(t0.elapsed()),
            ok: is_ok(&resp),
            hash: hash_bytes(resp.as_bytes()),
        });
        step += 1;
    }
    Ok(ClientRun {
        session,
        id: c,
        client,
        recs,
        start,
        end: Instant::now(),
        batches: Vec::new(),
        pool: None,
    })
}

/// The in-process replay of every served read: counts mismatches and,
/// per line, the protocol and engine times the traced run reports.
struct Replay {
    checked: u64,
    mismatched: u64,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    total_us: Vec<f64>,
    answer_us: Vec<Vec<f64>>,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            checked: 0,
            mismatched: 0,
            parse_us: Vec::new(),
            render_us: Vec::new(),
            total_us: Vec::new(),
            answer_us: vec![Vec::new(); READ_TYPES.len()],
        }
    }

    fn absorb(&mut self, mut other: Replay) {
        self.checked += other.checked;
        self.mismatched += other.mismatched;
        self.parse_us.append(&mut other.parse_us);
        self.render_us.append(&mut other.render_us);
        self.total_us.append(&mut other.total_us);
        for (a, b) in self.answer_us.iter_mut().zip(&mut other.answer_us) {
            a.append(b);
        }
    }

    /// Replays one client's reads, timing parse, answer and render.
    fn replay<S: QueryAnswerer>(
        &mut self,
        state: &S,
        run: &ClientRun,
        line: impl Fn(u64) -> String,
    ) {
        for rec in run.recs.iter().filter(|x| !is_mutate(x)) {
            let text = line(rec.step);
            let t0 = Instant::now();
            let req = Request::parse(&text);
            let t1 = Instant::now();
            let resp = match req {
                Ok(req) => {
                    let v = state.answer(&req);
                    let t2 = Instant::now();
                    let s = render(&req, v);
                    let t3 = Instant::now();
                    self.answer_us[rec.slot].push(secs(t2 - t1) * 1e6);
                    self.render_us.push(secs(t3 - t2) * 1e6);
                    self.total_us.push(secs(t3 - t0) * 1e6);
                    s
                }
                Err(e) => err_response(None, &e),
            };
            self.parse_us.push(secs(t1 - t0) * 1e6);
            self.checked += 1;
            if !rec.ok || hash_bytes(resp.as_bytes()) != rec.hash {
                self.mismatched += 1;
            }
        }
    }

    fn report(&self, runs: &[ClientRun], out: &mut Outcome) {
        out.set("serve.parse_us_p50", median(&self.parse_us));
        out.set("serve.render_us_p50", median(&self.render_us));
        for (t, us) in READ_TYPES.iter().zip(&self.answer_us) {
            if !us.is_empty() {
                out.set(&format!("serve.answer.{t}_us_p50"), median(us));
                out.set(&format!("serve.answer.{t}_us_p99"), quantile(us, 0.99));
            }
        }
        let client_us: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.recs.iter().filter(|x| !is_mutate(x)))
            .map(|x| x.secs * 1e6)
            .collect();
        out.set(
            "serve.transport_us_p50",
            median(&client_us) - median(&self.total_us),
        );
    }
}

/// Replays every client's reads in-process on `CLIENTS` threads.
fn replay_in_process<S: QueryAnswerer>(
    state: &S,
    runs: &[ClientRun],
    line: impl Fn(usize, u64) -> String + Sync,
) -> Replay {
    let parts: Vec<Replay> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let line = &line;
                scope.spawn(move || {
                    let mut r = Replay::new();
                    for run in runs.iter().skip(t).step_by(CLIENTS) {
                        r.replay(state, run, |step| line(run.id, step));
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut all = Replay::new();
    for p in parts {
        all.absorb(p);
    }
    all
}

/// One client's share of the edge set on serve-mutable: the clients own
/// disjoint vertex pairs, so each knows exactly which of its pairs are
/// edges and every op it sends applies.
struct EdgePool {
    owner: u64,
    n: u64,
    present: Vec<(u32, u32)>,
    set: HashSet<(u32, u32)>,
    rng: Rng,
}

impl EdgePool {
    fn owner_of(u: u32, v: u32) -> u64 {
        mix64(((u as u64) << 32) | v as u64) % CLIENTS as u64
    }

    fn new(g: &CsrGraph, owner: usize, seed: u64) -> EdgePool {
        let owner = owner as u64;
        let present: Vec<(u32, u32)> = g
            .edges()
            .map(|(_, u, v)| (u, v))
            .filter(|&(u, v)| Self::owner_of(u, v) == owner)
            .collect();
        EdgePool {
            owner,
            n: g.n() as u64,
            set: present.iter().copied().collect(),
            present,
            rng: Rng::new(seed ^ mix64(owner + 1)),
        }
    }

    /// `PAIRS_PER_BATCH` deletes of owned edges and as many inserts of
    /// owned non-edges, none touching the same pair twice.
    fn next_batch(&mut self) -> Vec<EdgeOp> {
        let mut ops = Vec::with_capacity(2 * PAIRS_PER_BATCH);
        let mut deleted = Vec::new();
        for _ in 0..PAIRS_PER_BATCH {
            let i = self.rng.below(self.present.len() as u64) as usize;
            let (u, v) = self.present.swap_remove(i);
            self.set.remove(&(u, v));
            deleted.push((u, v));
            ops.push(EdgeOp::Delete(u, v));
        }
        let mut inserted = Vec::new();
        while inserted.len() < PAIRS_PER_BATCH {
            let a = self.rng.below(self.n) as u32;
            let b = self.rng.below(self.n) as u32;
            let (u, v) = (a.min(b), a.max(b));
            if u == v
                || Self::owner_of(u, v) != self.owner
                || self.set.contains(&(u, v))
                || deleted.contains(&(u, v))
                || inserted.contains(&(u, v))
            {
                continue;
            }
            inserted.push((u, v));
            ops.push(EdgeOp::Insert(u, v));
        }
        for e in inserted {
            self.set.insert(e);
            self.present.push(e);
        }
        ops
    }
}

fn mutate_line(ops: &[EdgeOp]) -> String {
    let items: Vec<String> = ops
        .iter()
        .map(|op| match *op {
            EdgeOp::Insert(u, v) => format!(r#"["+",{u},{v}]"#),
            EdgeOp::Delete(u, v) => format!(r#"["-",{u},{v}]"#),
        })
        .collect();
    format!(r#"{{"query":"mutate","ops":[{}]}}"#, items.join(","))
}

/// The `--mutable` server: reads beside `mutate` batches that swap in
/// a freshly prepared epoch each.
pub fn run_mutable(args: &Args) -> Result<Outcome, String> {
    let mut tr = Trace::new(args.trace);
    let mut off = Trace::new(false);
    let mut out = Outcome::default();
    let path = crate::gen::graph_path(&args.dir);
    let mut setup = Vec::new();
    // Each round's state is dropped before the next is built.
    let (g, state, listener) = loop {
        let traced = traced_round(args.trace, setup.len());
        let t = if traced { &mut tr } else { &mut off };
        let t0 = Instant::now();
        let s = t.begin("setup", None);
        let g = t.span("graph.read", Some(s), || read_graph_file(&path))?;
        let state = t
            .span("serve.dynamic_state_new", Some(s), || {
                DynamicServeState::new(&g, Kind::Truss)
            })
            .map_err(|e| e.to_string())?;
        let first = Request::parse(r#"{"query":"lambda","cell":0}"#).map_err(|e| e.to_string())?;
        t.span("core.run_fnd", Some(s), || state.answer(&first))
            .map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        t.end(s);
        setup.push(Setup {
            secs: secs(t0.elapsed()),
            traced,
        });
        if !more_setup(&setup, SETUP_ROUNDS) {
            break (g, state, listener);
        }
    };
    let stats = state.stats_value(None);
    let cells = field_u64(&stats, &["cells"]).unwrap_or(1);
    let profile = Request::parse(r#"{"query":"level_profile"}"#).map_err(|e| e.to_string())?;
    let nuclei = state
        .answer(&profile)
        .ok()
        .and_then(|v| field_u64(&v, &["nuclei"]))
        .unwrap_or(0);
    // Node ids stay below 90% of epoch 0's node count, so every epoch
    // still has them: paired inserts and deletes keep m constant and
    // move the node count by far less.
    let nodes: Vec<u32> = (0..(nuclei + 1) as u32 * 9 / 10).collect();
    let (seed, window) = (args.seed, args.seconds);
    let g_ref = &g;
    // The peak is the window's own: mutates and epoch swaps.
    reset_peak_rss();
    let runs = drive(&state, listener, &mut out, |c, addr, barrier| {
        mutate_client(
            c,
            addr,
            barrier,
            window,
            EdgePool::new(g_ref, c, seed),
            |step| read_line(seed, c, step, cells, &nodes, &MUTABLE_MIX),
        )
    })?;
    let rss = peak_rss_mib();
    let (p50, pct, p99) = latency_metrics(&runs, &mut out, is_mutate, |x| !is_mutate(x));
    finish_common(&mut out, &setup, rss);
    let all: Vec<&Rec> = runs.iter().flat_map(|r| &r.recs).collect();
    let busy = |pick: &dyn Fn(&Rec) -> bool| -> f64 {
        all.iter().filter(|x| pick(x)).map(|x| x.secs).sum()
    };
    let mutate_share = busy(&is_mutate) / busy(&|_| true);
    let batches = all.iter().filter(|x| is_mutate(x)).count();
    out.note(format!(
        "mutate_ms_p50 = {p50:.4} ms over {batches} batches of {} ops, read_ms_p{pct} = {p99:.4} ms over {} reads",
        2 * PAIRS_PER_BATCH,
        all.len() - batches
    ));
    out.note(format!(
        "clients spent {:.1}% of their round-trip time on mutate batches, {:.1}% on reads",
        mutate_share * 100.0,
        (1.0 - mutate_share) * 100.0
    ));
    out.attempted += all.len() as u64;
    out.failed += all.iter().filter(|x| !x.ok).count() as u64;

    // Oracle: the final epoch answers exactly like a fresh prepare of
    // the final graph, rebuilt here from the clients' own edge sets.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for r in &runs {
        edges.extend(
            r.pool
                .as_ref()
                .expect("mutable clients keep their pool")
                .present
                .iter(),
        );
    }
    let final_graph = CsrGraph::from_edges(g.n(), &edges);
    let prepared = Nucleus::builder(&final_graph)
        .kind(Kind::Truss)
        .prepare()
        .map_err(|e| e.to_string())?;
    let fresh = ServeState::new(prepared);
    let nodes = fresh
        .hierarchy(Algorithm::Fnd)
        .map_err(|e| e.to_string())?
        .len();
    let mut lines: Vec<String> = (0..final_graph.m())
        .map(|e| format!(r#"{{"query":"lambda","cell":{e}}}"#))
        .collect();
    lines.extend((0..nodes).map(|n| format!(r#"{{"query":"subtree","node":{n}}}"#)));
    lines.push(r#"{"query":"level_profile"}"#.to_string());
    let mismatched = lines
        .iter()
        .filter(|l| {
            let req = Request::parse(l).expect("oracle lines parse");
            render(&req, state.answer(&req)) != render(&req, fresh.answer(&req))
        })
        .count();
    out.attempted += 1;
    if mismatched > 0 || final_graph.m() != g.m() {
        out.failed += 1;
    }
    out.note(format!(
        "final epoch {} vs fresh prepare: {mismatched} of {} answers differ",
        state.epoch(),
        lines.len()
    ));

    if args.trace {
        out.set("serve.mutate_ms_p50", p50);
        out.set("serve.mutate_time_share", mutate_share);
        replay_epochs(&g, &runs, &mut tr, &mut out);
        setup_layers(&tr, &setup, &mut out);
        let (_, counts) = fresh_fnd(&g)?;
        for (name, v) in counts.into_iter().chain([(
            "serve.dynamic_state_new_s",
            tr.median("serve.dynamic_state_new"),
        )]) {
            out.set(name, v);
        }
    }
    Ok(out)
}

/// A closed-loop client that sends one `mutate` batch, then
/// `READS_PER_BATCH` reads, and repeats until the window closes.
fn mutate_client(
    c: usize,
    addr: SocketAddr,
    barrier: &Barrier,
    window: f64,
    mut pool: EdgePool,
    line: impl Fn(u64) -> (usize, String),
) -> Result<ClientRun, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("client {c}: {e}"))?;
    let (mut recs, mut batches) = (Vec::new(), Vec::new());
    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(window);
    let mut step = 0u64;
    while Instant::now() < deadline {
        let n = recs.len() as u64 % (READS_PER_BATCH + 1);
        let (slot, text, want) = if n == 0 {
            let ops = pool.next_batch();
            let text = mutate_line(&ops);
            let want = ops.len() as u64;
            batches.push(ops);
            (MUTATE, text, Some(want))
        } else {
            let (slot, text) = line(step);
            step += 1;
            (slot, text, None)
        };
        let t0 = Instant::now();
        let resp = client
            .request(&text)
            .map_err(|e| format!("client {c}: {e}"))?;
        let dt = secs(t0.elapsed());
        let ok = resp.field("ok").is_ok_and(|v| *v == Value::Bool(true))
            && want.is_none_or(|w| {
                field_u64(&resp, &["result", "applied"]) == Some(w)
                    && resp
                        .field("result")
                        .and_then(|r| r.field("rebuilt"))
                        .is_ok_and(|v| *v == Value::Bool(true))
            });
        recs.push(Rec {
            step,
            slot,
            secs: dt,
            ok,
            hash: 0,
        });
    }
    Ok(ClientRun {
        session: 0,
        id: c,
        client,
        recs,
        start,
        end: Instant::now(),
        batches,
        pool: Some(pool),
    })
}

/// Replays the first `REPLAY_BATCHES` batches (interleaving the
/// clients) through each step a `mutate` takes — topology apply,
/// snapshot, epoch prepare, epoch hierarchy — and through the exact
/// (2,3) maintainer, which serve does not use yet.
fn replay_epochs(g: &CsrGraph, runs: &[ClientRun], tr: &mut Trace, out: &mut Outcome) {
    let mut order: Vec<&Vec<EdgeOp>> = Vec::new();
    for i in 0.. {
        let before = order.len();
        for r in runs {
            if let Some(b) = r.batches.get(i) {
                order.push(b);
            }
        }
        if order.len() == before || order.len() >= REPLAY_BATCHES {
            break;
        }
    }
    order.truncate(REPLAY_BATCHES);
    let mut topo = DynamicGraph::topology(g);
    let mut exact = DynamicGraph::new(g, Kind::Truss);
    let (mut ops, mut applied, mut coalesced, mut scope) = (0usize, 0usize, 0usize, 0usize);
    for batch in &order {
        let rep = tr.span("dynamic.apply", None, || topo.apply(batch));
        ops += batch.len();
        applied += rep.applied;
        coalesced += rep.coalesced;
        let snapshot = tr.span("dynamic.to_graph", None, || topo.to_graph());
        let prepared = tr.span("serve.epoch_prepare", None, || {
            Nucleus::builder(&snapshot).kind(Kind::Truss).prepare()
        });
        if let Ok(p) = prepared {
            tr.span("serve.epoch_hierarchy", None, || p.run(Algorithm::Fnd))
                .ok();
        }
        let rep = tr.span("dynamic.maintain_truss", None, || exact.apply(batch));
        scope += rep.scope_cells;
    }
    let us = |name: &str| tr.median(name) * 1e6;
    let ms = |name: &str| tr.median(name) * 1e3;
    out.set("dynamic.apply_us_p50", us("dynamic.apply"));
    out.set("dynamic.to_graph_ms_p50", ms("dynamic.to_graph"));
    out.set("serve.epoch_prepare_ms_p50", ms("serve.epoch_prepare"));
    out.set("serve.epoch_hierarchy_ms_p50", ms("serve.epoch_hierarchy"));
    out.set(
        "dynamic.maintain_truss_us_p50",
        us("dynamic.maintain_truss"),
    );
    out.set("dynamic.applied_per_op", applied as f64 / ops.max(1) as f64);
    out.set("dynamic.coalesced", coalesced as f64);
    out.set("dynamic.scope_cells", scope as f64);
    out.note(format!(
        "replayed {} batches ({ops} ops): {applied} applied, {coalesced} coalesced, {scope} scope cells",
        order.len()
    ));
}
