//! Sustained-QPS benchmark of the `nucleus serve` query service.
//!
//! For each of the (2,3) truss and (3,4) nucleus families × two graph
//! families (R-MAT and Barabási–Albert), the harness spawns the real
//! server (`nucleus_serve::serve`) on an ephemeral port with a fixed
//! worker pool, pre-warms every hierarchy the workload touches, then
//! hammers it from M concurrent client threads for a fixed wall-clock
//! window with a mixed read workload — λ lookups, containing-nuclei
//! chains, members, subtree, density, level profiles — over real TCP
//! sockets, one request in flight per client (closed-loop). Reported
//! per row: sustained queries/sec, request counts and the server-side
//! latency histogram summary (min/mean/p99/max).
//!
//! This is a custom `harness = false` main (not criterion): the metric
//! of record is throughput over a fixed window, not per-call latency
//! of a closure. JSON results land in `results/BENCH_serve_*.json`
//! (same `NUCLEUS_BENCH_RESULTS` / nearest-`Cargo.lock` discovery as
//! the criterion shim), written only when cargo passes `--bench`.
//!
//! Single-CPU container caveat: the committed numbers come from a
//! one-core build container, so server workers and client threads all
//! multiplex one CPU — the figures are a floor, not a ceiling, and
//! mostly measure protocol + engine cost per request rather than
//! parallel capacity.
//!
//! `NUCLEUS_BENCH_SMOKE=1` shrinks inputs, clients and the measurement
//! window so CI can assert the bench runs end to end and emits JSON.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nucleus_bench::{smoke, write_bench_json};
use nucleus_core::{Algorithm, Kind, Nucleus};
use nucleus_graph::CsrGraph;
use nucleus_serve::{serve, Client, ServeConfig, ServeState};

/// Two graph families, as `bench_persist`/`bench_phases` measure.
fn inputs() -> Vec<(&'static str, CsrGraph)> {
    if smoke() {
        return vec![("ba-n2000", nucleus_gen::ba::barabasi_albert(2_000, 4, 7))];
    }
    vec![
        (
            "rmat-s11",
            nucleus_gen::rmat::rmat(11, 8, nucleus_gen::rmat::RmatParams::skewed(), 7),
        ),
        ("ba-n20000", nucleus_gen::ba::barabasi_albert(20_000, 6, 7)),
    ]
}

struct Row {
    id: String,
    qps: f64,
    requests: u64,
    errors: u64,
    clients: usize,
    workers: usize,
    duration_ms: u64,
    latency_mean_ns: u64,
    latency_p99_ns: u64,
}

/// The mixed read workload, one line per step; ids cycle through the
/// valid cell/node ranges deterministically.
fn workload_line(step: u64, cells: u64, nodes: u64) -> String {
    let cell = (step * 2654435761 % cells.max(1)) as u32;
    let node = (step * 40503 % nodes.max(1)) as u32;
    match step % 6 {
        0 => format!(r#"{{"query":"lambda","cell":{cell}}}"#),
        1 => format!(r#"{{"query":"nuclei_of","cell":{cell}}}"#),
        2 => format!(r#"{{"query":"members","node":{node},"limit":32}}"#),
        3 => format!(r#"{{"query":"subtree","node":{node}}}"#),
        4 => format!(r#"{{"query":"density","node":{node}}}"#),
        _ => r#"{"query":"level_profile"}"#.to_string(),
    }
}

fn bench_family(kind: Kind, group: &str, rows: &mut Vec<Row>) {
    let clients = if smoke() { 2 } else { 4 };
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .max(2);
    let window = if smoke() {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(3)
    };
    for (name, g) in &inputs() {
        let prepared = Nucleus::builder(g).kind(kind).prepare().unwrap();
        let state = ServeState::new(prepared);
        // Warm the hierarchy + its point-lookup index + the densest
        // cache outside the window: steady-state QPS is the metric.
        let h = state.hierarchy(Algorithm::Fnd).unwrap();
        let cells = state.prepared().cells() as u64;
        let nodes = h.len() as u64;
        h.nuclei_at_slice(1);

        let config = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let done = AtomicBool::new(false);
        let total = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let report = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(listener, &state, &config).unwrap());
            let started = Instant::now();
            for c in 0..clients {
                let done = &done;
                let total = &total;
                let finished = &finished;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut step = c as u64 * 1_000_003;
                    let mut count = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let line = workload_line(step, cells, nodes);
                        let resp = client.roundtrip(&line).unwrap();
                        assert!(
                            resp.starts_with(r#"{"ok":true"#),
                            "bench query failed: {resp}"
                        );
                        step += 1;
                        count += 1;
                    }
                    total.fetch_add(count, Ordering::Relaxed);
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            std::thread::sleep(window);
            done.store(true, Ordering::Release);
            // Let every client drain its in-flight request before the
            // shutdown, so none of them see a `shutting_down` error.
            while finished.load(Ordering::Acquire) < clients as u64 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let elapsed = started.elapsed();
            let mut c = Client::connect(addr).unwrap();
            c.roundtrip(r#"{"query":"shutdown"}"#).unwrap();
            (server.join().unwrap(), elapsed)
        });
        let (report, elapsed) = report;
        let requests = total.load(Ordering::Relaxed);
        let qps = requests as f64 / elapsed.as_secs_f64();
        println!(
            "{group}/mixed-c{clients}/{name}: {requests} requests in {:.2}s -> {qps:.0} qps \
             (p99 {} us, workers {workers})",
            elapsed.as_secs_f64(),
            report.metrics.latency.p99_ns / 1_000,
        );
        rows.push(Row {
            id: format!("{group}/mixed-c{clients}/{name}"),
            qps,
            requests,
            errors: report.metrics.errors,
            clients,
            workers,
            duration_ms: elapsed.as_millis() as u64,
            latency_mean_ns: report.metrics.latency.mean_ns,
            latency_p99_ns: report.metrics.latency.p99_ns,
        });
    }
}

fn write_json(group: &str, rows: &[Row]) {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"id\": \"{}\", \"qps\": {:.1}, \"requests\": {}, \"errors\": {}, \
                 \"clients\": {}, \"workers\": {}, \"duration_ms\": {}, \
                 \"latency_mean_ns\": {}, \"latency_p99_ns\": {}}}",
                r.id,
                r.qps,
                r.requests,
                r.errors,
                r.clients,
                r.workers,
                r.duration_ms,
                r.latency_mean_ns,
                r.latency_p99_ns,
            )
        })
        .collect();
    write_bench_json(group, &rows);
}

fn main() {
    for (kind, group) in [
        (Kind::Truss, "serve_truss"),
        (Kind::Nucleus34, "serve_nucleus34"),
    ] {
        let mut rows = Vec::new();
        bench_family(kind, group, &mut rows);
        write_json(group, &rows);
    }
}
