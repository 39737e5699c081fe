//! Integration tests of the served protocol: the concurrency oracle
//! (every served response bit-identical to the direct library call,
//! under N concurrent clients), protocol fuzz (malformed input gets a
//! typed error, never a worker panic or hang), and graceful shutdown
//! through both the control request and the signal file.

use std::net::TcpListener;
use std::time::Duration;

use nucleus_core::{Algorithm, Kind, Nucleus, Prepared};
use nucleus_gen as gen;
use nucleus_graph::CsrGraph;
use nucleus_serve::{
    err_response, ok_response, serve, Client, DynamicServeState, Request, ServeConfig, ServeState,
};
use rand::{Rng, SeedableRng};
use serde::Value;

fn prepared(g: &CsrGraph, kind: Kind) -> Prepared {
    Nucleus::builder(g).kind(kind).prepare().unwrap()
}

/// Renders the response the library itself would give for `line`:
/// exactly the server's dispatch for every non-`stats`/`shutdown`
/// request (those two depend on live server state).
fn direct_answer(state: &ServeState, line: &str) -> String {
    match Request::parse(line) {
        Err(e) => err_response(None, &e),
        Ok(req) => match state.answer(&req) {
            Ok(v) => ok_response(req.id, req.query.name(), v),
            Err(e) => err_response(req.id, &e),
        },
    }
}

/// A randomized request line over (and slightly past) the valid id
/// ranges, so the oracle exercises error paths too.
fn random_line(rng: &mut rand::rngs::StdRng, cells: usize, nodes: usize, id: u64) -> String {
    let cell = rng.gen_range(0..(cells as u64 + 2));
    let node = rng.gen_range(0..(nodes as u64 + 2));
    let algo = match rng.gen_range(0..4u32) {
        0 => r#","algo":"fnd""#,
        1 => r#","algo":"dft""#,
        2 => r#","algo":"naive""#,
        _ => "",
    };
    match rng.gen_range(0..7u32) {
        0 => format!(r#"{{"query":"lambda","cell":{cell},"id":{id}{algo}}}"#),
        1 => format!(r#"{{"query":"nuclei_of","cell":{cell},"id":{id}{algo}}}"#),
        2 => format!(r#"{{"query":"members","node":{node},"limit":16,"id":{id}{algo}}}"#),
        3 => format!(r#"{{"query":"subtree","node":{node},"id":{id}{algo}}}"#),
        4 => format!(r#"{{"query":"density","node":{node},"id":{id}{algo}}}"#),
        5 => format!(r#"{{"query":"densest","id":{id}{algo}}}"#),
        _ => format!(r#"{{"query":"level_profile","id":{id}{algo}}}"#),
    }
}

/// Runs `serve` on an ephemeral port and hands the bound address to
/// `body`; returns the server's report.
fn with_server<S: nucleus_serve::QueryAnswerer, T>(
    state: &S,
    config: &ServeConfig,
    body: impl FnOnce(std::net::SocketAddr) -> T,
) -> (nucleus_serve::ServerReport, T) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || serve(listener, state, config).unwrap());
        // A panicking body must still stop the server, or the scope
        // would wait on it forever and the test would hang, not fail.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        if out.is_err() {
            let _ = Client::connect(addr).and_then(|mut c| c.roundtrip(r#"{"query":"shutdown"}"#));
        }
        let report = server.join().unwrap();
        match out {
            Ok(v) => (report, v),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

fn shutdown(addr: std::net::SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    let resp = c.roundtrip(r#"{"query":"shutdown"}"#).unwrap();
    assert!(resp.starts_with(r#"{"ok":true"#), "shutdown failed: {resp}");
}

#[test]
fn concurrent_responses_are_bit_identical_to_library_calls() {
    let g = gen::planted::planted_cliques(6, &[8, 7, 6, 5], 42);
    for kind in [Kind::Truss, Kind::Core] {
        let p = prepared(&g, kind);
        let state = ServeState::new(p);
        let config = ServeConfig::default();
        const CLIENTS: usize = 8;
        const QUERIES: usize = 60;
        let cells = state.prepared().cells();
        let nodes = state.hierarchy(Algorithm::Fnd).unwrap().len();
        let (report, _) = with_server(&state, &config, |addr| {
            std::thread::scope(|scope| {
                for t in 0..CLIENTS {
                    let state = &state;
                    scope.spawn(move || {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + t as u64);
                        let mut client = Client::connect(addr).unwrap();
                        for q in 0..QUERIES {
                            let id = (t * QUERIES + q) as u64;
                            let line = random_line(&mut rng, cells, nodes, id);
                            let served = client.roundtrip(&line).unwrap();
                            let direct = direct_answer(state, &line);
                            assert_eq!(served, direct, "divergence on request {line}");
                        }
                    });
                }
            });
            shutdown(addr);
        });
        assert_eq!(
            report.metrics.requests,
            (CLIENTS * QUERIES) as u64 + 1,
            "kind {kind:?}: every request (plus the shutdown) must be counted"
        );
    }
}

#[test]
fn fuzzed_input_gets_typed_errors_and_no_panics() {
    let g = gen::karate::karate_club();
    let p = prepared(&g, Kind::Truss);
    let state = ServeState::new(p);
    let config = ServeConfig {
        max_line_bytes: 512,
        ..ServeConfig::default()
    };
    let cases: &[(&str, &str)] = &[
        ("{nope", "bad_json"),
        ("[1,2,3]", "bad_request"),
        (r#""just a string""#, "bad_request"),
        (r#"{"query":"frobnicate"}"#, "bad_request"),
        (r#"{"query":"lambda"}"#, "bad_request"),
        (r#"{"query":"lambda","cell":"five"}"#, "bad_request"),
        (r#"{"query":"lambda","cell":4294967296}"#, "bad_request"),
        (r#"{"query":"lambda","cell":99999}"#, "bad_request"),
        (r#"{"query":"stats","algo":"sorcery"}"#, "unsupported"),
        (
            r#"{"query":"lambda","cell":1,"algo":"lcps"}"#,
            "unsupported",
        ),
        (r#"{"query":"shutdown","id":"seven"}"#, "bad_request"),
        ("\u{0}\u{1}\u{2}", "bad_json"),
    ];
    with_server(&state, &config, |addr| {
        let mut client = Client::connect(addr).unwrap();
        for (line, want_code) in cases {
            let resp: Value = client.request(line).unwrap();
            assert_eq!(
                resp.field("ok").unwrap(),
                &Value::Bool(false),
                "fuzz line {line:?} must fail"
            );
            let code = resp.field("error").unwrap().field("code").unwrap();
            assert_eq!(
                code,
                &Value::Str(want_code.to_string()),
                "fuzz line {line:?}"
            );
        }

        // An oversize line draws `too_large` and a closed connection.
        let huge = format!(r#"{{"query":"lambda","cell":{}}}"#, "9".repeat(600));
        let resp = client.roundtrip(&huge).unwrap();
        assert!(resp.contains(r#""code":"too_large""#), "got: {resp}");

        // A truncated line (no newline, peer hangs up) is not answered
        // and must not wedge the worker.
        {
            use std::io::Write;
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.write_all(br#"{"query":"lambda""#).unwrap();
        }

        // The server still answers correct queries afterwards.
        let mut fresh = Client::connect(addr).unwrap();
        let ok = fresh.roundtrip(r#"{"query":"lambda","cell":0}"#).unwrap();
        assert_eq!(ok, direct_answer(&state, r#"{"query":"lambda","cell":0}"#));
        shutdown(addr);
    });
}

#[test]
fn stats_reports_counters_and_stalled_requests_time_out() {
    let g = gen::paper::fig3_bowtie();
    let p = prepared(&g, Kind::Core);
    let state = ServeState::new(p);
    let config = ServeConfig {
        request_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    with_server(&state, &config, |addr| {
        let mut client = Client::connect(addr).unwrap();
        for _ in 0..3 {
            client.roundtrip(r#"{"query":"lambda","cell":0}"#).unwrap();
        }
        client.roundtrip(r#"{"query":"densest"}"#).unwrap();
        client.roundtrip("{bad").unwrap();
        let stats: Value = client.request(r#"{"query":"stats"}"#).unwrap();
        let result = stats.field("result").unwrap();
        let metrics = result.field("metrics").unwrap();
        assert_eq!(metrics.field("requests").unwrap(), &Value::U64(5));
        assert_eq!(metrics.field("errors").unwrap(), &Value::U64(1));
        let by = metrics.field("by_query").unwrap();
        assert_eq!(by.field("lambda").unwrap(), &Value::U64(3));
        assert_eq!(by.field("densest").unwrap(), &Value::U64(1));
        let latency = metrics.field("latency").unwrap();
        assert_eq!(latency.field("count").unwrap(), &Value::U64(5));

        // A half-sent request (no newline) left stalling draws
        // `timeout` after `request_timeout`.
        {
            use std::io::{Read, Write};
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            raw.write_all(br#"{"query":"lambda""#).unwrap();
            let mut resp = String::new();
            raw.read_to_string(&mut resp).unwrap();
            assert!(resp.contains(r#""code":"timeout""#), "got: {resp}");
        }

        shutdown(addr);
    });
}

#[test]
fn signal_file_stops_the_server() {
    let g = gen::paper::fig2_two_three_cores();
    let p = prepared(&g, Kind::Truss);
    let state = ServeState::new(p);
    let signal = std::env::temp_dir().join(format!("nucleus-serve-stop-{}", std::process::id()));
    let _ = std::fs::remove_file(&signal);
    let config = ServeConfig {
        signal_file: Some(signal.clone()),
        ..ServeConfig::default()
    };
    let (report, _) = with_server(&state, &config, |addr| {
        let mut client = Client::connect(addr).unwrap();
        client.roundtrip(r#"{"query":"level_profile"}"#).unwrap();
        std::fs::write(&signal, b"stop").unwrap();
        // `with_server` joins the server thread, so returning here
        // only succeeds if the signal file actually stops it.
    });
    let _ = std::fs::remove_file(&signal);
    assert_eq!(report.metrics.requests, 1);
    assert_eq!(report.connections, 1);
}

/// The acceptance round-trip for mutable serving: a `mutate` over TCP
/// bumps the epoch in `stats`, and afterwards every query answer is
/// bit-identical to a *fresh server* started on the mutated graph.
#[test]
fn served_mutate_swaps_epochs_and_matches_a_fresh_server() {
    let g = gen::karate::karate_club();
    let dynamic = DynamicServeState::new(&g, Kind::Truss).unwrap();
    let config = ServeConfig::default();
    let queries: Vec<String> = (0..g.m() as u64)
        .step_by(7)
        .map(|c| format!(r#"{{"query":"lambda","cell":{c}}}"#))
        .chain([
            r#"{"query":"nuclei_of","cell":3}"#.to_string(),
            r#"{"query":"members","node":1,"limit":64}"#.to_string(),
            r#"{"query":"subtree","node":0}"#.to_string(),
            r#"{"query":"density","node":1}"#.to_string(),
            r#"{"query":"densest"}"#.to_string(),
            r#"{"query":"level_profile"}"#.to_string(),
        ])
        .collect();
    with_server(&dynamic, &config, |addr| {
        let mut client = Client::connect(addr).unwrap();
        let stats = client.roundtrip(r#"{"query":"stats"}"#).unwrap();
        assert!(stats.contains(r#""epoch":0"#), "{stats}");
        assert!(stats.contains(r#""mutable":true"#), "{stats}");
        let resp = client
            .roundtrip(r#"{"query":"mutate","ops":[["+",0,9],["-",0,1],["-",2,3]],"id":5}"#)
            .unwrap();
        assert!(
            resp.starts_with(r#"{"ok":true,"id":5,"query":"mutate""#),
            "{resp}"
        );
        assert!(resp.contains(r#""applied":3"#), "{resp}");
        assert!(resp.contains(r#""epoch":1"#), "{resp}");
        let stats = client.roundtrip(r#"{"query":"stats"}"#).unwrap();
        assert!(stats.contains(r#""epoch":1"#), "{stats}");

        // A second server, born on the mutated snapshot, must answer
        // every query with bit-identical bytes.
        let mutated = {
            let mut dg = nucleus_dynamic::DynamicGraph::topology(&g);
            dg.apply(&[
                nucleus_dynamic::EdgeOp::Insert(0, 9),
                nucleus_dynamic::EdgeOp::Delete(0, 1),
                nucleus_dynamic::EdgeOp::Delete(2, 3),
            ]);
            dg.to_graph()
        };
        let fresh = ServeState::new(prepared(&mutated, Kind::Truss));
        with_server(&fresh, &config, |fresh_addr| {
            let mut fresh_client = Client::connect(fresh_addr).unwrap();
            for q in &queries {
                let got = client.roundtrip(q).unwrap();
                let want = fresh_client.roundtrip(q).unwrap();
                assert_eq!(got, want, "query: {q}");
            }
            shutdown(fresh_addr);
        });
        shutdown(addr);
    });
}
