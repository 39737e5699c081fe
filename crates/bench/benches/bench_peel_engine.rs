//! Serial FND against the frontier FND, in interleaved pairs: does any
//! input keep the frontier engine?
//!
//! Every session runs serial FND ([`fnd`], Alg. 8 inside the
//! bucket-queue peel). The frontier FND ([`fnd_parallel_with`] with
//! default [`FrontierOptions`]) is library code no session runs. For each
//! generated input (R-MAT, Erdős–Rényi, two Barabási–Albert) and each
//! of the (2,3) and (3,4) spaces, the harness builds the materialized
//! index once — what a default session peels over — and then measures
//! two rows, `fnd-frontier-t1` and `fnd-frontier-t2`. Each row is
//! [`PAIRS`] pairs of one serial timing and one frontier timing, with
//! the side that runs first alternating from pair to pair, so host
//! drift hits both sides alike.
//!
//! A timing is the mean over a batch of calls, sized once per input so
//! a batch takes at least [`BATCH_TARGET`]; both sides of every pair
//! run the same batch. Per row the JSON holds each side's median and
//! quartiles (ns per call), the frontier's win count, and
//! `frontier_keeps`: whether the frontier won at least 9 of 10 pairs
//! *and* its median beat serial's by more than serial's interquartile
//! range. JSON results land in `results/BENCH_peel_engine_*.json`,
//! written only when cargo passes `--bench`.
//!
//! Custom `harness = false` main (not criterion): the metric of record
//! is a paired comparison, not one closure's latency.
//!
//! `NUCLEUS_BENCH_SMOKE=1` shrinks the inputs and the pair count so CI
//! can assert the bench runs end to end and emits JSON.

use std::time::{Duration, Instant};

use nucleus_bench::{smoke, write_bench_json};
use nucleus_core::algo::fnd::{fnd, fnd_parallel_with, FndOptions};
use nucleus_core::peel::FrontierOptions;
use nucleus_core::space::{ContainerIndex, EdgeSpace, IndexedSpace, PeelSpace, TriangleSpace};
use nucleus_graph::CsrGraph;

/// Interleaved pairs per row.
const PAIRS: usize = 31;

/// Shortest wall time one timed batch of calls may take.
const BATCH_TARGET: Duration = Duration::from_millis(2);

/// Deterministic inputs, smallest to largest (by edge count); the
/// models `bench_backend` and `bench_phases` also measure.
fn inputs() -> Vec<(&'static str, CsrGraph)> {
    if smoke() {
        return vec![("ba-n2000", nucleus_gen::ba::barabasi_albert(2_000, 4, 7))];
    }
    vec![
        (
            "rmat-s11",
            nucleus_gen::rmat::rmat(11, 8, nucleus_gen::rmat::RmatParams::skewed(), 7),
        ),
        ("er-n3000", nucleus_gen::er::gnp(3000, 0.01, 7)),
        ("ba-n20000", nucleus_gen::ba::barabasi_albert(20_000, 6, 7)),
        // sparse, wide-frontier regime: most cells peel in a handful of
        // huge λ levels — the frontier engine's best case
        (
            "ba-n200000-m3",
            nucleus_gen::ba::barabasi_albert(200_000, 3, 7),
        ),
    ]
}

/// Mean wall time per call of `f` over `reps` calls, in ns.
fn per_call_ns(reps: usize, f: &mut dyn FnMut() -> u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

/// `(q1, median, q3)` of `xs`, by linear interpolation.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The two paired rows of one input: serial FND against the frontier
/// FND at 1 and at 2 threads.
fn bench_space<S: PeelSpace + Sync>(group: &str, name: &str, space: &S, rows: &mut Vec<String>) {
    let index = ContainerIndex::build(space, 2);
    let mat = IndexedSpace::new(space, &index);
    let mut serial = || fnd(&mat).peeling.max_lambda;
    // size the batch from one warm serial call; the λ check below warms
    // the frontier side
    serial();
    let t0 = Instant::now();
    serial();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let reps = (BATCH_TARGET.as_nanos() / once.as_nanos()).max(1) as usize;
    let pairs = if smoke() { 3 } else { PAIRS };
    for threads in [1usize, 2] {
        let options = FrontierOptions {
            threads,
            ..FrontierOptions::default()
        };
        let mut frontier = || {
            fnd_parallel_with(&mat, FndOptions::default(), options)
                .peeling
                .max_lambda
        };
        assert_eq!(serial(), frontier(), "λ max diverges on {name}");
        let (mut s, mut f) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
        for pair in 0..pairs {
            if pair % 2 == 0 {
                s.push(per_call_ns(reps, &mut serial));
                f.push(per_call_ns(reps, &mut frontier));
            } else {
                f.push(per_call_ns(reps, &mut frontier));
                s.push(per_call_ns(reps, &mut serial));
            }
        }
        let wins = s.iter().zip(&f).filter(|(s, f)| f < s).count();
        let (s_q1, s_med, s_q3) = quartiles(&s);
        let (f_q1, f_med, f_q3) = quartiles(&f);
        let keeps = wins * 10 >= pairs * 9 && s_med - f_med > s_q3 - s_q1;
        let id = format!("{group}/fnd-frontier-t{threads}/{name}");
        println!(
            "{id}: serial {s_med:.0} ns [{s_q1:.0}–{s_q3:.0}] | frontier {f_med:.0} ns \
             [{f_q1:.0}–{f_q3:.0}] | frontier wins {wins}/{pairs} | keeps: {keeps}"
        );
        rows.push(format!(
            "{{\"id\": \"{id}\", \"pairs\": {pairs}, \"calls_per_timing\": {reps}, \
             \"serial_median_ns\": {s_med:.0}, \"serial_q1_ns\": {s_q1:.0}, \
             \"serial_q3_ns\": {s_q3:.0}, \"frontier_median_ns\": {f_med:.0}, \
             \"frontier_q1_ns\": {f_q1:.0}, \"frontier_q3_ns\": {f_q3:.0}, \
             \"frontier_wins\": {wins}, \"frontier_keeps\": {keeps}}}"
        ));
    }
}

fn main() {
    let inputs = inputs();
    for group in ["peel_engine_truss", "peel_engine_nucleus34"] {
        let mut rows = Vec::new();
        for (name, g) in &inputs {
            if group == "peel_engine_truss" {
                bench_space(group, name, &EdgeSpace::new(g), &mut rows);
            } else {
                bench_space(group, name, &TriangleSpace::new(g), &mut rows);
            }
        }
        write_bench_json(group, &rows);
    }
}
