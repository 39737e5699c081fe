//! Offline stand-in for `criterion`.
//!
//! Supports the benchmarking surface this workspace's benches use:
//! [`Criterion::benchmark_group`], group knobs (`sample_size`,
//! `measurement_time`, `warm_up_time`), `bench_function` /
//! `bench_with_input` with [`BenchmarkId`], [`Bencher::iter`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Instead of criterion's statistical machinery, each benchmark is
//! warmed up for the configured warm-up time, then run for up to
//! `sample_size` samples or until the measurement time is spent —
//! whichever comes first — and the median, minimum and maximum
//! per-sample times are printed. Harness flags cargo passes to
//! `harness = false` targets (`--bench`, `--test`, filters) are
//! accepted; all but `--bench` are ignored.
//!
//! # Machine-readable results
//!
//! When running as an actual benchmark (cargo passes `--bench` to the
//! target), every finished group additionally writes
//! `results/BENCH_<group>.json` under the workspace root (the nearest
//! ancestor directory containing a `Cargo.lock`; override with the
//! `NUCLEUS_BENCH_RESULTS` env var): one entry per benchmark with
//! median/min/max nanoseconds and the sample count, so the perf
//! trajectory can be tracked across PRs without scraping stdout.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Benchmark registry; handed to every `criterion_group!` function.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\nbench group: {name}");
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_millis(300),
            records: Vec::new(),
        }
    }

    /// Benchmarks a closure outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<String>, mut f: F) {
        let id = id.into();
        if let Some(record) = run_one(
            &id,
            self.default_sample_size,
            Duration::from_secs(3),
            Duration::from_millis(300),
            &mut f,
        ) {
            // A groupless benchmark gets a single-entry group file
            // named after itself.
            maybe_write_group_json(&id, &[record]);
        }
    }
}

/// A named set of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    records: Vec<BenchRecord>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Caps the total measurement time per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Sets the warm-up time per benchmark.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(&mut self, id: I, mut f: F) {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        if let Some(record) = run_one(
            &label,
            self.sample_size,
            self.measurement_time,
            self.warm_up_time,
            &mut f,
        ) {
            self.records.push(record);
        }
    }

    /// Benchmarks `f`, passing it `input` alongside the [`Bencher`].
    pub fn bench_with_input<I, T: ?Sized, F>(&mut self, id: I, input: &T, mut f: F)
    where
        I: IntoBenchmarkId,
        F: FnMut(&mut Bencher, &T),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        if let Some(record) = run_one(
            &label,
            self.sample_size,
            self.measurement_time,
            self.warm_up_time,
            &mut |b: &mut Bencher| f(b, input),
        ) {
            self.records.push(record);
        }
    }

    /// Ends the group, flushing `results/BENCH_<group>.json` (kept for
    /// API parity with criterion; dropping the group does the same).
    pub fn finish(self) {}
}

impl Drop for BenchmarkGroup<'_> {
    fn drop(&mut self) {
        // Skip the write while unwinding: a partial record set must not
        // clobber a complete JSON from an earlier successful run.
        if !self.records.is_empty() && !std::thread::panicking() {
            maybe_write_group_json(&self.name, &self.records);
        }
    }
}

/// One measured benchmark, in nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRecord {
    /// Full benchmark label (`group/function/parameter`).
    pub id: String,
    /// Median per-sample time.
    pub median_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
    /// Number of samples taken.
    pub samples: usize,
}

/// `true` when cargo launched this process as a bench target (it passes
/// `--bench`); unit tests and plain runs skip the JSON side effect.
fn running_as_bench() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Directory JSON results land in: `NUCLEUS_BENCH_RESULTS` if set, else
/// `results/` under the nearest ancestor holding a `Cargo.lock` (the
/// workspace root — bench processes may start in the member crate),
/// else `results/` under the current directory.
fn results_dir() -> PathBuf {
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

/// Group name → safe `BENCH_<name>.json` file stem.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders the group's records as JSON (hand-rolled: the shim has no
/// dependencies, and the payload is flat strings and integers).
fn render_json(group: &str, records: &[BenchRecord]) -> String {
    let esc = |s: &str| {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    };
    let mut json = String::new();
    json.push_str(&format!("{{\n  \"group\": \"{}\",\n", esc(group)));
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}}}{}\n",
            esc(&r.id),
            r.median_ns,
            r.min_ns,
            r.max_ns,
            r.samples,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Writes `BENCH_<group>.json` into `dir`, returning the path on
/// success.
fn write_group_json(
    dir: &std::path::Path,
    group: &str,
    records: &[BenchRecord],
) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("BENCH_{}.json", sanitize(group)));
    std::fs::write(&path, render_json(group, records)).ok()?;
    Some(path)
}

fn maybe_write_group_json(group: &str, records: &[BenchRecord]) {
    if !running_as_bench() {
        return;
    }
    match write_group_json(&results_dir(), group, records) {
        Some(path) => println!("  results → {}", path.display()),
        None => eprintln!("  (could not write JSON results for group {group})"),
    }
}

/// A `function/parameter` benchmark label.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Label combining a function name and a parameter rendering.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }
}

/// Anything `bench_function`/`bench_with_input` accepts as an id.
pub trait IntoBenchmarkId {
    /// The rendered label.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Timer handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    deadline: Instant,
    warm_up: Duration,
}

impl Bencher {
    /// Times `routine`, keeping its output alive via [`black_box`].
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm_until = Instant::now() + self.warm_up;
        loop {
            black_box(routine());
            if Instant::now() >= warm_until {
                break;
            }
        }
        while self.samples.len() < self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if Instant::now() >= self.deadline {
                break;
            }
        }
    }

    /// Times `routine` on a fresh input from `setup` per call; only
    /// `routine` is timed, so a routine that consumes its input (or
    /// needs it unmodified) pays nothing for making it.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_until = Instant::now() + self.warm_up;
        loop {
            black_box(routine(setup()));
            if Instant::now() >= warm_until {
                break;
            }
        }
        while self.samples.len() < self.sample_size {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples.push(t0.elapsed());
            if Instant::now() >= self.deadline {
                break;
            }
        }
    }
}

/// How many inputs [`Bencher::iter_batched`] makes at a time. The shim
/// makes one per timed call whatever the size.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs that are cheap to hold.
    SmallInput,
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    f: &mut F,
) -> Option<BenchRecord> {
    let mut b = Bencher {
        samples: Vec::with_capacity(sample_size),
        sample_size,
        deadline: Instant::now() + warm_up_time + measurement_time,
        warm_up: warm_up_time,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("  {label:<48} (no samples: Bencher::iter never called)");
        return None;
    }
    b.samples.sort_unstable();
    let median = b.samples[b.samples.len() / 2];
    let lo = b.samples[0];
    let hi = b.samples[b.samples.len() - 1];
    println!(
        "  {label:<48} median {} (min {}, max {}, {} samples)",
        fmt(median),
        fmt(lo),
        fmt(hi),
        b.samples.len()
    );
    Some(BenchRecord {
        id: label.to_string(),
        median_ns: median.as_nanos(),
        min_ns: lo.as_nanos(),
        max_ns: hi.as_nanos(),
        samples: b.samples.len(),
    })
}

fn fmt(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}µs", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

/// An opaque value barrier preventing the optimizer from deleting
/// benchmarked work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group function runnable by [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Ignore harness flags cargo passes (--bench, --test, ...).
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.measurement_time(Duration::from_millis(50));
        group.warm_up_time(Duration::from_millis(1));
        let mut runs = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        group.bench_with_input(BenchmarkId::new("sum", 128), &128u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
        assert!(runs >= 5, "closure ran {runs} times");
    }

    #[test]
    fn json_rendering_and_sanitizing() {
        let records = vec![
            BenchRecord {
                id: "g/peel/(2,3)".into(),
                median_ns: 1200,
                min_ns: 1000,
                max_ns: 2000,
                samples: 10,
            },
            BenchRecord {
                id: "g/\"quoted\"".into(),
                median_ns: 5,
                min_ns: 5,
                max_ns: 5,
                samples: 1,
            },
        ];
        let json = render_json("my group", &records);
        assert!(json.contains("\"group\": \"my group\""));
        assert!(json.contains("\"median_ns\": 1200"));
        assert!(json.contains("\\\"quoted\\\""));
        // exactly one comma between the two entries, none trailing
        assert_eq!(json.matches("},\n").count(), 1);
        assert_eq!(sanitize("table5_truss"), "table5_truss");
        assert_eq!(sanitize("backend/(2,3) er"), "backend__2_3__er");
    }

    #[test]
    fn json_file_written_to_explicit_dir() {
        let dir = std::env::temp_dir().join("criterion-shim-json-test");
        let _ = std::fs::remove_dir_all(&dir);
        let records = vec![BenchRecord {
            id: "solo".into(),
            median_ns: 42,
            min_ns: 40,
            max_ns: 44,
            samples: 3,
        }];
        let path = write_group_json(&dir, "solo_group", &records).expect("written");
        assert!(path.ends_with("BENCH_solo_group.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"median_ns\": 42"));
        assert!(body.contains("\"samples\": 3"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_json_side_effect_outside_bench_mode() {
        // Unit tests are not launched with --bench, so groups must not
        // touch the filesystem when dropped.
        assert!(!running_as_bench());
    }
}
