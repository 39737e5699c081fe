//! Small helpers shared by every workload: order statistics, seeded
//! randomness, fingerprints and the process's peak resident memory.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use nucleus_core::Hierarchy;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in (0, 1] of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    s[rank(s.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder p99, p95, p90, p75, p50 that
/// still has at least ten samples above it, as `(percentile, value)`.
/// Falls back to the maximum when even p50 has fewer than ten above.
pub fn tail(v: &[f64]) -> (f64, f64) {
    for q in [0.99, 0.95, 0.90, 0.75, 0.50] {
        if v.len() >= 10 && v.len() - rank(v.len(), q) >= 10 {
            return (q * 100.0, quantile(v, q));
        }
    }
    (100.0, quantile(v, 1.0))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// splitmix64: a stateless mixer, so request `i` of client `c` can be
/// regenerated from `(seed, c, i)` alone when the oracle replays it.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded generator for the mutation streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix64(seed))
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = mix64(self.0);
        self.0 % n
    }
}

pub fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

/// Hash of λ plus every node's parent, λ and delta cells: two
/// hierarchies with equal fingerprints are the same decomposition.
pub fn hierarchy_fingerprint(h: &Hierarchy) -> u64 {
    let mut s = DefaultHasher::new();
    h.lambdas().hash(&mut s);
    for node in h.nodes() {
        node.parent.hash(&mut s);
        node.lambda.hash(&mut s);
        node.cells.hash(&mut s);
    }
    s.finish()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets `VmHWM` to the current resident size, so the next
/// [`peak_rss_mib`] reports the peak of what ran in between. Without
/// the reset, the process peak depends on which malloc arenas the
/// frontier engine's short-lived worker threads happened to retain
/// memory in, which varies by ±10% between identical runs.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}
