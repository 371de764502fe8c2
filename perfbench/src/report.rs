//! Measurement helpers: the seeded generator, order statistics, peak
//! memory, selection digests and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: a small deterministic generator, so one seed fixes every
/// input order the benchmark draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        rng.next_u64();
        rng
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Milliseconds in `d`, with full precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Quantile `q` of `samples`, interpolating linearly between the closest
/// ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of positive `values`; 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size (`VmHWM`) in MiB of process `pid` — `"self"`
/// for this process.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Calibration-kernel time, ms, of the reference machine that the batch
/// workloads' end-to-end times are scaled to.
pub const REFERENCE_KERNEL_MS: f64 = 1.0;

/// Samples of a fixed CPU kernel that is independent of the program
/// under test: pseudo-random read-modify-write and popcounts over a
/// 256 KiB table.
///
/// The shared host's speed drifts by 20–50% over seconds to minutes, and
/// the search slows with it. The kernel drifts the same way, so a wall
/// time multiplied by [`Calibration::scale`] reads the same on a fast
/// and a slow moment of the host. The program cannot change the kernel's
/// time.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            table: vec![1; 1 << 15],
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// Times the kernel once.
    pub fn sample(&mut self) {
        let start = std::time::Instant::now();
        let mask = self.table.len() - 1;
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
        for _ in 0..240_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.table[i] ^= x;
            acc = acc.wrapping_add(u64::from(self.table[i].count_ones()));
        }
        std::hint::black_box(acc);
        self.samples.push(ms(start.elapsed()));
    }

    /// The median kernel time, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The factor that turns a wall time on this host into one on the
    /// reference machine: [`REFERENCE_KERNEL_MS`] over the median.
    pub fn scale(&self) -> f64 {
        REFERENCE_KERNEL_MS / self.median_ms()
    }
}

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The FNV-1a offset basis: the hash of nothing.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Named metrics with units, in output order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit, as one JSON object.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// One row of the per-layer table: layer name, self time per pass (ms)
/// and calls per pass.
pub type LayerRow = (&'static str, f64, f64);

/// Prints the per-layer table against an end-to-end time of `total_ms`
/// per pass, returning each layer's share in percent.
pub fn print_layer_table(rows: &[LayerRow], total_ms: f64) -> Vec<(&'static str, f64)> {
    println!("layer        self_ms/pass       calls/pass   share");
    let mut shares = Vec::new();
    for &(layer, self_ms, calls) in rows {
        let share = if total_ms > 0.0 {
            100.0 * self_ms / total_ms
        } else {
            0.0
        };
        println!("{layer:<10} {self_ms:>14.3} {calls:>16.1} {share:>6.2}%");
        shares.push((layer, share));
    }
    let covered: f64 = rows.iter().map(|r| r.1).sum();
    println!(
        "{:<10} {:>14.3} {:>16} {:>6.2}%",
        "(total)",
        total_ms,
        "",
        if total_ms > 0.0 {
            100.0 * covered / total_ms
        } else {
            0.0
        }
    );
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        Rng::new(7, 1).shuffle(&mut a);
        Rng::new(7, 1).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..16).collect();
        Rng::new(8, 1).shuffle(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.push("pass_s", 0.5, "s");
        m.push("count", 3.0, "count");
        assert_eq!(
            m.result_line(true, 4, 0),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"pass_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
