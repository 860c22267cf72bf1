//! Open-loop load generation and latency recording.
//!
//! A closed-loop driver (every worker issues its next transaction the moment
//! the previous one commits — `run_threads`'s model) cannot observe overload:
//! the offered load self-throttles to the service rate and latency looks
//! flat. Serving "millions of users" means the opposite regime: arrivals
//! keep coming whether or not the server keeps up, and queueing delay —
//! sojourn time, completion minus *scheduled arrival* — is the number users
//! feel. This module supplies the two pieces the server harness needs:
//!
//! * [`ArrivalProcess`]: seeded, precomputed arrival timestamps (Poisson or
//!   on/off burst-modulated Poisson), in abstract time units so the same plan
//!   drives wall-clock nanoseconds and virtual-clock work units;
//! * [`LatencyHisto`]: a log-bucketed histogram (16 sub-buckets per octave,
//!   ≤ 6.25% relative error) with p50/p99/p999 extraction and cross-worker
//!   merge — constant memory no matter how many requests are recorded.
//!
//! Arrivals are *precomputed* rather than drawn inline so that a run's
//! offered load is a pure function of `(process, rate, seed)` — the
//! virtual-time `microbench` server cell replays the identical arrival plan across
//! batching/admission variants, making their latency tables directly
//! comparable (same comparability rule as `docs/virtual-time.md`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The shape of an open-loop arrival stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps with the given
    /// mean (time units per arrival).
    Poisson {
        /// Mean inter-arrival gap in time units.
        mean_gap: f64,
    },
    /// On/off burst modulation: `burst_len` arrivals at `mean_gap / factor`
    /// spacing, then one quiet gap of `mean_gap * factor`, repeating. The
    /// long-run mean rate stays close to `1 / mean_gap` while the short-run
    /// rate inside a burst is `factor` times it — the arrival pattern that
    /// convoys a retry-based fallback path.
    Burst {
        /// Mean inter-arrival gap in time units (long-run average).
        mean_gap: f64,
        /// Arrivals per burst.
        burst_len: u32,
        /// Burst intensity: in-burst rate multiplier and quiet-gap stretch.
        factor: f64,
    },
}

impl ArrivalProcess {
    /// Generate `n` arrival timestamps (time units from the stream start,
    /// non-decreasing), deterministically from `seed`.
    pub fn timestamps(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0A12_17A1_5EED);
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let gap = match *self {
                ArrivalProcess::Poisson { mean_gap } => exp_draw(&mut rng, mean_gap),
                ArrivalProcess::Burst {
                    mean_gap,
                    burst_len,
                    factor,
                } => {
                    let pos = i as u32 % (burst_len + 1);
                    if pos == burst_len {
                        // The quiet gap between bursts.
                        exp_draw(&mut rng, mean_gap * factor)
                    } else {
                        exp_draw(&mut rng, mean_gap / factor)
                    }
                }
            };
            t += gap;
            out.push(t as u64);
        }
        out
    }
}

/// Inverse-CDF exponential draw with mean `mean` (clamped away from ln(0)).
fn exp_draw(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
    -mean * (1.0 - u).ln()
}

/// Sub-buckets per octave: values ≥ [`SUB`] share a bucket with at most
/// `1/SUB` relative width.
const SUB: usize = 16;
/// log2([`SUB`]).
const SUB_SHIFT: u32 = 4;
/// Bucket count covering the full `u64` range: [`SUB`] exact unit buckets
/// plus `(63 - SUB_SHIFT + 1)` octaves of [`SUB`] sub-buckets.
const BUCKETS: usize = SUB + (64 - SUB_SHIFT as usize) * SUB;

/// Log-bucketed latency histogram: exact below `SUB` (16), ≤ 1/`SUB` relative
/// error above, constant size (`BUCKETS` counters) regardless of sample
/// count. Quantiles report the *upper edge* of the containing bucket, so a
/// reported p999 never understates the observed latency.
#[derive(Clone)]
pub struct LatencyHisto {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHisto {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
            sum: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= SUB_SHIFT
        let sub = ((v >> (exp - SUB_SHIFT)) as usize) & (SUB - 1);
        SUB + (exp - SUB_SHIFT) as usize * SUB + sub
    }

    /// The largest value mapping to `idx`'s bucket (what quantiles report).
    fn bucket_high(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let exp = ((idx - SUB) / SUB) as u32 + SUB_SHIFT;
        let sub = ((idx - SUB) % SUB) as u64;
        // Bucket low edge: (SUB + sub) << (exp - SUB_SHIFT); width: one step.
        let step = 1u64 << (exp - SUB_SHIFT);
        ((SUB as u64 + sub) << (exp - SUB_SHIFT)).saturating_add(step - 1)
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), as the upper edge of the containing
    /// bucket, capped at the exact observed max; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the tail metric of `microbench`'s `server` rows.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold another worker's histogram into this one.
    pub fn merge(&mut self, o: &LatencyHisto) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
        self.max = self.max.max(o.max);
        self.sum += o.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_rate_accurate() {
        let p = ArrivalProcess::Poisson { mean_gap: 100.0 };
        let a = p.timestamps(10_000, 42);
        let b = p.timestamps(10_000, 42);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, p.timestamps(10_000, 43), "seed matters");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        // Long-run rate within 5% of 1/mean_gap.
        let span = *a.last().unwrap() as f64;
        let mean = span / a.len() as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean gap {mean}");
    }

    #[test]
    fn burst_concentrates_arrivals() {
        let p = ArrivalProcess::Burst {
            mean_gap: 100.0,
            burst_len: 8,
            factor: 8.0,
        };
        let a = p.timestamps(9_000, 7);
        // In-burst gaps are ~mean/8; quiet gaps ~mean*8. Median gap must be
        // far below the long-run mean.
        let mut gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        assert!(median < 50, "median in-burst gap {median} not bursty");
        let p95 = gaps[gaps.len() * 95 / 100];
        assert!(p95 > 200, "no quiet gaps (p95 {p95})");
    }

    #[test]
    fn histo_buckets_are_exact_low_and_bounded_high() {
        let mut h = LatencyHisto::new();
        for v in 0..SUB as u64 {
            assert_eq!(LatencyHisto::bucket_high(LatencyHisto::bucket(v)), v);
        }
        for v in [100u64, 1_000, 123_456, u64::MAX / 3] {
            let high = LatencyHisto::bucket_high(LatencyHisto::bucket(v));
            assert!(high >= v, "upper edge {high} below sample {v}");
            assert!(
                (high - v) as f64 <= v as f64 / SUB as f64 + 1.0,
                "bucket too wide at {v}: {high}"
            );
        }
        h.record(3);
        h.record(5);
        h.record(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.p50(), 5);
        assert!(h.p999() >= 1000 && h.p999() <= 1000 + 1000 / SUB as u64 + 1);
    }

    #[test]
    fn quantiles_and_merge() {
        let mut a = LatencyHisto::new();
        let mut b = LatencyHisto::new();
        for v in 1..=1000u64 {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.p50();
        assert!((450..=560).contains(&p50), "p50 {p50}");
        let p99 = a.p99();
        assert!((980..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(a.quantile(1.0), 1000);
        assert!((a.mean() - 500.5).abs() < 1.0);
        assert_eq!(LatencyHisto::new().p999(), 0, "empty histogram");
    }
}
