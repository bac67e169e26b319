//! HDR-style log-linear histograms with quantile queries.
//!
//! A [`HdrHistogram`] covers the full `u64` range with a fixed layout:
//! values below 64 get exact unit-width buckets, and each further power of
//! two is split into 64 linear sub-buckets, bounding the relative bucket
//! width at 1/64 (~1.6%) everywhere. The layout is identical for every
//! instance, so histograms merge by bucket-wise addition, and recording is
//! a single `fetch_add` on a fixed slot — lock-free and allocation-free.
//!
//! Quantiles (`p50`/`p90`/`p99`/`p999`) are computed on demand by walking
//! the cumulative counts; a reported quantile is the upper bound of the
//! bucket holding the target rank, so it sits within one bucket width of
//! the exact order statistic.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of linear sub-buckets per power-of-two block (2^6).
const SUB_BUCKETS: u64 = 64;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 6;
/// Total fixed bucket count covering all of `u64`:
/// 64 unit buckets plus one 64-sub-bucket block per top bit 6..=63.
const BUCKETS: usize = ((1 + 64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// Maps a value to its fixed bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let top = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = top - SUB_BITS;
        let block = (top - SUB_BITS + 1) as u64;
        (block * SUB_BUCKETS + ((v >> shift) - SUB_BUCKETS)) as usize
    }
}

/// The inclusive `[lo, hi]` range of values sharing bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        (idx, idx)
    } else {
        let block = idx / SUB_BUCKETS; // >= 1
        let pos = idx % SUB_BUCKETS;
        let shift = (block - 1) as u32;
        let lo = (SUB_BUCKETS + pos) << shift;
        // For the topmost block `lo + 2^shift` is exactly 2^64: subtract
        // first so the upper bound lands on `u64::MAX` without overflow.
        let hi = lo + ((1u64 << shift) - 1);
        (lo, hi)
    }
}

#[derive(Debug)]
struct HdrInner {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A mergeable log-linear histogram over `u64` values (typically
/// nanoseconds or microseconds) with bounded relative error.
#[derive(Debug, Clone)]
pub struct HdrHistogram(Arc<HdrInner>);

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::new()
    }
}

impl HdrHistogram {
    /// Creates an empty histogram. Every instance shares the same fixed
    /// bucket layout, so any two histograms are mergeable.
    pub fn new() -> Self {
        HdrHistogram(Arc::new(HdrInner {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one observation. Lock-free; no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        inner.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_nanos(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts timing a section; its nanoseconds are recorded when the
    /// guard drops, on every path out of the section.
    pub fn start_nanos(&self) -> NanosGuard {
        NanosGuard { histogram: self.clone(), started: Instant::now() }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// The inclusive `[lo, hi]` range of values indistinguishable from `v`
    /// (i.e. sharing its bucket). `hi - lo` is the bucket width the
    /// quantile error bound is stated against.
    pub fn equivalent_range(v: u64) -> (u64, u64) {
        bucket_range(bucket_index(v))
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the observation of rank `ceil(q * count)`, clamped to the
    /// recorded maximum. Returns 0 before any observation.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let inner = &self.0;
        let total = inner.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, c) in inner.counts.iter().enumerate() {
            cum = cum.saturating_add(c.load(Ordering::Relaxed));
            if cum >= rank {
                let (_, hi) = bucket_range(idx);
                return hi.min(inner.max.load(Ordering::Relaxed));
            }
        }
        inner.max.load(Ordering::Relaxed)
    }

    /// Adds every observation recorded in `other` into `self`, bucket-wise.
    /// Equivalent (up to bucket resolution) to having recorded the
    /// concatenated observation stream into one histogram.
    pub fn merge_from(&self, other: &HdrHistogram) {
        let a = &self.0;
        let b = &other.0;
        for (dst, src) in a.counts.iter().zip(b.counts.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        a.count.fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
        a.sum.fetch_add(b.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        a.min.fetch_min(b.min.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max.fetch_max(b.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Captures count/sum/min/max and the p50/p90/p99/p999 quantiles.
    pub fn snapshot(&self) -> HdrSnapshot {
        let inner = &self.0;
        let count = inner.count.load(Ordering::Relaxed);
        HdrSnapshot {
            count,
            sum: inner.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { inner.min.load(Ordering::Relaxed) },
            max: inner.max.load(Ordering::Relaxed),
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p99: self.value_at_quantile(0.99),
            p999: self.value_at_quantile(0.999),
        }
    }

    /// Per-bucket counts for the non-empty buckets (index, count); used by
    /// tests to compare merged layouts.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.0
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                if n > 0 {
                    Some((i, n))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// RAII guard from [`HdrHistogram::start_nanos`].
#[must_use = "dropping the guard records the elapsed time immediately"]
pub struct NanosGuard {
    histogram: HdrHistogram,
    started: Instant,
}

impl Drop for NanosGuard {
    fn drop(&mut self) {
        self.histogram.record_nanos(self.started.elapsed());
    }
}

/// Point-in-time state of a [`HdrHistogram`]: totals plus the
/// p50/p90/p99/p999 quantiles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HdrSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 before any observation).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// 50th-percentile value (bucket upper bound).
    pub p50: u64,
    /// 90th-percentile value.
    pub p90: u64,
    /// 99th-percentile value.
    pub p99: u64,
    /// 99.9th-percentile value.
    pub p999: u64,
}

impl HdrSnapshot {
    /// Mean of the observed values, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_self_consistent() {
        let mut last = 0usize;
        for v in (0u64..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx >= last || v < 4096 && idx >= bucket_index(v.saturating_sub(1)));
            last = last.max(idx);
            let (lo, hi) = bucket_range(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} range=({lo},{hi})");
            assert!(idx < BUCKETS);
        }
    }

    #[test]
    fn nanos_guard_records_once_on_drop() {
        let h = HdrHistogram::new();
        {
            let _timed = h.start_nanos();
            assert_eq!(h.count(), 0);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn exact_below_64() {
        let h = HdrHistogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.5), 31);
        assert_eq!(h.value_at_quantile(1.0), 63);
        assert_eq!(HdrHistogram::equivalent_range(17), (17, 17));
    }

    #[test]
    fn quantiles_within_one_bucket_width() {
        let h = HdrHistogram::new();
        let mut vals: Vec<u64> = (0..1000).map(|i| (i * i) % 50_000).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for &(q, name) in &[(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            let exact = vals[((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len()) - 1];
            let got = h.value_at_quantile(q);
            let (lo, hi) = HdrHistogram::equivalent_range(exact);
            assert!(got >= lo && got <= hi.min(*vals.last().unwrap()), "{name}: {got} vs {exact}");
        }
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let a = HdrHistogram::new();
        let b = HdrHistogram::new();
        let both = HdrHistogram::new();
        for v in [1u64, 70, 3000, 9] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 70, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.nonzero_buckets(), both.nonzero_buckets());
        assert_eq!(a.snapshot(), both.snapshot());
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = HdrHistogram::new().snapshot();
        assert_eq!(
            snap,
            HdrSnapshot { count: 0, sum: 0, min: 0, max: 0, p50: 0, p90: 0, p99: 0, p999: 0 }
        );
        assert_eq!(snap.mean(), None);
    }
}
