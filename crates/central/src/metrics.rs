//! Lock-free serving metrics: relaxed-atomic counters and fixed-bucket
//! log-scale histograms, aggregated in a [`MetricsRegistry`].
//!
//! The paper's entire evaluation is built on per-phase breakdowns of
//! Algorithm 1; a *service* built on the same algorithm needs the
//! aggregate view — how many queries ran, how fast at the tail, how much
//! expansion work they did — without adding measurable cost to the hot
//! path. Everything here is therefore:
//!
//! * **lock-free** — recording is a handful of relaxed `fetch_add`s; no
//!   mutex, no allocation, safe to call from any worker thread;
//! * **fixed-footprint** — a [`LogHistogram`] is 64 power-of-two buckets
//!   (`bucket i` holds values in `[2^(i-1), 2^i)`, bucket 0 holds `0`),
//!   so one histogram is a flat 66-word array regardless of how many
//!   observations it absorbs;
//! * **mergeable and snapshot-able** — [`HistogramSnapshot`] is plain
//!   serde-serializable data whose merge is element-wise addition
//!   (associative and commutative, property-tested), so per-thread or
//!   per-process histograms fold into one.
//!
//! Percentiles come out of the snapshot by cumulative scan; a reported
//! percentile is the *upper bound* of the bucket holding that rank, which
//! makes the estimate conservative (never under-reports a latency) and
//! monotone in `p`. With power-of-two buckets the relative error is at
//! most 2×, which is the right resolution for p50/p95/p99 dashboards.
//!
//! The registry is fed by the engine facade (`wikisearch-engine`) — one
//! latency and one expansion observation per query, plus cache-hit/miss
//! and budget-trip counters — and by the server's front end (responses
//! served, connections shed, panics, oversized lines, slow queries).
//! Every series is declared once, in the `registry!` table below, with
//! the keys it shows on each surface; the serving layer walks
//! [`COUNTERS`] and [`HISTOGRAMS`] to render JSON (`STATS`, `STATS
//! WINDOW`, `TOP`) and Prometheus text (`METRICS`), and the telemetry
//! ring walks them to flatten samples.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets. Bucket 0 holds the value `0`; bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`; the last bucket absorbs
/// everything beyond `2^(BUCKETS-2)`.
pub const BUCKETS: usize = 64;

/// The bucket index holding `v`: 0 for 0, otherwise `64 - v.leading_zeros()`
/// clamped to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`); the last bucket is
/// unbounded and reports `u64::MAX`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A relaxed-atomic monotone counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one; returns the new value.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A concurrent fixed-bucket log-scale histogram of `u64` observations.
///
/// Recording is three relaxed `fetch_add`s (bucket, count, sum) — callers
/// on the serving path never contend on a lock. Reads go through
/// [`LogHistogram::snapshot`], which is consistent *enough* for
/// monitoring (each word is read atomically; the set is not a
/// transaction).
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Fold another histogram's counts into this one.
    pub fn merge(&self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A plain-data copy of the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data image of a [`LogHistogram`]: serde-serializable, mergeable
/// by element-wise addition, and the thing percentiles are computed from.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot with the standard bucket layout.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: vec![0; BUCKETS], count: 0, sum: 0 }
    }

    /// Element-wise merge (associative and commutative — merging
    /// per-thread snapshots in any grouping or order yields the same
    /// aggregate, which the property suite verifies). Additions wrap on
    /// overflow, matching the relaxed `fetch_add`s of the live histogram,
    /// so merging snapshots equals recording the concatenated streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.wrapping_add(theirs);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Bucket-wise difference from an older image of the same live
    /// histogram. The counts are monotone, so the saturating subtraction
    /// only engages if a torn pair slipped through — the delta stays
    /// well-formed either way.
    pub fn delta(&self, older: &HistogramSnapshot) -> HistogramSnapshot {
        let at = |h: &HistogramSnapshot, i: usize| h.buckets.get(i).copied().unwrap_or(0);
        let width = self.buckets.len().max(older.buckets.len());
        HistogramSnapshot {
            buckets: (0..width).map(|i| at(self, i).saturating_sub(at(older, i))).collect(),
            count: self.count.saturating_sub(older.count),
            sum: self.sum.saturating_sub(older.sum),
        }
    }

    /// The value at quantile `p ∈ [0, 1]`, reported as the upper bound of
    /// the bucket containing that rank (a conservative estimate: the true
    /// value is at most the reported one, and at least half of it).
    /// Returns 0 for an empty histogram. Monotone in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Mean of the observed values (exact — the sum is tracked, not
    /// bucketed). 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// How one registry counter appears on the serving surfaces.
#[derive(Clone, Copy, Debug)]
pub struct CounterSeries {
    /// The counter's field in [`MetricsRegistry`] and [`MetricsSnapshot`],
    /// and its key in `STATS WINDOW` and `TOP`.
    pub name: &'static str,
    /// `STATS` key paths: a bare key sits at the top level of the
    /// document, an `engine.`-prefixed one inside its `engine` object.
    pub stats: &'static [&'static str],
    /// `METRICS` families as `(name, help)`. `ws_server_*` families are
    /// exposed last, after every subsystem's families.
    pub prometheus: &'static [(&'static str, &'static str)],
    /// Reported by `STATS WINDOW`, as the count inside the window.
    pub window: bool,
    /// Reported by `TOP`.
    pub top: bool,
}

impl CounterSeries {
    /// On no surface: a table row names the surfaces it shows on.
    const HIDDEN: CounterSeries =
        CounterSeries { name: "", stats: &[], prometheus: &[], window: false, top: false };
}

/// How one registry histogram appears on the serving surfaces.
#[derive(Clone, Copy, Debug)]
pub struct HistogramSeries {
    /// Key of its percentile block in `STATS` and `STATS WINDOW`.
    pub stats: &'static str,
    /// The `METRICS` family as `(name, help)`.
    pub prometheus: (&'static str, &'static str),
    /// Observations are microseconds: `STATS` reports them in
    /// milliseconds (`_ms` keys), `METRICS` in seconds.
    pub micros: bool,
}

/// Generates [`MetricsRegistry`], [`MetricsSnapshot`], the [`COUNTERS`]
/// and [`HISTOGRAMS`] tables and the per-series plumbing from one list
/// of series. Declaration order is every surface's key order.
macro_rules! registry {
    (
        counters { $( $(#[$cmeta:meta])* $c:ident { $($cf:ident: $cv:expr),* $(,)? } )* }
        histograms { $( $(#[$hmeta:meta])* $h:ident { $($hf:ident: $hv:expr),* $(,)? } )* }
    ) => {
        /// The service-wide metrics registry: every counter and histogram
        /// the serving path feeds, behind relaxed atomics. One registry
        /// lives inside each `WikiSearch` engine; the server's diagnostic
        /// verbs render its [`MetricsRegistry::snapshot`].
        #[derive(Default)]
        pub struct MetricsRegistry {
            $( $(#[$cmeta])* pub $c: Counter, )*
            $( $(#[$hmeta])* pub $h: LogHistogram, )*
        }

        /// Serde-serializable image of a [`MetricsRegistry`].
        #[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $( $(#[$cmeta])* pub $c: u64, )*
            $( $(#[$hmeta])* pub $h: HistogramSnapshot, )*
        }

        /// Every registry counter's surfaces, in declaration order.
        #[allow(clippy::needless_update)] // a row may set every field
        pub const COUNTERS: &[CounterSeries] = &[$(CounterSeries {
            name: stringify!($c),
            $($cf: $cv,)*
            ..CounterSeries::HIDDEN
        }),*];

        /// Every registry histogram's surfaces, in declaration order.
        pub const HISTOGRAMS: &[HistogramSeries] =
            &[$(HistogramSeries { $($hf: $hv),* }),*];

        impl MetricsRegistry {
            /// An empty registry.
            pub fn new() -> Self {
                Self::default()
            }

            /// A plain-data image of every counter and histogram.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($c: self.$c.get(),)* $($h: self.$h.snapshot(),)* }
            }
        }

        impl MetricsSnapshot {
            /// Counter values, parallel to [`COUNTERS`].
            pub fn counters(&self) -> [u64; COUNTERS.len()] {
                [$(self.$c),*]
            }

            /// Histogram images, parallel to [`HISTOGRAMS`].
            pub fn histograms(&self) -> [&HistogramSnapshot; HISTOGRAMS.len()] {
                [$(&self.$h),*]
            }

            /// Rebuild from values parallel to [`COUNTERS`] and [`HISTOGRAMS`].
            pub fn from_series(
                counters: [u64; COUNTERS.len()],
                histograms: [HistogramSnapshot; HISTOGRAMS.len()],
            ) -> Self {
                let [$($c),*] = counters;
                let [$($h),*] = histograms;
                MetricsSnapshot { $($c,)* $($h,)* }
            }

            /// What the registry recorded between `older` and `self`, two
            /// images of the same live registry.
            pub fn delta(&self, older: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($c: self.$c.saturating_sub(older.$c),)*
                    $($h: self.$h.delta(&older.$h),)*
                }
            }
        }
    };
}

// Row order is wire order on every surface (pinned by the serving
// layer's golden captures), which is why server and engine counters
// interleave.
registry! {
    counters {
        /// Queries answered (cache hits and computed searches alike).
        queries { stats: &["engine.queries"], window: true,
            prometheus: &[("ws_queries_total", "Queries answered by the engine.")] }
        /// Successful query responses (what `serve --max-requests` counts).
        served { stats: &["served"], window: true, top: true,
            prometheus: &[("ws_server_served_total", "Successful query responses.")] }
        /// Connections refused because the server's worker queue was full.
        shed { stats: &["shed"], prometheus: &[("ws_server_shed_total",
            "Connections refused because the worker queue was full.")] }
        /// Queries answered from the result cache.
        cache_hits { stats: &["engine.cache_hits"], window: true,
            prometheus: &[("ws_cache_hits_total", "Queries answered from the result cache.")] }
        /// Queries that missed the cache and ran the two-stage search.
        cache_misses { stats: &["engine.cache_misses"], window: true, prometheus: &[(
            "ws_cache_misses_total", "Queries that missed the result cache and ran a search.")] }
        /// Queries aborted by their wall-clock deadline.
        deadline_exceeded { stats: &["engine.deadline_exceeded", "timeouts"], window: true,
            prometheus: &[("ws_deadline_exceeded_total",
                "Queries aborted by their wall-clock deadline.")] }
        /// Queries aborted by their expansion cap.
        budget_exhausted { stats: &["engine.budget_exhausted", "budget_exhausted"], window: true,
            prometheus: &[("ws_budget_exhausted_total",
                "Queries aborted by their expansion cap.")] }
        /// Queries that panicked (their sessions were quarantined).
        panics { stats: &["panics"], prometheus: &[("ws_server_panics_total",
            "Queries that panicked (sessions quarantined).")] }
        /// Request lines rejected for exceeding the server's size cap.
        oversized { stats: &["oversized"], prometheus: &[("ws_server_oversized_total",
            "Request lines rejected for exceeding the size cap.")] }
        /// Queries at or over the server's slow-query threshold (logged).
        slow_queries { stats: &["slow_queries"], prometheus: &[("ws_server_slow_queries_total",
            "Queries at or over the slow-query threshold.")] }
        /// Queries refused because a remote shard was unreachable past its
        /// retry budget and degraded answers were not allowed.
        shard_unavailable { stats: &["engine.shard_unavailable", "shard_unavailable"], window: true,
            prometheus: &[
                ("ws_shard_unavailable_total",
                    "Queries refused because a remote shard was unreachable."),
                ("ws_server_shard_unavailable_total",
                    "Queries refused at the server because a remote shard was down."),
            ] }
    }
    histograms {
        /// End-to-end query latency in microseconds (successful queries).
        latency_us { stats: "latency", micros: true,
            prometheus: ("ws_latency_seconds", "End-to-end query latency (successful queries).") }
        /// Expansion units per computed search (Algorithm 2 work items).
        expansions { stats: "expansions", micros: false,
            prometheus: ("ws_expansions", "Expansion units per computed search.") }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 5, 100, 1023, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} above its bucket");
            if i > 0 && i < BUCKETS - 1 {
                assert!(v > bucket_upper_bound(i - 1), "{v} below its bucket");
            }
        }
    }

    #[test]
    fn percentiles_come_from_bucket_upper_bounds() {
        let h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        // p50 rank is 50 → bucket [32,64) → upper bound 63.
        assert_eq!(s.percentile(0.5), 63);
        // p99 rank is 99 → bucket [64,128) → upper bound 127.
        assert_eq!(s.percentile(0.99), 127);
        assert_eq!(s.percentile(0.0), 1, "rank clamps to the first observation");
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let h = LogHistogram::new();
        for v in [0u64, 3, 17, 17, 400, 90_000, 90_000, 1 << 33] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut last = 0;
        for p in 0..=100 {
            let v = s.percentile(p as f64 / 100.0);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn snapshot_merge_is_elementwise() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(5);
        a.record(1000);
        b.record(5);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        let all = LogHistogram::new();
        for v in [5u64, 1000, 5] {
            all.record(v);
        }
        assert_eq!(sa, all.snapshot());
    }

    #[test]
    fn live_merge_folds_counts() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(7);
        b.record(9);
        b.record(u64::MAX);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[bucket_index(7)], 1);
        assert_eq!(s.buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn registry_snapshot_round_trips_through_serde() {
        let r = MetricsRegistry::new();
        r.queries.add(3);
        r.cache_hits.inc();
        r.latency_us.record(1500);
        r.expansions.record(64);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.queries, 3);
        assert_eq!(back.latency_us.count, 1);
    }

    #[test]
    fn concurrent_records_match_a_sequential_oracle() {
        let h = LogHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let oracle = LogHistogram::new();
        for t in 0..8u64 {
            for i in 0..1000 {
                oracle.record(t * 1000 + i);
            }
        }
        assert_eq!(h.snapshot(), oracle.snapshot());
    }
}
