//! Timestamped scalar series with window queries.
//!
//! [`TimeSeries`] is the storage primitive behind the telemetry store: a
//! monotonically appended list of `(time, value)` points with binary-searched
//! window extraction and min/max/mean reduction over a window — exactly the
//! reduction the paper applies to each LDMS counter over the five minutes
//! before a job runs (Section III-A).

use crate::snapshot::{self, Restorable, Snapshot, SnapshotError, Val};
use crate::stats::OnlineStats;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// The `(min, max, mean)` reduction of a counter over a window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowAggregate {
    /// Number of points in the window.
    pub count: usize,
    /// Minimum value; 0 when the window is empty.
    pub min: f64,
    /// Maximum value; 0 when the window is empty.
    pub max: f64,
    /// Mean value; 0 when the window is empty.
    pub mean: f64,
}

impl WindowAggregate {
    /// The aggregate of an empty window: all zeros.
    ///
    /// Telemetry pipelines treat "no samples" as zero activity rather than
    /// poisoning downstream feature vectors with NaNs.
    pub const EMPTY: WindowAggregate = WindowAggregate {
        count: 0,
        min: 0.0,
        max: 0.0,
        mean: 0.0,
    };
}

/// An append-only series of timestamped values.
///
/// ```
/// use rush_simkit::{SimTime, TimeSeries};
///
/// let mut series = TimeSeries::new();
/// for s in 0..10 {
///     series.push(SimTime::from_secs(s), s as f64);
/// }
/// let agg = series.aggregate(SimTime::from_secs(2), SimTime::from_secs(5));
/// assert_eq!(agg.min, 2.0);
/// assert_eq!(agg.max, 4.0);
/// assert_eq!(agg.mean, 3.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// An empty series with room for `cap` points.
    pub fn with_capacity(cap: usize) -> Self {
        TimeSeries {
            times: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Appends a point. Points must be appended in non-decreasing time
    /// order; out-of-order appends panic in debug builds and are clamped to
    /// the last timestamp otherwise.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&last) = self.times.last() {
            debug_assert!(at >= last, "out-of-order append at {at}, last {last}");
            let at = at.max(last);
            self.times.push(at);
        } else {
            self.times.push(at);
        }
        self.values.push(value);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The last point, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// Iterates over all points.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Values with timestamps in the half-open window `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> &[f64] {
        let lo = self.times.partition_point(|&t| t < from);
        let hi = self.times.partition_point(|&t| t < to);
        &self.values[lo..hi]
    }

    /// Min/max/mean over `[from, to)`; [`WindowAggregate::EMPTY`] when no
    /// points fall inside.
    pub fn aggregate(&self, from: SimTime, to: SimTime) -> WindowAggregate {
        let vals = self.window(from, to);
        if vals.is_empty() {
            return WindowAggregate::EMPTY;
        }
        let mut st = OnlineStats::new();
        for &v in vals {
            st.push(v);
        }
        WindowAggregate {
            count: vals.len(),
            min: st.min(),
            max: st.max(),
            mean: st.mean(),
        }
    }

    /// Drops all points with timestamps strictly before `cutoff`.
    ///
    /// The telemetry store calls this periodically so months-long campaigns
    /// do not grow memory without bound.
    pub fn retain_from(&mut self, cutoff: SimTime) {
        let lo = self.times.partition_point(|&t| t < cutoff);
        if lo > 0 {
            self.times.drain(..lo);
            self.values.drain(..lo);
        }
    }

    /// Appends the canonical text of this series' snapshot (what
    /// `to_val().render()` gives) without building the tree.
    pub fn render_snapshot(&self, out: &mut Vec<u8>) {
        render_points(out, &self.times, &self.values);
    }
}

impl Snapshot for TimeSeries {
    fn to_val(&self) -> Val {
        Val::map()
            .with(
                "t",
                Val::List(self.times.iter().map(|t| Val::U64(t.as_micros())).collect()),
            )
            .with(
                "v",
                Val::List(self.values.iter().map(|&v| Val::from_f64(v)).collect()),
            )
    }
}

/// Appends `{"t":[..],"v":[..]}`, the canonical text of a [`TimeSeries`]
/// snapshot with these points, without building a [`Val`] per point.
/// `values` may hold several values per timestamp (a row-major block).
pub fn render_points(out: &mut Vec<u8>, times: &[SimTime], values: &[f64]) {
    snapshot::render_map(out, |map| {
        map.entry_with("t", |out| {
            snapshot::render_list(out, times, |out, t| {
                snapshot::render_u64(out, t.as_micros())
            })
        });
        map.entry_with("v", |out| {
            snapshot::render_list(out, values, |out, &v| snapshot::render_f64(out, v))
        });
    });
}

impl Restorable for TimeSeries {
    fn from_val(v: &Val) -> Result<Self, SnapshotError> {
        let times: Vec<SimTime> = v
            .l("t")?
            .iter()
            .map(|t| t.as_u64().map(SimTime::from_micros))
            .collect::<Result<_, _>>()?;
        let values: Vec<f64> = v
            .l("v")?
            .iter()
            .map(Val::as_f64)
            .collect::<Result<_, _>>()?;
        if times.len() != values.len() {
            return Err(SnapshotError::Schema("series length mismatch".to_string()));
        }
        Ok(TimeSeries { times, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_series() -> TimeSeries {
        let mut ts = TimeSeries::new();
        for i in 0..10u64 {
            ts.push(t(i), i as f64);
        }
        ts
    }

    #[test]
    fn window_is_half_open() {
        let ts = sample_series();
        assert_eq!(ts.window(t(2), t(5)), &[2.0, 3.0, 4.0]);
        assert_eq!(ts.window(t(0), t(1)), &[0.0]);
        assert_eq!(ts.window(t(9), t(100)), &[9.0]);
        assert!(ts.window(t(20), t(30)).is_empty());
        assert!(ts.window(t(5), t(5)).is_empty());
    }

    #[test]
    fn aggregate_computes_min_max_mean() {
        let ts = sample_series();
        let agg = ts.aggregate(t(2), t(5));
        assert_eq!(agg.count, 3);
        assert_eq!(agg.min, 2.0);
        assert_eq!(agg.max, 4.0);
        assert!((agg.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_aggregates_to_zero() {
        let ts = sample_series();
        assert_eq!(ts.aggregate(t(50), t(60)), WindowAggregate::EMPTY);
        assert_eq!(
            TimeSeries::new().aggregate(t(0), t(10)),
            WindowAggregate::EMPTY
        );
    }

    #[test]
    fn last_and_len() {
        let ts = sample_series();
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.last(), Some((t(9), 9.0)));
        assert!(TimeSeries::new().last().is_none());
    }

    #[test]
    fn retain_from_drops_prefix() {
        let mut ts = sample_series();
        ts.retain_from(t(7));
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.window(t(0), t(100)), &[7.0, 8.0, 9.0]);
        // retaining from before the first point is a no-op
        ts.retain_from(t(0));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn duplicate_timestamps_allowed() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), 1.0);
        ts.push(t(1), 2.0);
        assert_eq!(ts.window(t(1), t(2)), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    #[cfg(debug_assertions)]
    fn out_of_order_append_panics_in_debug() {
        let mut ts = TimeSeries::new();
        ts.push(t(5), 1.0);
        ts.push(t(1), 2.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn window_matches_linear_scan(
            points in proptest::collection::vec(0u64..1000, 0..64),
            from in 0u64..1000,
            width in 0u64..500,
        ) {
            let mut sorted = points.clone();
            sorted.sort_unstable();
            let mut ts = TimeSeries::new();
            for (i, &p) in sorted.iter().enumerate() {
                ts.push(SimTime::from_secs(p), i as f64);
            }
            let to = from + width;
            let expected: Vec<f64> = sorted
                .iter()
                .enumerate()
                .filter(|(_, &p)| p >= from && p < to)
                .map(|(i, _)| i as f64)
                .collect();
            prop_assert_eq!(
                ts.window(SimTime::from_secs(from), SimTime::from_secs(to)),
                expected.as_slice()
            );
        }

        #[test]
        fn aggregate_bounds_hold(points in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
            let mut ts = TimeSeries::new();
            for (i, &v) in points.iter().enumerate() {
                ts.push(SimTime::from_secs(i as u64), v);
            }
            let agg = ts.aggregate(SimTime::ZERO, SimTime::from_secs(points.len() as u64));
            prop_assert_eq!(agg.count, points.len());
            prop_assert!(agg.min <= agg.mean + 1e-9);
            prop_assert!(agg.mean <= agg.max + 1e-9);
        }
    }

    #[test]
    fn rendered_points_match_the_snapshot_tree() {
        let mut ts = TimeSeries::new();
        for (s, v) in [(0, 1.5), (11, -0.0), (12, f64::NAN), (12, f64::MAX)] {
            ts.push(SimTime::from_secs(s), v);
        }
        let mut out = Vec::new();
        ts.render_snapshot(&mut out);
        assert_eq!(out, ts.to_val().render().into_bytes());
        let mut empty = Vec::new();
        TimeSeries::new().render_snapshot(&mut empty);
        assert_eq!(empty, TimeSeries::new().to_val().render().into_bytes());
    }
}
