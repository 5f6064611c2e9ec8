//! Time-indexed counter storage (the Cassandra/Sonar stand-in).
//!
//! The store has two interchangeable layouts:
//!
//! * **Columnar** — one [`TimeSeries`] per `(node, counter)` pair
//!   ([`MetricStore::new`]). This is the original layout; it scatters every
//!   90-counter sample across 90 heap buffers, which makes the record path
//!   memory-bound at full-machine scale (each sweep touches ~50k cache
//!   lines).
//! * **Row-major** — one block per node ([`MetricStore::new_row_major`]): a
//!   sampling round appends a single timestamp plus one contiguous row of
//!   `counter_count` values, exactly the shape the sampler produces, so a
//!   sweep is a streaming write. Window queries recover per-counter columns
//!   by striding through rows, which stays cheap because retention keeps
//!   blocks short.
//!
//! Both layouts store identical data and answer every query identically —
//! the differential harness holds them to that — so the scheduler picks one
//! purely as a performance tuning. The store knows nothing about counter
//! semantics: it stores whatever vector the sampler hands it, as long as the
//! width never changes.

use rush_cluster::topology::NodeId;
use rush_simkit::series::{render_points, TimeSeries};
use rush_simkit::snapshot::{self, Restorable, SnapshotError, Val};
use rush_simkit::time::SimTime;
use serde::{Deserialize, Serialize};

/// Why a scheduled sample never made it into the store.
///
/// Real monitoring pipelines lose data for distinguishable reasons, and the
/// fault-injection layer reproduces them as *explicit* gap records rather
/// than silence: downstream consumers can then compute coverage and decide
/// whether a window is trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GapReason {
    /// Random monitoring-pipeline loss (daemon restart, network hiccup).
    Dropout,
    /// A machine-wide telemetry blackout window was active.
    Blackout,
    /// The sample was drawn but corrupted and had to be discarded.
    Corrupt,
    /// The node was down; nothing to sample.
    NodeDown,
}

/// One missing sample: when it was due and why it is missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gap {
    /// The sampling-round timestamp the sample was due at.
    pub at: SimTime,
    /// Why it is missing.
    pub reason: GapReason,
}

/// One node's samples in the row-major layout: `times[i]` stamps the row
/// `values[i * width .. (i + 1) * width]`.
#[derive(Debug, Clone, Default)]
struct NodeBlock {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl NodeBlock {
    /// Appends a row. Rows must arrive in non-decreasing time order;
    /// out-of-order appends panic in debug builds and are clamped to the
    /// last timestamp otherwise (same contract as [`TimeSeries::push`]).
    fn push_row(&mut self, at: SimTime, row: &[f64]) {
        let at = match self.times.last() {
            Some(&last) => {
                debug_assert!(at >= last, "out-of-order append at {at}, last {last}");
                at.max(last)
            }
            None => at,
        };
        self.times.push(at);
        self.values.extend_from_slice(row);
    }

    /// The row index range covering `[from, to)`.
    fn row_range(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        let lo = self.times.partition_point(|&t| t < from);
        let hi = self.times.partition_point(|&t| t < to);
        (lo, hi)
    }
}

/// The two physical layouts behind the same logical store.
#[derive(Debug, Clone)]
enum Repr {
    /// One series per `(node, counter)`, indexed `node * width + counter`.
    Columnar(Vec<TimeSeries>),
    /// One row-major block per node.
    RowMajor(Vec<NodeBlock>),
}

/// Per-node, per-counter sample storage.
#[derive(Debug, Clone)]
pub struct MetricStore {
    node_count: u32,
    counter_count: usize,
    repr: Repr,
    /// Missing-sample records per node, append-only in time order.
    gaps: Vec<Vec<Gap>>,
}

impl MetricStore {
    /// Creates columnar storage for `node_count` nodes × `counter_count`
    /// counters (the original layout).
    pub fn new(node_count: u32, counter_count: usize) -> Self {
        assert!(counter_count > 0, "store needs at least one counter");
        MetricStore {
            node_count,
            counter_count,
            repr: Repr::Columnar(vec![TimeSeries::new(); node_count as usize * counter_count]),
            gaps: vec![Vec::new(); node_count as usize],
        }
    }

    /// Creates row-major storage: one contiguous block per node, appended a
    /// whole sample row at a time.
    pub fn new_row_major(node_count: u32, counter_count: usize) -> Self {
        assert!(counter_count > 0, "store needs at least one counter");
        MetricStore {
            node_count,
            counter_count,
            repr: Repr::RowMajor(vec![NodeBlock::default(); node_count as usize]),
            gaps: vec![Vec::new(); node_count as usize],
        }
    }

    /// True when this store uses the row-major block layout.
    pub fn is_row_major(&self) -> bool {
        matches!(self.repr, Repr::RowMajor(_))
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Counters per node.
    pub fn counter_count(&self) -> usize {
        self.counter_count
    }

    fn index(&self, node: NodeId, counter: usize) -> usize {
        debug_assert!(node.0 < self.node_count, "node {node:?} out of range");
        debug_assert!(
            counter < self.counter_count,
            "counter {counter} out of range"
        );
        node.0 as usize * self.counter_count + counter
    }

    /// Records one full counter vector for `node` at time `at`.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the store's counter width.
    pub fn record(&mut self, node: NodeId, at: SimTime, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.counter_count,
            "sample width {} != store width {}",
            values.len(),
            self.counter_count
        );
        debug_assert!(node.0 < self.node_count, "node {node:?} out of range");
        match &mut self.repr {
            Repr::Columnar(series) => {
                let base = node.0 as usize * self.counter_count;
                for (i, &v) in values.iter().enumerate() {
                    series[base + i].push(at, v);
                }
            }
            Repr::RowMajor(blocks) => blocks[node.0 as usize].push_row(at, values),
        }
    }

    /// Records that `node`'s sample due at `at` was lost, and why.
    pub fn record_gap(&mut self, node: NodeId, at: SimTime, reason: GapReason) {
        debug_assert!(node.0 < self.node_count, "node {node:?} out of range");
        self.gaps[node.0 as usize].push(Gap { at, reason });
    }

    /// The missing-sample records for `node`, in time order.
    pub fn gaps(&self, node: NodeId) -> &[Gap] {
        &self.gaps[node.0 as usize]
    }

    /// Total gap records across all nodes.
    pub fn gap_count(&self) -> usize {
        self.gaps.iter().map(Vec::len).sum()
    }

    /// Number of stored sample rows for `node` in `[from, to)`.
    fn rows_in(&self, node: NodeId, from: SimTime, to: SimTime) -> usize {
        match &self.repr {
            Repr::Columnar(series) => series[self.index(node, 0)].window(from, to).len(),
            Repr::RowMajor(blocks) => {
                let (lo, hi) = blocks[node.0 as usize].row_range(from, to);
                hi - lo
            }
        }
    }

    /// Fraction of scheduled samples in `[from, to)` across `nodes` that
    /// actually made it into the store: `kept / (kept + lost)`.
    ///
    /// Returns 1.0 when nothing was scheduled in the window — an empty
    /// window is "fully covered", not suspicious; staleness is the signal
    /// for that case (see [`crate::aggregate::window_quality`]).
    pub fn coverage(&self, nodes: &[NodeId], from: SimTime, to: SimTime) -> f64 {
        let mut kept = 0usize;
        let mut lost = 0usize;
        for &node in nodes {
            kept += self.rows_in(node, from, to);
            lost += self.gaps[node.0 as usize]
                .iter()
                .filter(|g| g.at >= from && g.at < to)
                .count();
        }
        if kept + lost == 0 {
            1.0
        } else {
            kept as f64 / (kept + lost) as f64
        }
    }

    /// Timestamp of the most recent stored sample at or before `t` across
    /// `nodes`; `None` if no node has any sample by then.
    pub fn latest_sample_at(&self, nodes: &[NodeId], t: SimTime) -> Option<SimTime> {
        let mut latest = None;
        for &node in nodes {
            // All counters of a node share timestamps, so the node's
            // timestamp column (counter 0 in the columnar layout) is
            // representative.
            let candidate = match &self.repr {
                Repr::Columnar(series) => {
                    let mut best = None;
                    for (at, _) in series[self.index(node, 0)].iter() {
                        if at > t {
                            break;
                        }
                        best = Some(at);
                    }
                    best
                }
                Repr::RowMajor(blocks) => {
                    let times = &blocks[node.0 as usize].times;
                    let idx = times.partition_point(|&at| at <= t);
                    (idx > 0).then(|| times[idx - 1])
                }
            };
            latest = latest.max(candidate);
        }
        latest
    }

    /// The rows of `node` with timestamps in `[from, to)`: the matching
    /// timestamps plus the row-major value block
    /// (`values[i * counter_count + c]` is counter `c` of the `i`-th
    /// returned row). This is the zero-copy bulk-query path — aggregation
    /// walks rows once instead of binary-searching per counter.
    ///
    /// Only the row-major layout can answer without copying; columnar
    /// stores return `None` and callers fall back to per-counter
    /// [`window`](Self::window) queries.
    pub fn rows(&self, node: NodeId, from: SimTime, to: SimTime) -> Option<(&[SimTime], &[f64])> {
        match &self.repr {
            Repr::Columnar(_) => None,
            Repr::RowMajor(blocks) => {
                let block = &blocks[node.0 as usize];
                let (lo, hi) = block.row_range(from, to);
                Some((
                    &block.times[lo..hi],
                    &block.values[lo * self.counter_count..hi * self.counter_count],
                ))
            }
        }
    }

    /// Samples of `counter` on `node` within `[from, to)`, in time order.
    pub fn window(&self, node: NodeId, counter: usize, from: SimTime, to: SimTime) -> Vec<f64> {
        match &self.repr {
            Repr::Columnar(series) => series[self.index(node, counter)].window(from, to).to_vec(),
            Repr::RowMajor(blocks) => {
                debug_assert!(
                    counter < self.counter_count,
                    "counter {counter} out of range"
                );
                let block = &blocks[node.0 as usize];
                let (lo, hi) = block.row_range(from, to);
                (lo..hi)
                    .map(|row| block.values[row * self.counter_count + counter])
                    .collect()
            }
        }
    }

    /// Total stored points across all series.
    pub fn point_count(&self) -> usize {
        match &self.repr {
            Repr::Columnar(series) => series.iter().map(TimeSeries::len).sum(),
            Repr::RowMajor(blocks) => blocks.iter().map(|b| b.values.len()).sum(),
        }
    }

    /// Drops all samples and gap records before `cutoff` (memory bound for
    /// long campaigns).
    pub fn retain_from(&mut self, cutoff: SimTime) {
        match &mut self.repr {
            Repr::Columnar(series) => {
                for s in series {
                    s.retain_from(cutoff);
                }
            }
            Repr::RowMajor(blocks) => {
                let width = self.counter_count;
                for b in blocks {
                    let lo = b.times.partition_point(|&t| t < cutoff);
                    if lo > 0 {
                        b.times.drain(..lo);
                        b.values.drain(..lo * width);
                    }
                }
            }
        }
        for g in &mut self.gaps {
            let lo = g.partition_point(|gap| gap.at < cutoff);
            if lo > 0 {
                g.drain(..lo);
            }
        }
    }
}

impl MetricStore {
    /// Appends the store's canonical snapshot text, which
    /// [`MetricStore::from_val`] reads back. The store is nearly all of an
    /// engine checkpoint's bytes, so it renders straight into the output
    /// instead of building one [`Val`] per sample.
    pub fn render_snapshot(&self, out: &mut Vec<u8>) {
        snapshot::render_map(out, |map| {
            map.entry("node_count", &Val::U64(u64::from(self.node_count)));
            map.entry("counter_count", &Val::U64(self.counter_count as u64));
            map.entry_with("gaps", |out| {
                snapshot::render_list(out, &self.gaps, |out, per_node| {
                    snapshot::render_list(out, per_node, |out, g| {
                        snapshot::render_list(
                            out,
                            [g.at.as_micros(), gap_code(g.reason)],
                            snapshot::render_u64,
                        )
                    })
                })
            });
            match &self.repr {
                Repr::Columnar(series) => map.entry_with("series", |out| {
                    snapshot::render_list(out, series, |out, s| s.render_snapshot(out))
                }),
                Repr::RowMajor(blocks) => map.entry_with("blocks", |out| {
                    snapshot::render_list(out, blocks, |out, b| {
                        render_points(out, &b.times, &b.values)
                    })
                }),
            }
        });
    }
}

/// A gap reason's snapshot code (decoded in [`MetricStore::from_val`]).
fn gap_code(reason: GapReason) -> u64 {
    match reason {
        GapReason::Dropout => 0,
        GapReason::Blackout => 1,
        GapReason::Corrupt => 2,
        GapReason::NodeDown => 3,
    }
}

impl Restorable for MetricStore {
    fn from_val(v: &Val) -> Result<Self, SnapshotError> {
        let node_count = v.u("node_count")? as u32;
        let counter_count = v.u("counter_count")? as usize;
        // The layout is part of the snapshot: a store restores into the
        // representation it was captured from, so a resumed run keeps the
        // exact memory behavior of the uninterrupted one.
        let repr = if let Ok(series_vals) = v.l("series") {
            if series_vals.len() != node_count as usize * counter_count {
                return Err(SnapshotError::Schema("store series count".to_string()));
            }
            Repr::Columnar(
                series_vals
                    .iter()
                    .map(TimeSeries::from_val)
                    .collect::<Result<_, _>>()?,
            )
        } else {
            let block_vals = v.l("blocks")?;
            if block_vals.len() != node_count as usize {
                return Err(SnapshotError::Schema("store block count".to_string()));
            }
            let mut blocks = Vec::with_capacity(block_vals.len());
            for bv in block_vals {
                let times: Vec<SimTime> = bv
                    .l("t")?
                    .iter()
                    .map(|t| t.as_u64().map(SimTime::from_micros))
                    .collect::<Result<_, _>>()?;
                let values: Vec<f64> = bv
                    .l("v")?
                    .iter()
                    .map(Val::as_f64)
                    .collect::<Result<_, _>>()?;
                if values.len() != times.len() * counter_count {
                    return Err(SnapshotError::Schema("block shape mismatch".to_string()));
                }
                blocks.push(NodeBlock { times, values });
            }
            Repr::RowMajor(blocks)
        };
        let gap_vals = v.l("gaps")?;
        if gap_vals.len() != node_count as usize {
            return Err(SnapshotError::Schema("store gap rows".to_string()));
        }
        let mut gaps = Vec::with_capacity(gap_vals.len());
        for per_node in gap_vals {
            let mut row = Vec::new();
            for g in per_node.as_list()? {
                let pair = g.as_list()?;
                if pair.len() != 2 {
                    return Err(SnapshotError::Schema("gap pair".to_string()));
                }
                let reason = match pair[1].as_u64()? {
                    0 => GapReason::Dropout,
                    1 => GapReason::Blackout,
                    2 => GapReason::Corrupt,
                    3 => GapReason::NodeDown,
                    other => {
                        return Err(SnapshotError::Schema(format!("gap reason {other}")));
                    }
                };
                row.push(Gap {
                    at: SimTime::from_micros(pair[0].as_u64()?),
                    reason,
                });
            }
            gaps.push(row);
        }
        Ok(MetricStore {
            node_count,
            counter_count,
            repr,
            gaps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_simkit::snapshot::Snapshot;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Runs a test body against both layouts so every behavior contract is
    /// pinned layout-independently.
    fn for_both_layouts(node_count: u32, width: usize, body: impl Fn(MetricStore)) {
        body(MetricStore::new(node_count, width));
        body(MetricStore::new_row_major(node_count, width));
    }

    #[test]
    fn record_and_window_round_trip() {
        for_both_layouts(4, 3, |mut store| {
            store.record(NodeId(1), t(10), &[1.0, 2.0, 3.0]);
            store.record(NodeId(1), t(20), &[4.0, 5.0, 6.0]);
            assert_eq!(store.window(NodeId(1), 0, t(0), t(30)), &[1.0, 4.0]);
            assert_eq!(store.window(NodeId(1), 2, t(15), t(30)), &[6.0]);
            assert_eq!(store.window(NodeId(0), 0, t(0), t(30)), &[] as &[f64]);
            assert_eq!(store.point_count(), 6);
        });
    }

    #[test]
    fn rows_expose_matching_times_and_row_major_values() {
        let mut store = MetricStore::new_row_major(2, 2);
        store.record(NodeId(0), t(10), &[1.0, 2.0]);
        store.record(NodeId(0), t(20), &[3.0, 4.0]);
        store.record(NodeId(0), t(30), &[5.0, 6.0]);
        let (times, values) = store.rows(NodeId(0), t(15), t(35)).unwrap();
        assert_eq!(times, &[t(20), t(30)]);
        assert_eq!(values, &[3.0, 4.0, 5.0, 6.0]);
        let (times, values) = store.rows(NodeId(1), t(0), t(100)).unwrap();
        assert!(times.is_empty());
        assert!(values.is_empty());
        // Columnar stores cannot answer the bulk query without copying.
        assert!(MetricStore::new(2, 2).rows(NodeId(0), t(0), t(1)).is_none());
    }

    #[test]
    fn layouts_answer_queries_identically() {
        let mut columnar = MetricStore::new(3, 2);
        let mut rows = MetricStore::new_row_major(3, 2);
        for s in 0..12u64 {
            let vals = [s as f64, -(s as f64) * 0.5];
            for store in [&mut columnar, &mut rows] {
                store.record(NodeId((s % 3) as u32), t(s * 10), &vals);
            }
        }
        columnar.record_gap(NodeId(1), t(35), GapReason::Dropout);
        rows.record_gap(NodeId(1), t(35), GapReason::Dropout);
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        for counter in 0..2 {
            for &node in &nodes {
                assert_eq!(
                    columnar.window(node, counter, t(20), t(90)),
                    rows.window(node, counter, t(20), t(90)),
                );
            }
        }
        assert_eq!(columnar.point_count(), rows.point_count());
        assert_eq!(
            columnar.coverage(&nodes, t(0), t(120)),
            rows.coverage(&nodes, t(0), t(120)),
        );
        assert_eq!(
            columnar.latest_sample_at(&nodes, t(75)),
            rows.latest_sample_at(&nodes, t(75)),
        );
        columnar.retain_from(t(40));
        rows.retain_from(t(40));
        assert_eq!(columnar.point_count(), rows.point_count());
        assert_eq!(
            columnar.window(NodeId(0), 0, t(0), t(200)),
            rows.window(NodeId(0), 0, t(0), t(200)),
        );
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn wrong_width_rejected() {
        let mut store = MetricStore::new(2, 3);
        store.record(NodeId(0), t(1), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn wrong_width_rejected_row_major() {
        let mut store = MetricStore::new_row_major(2, 3);
        store.record(NodeId(0), t(1), &[1.0, 2.0]);
    }

    #[test]
    fn retain_from_prunes_all_series() {
        for_both_layouts(2, 2, |mut store| {
            for s in 0..10 {
                store.record(NodeId(0), t(s), &[s as f64, 0.0]);
                store.record(NodeId(1), t(s), &[0.0, s as f64]);
            }
            assert_eq!(store.point_count(), 40);
            store.retain_from(t(8));
            assert_eq!(store.point_count(), 8);
            assert_eq!(store.window(NodeId(0), 0, t(0), t(100)), &[8.0, 9.0]);
            assert_eq!(store.window(NodeId(1), 1, t(0), t(100)), &[8.0, 9.0]);
        });
    }

    #[test]
    fn dimensions_exposed() {
        let store = MetricStore::new(7, 90);
        assert_eq!(store.node_count(), 7);
        assert_eq!(store.counter_count(), 90);
        assert!(!store.is_row_major());
        assert!(MetricStore::new_row_major(7, 90).is_row_major());
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_width_rejected() {
        MetricStore::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_width_rejected_row_major() {
        MetricStore::new_row_major(1, 0);
    }

    #[test]
    fn gaps_recorded_and_counted() {
        for_both_layouts(2, 1, |mut store| {
            store.record(NodeId(0), t(0), &[1.0]);
            store.record_gap(NodeId(0), t(10), GapReason::Dropout);
            store.record_gap(NodeId(1), t(10), GapReason::Blackout);
            assert_eq!(store.gap_count(), 2);
            assert_eq!(store.gaps(NodeId(0)).len(), 1);
            assert_eq!(store.gaps(NodeId(0))[0].reason, GapReason::Dropout);
            assert_eq!(store.gaps(NodeId(1))[0].at, t(10));
        });
    }

    #[test]
    fn coverage_is_kept_over_scheduled() {
        for_both_layouts(2, 1, |mut store| {
            // node 0: 3 kept, 1 lost; node 1: 2 kept, 2 lost
            store.record(NodeId(0), t(0), &[1.0]);
            store.record(NodeId(0), t(10), &[1.0]);
            store.record(NodeId(0), t(20), &[1.0]);
            store.record_gap(NodeId(0), t(30), GapReason::Dropout);
            store.record(NodeId(1), t(0), &[1.0]);
            store.record_gap(NodeId(1), t(10), GapReason::NodeDown);
            store.record_gap(NodeId(1), t(20), GapReason::Corrupt);
            store.record(NodeId(1), t(30), &[1.0]);
            let both = [NodeId(0), NodeId(1)];
            // 5 kept of 8 scheduled over the full window
            assert!((store.coverage(&both, t(0), t(40)) - 5.0 / 8.0).abs() < 1e-12);
            // Window bounds apply: at [10, 30) node 0 keeps 2/2, node 1 0/2.
            assert!((store.coverage(&both, t(10), t(30)) - 0.5).abs() < 1e-12);
            // Only node 0 over the same window is fully covered.
            assert_eq!(store.coverage(&[NodeId(0)], t(10), t(30)), 1.0);
        });
    }

    #[test]
    fn empty_window_coverage_is_full() {
        for_both_layouts(2, 1, |store| {
            assert_eq!(store.coverage(&[NodeId(0)], t(0), t(100)), 1.0);
        });
    }

    #[test]
    fn latest_sample_tracks_staleness_source() {
        for_both_layouts(2, 2, |mut store| {
            assert_eq!(store.latest_sample_at(&[NodeId(0)], t(100)), None);
            store.record(NodeId(0), t(10), &[1.0, 2.0]);
            store.record(NodeId(1), t(25), &[1.0, 2.0]);
            let both = [NodeId(0), NodeId(1)];
            assert_eq!(store.latest_sample_at(&both, t(100)), Some(t(25)));
            assert_eq!(store.latest_sample_at(&both, t(20)), Some(t(10)));
            // inclusive upper bound
            assert_eq!(store.latest_sample_at(&both, t(25)), Some(t(25)));
            assert_eq!(store.latest_sample_at(&both, t(5)), None);
        });
    }

    fn rendered(store: &MetricStore) -> Vec<u8> {
        let mut text = Vec::new();
        store.render_snapshot(&mut text);
        text
    }

    /// The store's rendered snapshot, parsed back into a tree.
    fn snapshot_of(store: &MetricStore) -> Val {
        Val::parse(std::str::from_utf8(&rendered(store)).unwrap()).unwrap()
    }

    /// The store's snapshot as a [`Val`] tree, one node per value: the
    /// oracle [`MetricStore::render_snapshot`] must match byte for byte.
    fn tree_oracle(store: &MetricStore) -> Val {
        let gaps = Val::List(
            store
                .gaps
                .iter()
                .map(|per_node| {
                    Val::List(
                        per_node
                            .iter()
                            .map(|g| {
                                let reason = match g.reason {
                                    GapReason::Dropout => 0,
                                    GapReason::Blackout => 1,
                                    GapReason::Corrupt => 2,
                                    GapReason::NodeDown => 3,
                                };
                                Val::List(vec![Val::U64(g.at.as_micros()), Val::U64(reason)])
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let base = Val::map()
            .with("node_count", Val::U64(u64::from(store.node_count)))
            .with("counter_count", Val::U64(store.counter_count as u64))
            .with("gaps", gaps);
        match &store.repr {
            Repr::Columnar(series) => base.with(
                "series",
                Val::List(series.iter().map(Snapshot::to_val).collect()),
            ),
            Repr::RowMajor(blocks) => base.with(
                "blocks",
                Val::List(
                    blocks
                        .iter()
                        .map(|b| {
                            Val::map()
                                .with(
                                    "t",
                                    Val::List(
                                        b.times.iter().map(|t| Val::U64(t.as_micros())).collect(),
                                    ),
                                )
                                .with(
                                    "v",
                                    Val::List(b.values.iter().map(|&v| Val::from_f64(v)).collect()),
                                )
                        })
                        .collect(),
                ),
            ),
        }
    }

    #[test]
    fn rendered_snapshot_matches_the_tree_oracle() {
        for_both_layouts(3, 2, |mut store| {
            let oracle = |store: &MetricStore| tree_oracle(store).render().into_bytes();
            assert_eq!(rendered(&store), oracle(&store));
            store.record(NodeId(0), t(0), &[1.0, f64::NAN]);
            store.record(NodeId(0), t(30), &[-0.0, f64::MAX]);
            store.record(NodeId(2), t(10), &[3.5, -0.25]);
            for (at, reason) in [
                (5, GapReason::Dropout),
                (15, GapReason::Blackout),
                (25, GapReason::Corrupt),
                (35, GapReason::NodeDown),
            ] {
                store.record_gap(NodeId(1), t(at), reason);
            }
            assert_eq!(rendered(&store), oracle(&store));
        });
    }

    #[test]
    fn snapshot_round_trip_preserves_points_gaps_and_layout() {
        for_both_layouts(3, 2, |mut store| {
            store.record(NodeId(0), t(0), &[1.0, 2.0]);
            store.record(NodeId(2), t(10), &[3.5, -0.25]);
            store.record_gap(NodeId(1), t(5), GapReason::Blackout);
            store.record_gap(NodeId(1), t(15), GapReason::NodeDown);
            let back = MetricStore::from_val(&snapshot_of(&store)).unwrap();
            assert_eq!(back.node_count(), 3);
            assert_eq!(back.counter_count(), 2);
            assert_eq!(back.is_row_major(), store.is_row_major());
            assert_eq!(back.point_count(), store.point_count());
            assert_eq!(back.window(NodeId(2), 1, t(0), t(20)), &[-0.25]);
            assert_eq!(back.gaps(NodeId(1)), store.gaps(NodeId(1)));
            assert_eq!(back.gap_count(), 2);
        });
    }

    #[test]
    fn retain_from_prunes_gaps_too() {
        for_both_layouts(1, 1, |mut store| {
            for s in 0..10 {
                store.record_gap(NodeId(0), t(s), GapReason::Dropout);
            }
            store.retain_from(t(7));
            assert_eq!(store.gap_count(), 3);
            assert_eq!(store.gaps(NodeId(0))[0].at, t(7));
        });
    }
}
