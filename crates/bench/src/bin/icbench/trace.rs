//! Bench-side collectors installed only in the traced pass: an `ic-obs`
//! sink folding the server's per-request span trees, a timing wrapper
//! around the catalog's `FileStorage`, and a log of catalog publishes.

use ic_obs::{Report, Sink, SpanNode};
use ic_store::{FileStorage, Storage};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Span and counter totals of every report under one observation label.
#[derive(Debug, Default, Clone)]
pub struct LabelTotals {
    /// Reports (requests) folded in.
    pub reports: u64,
    /// Summed observation wall time.
    pub wall: Duration,
    /// Per span name: summed self time (duration minus child spans).
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Per span name: summed duration.
    pub total_time: BTreeMap<&'static str, Duration>,
    /// Per span name: number of span instances.
    pub spans: BTreeMap<&'static str, u64>,
    /// Summed counters.
    pub counters: BTreeMap<&'static str, u64>,
}

impl LabelTotals {
    /// Mean per-report self time of span `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> f64 {
        self.per_report(self.self_time.get(name).map_or(0.0, us))
    }

    /// Mean per-report total time of span `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.per_report(self.total_time.get(name).map_or(0.0, us))
    }

    /// Mean per-report span count of `name`.
    pub fn spans_per_report(&self, name: &str) -> f64 {
        self.per_report(self.spans.get(name).copied().unwrap_or(0) as f64)
    }

    /// Mean observation wall time, in microseconds.
    pub fn wall_us(&self) -> f64 {
        self.per_report(us(&self.wall))
    }

    /// A summed counter (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn per_report(&self, total: f64) -> f64 {
        crate::stats::ratio(total, self.reports as f64)
    }

    fn fold(&mut self, node: &SpanNode) {
        let own = node.total.saturating_sub(node.child_total());
        *self.self_time.entry(node.name).or_default() += own;
        *self.total_time.entry(node.name).or_default() += node.total;
        *self.spans.entry(node.name).or_default() += node.count;
        for child in &node.children {
            self.fold(child);
        }
    }
}

fn us(d: &Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The traced pass's `ServerConfig::extra_sink`: folds every report into
/// per-label totals while recording is switched on.
#[derive(Debug, Default)]
pub struct SpanCollector {
    recording: AtomicBool,
    labels: Mutex<BTreeMap<String, LabelTotals>>,
}

impl SpanCollector {
    /// Starts or stops folding reports (the measured window).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// The totals of `label` (empty when no report carried it).
    pub fn label(&self, label: &str) -> LabelTotals {
        lock(&self.labels).get(label).cloned().unwrap_or_default()
    }
}

impl Sink for SpanCollector {
    fn on_report(&self, report: &Report) {
        if !self.recording.load(Ordering::SeqCst) {
            return;
        }
        let mut labels = lock(&self.labels);
        let totals = labels.entry(report.label.clone()).or_default();
        totals.reports += 1;
        totals.wall += report.wall;
        for root in &report.spans {
            totals.fold(root);
        }
        for (name, value) in &report.metrics {
            if let Some(c) = value.as_counter() {
                *totals.counters.entry(name).or_default() += c;
            }
        }
    }
}

/// Which `Storage` call a [`StoreEvent`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// `install_snapshot` (compaction at open).
    Install,
    /// `append_wal` (write plus `sync_data`).
    Append,
}

/// One timed storage call.
#[derive(Debug, Clone, Copy)]
pub struct StoreEvent {
    /// The call.
    pub op: StoreOp,
    /// When the call began.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Bytes written.
    pub bytes: usize,
}

/// Shared, append-only event logs of the traced pass.
#[derive(Debug, Default)]
pub struct EventLog {
    store: Mutex<Vec<StoreEvent>>,
    publishes: Mutex<Vec<Instant>>,
}

impl EventLog {
    /// Records that the catalog published a new snapshot, now.
    pub fn publish(&self) {
        lock(&self.publishes).push(Instant::now());
    }

    /// Every timed storage call so far, in completion order.
    pub fn store_events(&self) -> Vec<StoreEvent> {
        lock(&self.store).clone()
    }

    /// Every publish so far, in order.
    pub fn publishes(&self) -> Vec<Instant> {
        lock(&self.publishes).clone()
    }
}

/// `FileStorage` with its writes timed into an [`EventLog`].
#[derive(Debug)]
pub struct TimedStorage {
    inner: FileStorage,
    log: Arc<EventLog>,
}

impl TimedStorage {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: FileStorage, log: Arc<EventLog>) -> Self {
        Self { inner, log }
    }

    fn timed<T>(&mut self, op: StoreOp, bytes: usize, f: impl FnOnce(&mut FileStorage) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        lock(&self.log.store).push(StoreEvent {
            op,
            start,
            end,
            bytes,
        });
        out
    }
}

impl Storage for TimedStorage {
    fn read_snapshot(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.timed(StoreOp::Install, bytes.len(), |s| s.install_snapshot(bytes))
    }

    fn read_wal(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_wal()
    }

    fn append_wal(&mut self, record: &[u8]) -> io::Result<()> {
        self.timed(StoreOp::Append, record.len(), |s| s.append_wal(record))
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a collector lock holder panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &'static str, micros: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name,
            count: 1,
            total: Duration::from_micros(micros),
            children,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let collector = SpanCollector::default();
        let report = Report {
            label: "serve.compare".into(),
            spans: vec![node(
                "signature",
                100,
                vec![
                    node("signature.probe", 30, vec![]),
                    node("signature.complete", 50, vec![node("score", 10, vec![])]),
                ],
            )],
            metrics: BTreeMap::new(),
            wall: Duration::from_micros(120),
        };
        collector.on_report(&report); // not recording: dropped
        collector.set_recording(true);
        collector.on_report(&report);
        collector.on_report(&report);
        let t = collector.label("serve.compare");
        assert_eq!(t.reports, 2);
        assert_eq!(t.self_us("signature"), 20.0);
        assert_eq!(t.self_us("signature.complete"), 40.0);
        assert_eq!(t.total_us("signature"), 100.0);
        assert_eq!(t.spans_per_report("score"), 1.0);
        assert_eq!(t.wall_us(), 120.0);
        assert_eq!(collector.label("serve.search").reports, 0);
    }
}
