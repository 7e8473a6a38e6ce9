//! Pluggable report consumers.
//!
//! A [`Sink`] receives the finished [`Report`] of every observation it is
//! installed on. Four implementations cover the common cases:
//!
//! * [`NoopSink`] — discards reports; used to measure instrumentation
//!   overhead with the recording machinery fully engaged.
//! * [`MemorySink`] — buffers reports in memory; the test/assertion sink.
//! * [`StatsSink`] — folds reports into per-label count/wall/counter
//!   aggregates with O(labels) memory; the long-running-service sink
//!   behind `ic-serve`'s `stats` endpoint.
//! * [`JsonlSink`] — appends one JSON line per report to a file; produces
//!   `BENCH_*.jsonl`-style artifacts.
//!
//! To print a report for humans, render it with [`Report::render_tree`].

use crate::report::Report;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A consumer of finished observation reports.
///
/// Sinks must be `Send + Sync`: a report is emitted by whichever thread
/// drops the observation guard, and one sink instance may serve many
/// observations concurrently.
pub trait Sink: Send + Sync {
    /// Called once per finished observation.
    fn on_report(&self, report: &Report);
}

/// Discards every report.
///
/// Installing a `NoopSink` still exercises the full recording path (spans,
/// counters, aggregation) — useful for overhead benchmarks. *Not* installing
/// any sink is cheaper still: every instrumentation site bails out on a
/// thread-local flag check.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn on_report(&self, _report: &Report) {}
}

/// Buffers reports in memory for later inspection — the sink tests use.
#[derive(Debug, Default)]
pub struct MemorySink {
    reports: Mutex<Vec<Report>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clones out all buffered reports.
    pub fn reports(&self) -> Vec<Report> {
        self.reports.lock().unwrap().clone()
    }

    /// Removes and returns all buffered reports.
    pub fn take(&self) -> Vec<Report> {
        std::mem::take(&mut *self.reports.lock().unwrap())
    }

    /// Clones the most recent report, if any.
    pub fn last(&self) -> Option<Report> {
        self.reports.lock().unwrap().last().cloned()
    }

    /// Number of buffered reports.
    pub fn len(&self) -> usize {
        self.reports.lock().unwrap().len()
    }

    /// Whether no report has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn on_report(&self, report: &Report) {
        self.reports.lock().unwrap().push(report.clone());
    }
}

/// Appends one JSON line per report to a file (the JSONL format used by the
/// `BENCH_*.json` artifacts in `target/ic-bench/`).
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`. Parent directories are
    /// created as needed.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(Self {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    /// Opens the file at `path` for appending.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(Self {
            writer: Mutex::new(BufWriter::new(
                File::options().create(true).append(true).open(path)?,
            )),
        })
    }
}

impl Sink for JsonlSink {
    fn on_report(&self, report: &Report) {
        let mut w = self.writer.lock().unwrap();
        // Observability must never take the computation down with it.
        let _ = writeln!(w, "{}", report.to_json());
        let _ = w.flush();
    }
}

/// Aggregates reports into cheap per-label counters instead of buffering
/// them — the long-running-service sink.
///
/// Where [`MemorySink`] keeps every report (unbounded growth under
/// sustained traffic), `StatsSink` folds each report into a fixed-size
/// [`LabelStats`] per label: report count, summed observation wall-clock,
/// and the sum of every counter metric. [`snapshot`](StatsSink::snapshot)
/// clones the aggregate out under the lock, so exporting statistics (e.g.
/// a service `stats` endpoint) never blocks recording for long.
#[derive(Debug, Default)]
pub struct StatsSink {
    labels: Mutex<std::collections::BTreeMap<String, LabelStats>>,
}

/// Aggregate of all finished observations under one label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelStats {
    /// Number of finished observations.
    pub reports: u64,
    /// Summed wall-clock across those observations.
    pub wall: std::time::Duration,
    /// Summed counter metrics (gauges and histograms are skipped — they
    /// do not aggregate meaningfully across observations by addition).
    pub counters: std::collections::BTreeMap<&'static str, u64>,
}

impl StatsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clones out the per-label aggregates, sorted by label.
    pub fn snapshot(&self) -> std::collections::BTreeMap<String, LabelStats> {
        self.labels.lock().unwrap().clone()
    }

    /// The aggregate for one label, if any observation finished under it.
    pub fn label(&self, label: &str) -> Option<LabelStats> {
        self.labels.lock().unwrap().get(label).cloned()
    }

    /// Resets all aggregates.
    pub fn reset(&self) {
        self.labels.lock().unwrap().clear();
    }
}

impl Sink for StatsSink {
    fn on_report(&self, report: &Report) {
        let mut labels = self.labels.lock().unwrap();
        let entry = labels.entry(report.label.clone()).or_default();
        entry.reports += 1;
        entry.wall += report.wall;
        for (name, v) in &report.metrics {
            if let crate::report::MetricValue::Counter(c) = v {
                *entry.counters.entry(name).or_insert(0) += c;
            }
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn aggregates_per_label() {
        let sink = Arc::new(StatsSink::new());
        for label in ["a", "b", "a"] {
            let _g = crate::observe(label, sink.clone() as Arc<dyn Sink>);
            crate::counter("unit.hits", 2);
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["a"].reports, 2);
        assert_eq!(snap["a"].counters["unit.hits"], 4);
        assert_eq!(snap["b"].reports, 1);
        assert_eq!(sink.label("missing"), None);
        sink.reset();
        assert!(sink.snapshot().is_empty());
    }
}
