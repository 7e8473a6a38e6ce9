//! The data an observation produces: a merged span tree plus a metric map.
//!
//! Span nodes are merged **by name under their parent**: the 4 000 per-pair
//! spans of a `compare_many` batch collapse into one `compare.pair` node
//! with `count = 4000` and the summed duration. This keeps the tree shape
//! *deterministic* — it depends only on which code paths ran, not on how the
//! work was partitioned across `ic-pool` workers — while durations remain
//! honest wall-clock sums.
//!
//! Metric values are integers throughout. Counters and histograms are exact
//! sums of `u64`s, so aggregation order cannot perturb them: the same run
//! yields **byte-identical** metric values at any thread count, provided the
//! instrumented code records partition-invariant quantities (everything in
//! `ic-core` does; the execution-dependent `pool.*` family is the documented
//! exception — see [`Report::deterministic_metrics`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// A sparse base-2 histogram of `u64` observations.
///
/// Bucket `0` holds the value `0`; bucket `b ≥ 1` holds values `v` with
/// `2^(b-1) <= v < 2^b` (i.e. `b = 64 - v.leading_zeros()`). Alongside the
/// buckets the exact `count`, `sum`, `min` and `max` are kept, all as
/// integers, so histogram merging is order-independent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Number of recorded observations.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` pairs, sorted by bucket index; empty buckets
    /// are not stored.
    pub buckets: Vec<(u8, u64)>,
}

/// The bucket index of a value: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub fn bucket_of(v: u64) -> u8 {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as u8
    }
}

impl Histogram {
    /// Records `n` occurrences of `value`.
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum += value.saturating_mul(n);
        let b = bucket_of(value);
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += n,
            Err(pos) => self.buckets.insert(pos, (b, n)),
        }
    }

    /// Records one occurrence of `value`.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Merges another histogram into this one. Commutative and associative,
    /// so the result is independent of aggregation order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for &(b, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (b, n)),
            }
        }
    }

    /// The arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One typed metric value.
///
/// The merge rule is the type: counters **sum**, gauges keep the
/// **maximum**, histograms **merge bucket-wise**. All three are
/// order-independent, which is what makes the aggregated values
/// deterministic under work-stealing execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically accumulated sum.
    Counter(u64),
    /// A sampled level; concurrent recordings keep the maximum.
    Gauge(u64),
    /// A distribution of observations.
    Histogram(Histogram),
}

impl MetricValue {
    /// Merges `other` into `self` following each type's rule. Mismatched
    /// types keep `self` (instrumentation bugs must not poison a run).
    pub fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            _ => {}
        }
    }

    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value, if this is a gauge.
    pub fn as_gauge(&self) -> Option<u64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, if this is one.
    pub fn as_histogram(&self) -> Option<&Histogram> {
        match self {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// One node of the merged span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (instrumentation sites use static dotted names, e.g.
    /// `"signature.sigmap_build"`).
    pub name: &'static str,
    /// How many span instances merged into this node.
    pub count: u64,
    /// Summed wall-clock duration of all merged instances.
    pub total: Duration,
    /// Child nodes, sorted by name (deterministic).
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Sum of the children's `total` durations.
    pub fn child_total(&self) -> Duration {
        self.children.iter().map(|c| c.total).sum()
    }

    /// Finds a descendant by path, e.g. `&["signature", "score"]`.
    pub fn find(&self, path: &[&str]) -> Option<&SpanNode> {
        match path {
            [] => Some(self),
            [head, rest @ ..] => self
                .children
                .iter()
                .find(|c| c.name == *head)
                .and_then(|c| c.find(rest)),
        }
    }
}

/// A finished observation: everything recorded between
/// [`observe`](crate::observe) and the guard's drop, aggregated across all
/// participating threads.
#[derive(Debug, Clone)]
pub struct Report {
    /// The label given to [`observe`](crate::observe).
    pub label: String,
    /// Root span nodes (top-level spans opened during the observation).
    pub spans: Vec<SpanNode>,
    /// All recorded metrics, sorted by name.
    pub metrics: BTreeMap<&'static str, MetricValue>,
    /// Wall-clock time between guard creation and drop.
    pub wall: Duration,
}

impl Report {
    /// The value of a counter metric (`None` if absent or not a counter).
    /// [`counter`](crate::counter) drops zero deltas, so an absent counter
    /// means 0: read it with `unwrap_or(0)`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).and_then(MetricValue::as_counter)
    }

    /// The value of a gauge metric.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).and_then(MetricValue::as_gauge)
    }

    /// A histogram metric.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.metrics.get(name).and_then(MetricValue::as_histogram)
    }

    /// Finds a span node by path from the roots, e.g.
    /// `&["compare", "signature", "score"]`.
    pub fn find_span(&self, path: &[&str]) -> Option<&SpanNode> {
        match path {
            [] => None,
            [head, rest @ ..] => self
                .spans
                .iter()
                .find(|s| s.name == *head)
                .and_then(|s| s.find(rest)),
        }
    }

    /// The metrics that are guaranteed deterministic across thread counts:
    /// everything except the `pool.*` family, whose values reflect how the
    /// work happened to be partitioned and stolen (task counts depend on
    /// chunk sizes, which depend on the thread count).
    pub fn deterministic_metrics(&self) -> BTreeMap<&'static str, &MetricValue> {
        self.metrics
            .iter()
            .filter(|(name, _)| !name.starts_with("pool."))
            .map(|(name, v)| (*name, v))
            .collect()
    }

    /// Serializes the report as one JSON object (a single line, suitable for
    /// JSONL streams).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        let _ = write!(out, "\"label\":\"{}\"", escape_json(&self.label));
        let _ = write!(out, ",\"wall_nanos\":{}", self.wall.as_nanos());
        out.push_str(",\"metrics\":{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape_json(name));
            metric_json(&mut out, v);
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span_json(&mut out, s);
        }
        out.push_str("]}");
        out
    }

    /// Renders a human-readable span tree with per-node timings and the
    /// metric table underneath.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} ({:.3?} wall)", self.label, self.wall);
        for s in &self.spans {
            render_span(&mut out, s, 1);
        }
        for (name, v) in &self.metrics {
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "  {name} = {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "  {name} = {g} (gauge)");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "  {name} = histogram(count={}, mean={:.1}, min={}, max={})",
                        h.count,
                        h.mean(),
                        h.min,
                        h.max
                    );
                }
            }
        }
        out
    }
}

fn render_span(out: &mut String, node: &SpanNode, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = writeln!(out, "{} ×{}  {:.3?}", node.name, node.count, node.total);
    for c in &node.children {
        render_span(out, c, depth + 1);
    }
}

fn metric_json(out: &mut String, v: &MetricValue) {
    match v {
        MetricValue::Counter(c) => {
            let _ = write!(out, "{{\"type\":\"counter\",\"value\":{c}}}");
        }
        MetricValue::Gauge(g) => {
            let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{g}}}");
        }
        MetricValue::Histogram(h) => {
            let _ = write!(
                out,
                "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":{{",
                h.count, h.sum, h.min, h.max
            );
            for (i, (b, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{b}\":{n}");
            }
            out.push_str("}}");
        }
    }
}

fn span_json(out: &mut String, node: &SpanNode) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"count\":{},\"nanos\":{},\"children\":[",
        escape_json(node.name),
        node.count,
        node.total.as_nanos()
    );
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_json(out, c);
    }
    out.push_str("]}");
}

/// Minimal JSON string escaping (the strings are instrumentation names and
/// labels, but a label could contain anything).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe_n(1024, 2);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1 + 2 + 3 + 2048);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // 0 → bucket 0, 1 → 1, 2..3 → 2, 1024 → 11.
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (11, 2)]);
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [5u64, 9, 1000] {
            a.observe(v);
        }
        for v in [0u64, 7, 63] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 6);
        assert_eq!(ab.min, 0);
        assert_eq!(ab.max, 1000);
    }

    #[test]
    fn metric_merge_rules() {
        let mut c = MetricValue::Counter(3);
        c.merge(&MetricValue::Counter(4));
        assert_eq!(c.as_counter(), Some(7));
        let mut g = MetricValue::Gauge(3);
        g.merge(&MetricValue::Gauge(2));
        assert_eq!(g.as_gauge(), Some(3));
        // Type mismatch is ignored rather than panicking.
        c.merge(&MetricValue::Gauge(100));
        assert_eq!(c.as_counter(), Some(7));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
