//! Thread-local recording contexts and cross-thread propagation.
//!
//! Each observation owns a shared aggregate behind a mutex, but **no
//! instrumentation site ever touches it**: spans and metrics go into plain
//! thread-local buffers (a span arena plus a metric map) and the buffers are
//! merged into the aggregate exactly once, when the recording scope exits —
//! at [`ObservationGuard`] drop on the observing thread, and at the end of
//! each propagated pool task on worker threads. Between flushes every
//! recording is a lock-free thread-local operation.
//!
//! When no observation is active the entire API collapses to a single
//! thread-local flag check per call site (`active()` → `false` → return),
//! which is what keeps unobserved runs within the documented <2%
//! overhead budget.

use crate::report::{Histogram, MetricValue, Report, SpanNode};
use crate::sink::Sink;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Span arena

/// One node of a thread-local (or aggregated) span arena. Children are
/// looked up linearly — fan-out at one level is a handful of names.
#[derive(Debug)]
struct NodeData {
    name: &'static str,
    count: u64,
    total_nanos: u64,
    children: Vec<usize>,
}

/// An index-linked span tree. Node 0 is the synthetic root.
#[derive(Debug)]
struct Arena {
    nodes: Vec<NodeData>,
}

impl Arena {
    fn new() -> Self {
        Self {
            nodes: vec![NodeData {
                name: "",
                count: 0,
                total_nanos: 0,
                children: Vec::new(),
            }],
        }
    }

    /// Finds or creates the child of `parent` named `name`.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        for &c in &self.nodes[parent].children {
            if self.nodes[c].name == name {
                return c;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(NodeData {
            name,
            count: 0,
            total_nanos: 0,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// True if nothing was recorded (only the pristine root exists).
    fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Merges `src` (rooted at `src_idx`) into `self` (at `dst_idx`).
    fn merge_from(&mut self, src: &Arena, src_idx: usize, dst_idx: usize) {
        self.nodes[dst_idx].count += src.nodes[src_idx].count;
        self.nodes[dst_idx].total_nanos += src.nodes[src_idx].total_nanos;
        let src_children = src.nodes[src_idx].children.clone();
        for sc in src_children {
            let dc = self.child(dst_idx, src.nodes[sc].name);
            self.merge_from(src, sc, dc);
        }
    }

    /// Exports the subtree below `idx` as sorted-by-name [`SpanNode`]s.
    fn export_children(&self, idx: usize) -> Vec<SpanNode> {
        let mut out: Vec<SpanNode> = self.nodes[idx]
            .children
            .iter()
            .map(|&c| SpanNode {
                name: self.nodes[c].name,
                count: self.nodes[c].count,
                total: Duration::from_nanos(self.nodes[c].total_nanos),
                children: self.export_children(c),
            })
            .collect();
        out.sort_by_key(|n| n.name);
        out
    }
}

// ---------------------------------------------------------------------------
// Shared aggregate and thread-local context

#[derive(Debug)]
struct Agg {
    arena: Arena,
    metrics: BTreeMap<&'static str, MetricValue>,
}

/// The per-observation shared state all participating threads flush into.
struct Shared {
    label: String,
    sink: Arc<dyn Sink>,
    start: Instant,
    agg: Mutex<Agg>,
}

/// A thread's private recording buffers for one observation.
struct LocalCtx {
    shared: Arc<Shared>,
    arena: Arena,
    /// Open-span stack of arena indices; `stack[0]` is the arena root
    /// (possibly below a virtual path prefix on propagated tasks).
    stack: Vec<usize>,
    /// Stack depth that must not be popped by [`exit_span`] (the virtual
    /// prefix installed by task propagation plus the root).
    base_depth: usize,
    metrics: BTreeMap<&'static str, MetricValue>,
}

impl LocalCtx {
    /// A fresh context. `path` is the virtual span path under which this
    /// thread's spans nest (empty on the observing thread; the spawn-site
    /// span path on propagated pool tasks).
    fn new(shared: Arc<Shared>, path: &[&'static str]) -> Self {
        let mut arena = Arena::new();
        let mut stack = vec![0usize];
        for &name in path {
            let idx = arena.child(*stack.last().unwrap(), name);
            stack.push(idx);
        }
        let base_depth = stack.len();
        Self {
            shared,
            arena,
            stack,
            base_depth,
            metrics: BTreeMap::new(),
        }
    }

    /// Merges this context's buffers into the shared aggregate.
    fn flush(self) {
        if self.arena.is_empty() && self.metrics.is_empty() {
            return;
        }
        let mut agg = self.shared.agg.lock().unwrap();
        agg.arena.merge_from(&self.arena, 0, 0);
        for (name, v) in self.metrics {
            match agg.metrics.get_mut(name) {
                Some(existing) => existing.merge(&v),
                None => {
                    agg.metrics.insert(name, v);
                }
            }
        }
    }
}

thread_local! {
    /// Fast-path flag mirroring `LOCAL.is_some()`. Kept separate so the
    /// disabled path is one `Cell` read, no `RefCell` borrow.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static LOCAL: RefCell<Option<LocalCtx>> = const { RefCell::new(None) };
}

/// Whether an observation is recording on this thread.
///
/// Instrumentation can hoist this check out of hot loops: when it returns
/// `false`, every other function in this module is a no-op.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

fn install(ctx: LocalCtx) -> Option<LocalCtx> {
    let prev = LOCAL.with(|l| l.borrow_mut().replace(ctx));
    ACTIVE.with(|a| a.set(true));
    prev
}

fn uninstall(prev: Option<LocalCtx>) -> Option<LocalCtx> {
    let cur = LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        let cur = slot.take();
        *slot = prev;
        ACTIVE.with(|a| a.set(slot.is_some()));
        cur
    });
    cur
}

// ---------------------------------------------------------------------------
// Spans

/// An RAII span guard returned by [`span`]; the span closes when the guard
/// drops. Guards must drop in LIFO order (the natural RAII discipline) and
/// on the thread that opened them.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    start: Option<Instant>,
}

/// Opens a span named `name` under the innermost open span of this thread.
///
/// With no active observation this returns an inert guard after a single
/// flag check.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !active() {
        return Span { start: None };
    }
    enter_span(name);
    Span {
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            exit_span(start.elapsed());
        }
    }
}

#[cold]
fn enter_span(name: &'static str) {
    LOCAL.with(|l| {
        if let Some(ctx) = l.borrow_mut().as_mut() {
            let parent = *ctx.stack.last().unwrap();
            let idx = ctx.arena.child(parent, name);
            ctx.arena.nodes[idx].count += 1;
            ctx.stack.push(idx);
        }
    });
}

#[cold]
fn exit_span(elapsed: Duration) {
    LOCAL.with(|l| {
        if let Some(ctx) = l.borrow_mut().as_mut() {
            if ctx.stack.len() > ctx.base_depth {
                let idx = ctx.stack.pop().unwrap();
                ctx.arena.nodes[idx].total_nanos += elapsed.as_nanos() as u64;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Metrics

#[cold]
fn record(name: &'static str, value: MetricValue) {
    LOCAL.with(|l| {
        if let Some(ctx) = l.borrow_mut().as_mut() {
            match ctx.metrics.get_mut(name) {
                Some(existing) => existing.merge(&value),
                None => {
                    ctx.metrics.insert(name, value);
                }
            }
        }
    });
}

/// Adds `delta` to the counter `name`. A zero delta records nothing, so a
/// counter that only ever counted 0 is absent from the [`Report`], and a
/// reader takes an absent counter as 0. Recording zeros would cost the
/// always-observed serve path an add per zero, up to three per scored
/// pair.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !active() || delta == 0 {
        return;
    }
    record(name, MetricValue::Counter(delta));
}

/// Records a gauge level; concurrent recordings keep the maximum.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if !active() {
        return;
    }
    record(name, MetricValue::Gauge(value));
}

/// Records one observation of `value` into the histogram `name`.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    histogram_n(name, value, 1);
}

/// Records `n` observations of `value` into the histogram `name` — the
/// bulk entry point hot loops use after accumulating locally.
#[inline]
pub fn histogram_n(name: &'static str, value: u64, n: u64) {
    if !active() || n == 0 {
        return;
    }
    let mut h = Histogram::default();
    h.observe_n(value, n);
    record(name, MetricValue::Histogram(h));
}

// ---------------------------------------------------------------------------
// Observations

/// RAII handle of one observation, returned by [`observe`]. Dropping it
/// flushes this thread's buffers, aggregates, and emits the [`Report`] to
/// the sink.
#[must_use = "the observation records until this guard drops"]
pub struct ObservationGuard {
    prev: Option<LocalCtx>,
    shared: Arc<Shared>,
}

/// Starts recording an observation labeled `label` on this thread, emitting
/// the finished [`Report`] to `sink` when the returned guard drops.
///
/// Pool tasks spawned while the observation is active inherit it through
/// [`TaskCtx`] (wired inside `ic-pool`), so worker-side spans and metrics
/// land in the same report. Observations nest: an inner `observe` shadows
/// the outer one on this thread until its guard drops.
pub fn observe(label: impl Into<String>, sink: Arc<dyn Sink>) -> ObservationGuard {
    let shared = Arc::new(Shared {
        label: label.into(),
        sink,
        start: Instant::now(),
        agg: Mutex::new(Agg {
            arena: Arena::new(),
            metrics: BTreeMap::new(),
        }),
    });
    let prev = install(LocalCtx::new(Arc::clone(&shared), &[]));
    ObservationGuard { prev, shared }
}

impl Drop for ObservationGuard {
    fn drop(&mut self) {
        if let Some(ctx) = uninstall(self.prev.take()) {
            ctx.flush();
        }
        let wall = self.shared.start.elapsed();
        let report = {
            let agg = self.shared.agg.lock().unwrap();
            Report {
                label: self.shared.label.clone(),
                spans: agg.arena.export_children(0),
                metrics: agg.metrics.clone(),
                wall,
            }
        };
        self.shared.sink.on_report(&report);
    }
}

// ---------------------------------------------------------------------------
// Cross-thread propagation

/// A capture of the current observation (if any) plus the open span path,
/// for hand-off to another thread. `ic-pool` captures one per spawned task;
/// other executors can do the same.
pub struct TaskCtx {
    inner: Option<(Arc<Shared>, Vec<&'static str>)>,
}

/// Captures the current observation context of this thread. Cheap when no
/// observation is active (a flag check).
pub fn task_ctx() -> TaskCtx {
    if !active() {
        return TaskCtx { inner: None };
    }
    LOCAL.with(|l| {
        let borrow = l.borrow();
        let ctx = borrow.as_ref().expect("ACTIVE implies LOCAL");
        let path: Vec<&'static str> = ctx.stack[1..]
            .iter()
            .map(|&i| ctx.arena.nodes[i].name)
            .collect();
        TaskCtx {
            inner: Some((Arc::clone(&ctx.shared), path)),
        }
    })
}

impl TaskCtx {
    /// Whether a context was captured.
    pub fn is_some(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` inside the captured context: spans open under the capture
    /// site's span path and metrics aggregate into the same report. Buffers
    /// flush when `f` returns (also on unwind). If this thread already
    /// records into the same observation (e.g. the observing thread helping
    /// the pool drain its own scope), `f` runs in the existing context.
    ///
    /// A capture taken outside any observation runs `f` unobserved: an
    /// observation open on this thread (a thread helping a shared pool
    /// drain other callers' tasks) is suspended until `f` returns, so a
    /// task never reports into an observation it was not spawned under.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        let Some((shared, path)) = self.inner else {
            if !active() {
                return f();
            }
            struct Resume(Option<LocalCtx>);
            impl Drop for Resume {
                fn drop(&mut self) {
                    uninstall(self.0.take());
                }
            }
            let _resume = Resume(uninstall(None));
            return f();
        };
        let same = LOCAL.with(|l| {
            l.borrow()
                .as_ref()
                .is_some_and(|c| Arc::ptr_eq(&c.shared, &shared))
        });
        if same {
            return f();
        }
        struct Restore {
            prev: Option<Option<LocalCtx>>,
        }
        impl Drop for Restore {
            fn drop(&mut self) {
                if let Some(prev) = self.prev.take() {
                    if let Some(ctx) = uninstall(prev) {
                        ctx.flush();
                    }
                }
            }
        }
        let prev = install(LocalCtx::new(shared, &path));
        let mut restore = Restore { prev: Some(prev) };
        let result = f();
        drop(std::mem::replace(&mut restore, Restore { prev: None }));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn inactive_api_is_inert() {
        assert!(!active());
        let _s = span("nothing");
        counter("c", 1);
        gauge("g", 1);
        histogram("h", 1);
        assert!(!active());
    }

    #[test]
    fn basic_observation_produces_report() {
        let sink = Arc::new(MemorySink::new());
        {
            let _obs = observe("unit", sink.clone());
            let _outer = span("outer");
            {
                let _inner = span("inner");
                counter("work.items", 3);
            }
            {
                let _inner = span("inner");
                counter("work.items", 4);
            }
            gauge("peak", 10);
            gauge("peak", 7);
            histogram("sizes", 16);
        }
        let reports = sink.take();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.label, "unit");
        assert_eq!(r.counter("work.items"), Some(7));
        assert_eq!(r.gauge("peak"), Some(10));
        assert_eq!(r.histogram("sizes").unwrap().count, 1);
        let outer = r.find_span(&["outer"]).unwrap();
        assert_eq!(outer.count, 1);
        let inner = r.find_span(&["outer", "inner"]).unwrap();
        assert_eq!(inner.count, 2);
        // Parent wall time covers its children (same thread, strict nesting).
        assert!(outer.total >= inner.total);
    }

    #[test]
    fn a_zero_delta_leaves_no_key() {
        let sink = Arc::new(MemorySink::new());
        {
            let _obs = observe("unit", sink.clone());
            counter("zero", 0);
            counter("later", 0);
            counter("later", 2);
        }
        let report = sink.last().unwrap();
        assert!(!report.metrics.contains_key("zero"));
        assert_eq!(report.counter("zero"), None);
        assert_eq!(report.counter("later"), Some(2));
    }

    #[test]
    fn nested_observations_shadow() {
        let outer_sink = Arc::new(MemorySink::new());
        let inner_sink = Arc::new(MemorySink::new());
        {
            let _outer = observe("outer", outer_sink.clone());
            counter("n", 1);
            {
                let _inner = observe("inner", inner_sink.clone());
                counter("n", 10);
            }
            counter("n", 2);
        }
        assert_eq!(outer_sink.last().unwrap().counter("n"), Some(3));
        assert_eq!(inner_sink.last().unwrap().counter("n"), Some(10));
    }

    #[test]
    fn task_ctx_propagates_to_other_thread() {
        let sink = Arc::new(MemorySink::new());
        {
            let _obs = observe("xthread", sink.clone());
            let _phase = span("phase");
            let ctx = task_ctx();
            assert!(ctx.is_some());
            std::thread::scope(|s| {
                s.spawn(move || {
                    ctx.run(|| {
                        let _t = span("task");
                        counter("task.count", 5);
                    });
                });
            });
        }
        let r = sink.last().unwrap();
        assert_eq!(r.counter("task.count"), Some(5));
        // The worker's span nests under the capture-site path.
        let task = r.find_span(&["phase", "task"]).expect("task under phase");
        assert_eq!(task.count, 1);
        // The virtual prefix did not inflate the phase count.
        assert_eq!(r.find_span(&["phase"]).unwrap().count, 1);
    }

    #[test]
    fn task_ctx_in_same_thread_runs_inline() {
        let sink = Arc::new(MemorySink::new());
        {
            let _obs = observe("inline", sink.clone());
            let ctx = task_ctx();
            ctx.run(|| counter("n", 1));
            counter("n", 1);
        }
        assert_eq!(sink.last().unwrap().counter("n"), Some(2));
    }

    #[test]
    fn task_ctx_flushes_on_unwind() {
        let sink = Arc::new(MemorySink::new());
        {
            let _obs = observe("unwind", sink.clone());
            let ctx = task_ctx();
            let handle = std::thread::spawn(move || {
                ctx.run(|| {
                    counter("before.panic", 1);
                    panic!("task failed");
                })
            });
            assert!(handle.join().is_err());
        }
        assert_eq!(sink.last().unwrap().counter("before.panic"), Some(1));
    }

    #[test]
    fn task_captured_unobserved_does_not_report_into_the_runner() {
        let sink = Arc::new(MemorySink::new());
        let (tx, rx) = std::sync::mpsc::channel();
        // The capture happens on a thread with no observation, and only
        // then does the observed thread run the task.
        std::thread::spawn(move || tx.send(task_ctx()).unwrap())
            .join()
            .unwrap();
        let ctx = rx.recv().unwrap();
        assert!(!ctx.is_some());
        {
            let _obs = observe("runner", sink.clone());
            let _own = span("own");
            counter("own.count", 1);
            let seen_active = ctx.run(|| {
                let _t = span("foreign");
                counter("foreign.count", 7);
                histogram("foreign.sizes", 3);
                active()
            });
            assert!(!seen_active, "the task ran unobserved");
            // The runner's own observation resumes where it left off.
            assert!(active());
            counter("own.count", 1);
        }
        let r = sink.last().unwrap();
        assert_eq!(r.counter("own.count"), Some(2));
        assert_eq!(r.counter("foreign.count"), None);
        assert!(r.histogram("foreign.sizes").is_none());
        assert!(r.find_span(&["own", "foreign"]).is_none());
        assert!(r.find_span(&["foreign"]).is_none());
        assert_eq!(r.find_span(&["own"]).unwrap().count, 1);
    }

    #[test]
    fn without_observation_task_ctx_is_none() {
        let ctx = task_ctx();
        assert!(!ctx.is_some());
        assert_eq!(ctx.run(|| 42), 42);
    }
}
