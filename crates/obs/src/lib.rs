//! # ic-obs — dependency-free observability
//!
//! Hierarchical spans with monotonic timers, typed metrics (counters,
//! gauges, histograms), and pluggable sinks, designed for the incomplete-
//! instance comparison pipeline but generic over any workload.
//!
//! ## Model
//!
//! An **observation** is opened with [`observe`]`(label, sink)` and records
//! until its guard drops, at which point the finished [`Report`] — a merged
//! span tree plus an aggregated metric map — is handed to the [`Sink`].
//! Observations are *context-scoped*: state lives in thread-locals plus one
//! shared aggregate per observation, never in process-global mutable state,
//! so concurrent tests (and nested observations) cannot pollute each other.
//!
//! Recording is lock-free per thread: spans and metrics accumulate in
//! thread-local buffers and merge into the shared aggregate only at scope
//! exit. Work handed to other threads participates via [`task_ctx`] /
//! [`TaskCtx::run`] (`ic-pool` does this automatically for spawned tasks),
//! nesting worker-side spans under the span path of the spawn site.
//!
//! ## Determinism
//!
//! The span **tree shape** and all **metric values** recorded by the
//! instrumented algorithms are identical at any thread count: spans merge
//! by name under their parent, counters are summed, gauges take the
//! maximum, and histograms merge bucket-wise — all order-independent
//! operations over `u64`. Only durations and metrics under the reserved
//! `pool.` prefix (worker task/steal/idle stats) are execution-dependent;
//! [`Report::deterministic_metrics`] filters the latter out for
//! comparisons.
//!
//! ## Cost when off
//!
//! With no observation active every entry point returns after a single
//! thread-local flag check ([`active`]), and hot loops can hoist even that
//! check out. The instrumentation is always compiled in; `bench_obs_overhead`
//! holds that cost under 2% of the signature workload.

#![warn(missing_docs)]

mod ctx;
pub mod report;
pub mod sink;

pub use ctx::{
    active, counter, gauge, histogram, histogram_n, observe, span, task_ctx, ObservationGuard,
    Span, TaskCtx,
};
pub use report::{Histogram, MetricValue, Report, SpanNode};
pub use sink::{JsonlSink, LabelStats, MemorySink, NoopSink, Sink, StatsSink};
