//! The server runtime: connection handling, bounded request queue,
//! deadline-aware `ic-pool` workers, graceful shutdown. Linux-only.
//!
//! ## The event loop
//!
//! A single **readiness-driven** thread multiplexes the listener and every
//! connection over a hand-rolled [`crate::poll`] epoll wrapper.
//! Per-connection state machines (see `conn.rs`) feed the incremental
//! [`crate::frame::FrameReader`], writes are nonblocking and buffered with
//! a per-connection backpressure cap, and requests **pipeline**: a client
//! may write many frames before reading; responses complete out of order
//! and are matched by the echoed `id`. Memory and thread count stay
//! bounded at tens of thousands of idle connections.
//!
//! Catalog requests (`load`, `list`, `patch`, `stats`, `shutdown`) are
//! answered inline, and `compare`/`search`/`discover` work is
//! submitted — together with the catalog [`Snapshot`] taken at admission —
//! into a **bounded queue**. If the queue is full the request is rejected
//! *immediately* with a typed `overloaded` response instead of blocking.
//! [`ServerConfig::workers`] worker threads pull from the queue. Workers
//! are *deadline-aware*: a request whose deadline expired while queued is
//! answered with a `budget` error without touching the comparison engine.
//! A `search` answers from the snapshot the shared search index reflects:
//! the admitted one, or the current one if a later search already indexed
//! a newer snapshot.
//!
//! Each worker is a thread of its own, not an `ic-pool` job, so no thread
//! that helps drain a pool scope can pick up a worker loop and block in it
//! until shutdown. Workers run their requests' nested `ic-pool` scopes
//! inline (one thread each), as pool workers do.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or a wire `shutdown` request) flips a stop
//! flag. Admission stops, every admitted request drains through the
//! workers and is written back (the event loop gives stalled peers
//! [`ServerConfig::drain_grace`] to take their last bytes), and only then
//! do the worker loops exit — no admitted request is ever dropped.

use crate::catalog::{diff_pins, CatalogError, Pin, PinList, ServeCatalog, Snapshot};
use crate::conn::run_event_loop;
use crate::frame::MAX_FRAME_LEN;
use crate::json::Json;
use crate::lockutil::{lock_recover, read_recover, write_recover};
use crate::poll::{Interest, Poller, WakeFd, TOKEN_LISTENER, TOKEN_WAKE};
use crate::proto::{
    Algo, AttrRef, CompareScores, DecodeError, DiscoveredFdInfo, DiscoveredKeyInfo, ErrorCode,
    InstanceInfo, PatchOp, PatchValue, Request, Response, SearchResult, SearchResults, ServerStats,
    SpanStat,
};
use ic_core::{Comparator, Delta, DeltaOp, InstanceSigMaps};
use ic_index::CatalogIndex;
use ic_model::{AttrId, NullId, RelId, TupleId, Value};
use ic_obs::StatsSink;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The observation label every compare request runs under; its report
/// count in the `stats` response equals the number of compares processed.
pub const COMPARE_LABEL: &str = "serve.compare";

/// The observation label every search request runs under.
pub const SEARCH_LABEL: &str = "serve.search";

/// The observation label every constraint-discovery request runs under.
pub const DISCOVER_LABEL: &str = "serve.discover";

/// Tuning knobs for [`Server::start`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker loops fed by the request queue (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with `overloaded`.
    pub queue_depth: usize,
    /// Deadline applied to `compare`/`search` requests that carry no
    /// `budget_ms`. `None` = unbounded.
    pub default_budget: Option<Duration>,
    /// The event loop's poll timeout: how often it re-checks the stop flag
    /// and idle connections. Bounds both the shutdown latency and the idle
    /// wakeup rate.
    pub poll_interval: Duration,
    /// Per-connection cap on the *declared* length of an incoming frame.
    /// An oversized header is answered with a typed `bad_frame` error and
    /// the payload is discarded without ever being buffered; the
    /// connection survives. Clamped to [`MAX_FRAME_LEN`].
    pub max_frame_len: usize,
    /// Cap on buffered unsent response bytes per connection. A peer that
    /// pipelines requests but stops reading responses (slowloris) trips
    /// the cap and is disconnected — the close is recorded as a
    /// backpressure disconnect in [`ConnStats`] — while other connections
    /// proceed unaffected.
    pub max_write_buffer: usize,
    /// How long shutdown waits for peers to take delivery of
    /// already-computed responses once all in-flight work has drained. A
    /// stalled peer cannot hold shutdown hostage beyond this.
    pub drain_grace: Duration,
    /// Close connections with no frame activity for this long (`None` =
    /// never). A connection with requests still in flight is never shed.
    /// Enforced at `poll_interval` granularity; idle closes are counted in
    /// [`ConnStats::closed_idle`].
    pub idle_timeout: Option<Duration>,
    /// Artificial per-job delay in the workers, applied before the
    /// deadline check. A test/bench hook: it makes queue occupancy (and
    /// thus admission-control behavior) deterministic. `None` in
    /// production.
    pub worker_delay: Option<Duration>,
    /// An additional observation sink teed alongside the server's own
    /// stats aggregation — external metrics export. A sink that panics
    /// fails the request it observed with a typed `internal` error; it
    /// never takes down a worker or poisons server state.
    pub extra_sink: Option<Arc<dyn ic_obs::Sink>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("default_budget", &self.default_budget)
            .field("poll_interval", &self.poll_interval)
            .field("max_frame_len", &self.max_frame_len)
            .field("max_write_buffer", &self.max_write_buffer)
            .field("drain_grace", &self.drain_grace)
            .field("idle_timeout", &self.idle_timeout)
            .field("worker_delay", &self.worker_delay)
            .field("extra_sink", &self.extra_sink.is_some())
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            default_budget: None,
            poll_interval: Duration::from_millis(25),
            max_frame_len: MAX_FRAME_LEN,
            max_write_buffer: 1 << 20,
            drain_grace: Duration::from_millis(250),
            idle_timeout: None,
            worker_delay: None,
            extra_sink: None,
        }
    }
}

/// What an admitted job does once a worker picks it up.
pub(crate) enum JobKind {
    Compare {
        left: String,
        right: String,
        algo: Algo,
        lambda: Option<f64>,
    },
    Search {
        query: String,
        k: usize,
        lambda: Option<f64>,
    },
    Discover {
        name: String,
        epsilon: Option<f64>,
        max_lhs: Option<u64>,
        min_support: Option<u64>,
    },
}

/// Where a worker's finished [`Response`] goes: completions are posted to
/// the event-loop thread (keyed by connection token) and the poller is
/// woken to route them.
pub(crate) struct ReplyTo {
    pub(crate) token: u64,
    pub(crate) tx: std::sync::mpsc::Sender<(u64, Response)>,
    pub(crate) wake: Arc<WakeFd>,
}

impl ReplyTo {
    fn send(&self, resp: Response) {
        // Send *then* wake: the driver drains completions after every poll
        // wakeup, so the pair can never be lost.
        let _ = self.tx.send((self.token, resp));
        self.wake.wake();
    }
}

/// One admitted request, parked in the bounded queue.
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) kind: JobKind,
    /// The catalog state this request was admitted under (copy-on-write:
    /// concurrent loads cannot tear it).
    pub(crate) snapshot: Arc<Snapshot>,
    /// Absolute deadline derived from `budget_ms` at admission.
    pub(crate) deadline: Option<Instant>,
    pub(crate) reply: ReplyTo,
}

/// Lifetime connection counters, incremented by the event loop.
#[derive(Default)]
pub(crate) struct ConnCounters {
    pub(crate) accepted: AtomicU64,
    pub(crate) closed_peer: AtomicU64,
    pub(crate) closed_protocol: AtomicU64,
    pub(crate) closed_backpressure: AtomicU64,
    pub(crate) closed_drained: AtomicU64,
    pub(crate) closed_idle: AtomicU64,
    pub(crate) coalesced_frames: AtomicU64,
}

/// A point-in-time snapshot of connection lifecycle counters — how many
/// connections were accepted and why closed ones went away. See
/// [`ServerHandle::conn_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Closed because the peer disconnected (or transport error).
    pub closed_peer: u64,
    /// Closed after an unrecoverable protocol violation (broken framing).
    pub closed_protocol: u64,
    /// Disconnected for exceeding [`ServerConfig::max_write_buffer`] —
    /// the typed reason a stalled (slowloris) reader is removed.
    pub closed_backpressure: u64,
    /// Closed by graceful drain (shutdown, or a `shutdown`-acknowledging
    /// connection that flushed its final response).
    pub closed_drained: u64,
    /// Shed for exceeding [`ServerConfig::idle_timeout`] with no frame
    /// activity and nothing in flight.
    pub closed_idle: u64,
    /// Response frames that rode a flush batch behind an earlier frame for
    /// the same connection — completions landing in the same event-loop
    /// tick are queued together and flushed with one write syscall, and
    /// each coalesced frame is a syscall avoided.
    pub coalesced_frames: u64,
}

/// How often signature compares found their pins' maps built, counted
/// once per side of each signature compare. See
/// [`ServerHandle::sig_cache`].
#[derive(Debug, Default)]
pub struct SigCacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SigCacheCounters {
    fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters now.
    pub fn stats(&self) -> SigCacheStats {
        SigCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of [`SigCacheCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigCacheStats {
    /// Compare sides whose pin's maps were already built.
    pub hits: u64,
    /// Compare sides whose pin's maps were not built yet. An unbudgeted
    /// compare then builds them into the pin; a budgeted one builds its
    /// own for that request only.
    pub misses: u64,
}

/// State shared by every server thread.
pub(crate) struct Shared {
    pub(crate) catalog: Arc<ServeCatalog>,
    pub(crate) cfg: ServerConfig,
    pub(crate) stop: AtomicBool,
    /// `Some` while the server admits compare work; taken (and thereby
    /// closed) during shutdown so the workers drain and exit.
    pub(crate) queue: Mutex<Option<SyncSender<Job>>>,
    stats_sink: Arc<StatsSink>,
    sig_cache: SigCacheCounters,
    /// The sketch + signature prefilter index behind `search` requests,
    /// synchronised lazily by [`index_view`].
    index: Arc<CatalogIndex>,
    /// The version and pin list the index reflects. Searches hold it
    /// shared for their prefilter, so no sync changes an entry while a
    /// search picks its survivors; a sync holds it exclusively (see
    /// [`index_view`]).
    indexed: RwLock<(u64, PinList)>,
    pub(crate) requests: AtomicU64,
    completed: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) conns: ConnCounters,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The sink jobs observe under: the server's own stats aggregation,
    /// teed with the configured extra sink if any.
    fn job_sink(&self) -> Arc<dyn ic_obs::Sink> {
        let stats = Arc::clone(&self.stats_sink) as Arc<dyn ic_obs::Sink>;
        match &self.cfg.extra_sink {
            None => stats,
            Some(extra) => Arc::new(TeeSink {
                first: stats,
                second: Arc::clone(extra),
            }),
        }
    }
}

/// Fans one observation report out to two sinks, stats first — so the
/// server's own counters are recorded even if the extra sink panics.
struct TeeSink {
    first: Arc<dyn ic_obs::Sink>,
    second: Arc<dyn ic_obs::Sink>,
}

impl ic_obs::Sink for TeeSink {
    fn on_report(&self, report: &ic_obs::Report) {
        self.first.on_report(report);
        self.second.on_report(report);
    }
}

/// The embeddable similarity server. Construct with [`Server::start`];
/// the returned [`ServerHandle`] owns every thread.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the event loop and worker threads over `catalog`.
    pub fn start(
        catalog: Arc<ServeCatalog>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let (tx, rx) = sync_channel::<Job>(cfg.queue_depth.max(1));
        let shared = Arc::new(Shared {
            catalog,
            cfg,
            stop: AtomicBool::new(false),
            queue: Mutex::new(Some(tx)),
            stats_sink: Arc::new(StatsSink::new()),
            sig_cache: SigCacheCounters::default(),
            index: Arc::new(CatalogIndex::default()),
            indexed: RwLock::default(),
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            conns: ConnCounters::default(),
        });

        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let (shared, rx) = (Arc::clone(&shared), Arc::clone(&rx));
                std::thread::Builder::new()
                    .name(format!("ic-serve-worker-{i}"))
                    .spawn(move || ic_pool::with_threads(1, || worker_loop(&shared, &rx)))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let poller = Poller::new()?;
        let wake = Arc::new(WakeFd::new()?);
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(wake.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        let (ctx, crx) = std::sync::mpsc::channel::<(u64, Response)>();
        let driver = {
            let shared = Arc::clone(&shared);
            let wake = Arc::clone(&wake);
            std::thread::Builder::new()
                .name("ic-serve-loop".into())
                .spawn(move || run_event_loop(&shared, poller, listener, &wake, ctx, crx))?
        };

        Ok(ServerHandle {
            local_addr,
            shared,
            driver: Some(driver),
            wake,
            workers,
        })
    }
}

/// Owns the running server: its address, its threads, and the shutdown
/// protocol. Dropping the handle shuts the server down (gracefully — see
/// [module docs](self)).
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// The event-loop thread, and the eventfd that wakes it.
    driver: Option<JoinHandle<()>>,
    wake: Arc<WakeFd>,
    /// The worker threads; empty once joined.
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .field("stopping", &self.shared.stopping())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (resolves the port for `"…:0"` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The catalog this server answers from (loads through this handle are
    /// visible to subsequent requests — same copy-on-write registry).
    pub fn catalog(&self) -> &Arc<ServeCatalog> {
        &self.shared.catalog
    }

    /// Hit and miss counters of the signature maps compares find on
    /// their catalog pins (see [`SigCacheStats`]).
    pub fn sig_cache(&self) -> &SigCacheCounters {
        &self.shared.sig_cache
    }

    /// Connection lifecycle counters: accepts and closes by typed reason
    /// (peer, protocol, backpressure, drain).
    pub fn conn_stats(&self) -> ConnStats {
        let c = &self.shared.conns;
        ConnStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            closed_peer: c.closed_peer.load(Ordering::Relaxed),
            closed_protocol: c.closed_protocol.load(Ordering::Relaxed),
            closed_backpressure: c.closed_backpressure.load(Ordering::Relaxed),
            closed_drained: c.closed_drained.load(Ordering::Relaxed),
            closed_idle: c.closed_idle.load(Ordering::Relaxed),
            coalesced_frames: c.coalesced_frames.load(Ordering::Relaxed),
        }
    }

    /// Initiates graceful shutdown and blocks until every admitted request
    /// has been answered and all threads exited.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until a wire `shutdown` request stops the server (the serve
    /// binary's main loop), then drains and joins like
    /// [`shutdown`](Self::shutdown).
    pub fn wait(mut self) {
        while !self.shared.stopping() {
            std::thread::sleep(self.shared.cfg.poll_interval);
        }
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Join order is the drain order: stop admissions (the event loop
        // routes every in-flight request), close the queue, let the
        // workers drain it, join them.
        self.wake.wake();
        if let Some(d) = self.driver.take() {
            let _ = d.join();
        }
        drop(lock_recover(&self.shared.queue).take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn joined(&self) -> bool {
        self.workers.is_empty()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.joined() {
            self.stop_and_join();
        }
    }
}

/// The typed response to an oversized declared frame length.
pub(crate) fn too_large(declared: usize) -> Response {
    Response::Error {
        id: 0,
        code: ErrorCode::BadFrame,
        message: format!("declared frame length of {declared} bytes exceeds the server's cap"),
    }
}

/// The typed response to an undecodable (but well-framed) payload.
pub(crate) fn decode_error_response(payload: &[u8], err: &DecodeError) -> Response {
    let code = match err {
        DecodeError::Syntax(_) => ErrorCode::Malformed,
        DecodeError::Shape(_) => ErrorCode::BadRequest,
    };
    Response::Error {
        id: salvage_id(payload),
        code,
        message: err.to_string(),
    }
}

/// Best-effort extraction of the `id` member from an undecodable payload.
fn salvage_id(payload: &[u8]) -> u64 {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|text| crate::json::parse(text).ok())
        .and_then(|v| v.get("id").and_then(Json::as_u64))
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Request classification

/// What a decoded request requires of the event loop.
pub(crate) enum Action {
    /// Answer immediately (catalog requests and validation failures);
    /// `close` ends the connection after the response is delivered.
    Respond { resp: Response, close: bool },
    /// Submit to the worker queue (compare/search, names validated
    /// against `snapshot`, deadline stamped at admission).
    Admit {
        id: u64,
        kind: JobKind,
        snapshot: Arc<Snapshot>,
        deadline: Option<Instant>,
    },
}

/// Decodes one request into an [`Action`], updating the request/error
/// counters. Catalog requests are handled inline right here.
pub(crate) fn classify(shared: &Arc<Shared>, req: Request) -> Action {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let action = match req {
        Request::Load { id, name, dir } => {
            let resp = match shared
                .catalog
                .load_csv_dir(&name, std::path::Path::new(&dir))
            {
                Ok(tuples) => Response::Loaded {
                    id,
                    name,
                    tuples: tuples as u64,
                },
                Err(e) => Response::Error {
                    id,
                    code: match e {
                        CatalogError::SchemaMismatch { .. } => ErrorCode::SchemaMismatch,
                        _ => ErrorCode::Load,
                    },
                    message: e.to_string(),
                },
            };
            Action::Respond { resp, close: false }
        }
        Request::List { id } => {
            let snap = shared.catalog.snapshot();
            let instances = snap
                .names()
                .map(|name| {
                    let inst = snap.get(name).expect("name from this snapshot");
                    InstanceInfo {
                        name: name.to_string(),
                        tuples: inst.num_tuples() as u64,
                        null_cells: inst.num_null_cells() as u64,
                    }
                })
                .collect();
            Action::Respond {
                resp: Response::Listing { id, instances },
                close: false,
            }
        }
        Request::Patch { id, name, ops } => Action::Respond {
            resp: run_patch(shared, id, name, ops),
            close: false,
        },
        Request::Stats { id } => Action::Respond {
            resp: Response::Stats {
                id,
                stats: collect_stats(shared),
            },
            close: false,
        },
        Request::Shutdown { id } => {
            shared.stop.store(true, Ordering::Release);
            Action::Respond {
                resp: Response::ShuttingDown { id },
                close: true,
            }
        }
        Request::Compare {
            id,
            left,
            right,
            algo,
            lambda,
            budget_ms,
        } => {
            let snapshot = shared.catalog.snapshot();
            if let Some(name) = [&left, &right]
                .into_iter()
                .find(|n| snapshot.get(n).is_none())
            {
                return error_action(shared, unknown_instance(id, name));
            }
            Action::Admit {
                id,
                kind: JobKind::Compare {
                    left,
                    right,
                    algo,
                    lambda,
                },
                snapshot,
                deadline: stamp_deadline(shared, budget_ms),
            }
        }
        Request::Search {
            id,
            query,
            k,
            lambda,
            budget_ms,
        } => {
            let snapshot = shared.catalog.snapshot();
            if snapshot.get(&query).is_none() {
                return error_action(shared, unknown_instance(id, &query));
            }
            if k == 0 {
                return error_action(
                    shared,
                    Response::Error {
                        id,
                        code: ErrorCode::BadRequest,
                        message: "search k must be at least 1".into(),
                    },
                );
            }
            Action::Admit {
                id,
                kind: JobKind::Search {
                    query,
                    k: k.min(usize::MAX as u64) as usize,
                    lambda,
                },
                snapshot,
                deadline: stamp_deadline(shared, budget_ms),
            }
        }
        Request::Discover {
            id,
            name,
            epsilon,
            max_lhs,
            min_support,
            budget_ms,
        } => {
            let snapshot = shared.catalog.snapshot();
            if snapshot.get(&name).is_none() {
                return error_action(shared, unknown_instance(id, &name));
            }
            Action::Admit {
                id,
                kind: JobKind::Discover {
                    name,
                    epsilon,
                    max_lhs,
                    min_support,
                },
                snapshot,
                deadline: stamp_deadline(shared, budget_ms),
            }
        }
    };
    if let Action::Respond {
        resp: Response::Error { .. },
        ..
    } = &action
    {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    action
}

fn error_action(shared: &Arc<Shared>, resp: Response) -> Action {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    Action::Respond { resp, close: false }
}

/// A wire patch op with schema references resolved but values still
/// symbolic — interning happens inside the catalog mutation so the new
/// constants and nulls are captured (and WAL-logged) with the op.
enum ResolvedPatchOp {
    Insert {
        rel: RelId,
        values: Vec<PatchValue>,
    },
    Delete {
        id: TupleId,
    },
    Modify {
        id: TupleId,
        attr: AttrId,
        value: PatchValue,
    },
}

/// Handles a `patch` request inline (it is a catalog mutation, like
/// `load`): resolves the wire ops against the schema and applies them
/// through [`ServeCatalog::patch`] — one copy-on-write publish, WAL-logged
/// when durable, which also repairs the patched pin's signature maps if
/// they were built.
fn run_patch(shared: &Shared, id: u64, name: String, ops: Vec<PatchOp>) -> Response {
    let bad_request = |message: String| Response::Error {
        id,
        code: ErrorCode::BadRequest,
        message,
    };

    // Resolve schema references against the current snapshot. The schema
    // never changes after construction, so these resolutions cannot be
    // invalidated by a concurrent mutation; tuple-level races (a tuple
    // deleted between here and the apply) surface as `delta` errors from
    // the atomic application below.
    let pre = shared.catalog.snapshot();
    let Some(old_pin) = pre.get(&name) else {
        return unknown_instance(id, &name);
    };
    let schema = pre.catalog.schema();
    let nulls_bound = pre.catalog.nulls_allocated();
    let mut resolved = Vec::with_capacity(ops.len());
    for op in ops {
        let check_value = |v: &PatchValue| match v {
            PatchValue::Null(n) if *n >= nulls_bound => Some(bad_request(format!(
                "null reference {n} is outside the catalog's allocated nulls ({nulls_bound})"
            ))),
            _ => None,
        };
        match op {
            PatchOp::Insert { rel, values } => {
                let Some(rid) = schema.rel(&rel) else {
                    return bad_request(format!("unknown relation {rel:?}"));
                };
                let arity = schema.relation(rid).arity();
                if values.len() != arity {
                    return bad_request(format!(
                        "relation {rel:?} has arity {arity}, insert carries {} values",
                        values.len()
                    ));
                }
                if let Some(resp) = values.iter().find_map(check_value) {
                    return resp;
                }
                resolved.push(ResolvedPatchOp::Insert { rel: rid, values });
            }
            PatchOp::Delete { tuple } => {
                resolved.push(ResolvedPatchOp::Delete { id: TupleId(tuple) });
            }
            PatchOp::Modify { tuple, attr, value } => {
                let attr = match attr {
                    AttrRef::Index(i) => AttrId(i),
                    AttrRef::Name(n) => {
                        // Name resolution needs the tuple's relation; an
                        // unknown tuple becomes a `delta` error either way.
                        let Some(rid) = old_pin.rel_of(TupleId(tuple)) else {
                            return Response::Error {
                                id,
                                code: ErrorCode::Delta,
                                message: format!("no tuple with id {tuple} in {name:?}"),
                            };
                        };
                        match schema.relation(rid).attr(&n) {
                            Some(a) => a,
                            None => {
                                return bad_request(format!(
                                    "relation {:?} has no attribute {n:?}",
                                    schema.relation(rid).name()
                                ))
                            }
                        }
                    }
                };
                if let Some(resp) = check_value(&value) {
                    return resp;
                }
                resolved.push(ResolvedPatchOp::Modify {
                    id: TupleId(tuple),
                    attr,
                    value,
                });
            }
        }
    }

    let outcome = shared.catalog.patch(&name, |catalog| {
        Ok(Delta::new(
            resolved
                .into_iter()
                .map(|op| match op {
                    ResolvedPatchOp::Insert { rel, values } => DeltaOp::Insert {
                        rel,
                        values: values.iter().map(|v| wire_value(catalog, v)).collect(),
                    },
                    ResolvedPatchOp::Delete { id } => DeltaOp::Delete { id },
                    ResolvedPatchOp::Modify { id, attr, value } => DeltaOp::Modify {
                        id,
                        attr,
                        value: wire_value(catalog, &value),
                    },
                })
                .collect(),
        ))
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            let code = match &e {
                CatalogError::UnknownInstance { .. } => ErrorCode::UnknownInstance,
                CatalogError::Delta { .. } => ErrorCode::Delta,
                _ => ErrorCode::Internal,
            };
            return Response::Error {
                id,
                code,
                message: e.to_string(),
            };
        }
    };

    let new_pin = outcome
        .instance
        .expect("a successful patch always returns the new pin");
    Response::Patched {
        id,
        name,
        tuples: new_pin.num_tuples() as u64,
        inserted: outcome.inserted.iter().map(|t| t.0 as u64).collect(),
    }
}

/// Interns one wire patch value into the mutation's catalog copy.
fn wire_value(catalog: &mut ic_model::Catalog, v: &PatchValue) -> Value {
    match v {
        PatchValue::Const(s) => catalog.konst(s),
        PatchValue::FreshNull => catalog.fresh_null(),
        PatchValue::Null(n) => Value::Null(NullId(*n)),
    }
}

fn stamp_deadline(shared: &Shared, budget_ms: Option<u64>) -> Option<Instant> {
    budget_ms
        .map(Duration::from_millis)
        .or(shared.cfg.default_budget)
        .map(|b| Instant::now() + b)
}

fn unknown_instance(id: u64, name: &str) -> Response {
    Response::Error {
        id,
        code: ErrorCode::UnknownInstance,
        message: format!("no instance named {name:?} in the catalog"),
    }
}

fn collect_stats(shared: &Shared) -> ServerStats {
    let spans = shared
        .stats_sink
        .snapshot()
        .into_iter()
        .map(|(label, s)| SpanStat {
            label,
            reports: s.reports,
            wall_us: s.wall.as_micros() as u64,
        })
        .collect();
    ServerStats {
        requests: shared.requests.load(Ordering::Relaxed),
        completed: shared.completed.load(Ordering::Relaxed),
        overloaded: shared.overloaded.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        catalog_version: shared.catalog.version(),
        spans,
    }
}

/// The typed `overloaded` rejection for a full queue.
pub(crate) fn overloaded_response(shared: &Shared, id: u64) -> Response {
    shared.overloaded.fetch_add(1, Ordering::Relaxed);
    shared.errors.fetch_add(1, Ordering::Relaxed);
    Response::Error {
        id,
        code: ErrorCode::Overloaded,
        message: format!(
            "request queue full ({} slots); retry later",
            shared.cfg.queue_depth
        ),
    }
}

/// The typed rejection once the queue has closed for shutdown.
pub(crate) fn shutting_down_response(id: u64) -> Response {
    Response::Error {
        id,
        code: ErrorCode::ShuttingDown,
        message: "server is shutting down".into(),
    }
}

// ---------------------------------------------------------------------------
// Workers

/// One worker thread's loop; returns when the queue sender is dropped
/// (shutdown) *and* every queued job drained.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        // The guard is dropped as soon as `recv` returns: jobs are handed
        // out one at a time but *processed* concurrently.
        let job = lock_recover(rx).recv();
        match job {
            Ok(job) => process_job(shared, job),
            Err(_) => return, // queue closed and drained
        }
    }
}

fn process_job(shared: &Shared, job: Job) {
    if let Some(delay) = shared.cfg.worker_delay {
        std::thread::sleep(delay);
    }
    // Deadline check before any engine work: a request that starved in the
    // queue past its budget (or asked for `budget_ms: 0`) gets a typed
    // `budget` error, never a hang and never a silent partial answer.
    let now = Instant::now();
    let remaining = match job.deadline {
        Some(deadline) => match deadline.checked_duration_since(now) {
            Some(r) if !r.is_zero() => Some(r),
            _ => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                job.reply.send(Response::Error {
                    id: job.id,
                    code: ErrorCode::Budget,
                    message: "deadline expired before processing began".into(),
                });
                return;
            }
        },
        None => None,
    };

    // Fault isolation: a panic anywhere in one request — the engine, an
    // observation sink — is converted into a typed `internal` error for
    // *that* request. The worker thread survives, and every mutex it might
    // have poisoned is recovered by `lock_recover`, so subsequent requests
    // are unaffected.
    let resp = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job, remaining))).unwrap_or_else(
        |panic| Response::Error {
            id: job.id,
            code: ErrorCode::Internal,
            message: format!("request processing panicked: {}", panic_message(&panic)),
        },
    );
    if matches!(
        resp,
        Response::Compared { .. } | Response::Searched { .. } | Response::Discovered { .. }
    ) {
        shared.completed.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    job.reply.send(resp);
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn run_job(shared: &Shared, job: &Job, remaining: Option<Duration>) -> Response {
    match &job.kind {
        JobKind::Compare {
            left,
            right,
            algo,
            lambda,
        } => run_compare(shared, job, left, right, *algo, *lambda, remaining),
        JobKind::Search { query, k, lambda } => run_search(shared, job, query, *k, *lambda),
        JobKind::Discover {
            name,
            epsilon,
            max_lhs,
            min_support,
        } => run_discover(
            shared,
            job,
            name,
            *epsilon,
            *max_lhs,
            *min_support,
            remaining,
        ),
    }
}

fn run_compare(
    shared: &Shared,
    job: &Job,
    left_name: &str,
    right_name: &str,
    algo: Algo,
    lambda: Option<f64>,
    remaining: Option<Duration>,
) -> Response {
    // Per-request observability: one observation per compare, aggregated
    // by label in the StatsSink and exported through `stats`.
    let _obs = ic_obs::observe(COMPARE_LABEL, shared.job_sink());

    let (Some(left), Some(right)) = (job.snapshot.pin(left_name), job.snapshot.pin(right_name))
    else {
        // Unreachable in practice: admission validated against this very
        // snapshot. Kept as a typed error rather than a panic.
        return Response::Error {
            id: job.id,
            code: ErrorCode::UnknownInstance,
            message: "instance vanished from the admitted snapshot".into(),
        };
    };

    let mut builder = Comparator::new(&job.snapshot.catalog);
    if let Some(lambda) = lambda {
        builder = builder.lambda(lambda);
    }
    if let Some(budget) = remaining {
        builder = builder.budget(budget);
    }
    let cmp = match builder.build() {
        Ok(cmp) => cmp,
        Err(e) => return core_error(job.id, &e),
    };

    let start = Instant::now();
    let scores = match algo {
        Algo::Signature => {
            let budgeted = remaining.is_some();
            let (lm, rm) = (seed(shared, left, budgeted), seed(shared, right, budgeted));
            match cmp.signature_with_maps(left.instance(), right.instance(), lm, rm) {
                Ok(out) if out.timed_out => {
                    return core_error(
                        job.id,
                        &ic_core::Error::Budget {
                            budget: remaining,
                            elapsed: out.elapsed,
                        },
                    )
                }
                Ok(out) => CompareScores {
                    signature: Some(out.best.score()),
                    exact: None,
                    pairs: Some(out.best.pairs.len() as u64),
                    optimal: None,
                    elapsed_us: start.elapsed().as_micros() as u64,
                },
                Err(e) => return core_error(job.id, &e),
            }
        }
        Algo::Exact => match cmp.exact_strict(left.instance(), right.instance()) {
            Ok(out) => CompareScores {
                signature: None,
                exact: Some(out.best.score()),
                pairs: None,
                optimal: Some(out.optimal),
                elapsed_us: start.elapsed().as_micros() as u64,
            },
            Err(e) => return core_error(job.id, &e),
        },
        Algo::Both => match cmp.both(left.instance(), right.instance()) {
            Ok((exact, sig)) => {
                if sig.timed_out || !exact.optimal {
                    return core_error(
                        job.id,
                        &ic_core::Error::Budget {
                            budget: remaining,
                            elapsed: start.elapsed(),
                        },
                    );
                }
                CompareScores {
                    signature: Some(sig.best.score()),
                    exact: Some(exact.best.score()),
                    pairs: Some(sig.best.pairs.len() as u64),
                    optimal: Some(exact.optimal),
                    elapsed_us: start.elapsed().as_micros() as u64,
                }
            }
            Err(e) => return core_error(job.id, &e),
        },
    };
    Response::Compared { id: job.id, scores }
}

/// The maps a signature compare seeds one side with: the pin's, built into
/// its slot first on a miss. A seeded compare is bit-identical to one
/// that builds its own maps, so this changes wall-clock, never scores.
/// Slot builds run without a deadline, so a budgeted request only reads
/// the slot; on a miss its compare builds maps of its own, under the
/// budget.
fn seed<'p>(shared: &Shared, pin: &'p Pin, budgeted: bool) -> Option<&'p InstanceSigMaps> {
    shared.sig_cache.record(pin.maps().is_some());
    let maps = if budgeted {
        pin.maps()
    } else {
        Some(pin.maps_or_build())
    };
    maps.map(|maps| &**maps)
}

/// The snapshot a search runs against, and a shared hold on the index
/// while it reflects exactly that snapshot: the query and every survivor
/// the prefilter picks then come from one version, and a search's query
/// always finds itself at 1.0. The survivors own their pins and maps, so
/// the search drops the hold before its full compares.
///
/// Syncing diffs the pin list the index last reflected against the new
/// one, so only names whose pin changed are re-indexed or dropped: a
/// patch costs the next search one entry, not a walk over the catalog.
/// An entry's maps are its pin's, built into the pin's slot only if no
/// compare or patch filled it, so compares and searches share one build.
/// Syncs are exclusive, so concurrent searches build each entry once, and
/// searches over an unchanged index share the lock. Only the pin list is
/// kept, not the snapshot, so no old interner stays alive.
///
/// The index never rolls back. A search admitted under an older snapshot
/// than the index already reflects (a later search synced first) runs
/// against the current snapshot instead.
fn index_view<'a>(
    shared: &'a Shared,
    admitted: &Arc<Snapshot>,
) -> (Arc<Snapshot>, RwLockReadGuard<'a, (u64, PinList)>) {
    let mut snap = Arc::clone(admitted);
    loop {
        // One version is one pin list: mutations bump the version, and
        // version 0 means an empty catalog on both sides.
        let view = read_recover(&shared.indexed);
        if view.0 == snap.version {
            return (snap, view);
        }
        let behind = view.0 < snap.version;
        drop(view);
        if !behind {
            // Every synced version was published, so the current snapshot
            // is at least as new as the index.
            snap = shared.catalog.snapshot();
            continue;
        }
        let mut synced = write_recover(&shared.indexed);
        let (version, pins) = &*synced;
        if *version < snap.version {
            diff_pins(pins, snap.pins(), |name, pin| {
                match pin {
                    Some(pin) => {
                        let maps = Arc::clone(pin.maps_or_build());
                        shared.index.insert(name, pin.instance(), maps)
                    }
                    None => shared.index.remove(name),
                };
            });
            *synced = (snap.version, Arc::clone(snap.pins()));
        }
    }
}

fn run_search(
    shared: &Shared,
    job: &Job,
    query_name: &str,
    k: usize,
    lambda: Option<f64>,
) -> Response {
    let _obs = ic_obs::observe(SEARCH_LABEL, shared.job_sink());

    let (snapshot, view) = index_view(shared, &job.snapshot);
    let Some(query) = snapshot.get(query_name) else {
        return Response::Error {
            id: job.id,
            code: ErrorCode::UnknownInstance,
            message: "query was removed from the catalog before the search ran".into(),
        };
    };

    // The comparator carries **no** budget: every score a search returns
    // is exact and bit-identical to a direct unbudgeted `compare`. The
    // request deadline is enforced before every survivor by
    // `Survivors::compare` — exceeding it fails the whole request with
    // `budget` rather than silently returning a truncated ranking.
    let mut builder = Comparator::new(&snapshot.catalog);
    if let Some(lambda) = lambda {
        builder = builder.lambda(lambda);
    }
    let cmp = match builder.build() {
        Ok(cmp) => cmp,
        Err(e) => return core_error(job.id, &e),
    };

    let start = Instant::now();
    let survivors = shared.index.prefilter(query, k, &cmp);
    // The survivors own their pins and maps: a sync after a patch waits
    // for prefilters only, not for full compares.
    drop(view);
    match survivors.and_then(|survivors| survivors.compare(query, &cmp, job.deadline)) {
        Ok(out) => Response::Searched {
            id: job.id,
            results: SearchResults {
                hits: out
                    .hits
                    .into_iter()
                    .map(|h| SearchResult {
                        name: h.name,
                        score: h.score,
                        pairs: h.pairs as u64,
                    })
                    .collect(),
                compared: out.compared as u64,
                total: out.total as u64,
                elapsed_us: start.elapsed().as_micros() as u64,
            },
        },
        Err(e) => core_error(job.id, &e),
    }
}

fn run_discover(
    shared: &Shared,
    job: &Job,
    name: &str,
    epsilon: Option<f64>,
    max_lhs: Option<u64>,
    min_support: Option<u64>,
    remaining: Option<Duration>,
) -> Response {
    let _obs = ic_obs::observe(DISCOVER_LABEL, shared.job_sink());

    let Some(instance) = job.snapshot.get(name) else {
        return Response::Error {
            id: job.id,
            code: ErrorCode::UnknownInstance,
            message: "instance vanished from the admitted snapshot".into(),
        };
    };

    // Request knobs override the library defaults field by field; the
    // config's own validation turns a bad epsilon into a typed `config`
    // error, and the admission deadline becomes the discovery budget so
    // exhaustion surfaces as `budget`, never a truncated constraint list.
    let defaults = ic_discovery::DiscoveryConfig::default();
    let cfg = ic_discovery::DiscoveryConfig {
        epsilon: epsilon.unwrap_or(defaults.epsilon),
        max_lhs: max_lhs.map_or(defaults.max_lhs, |m| m.min(usize::MAX as u64) as usize),
        min_support: min_support
            .map_or(defaults.min_support, |s| s.min(usize::MAX as u64) as usize),
        budget: remaining,
        ..defaults
    };

    let start = Instant::now();
    match ic_discovery::discover(instance, &job.snapshot.catalog, &cfg) {
        Ok(found) => {
            let schema = job.snapshot.catalog.schema();
            let attr = |rel: RelId, a: AttrId| schema.relation(rel).attr_name(a).to_string();
            Response::Discovered {
                id: job.id,
                fds: found
                    .fds
                    .iter()
                    .map(|fd| DiscoveredFdInfo {
                        rel: schema.relation(fd.rel).name().to_string(),
                        lhs: fd.lhs.iter().map(|&a| attr(fd.rel, a)).collect(),
                        rhs: attr(fd.rel, fd.rhs),
                        g3_min: fd.g3.g3_min,
                        g3_max: fd.g3.g3_max,
                        support: fd.support as u64,
                    })
                    .collect(),
                keys: found
                    .keys
                    .iter()
                    .map(|k| DiscoveredKeyInfo {
                        rel: schema.relation(k.rel).name().to_string(),
                        attrs: k.attrs.iter().map(|&a| attr(k.rel, a)).collect(),
                        g3_min: k.g3.g3_min,
                        g3_max: k.g3.g3_max,
                        covered: k.covered as u64,
                    })
                    .collect(),
                elapsed_us: start.elapsed().as_micros() as u64,
            }
        }
        Err(e) => core_error(job.id, &e),
    }
}

fn core_error(id: u64, e: &ic_core::Error) -> Response {
    Response::Error {
        id,
        code: ErrorCode::from_core(e),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, CompareOptions};
    use ic_model::{Instance, Schema};

    /// How many holders share the maps built into `name`'s pin in `snap`:
    /// the pin itself, plus an index entry that holds the same `Arc`.
    fn maps_holders(snap: &Snapshot, name: &str) -> usize {
        Arc::strong_count(snap.pin(name).unwrap().maps().expect("maps built"))
    }

    /// A catalog of two-tuple instances over `R(A, B)`, one per name.
    fn two_row_catalog(names: &[&str]) -> Arc<ServeCatalog> {
        let catalog = Arc::new(ServeCatalog::new(Schema::single("R", &["A", "B"])));
        for &name in names {
            catalog
                .register_with(name, |cat| {
                    let mut inst = Instance::new(name, cat);
                    for row in ["x", "y"] {
                        let (v, w) = (cat.konst(row), cat.konst(&format!("{name}{row}")));
                        inst.insert(RelId(0), vec![v, w]);
                    }
                    Ok(inst)
                })
                .unwrap();
        }
        catalog
    }

    /// Compares and searches read one map per pin: whichever runs first
    /// builds it into the pin, the other finds it there, and the index
    /// entry holds that same `Arc`. A budgeted compare only reads the pin.
    /// A `patch` repairs the maps into the new pin and counts no hit or
    /// miss.
    #[test]
    fn compares_searches_and_patches_share_one_map_per_pin() {
        let catalog = two_row_catalog(&["a", "b", "c"]);
        let server =
            Server::start(Arc::clone(&catalog), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::new(server.local_addr()).unwrap();
        let opts = CompareOptions::default;
        let counts = |hits, misses| SigCacheStats { hits, misses };

        let budgeted = CompareOptions {
            budget_ms: Some(60_000),
            ..opts()
        };
        client.compare("a", "b", Algo::Signature, budgeted).unwrap();
        assert_eq!(server.sig_cache().stats(), counts(0, 2));
        assert!(catalog.snapshot().pin("a").unwrap().maps().is_none());
        client.compare("a", "b", Algo::Signature, opts()).unwrap();
        assert_eq!(server.sig_cache().stats(), counts(0, 4));
        client.search("a", 3, opts()).unwrap();
        let snap = catalog.snapshot();
        for name in ["a", "b", "c"] {
            assert_eq!(maps_holders(&snap, name), 2, "{name}: pin and index entry");
        }
        // The search built c's maps into its pin; a compare finds them.
        client.compare("c", "a", Algo::Signature, opts()).unwrap();
        assert_eq!(server.sig_cache().stats(), counts(2, 4));

        let patch = PatchOp::Modify {
            tuple: 0,
            attr: AttrRef::Index(1),
            value: PatchValue::Const("patched".into()),
        };
        client.patch("a", vec![patch]).unwrap();
        assert_eq!(
            server.sig_cache().stats(),
            counts(2, 4),
            "a patch counts nothing"
        );
        let patched = catalog.snapshot();
        assert!(!Arc::ptr_eq(
            patched.get("a").unwrap(),
            snap.get("a").unwrap()
        ));
        assert_eq!(maps_holders(&patched, "a"), 1, "repaired into the new pin");
        client.compare("a", "b", Algo::Signature, opts()).unwrap();
        assert_eq!(server.sig_cache().stats(), counts(4, 4));
        server.shutdown();
    }

    /// A search admitted before a patch, but run after a later search
    /// already synced the index past the patch, searches the snapshot the
    /// index reflects: the patched query finds itself at 1.0. Against its
    /// admitted snapshot, the pre-patch query would meet the patched entry.
    #[test]
    fn search_admitted_before_a_synced_patch_runs_on_the_index_snapshot() {
        let catalog = Arc::new(ServeCatalog::new(Schema::single("R", &["A", "B"])));
        for name in ["a", "b", "c"] {
            catalog
                .register_with(name, |cat| {
                    let mut inst = Instance::new(name, cat);
                    for row in ["x", "y", name] {
                        let (v, w) = (cat.konst(row), cat.konst(&format!("{name}{row}")));
                        inst.insert(RelId(0), vec![v, w]);
                    }
                    Ok(inst)
                })
                .unwrap();
        }
        let server =
            Server::start(Arc::clone(&catalog), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let shared = &server.shared;

        let admitted = catalog.snapshot();
        catalog
            .patch("a", |cat| {
                Ok(Delta::new(vec![DeltaOp::Modify {
                    id: TupleId(0),
                    attr: AttrId(1),
                    value: cat.konst("patched"),
                }]))
            })
            .unwrap();
        let newer = catalog.snapshot();
        let (used, view) = index_view(shared, &newer);
        assert!(Arc::ptr_eq(&used, &newer));
        drop(view);

        let (used, view) = index_view(shared, &admitted);
        assert_eq!((used.version, view.0), (newer.version, newer.version));
        let query = used.get("a").unwrap();
        assert!(Arc::ptr_eq(query, newer.get("a").unwrap()));
        let cmp = Comparator::new(&used.catalog).build().unwrap();
        let top = shared.index.topk(query, 1, &cmp, None).unwrap();
        assert_eq!((top.hits[0].name.as_str(), top.hits[0].score), ("a", 1.0));
        // The skew the fallback avoids: the admitted query misses itself.
        let stale = admitted.get("a").unwrap();
        let top = shared.index.topk(stale, 3, &cmp, None).unwrap();
        assert!(top.hits.iter().all(|h| h.name != "a" || h.score < 1.0));
        drop(view);
        server.shutdown();
    }

    /// A search's hold on the index ends at its prefilter: a sync for a
    /// newer snapshot runs while the search still has its full compares
    /// ahead, and those compares answer from the survivors' own pins.
    #[test]
    fn sync_runs_while_a_prefiltered_search_compares() {
        let catalog = two_row_catalog(&["a", "b"]);
        let server =
            Server::start(Arc::clone(&catalog), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let shared = &server.shared;

        let old = catalog.snapshot();
        let (used, view) = index_view(shared, &old);
        let query = used.get("a").unwrap();
        let cmp = Comparator::new(&used.catalog).build().unwrap();
        let survivors = shared.index.prefilter(query, 1, &cmp).unwrap();
        drop(view);

        catalog
            .patch("a", |cat| {
                Ok(Delta::new(vec![DeltaOp::Modify {
                    id: TupleId(0),
                    attr: AttrId(1),
                    value: cat.konst("patched"),
                }]))
            })
            .unwrap();
        let new = catalog.snapshot();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let (used, _view) = index_view(shared, &new);
                tx.send(used.version).unwrap();
            });
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)),
                Ok(new.version),
                "the sync waited for a search past its prefilter"
            );
        });
        assert_eq!(
            maps_holders(&new, "a"),
            2,
            "the sync indexed the patched pin"
        );
        let top = survivors.compare(query, &cmp, None).unwrap();
        assert_eq!((top.hits[0].name.as_str(), top.hits[0].score), ("a", 1.0));
        server.shutdown();
    }

    /// A sync waits for the searches holding the index: an entry never
    /// changes under a running prefilter.
    #[test]
    fn sync_waits_for_searches_holding_the_index() {
        let catalog = Arc::new(ServeCatalog::new(Schema::single("R", &["A"])));
        let put = |value: &'static str| {
            catalog
                .register_with("a", |cat| {
                    let mut inst = Instance::new("a", cat);
                    inst.insert(RelId(0), vec![cat.konst(value)]);
                    Ok(inst)
                })
                .unwrap();
            catalog.snapshot()
        };
        let old = put("x");
        let server =
            Server::start(Arc::clone(&catalog), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let shared = &server.shared;
        let (_, view) = index_view(shared, &old);
        let new = put("y");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let (used, _view) = index_view(shared, &new);
                tx.send(used.version).unwrap();
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "synced while a search held the index"
            );
            assert_eq!(
                maps_holders(&old, "a"),
                2,
                "the index still holds the old pin"
            );
            drop(view);
            assert_eq!(rx.recv().unwrap(), new.version);
        });
        assert_eq!(maps_holders(&old, "a"), 1);
        assert_eq!(maps_holders(&new, "a"), 2);
        server.shutdown();
    }
}
