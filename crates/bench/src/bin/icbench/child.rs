//! The measured process. The parent re-executes the binary as
//! `icbench child …` for every set-up sample and every measured pass, so
//! no cache, index or allocator state leaks from one measurement into the
//! next.
//!
//! Each child opens the durable catalog, starts the server and waits for
//! the first answer (one set-up sample). A set-up-only child stops there;
//! a measured child warms the server up, drives it from two client
//! connections for the measured window, and prints one JSON object
//! describing what it saw.

use crate::plan::{lake_schema, Op, Plan, Stream, Workload};
use crate::stats::{mean, overhead_us, percentile, ratio, sorted, sync_us};
use crate::trace::{EventLog, SpanCollector, StoreOp, TimedStorage};
use ic_serve::{Client, Json, Request, Response, ServeCatalog, Server, ServerConfig, ServerHandle};
use ic_store::{FileStorage, Storage};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load before every measured window: fills the sigmap cache on
/// `compare_hot` and lets the index and allocator settle elsewhere.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Answered requests per connection kept for the codec replay.
const CODEC_CAPTURE: usize = 256;
/// Replays of the captured messages when timing the codec.
const CODEC_ROUNDS: usize = 50;
/// Problems quoted verbatim in the result (all are counted).
const QUOTED_PROBLEMS: usize = 8;

/// What one child process measures.
#[derive(Debug)]
pub struct ChildConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the request streams (the lake was built from it).
    pub seed: u64,
    /// Work directory holding `plan.txt` and the `data/` directory.
    pub dir: PathBuf,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Whether to install the tracing collectors.
    pub traced: bool,
}

/// The traced pass's collectors.
#[derive(Debug, Default)]
struct Tracing {
    spans: Arc<SpanCollector>,
    events: Arc<EventLog>,
}

/// A running server with its two client connections (clients drop first).
struct Live {
    clients: Vec<Client>,
    server: ServerHandle,
}

/// Wall times of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    /// Durable open → first answered request.
    total: f64,
    /// `ServeCatalog::durable` alone.
    open: f64,
    /// Connected → first request answered.
    first_request: f64,
    /// The open's snapshot install (traced only).
    install: Option<f64>,
}

impl SetupTimes {
    fn to_json(self) -> Json {
        let mut members = vec![
            ("total", Json::Num(self.total)),
            ("open", Json::Num(self.open)),
            ("first_request", Json::Num(self.first_request)),
        ];
        if let Some(install) = self.install {
            members.push(("install", Json::Num(install)));
        }
        Json::obj(members)
    }
}

/// Which latency family a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compare,
    Search,
    Patch,
    /// Patch sent → the search after it answered.
    Visible,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    latency_us: f64,
    /// Server-reported compute (`elapsed_us`), when the response has one.
    server_us: Option<f64>,
}

/// Everything one connection saw.
#[derive(Debug, Default)]
struct ConnOutcome {
    /// Latencies of requests sent inside the measured window.
    samples: Vec<Sample>,
    /// `(sent, acked)` of measured patches.
    patches: Vec<(Instant, Instant)>,
    /// Requests sent (warm-up and measured).
    attempted: u64,
    /// Typed errors and transport failures.
    failed: u64,
    /// Answers that disagree with the expected result.
    mismatches: u64,
    problems: Vec<String>,
    /// Sums of `compared` and `total` over measured searches.
    compared: u64,
    indexed: u64,
    captured: Vec<(Request, Response)>,
}

impl ConnOutcome {
    fn problem(&mut self, msg: String) {
        if self.problems.len() < QUOTED_PROBLEMS {
            self.problems.push(msg);
        }
    }
}

/// How an answer checked out.
#[derive(Debug)]
enum Verdict {
    Ok { server_us: Option<f64> },
    Failed(String),
    Mismatch(String),
}

/// Checks `resp` against what `op` must produce.
fn check(op: Op, resp: &Response, plan: &Plan) -> Verdict {
    match (op, resp) {
        (_, Response::Error { code, message, .. }) => Verdict::Failed(format!("{code}: {message}")),
        (Op::Compare { pair }, Response::Compared { scores, .. }) => {
            let p = plan.pairs[pair as usize];
            match scores.signature {
                Some(s) if s.to_bits() == p.expected => Verdict::Ok {
                    server_us: Some(scores.elapsed_us as f64),
                },
                got => Verdict::Mismatch(format!(
                    "compare {}/{}: score {got:?}, expected {}",
                    plan.instances[p.left as usize].name,
                    plan.instances[p.right as usize].name,
                    f64::from_bits(p.expected)
                )),
            }
        }
        (Op::Search { query, .. }, Response::Searched { results, .. }) => {
            let name = &plan.instances[query as usize].name;
            let has_self = results
                .hits
                .iter()
                .any(|h| &h.name == name && h.score == 1.0);
            if has_self && results.compared <= results.total {
                Verdict::Ok {
                    server_us: Some(results.elapsed_us as f64),
                }
            } else {
                Verdict::Mismatch(format!(
                    "search {name}: query at 1.0 {has_self}, compared {} of {}",
                    results.compared, results.total
                ))
            }
        }
        (Op::Patch { inst }, Response::Patched { tuples, .. }) => {
            let want = plan.instances[inst as usize].tuples.len() as u64;
            if *tuples == want {
                Verdict::Ok { server_us: None }
            } else {
                Verdict::Mismatch(format!("patch changed the tuple count: {tuples} != {want}"))
            }
        }
        (op, other) => Verdict::Mismatch(format!("{op:?} answered with {other:?}")),
    }
}

/// Opens the durable catalog, starts the server, connects both clients
/// and waits for the first answer.
fn setup_once(
    cfg: &ChildConfig,
    plan: &Plan,
    tracing: Option<&Tracing>,
) -> Result<(Live, SetupTimes), String> {
    let t0 = Instant::now();
    let files = FileStorage::open(cfg.dir.join("data")).map_err(|e| format!("data dir: {e}"))?;
    let storage: Box<dyn Storage> = match tracing {
        Some(t) => Box::new(TimedStorage::new(files, Arc::clone(&t.events))),
        None => Box::new(files),
    };
    let catalog =
        Arc::new(ServeCatalog::durable(lake_schema(), storage).map_err(|e| format!("open: {e}"))?);
    let opened = Instant::now();
    let mut server_cfg = ServerConfig::default();
    if let Some(t) = tracing {
        // Subscribed before the server's own sigcache sweep, so the
        // timestamp is the publish itself.
        let events = Arc::clone(&t.events);
        catalog.subscribe(Box::new(move |_| events.publish()));
        server_cfg.extra_sink = Some(Arc::clone(&t.spans) as Arc<dyn ic_obs::Sink>);
    }
    let server = Server::start(catalog, "127.0.0.1:0", server_cfg)
        .map_err(|e| format!("server start: {e}"))?;
    let mut clients = (0..2)
        .map(|_| Client::new(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    let (op, req) = Stream::new(cfg.workload, cfg.seed, 0).next(plan);
    let resp = clients[0]
        .call(req)
        .map_err(|e| format!("first request: {e}"))?;
    let answered = Instant::now();
    if let v @ (Verdict::Failed(_) | Verdict::Mismatch(_)) = check(op, &resp, plan) {
        return Err(format!("first request: {v:?}"));
    }
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let install = tracing.and_then(|t| {
        let events = t.events.store_events();
        let e = events.iter().find(|e| e.op == StoreOp::Install)?;
        Some(secs(e.start, e.end))
    });
    Ok((
        Live { clients, server },
        SetupTimes {
            total: secs(t0, answered),
            open: secs(t0, opened),
            first_request: secs(connected, answered),
            install,
        },
    ))
}

/// A set-up-only child: one set-up sample, then a clean shutdown.
pub fn setup_only(cfg: &ChildConfig) -> Result<Json, String> {
    let plan = read_plan(cfg)?;
    let tracing = cfg.traced.then(Tracing::default);
    let (live, times) = setup_once(cfg, &plan, tracing.as_ref())?;
    drop(live);
    Ok(Json::obj(vec![("setup", times.to_json())]))
}

fn read_plan(cfg: &ChildConfig) -> Result<Plan, String> {
    let text = std::fs::read_to_string(cfg.dir.join("plan.txt"))
        .map_err(|e| format!("reading the plan: {e}"))?;
    Plan::decode(&text)
}

/// The closed loop of one connection: keep `depth` requests in flight
/// until `end`, then drain. Requests sent in `[start, end)` are measured.
fn drive(
    client: &mut Client,
    mut stream: Stream,
    plan: &Plan,
    depth: usize,
    (start, end): (Instant, Instant),
    capture: bool,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut inflight: HashMap<u64, (Op, Instant, Option<Request>)> = HashMap::new();
    let mut last_patch: Option<Instant> = None;
    loop {
        while inflight.len() < depth && Instant::now() < end {
            let (op, req) = stream.next(plan);
            let copy = (capture && out.captured.len() + inflight.len() < CODEC_CAPTURE)
                .then(|| req.clone());
            let sent = Instant::now();
            match client.send(req) {
                Ok(id) => {
                    inflight.insert(id, (op, sent, copy));
                    out.attempted += 1;
                }
                Err(e) => {
                    out.failed += 1 + inflight.len() as u64;
                    out.problem(format!("send: {e}"));
                    return out;
                }
            }
        }
        if inflight.is_empty() {
            return out;
        }
        let resp = match client.recv() {
            Ok(resp) => resp,
            Err(e) => {
                out.failed += inflight.len() as u64;
                out.problem(format!("recv: {e}"));
                return out;
            }
        };
        let done = Instant::now();
        let Some((op, sent, copy)) = inflight.remove(&resp.id()) else {
            out.mismatches += 1;
            out.problem(format!("answer to an unknown request id {}", resp.id()));
            continue;
        };
        let measured = sent >= start;
        let server_us = match check(op, &resp, plan) {
            Verdict::Ok { server_us } => server_us,
            Verdict::Failed(msg) => {
                out.failed += 1;
                out.problem(msg);
                continue;
            }
            Verdict::Mismatch(msg) => {
                out.mismatches += 1;
                out.problem(msg);
                continue;
            }
        };
        let latency_us = done.duration_since(sent).as_secs_f64() * 1e6;
        let kind = match op {
            Op::Compare { .. } => Kind::Compare,
            Op::Search { after_patch, .. } => {
                if let (true, Some(patched)) = (after_patch, last_patch.take()) {
                    if patched >= start {
                        out.samples.push(Sample {
                            kind: Kind::Visible,
                            latency_us: done.duration_since(patched).as_secs_f64() * 1e6,
                            server_us: None,
                        });
                    }
                }
                if let (true, Response::Searched { results, .. }) = (measured, &resp) {
                    out.compared += results.compared;
                    out.indexed += results.total;
                }
                Kind::Search
            }
            Op::Patch { .. } => {
                last_patch = Some(sent);
                if measured {
                    out.patches.push((sent, done));
                }
                Kind::Patch
            }
        };
        if measured {
            out.samples.push(Sample {
                kind,
                latency_us,
                server_us,
            });
            if let Some(req) = copy {
                out.captured.push((req, resp));
            }
        }
    }
}

/// Mean time to encode and decode one captured request and its response.
fn codec_us(captured: &[(Request, Response)]) -> f64 {
    if captured.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for _ in 0..CODEC_ROUNDS {
        for (req, resp) in captured {
            black_box(Request::decode(&req.encode()).is_ok());
            black_box(Response::decode(&resp.encode()).is_ok());
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / (CODEC_ROUNDS * captured.len()) as f64
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Percentile `q` of `values`, or 0 when there are none.
fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), q)
    }
}

/// Runs one measured pass and returns its result object.
pub fn run(cfg: &ChildConfig) -> Result<Json, String> {
    let plan = read_plan(cfg)?;
    let tracing = cfg.traced.then(Tracing::default);

    let phase = Instant::now();
    let (Live { clients, server }, setup) = setup_once(cfg, &plan, tracing.as_ref())?;
    let setup_phase = phase.elapsed().as_secs_f64();

    let start = Instant::now() + WARMUP;
    let end = start + cfg.seconds;
    let (conns, rss, cache, conn_stats) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                let stream = Stream::new(cfg.workload, cfg.seed, conn);
                let plan = &plan;
                let depth = cfg.workload.depth();
                s.spawn(move || drive(&mut client, stream, plan, depth, (start, end), cfg.traced))
            })
            .collect();
        sleep_until(start);
        // Read before the measured window grows the sample buffers, so the
        // figure is the server's footprint after set-up and warm-up, not a
        // function of throughput.
        let rss = peak_rss_mb();
        let cache0 = server.sig_cache().stats();
        let conns0 = server.conn_stats();
        if let Some(t) = &tracing {
            t.spans.set_recording(true);
        }
        sleep_until(end);
        if let Some(t) = &tracing {
            t.spans.set_recording(false);
        }
        let cache1 = server.sig_cache().stats();
        let conns1 = server.conn_stats();
        let conns: Vec<ConnOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let hits = (cache1.hits - cache0.hits) as f64;
        let lookups = hits + (cache1.misses - cache0.misses) as f64;
        let coalesced = (conns1.coalesced_frames - conns0.coalesced_frames) as f64;
        (conns, rss, (hits, lookups), coalesced)
    });
    let measure_phase = phase.elapsed().as_secs_f64() - setup_phase;
    server.shutdown();

    let all: Vec<Sample> = conns.iter().flat_map(|c| c.samples.clone()).collect();
    let lat = |kinds: &[Kind]| -> Vec<f64> {
        all.iter()
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| s.latency_us)
            .collect()
    };
    let read = lat(&[Kind::Compare, Kind::Search]);
    let patch = lat(&[Kind::Patch]);
    let visible = lat(&[Kind::Visible]);
    let overheads: Vec<f64> = all
        .iter()
        .filter_map(|s| s.server_us.map(|srv| overhead_us(s.latency_us, srv)))
        .collect();
    let topk: Vec<f64> = all
        .iter()
        .filter(|s| s.kind == Kind::Search)
        .filter_map(|s| s.server_us)
        .collect();
    let responses = all.iter().filter(|s| s.kind != Kind::Visible).count() as f64;
    let seconds = cfg.seconds.as_secs_f64();

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let ms = 1e-3;
    values.insert("read_rps", read.len() as f64 / seconds);
    values.insert("read_p50_ms", pct(&read, 0.50) * ms);
    values.insert("read_p90_ms", pct(&read, 0.90) * ms);
    values.insert("read_p99_ms", pct(&read, 0.99) * ms);
    values.insert("peak_rss_mb", rss);
    values.insert("serve.overhead_us_p50", pct(&overheads, 0.50));
    values.insert("serve.overhead_us_p99", pct(&overheads, 0.99));
    values.insert("serve.coalesced_per_response", ratio(conn_stats, responses));
    values.insert("serve.sigcache_hit_rate", ratio(cache.0, cache.1));
    values.insert("index.topk_us_p50", pct(&topk, 0.50));
    let compared: u64 = conns.iter().map(|c| c.compared).sum();
    let indexed: u64 = conns.iter().map(|c| c.indexed).sum();
    values.insert(
        "index.compared_frac",
        ratio(compared as f64, indexed as f64),
    );
    values.insert("catalog.patch_p50_ms", pct(&patch, 0.50) * ms);
    values.insert("catalog.patch_p99_ms", pct(&patch, 0.99) * ms);
    values.insert("catalog.visible_p50_ms", pct(&visible, 0.50) * ms);

    let mut wal_appends = 0usize;
    if let Some(t) = &tracing {
        let captured: Vec<(Request, Response)> = conns
            .iter()
            .flat_map(|c| c.captured.iter().cloned())
            .collect();
        values.insert("serve.codec_us", codec_us(&captured));

        let label = if cfg.workload.compares() {
            ic_serve::COMPARE_LABEL
        } else {
            ic_serve::SEARCH_LABEL
        };
        let core = t.spans.label(label);
        values.insert("core.compute_us", core.wall_us());
        values.insert(
            "core.sigmap_build_us",
            core.self_us("signature.sigmap_build"),
        );
        values.insert("core.probe_us", core.self_us("signature.probe"));
        values.insert("core.complete_us", core.self_us("signature.complete"));
        values.insert("core.score_us", core.self_us("score"));
        values.insert(
            "core.probe_yield",
            ratio(
                core.counter("sig.probe.matches"),
                core.counter("sig.probe.candidates_found"),
            ),
        );
        values.insert(
            "core.complete_yield",
            ratio(
                core.counter("sig.complete.matches"),
                core.counter("sig.complete.candidates_found"),
            ),
        );

        let search = t.spans.label(ic_serve::SEARCH_LABEL);
        let searching = search.reports > 0;
        values.insert(
            "index.sync_us",
            if searching {
                sync_us(search.wall_us(), mean(&topk))
            } else {
                0.0
            },
        );
        values.insert("index.full_compare_us", search.total_us("signature"));
        values.insert(
            "index.maps_built_per_search",
            search.spans_per_report("signature.sigmap_build"),
        );

        let events = t.events.store_events();
        let appends: Vec<_> = events
            .iter()
            .filter(|e| e.op == StoreOp::Append && e.start >= start && e.start < end)
            .collect();
        wal_appends = appends.len();
        let append_us: Vec<f64> = appends
            .iter()
            .map(|e| e.end.duration_since(e.start).as_secs_f64() * 1e6)
            .collect();
        values.insert("store.wal_append_us_p50", pct(&append_us, 0.50));
        values.insert("store.wal_append_us_p99", pct(&append_us, 0.99));
        values.insert(
            "store.wal_bytes_per_patch",
            ratio(
                appends.iter().map(|e| e.bytes as f64).sum(),
                appends.len() as f64,
            ),
        );

        // Patches are sequential on one connection, so each measured
        // patch's [sent, acked] interval holds exactly its own WAL append
        // and its own publish.
        let publishes = t.events.publishes();
        let (mut prewal, mut postpublish) = (Vec::new(), Vec::new());
        for (sent, acked) in conns.iter().flat_map(|c| c.patches.iter().copied()) {
            let append = events
                .iter()
                .find(|e| e.op == StoreOp::Append && e.start >= sent && e.end <= acked);
            let publish = publishes.iter().find(|p| **p >= sent && **p <= acked);
            if let (Some(a), Some(p)) = (append, publish) {
                prewal.push(a.start.duration_since(sent).as_secs_f64() * 1e6);
                postpublish.push(acked.duration_since(*p).as_secs_f64() * 1e6);
            }
        }
        values.insert("catalog.patch_prewal_us_p50", pct(&prewal, 0.50));
        values.insert("catalog.patch_postpublish_us_p50", pct(&postpublish, 0.50));
    }

    let attempted: u64 = conns.iter().map(|c| c.attempted).sum();
    let failed: u64 = conns.iter().map(|c| c.failed).sum();
    let mismatches: u64 = conns.iter().map(|c| c.mismatches).sum();
    let problems: Vec<Json> = conns
        .iter()
        .flat_map(|c| c.problems.iter().map(|p| Json::Str(p.clone())))
        .collect();
    let nums = |pairs: Vec<(&str, f64)>| {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Num(v)))
                .collect(),
        )
    };
    Ok(Json::obj(vec![
        ("workload", Json::Str(cfg.workload.name().into())),
        ("traced", Json::Bool(cfg.traced)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("mismatches", Json::Num(mismatches as f64)),
        ("problems", Json::Arr(problems)),
        ("setup", setup.to_json()),
        ("values", nums(values.into_iter().collect())),
        (
            "samples",
            nums(vec![
                ("read", read.len() as f64),
                ("patch", patch.len() as f64),
                ("visible", visible.len() as f64),
                ("overhead", overheads.len() as f64),
                ("wal_append", wal_appends as f64),
            ]),
        ),
        (
            "phases",
            nums(vec![("setup_s", setup_phase), ("load_s", measure_phase)]),
        ),
    ]))
}
