//! End-to-end acceptance tests: a served comparison must answer with
//! exactly the scores a direct [`Comparator`] call produces, catalog
//! replacement must never corrupt an in-flight request, shutdown must
//! drain the queue, and `stats` must report the per-request spans.

use ic_core::Comparator;
use ic_datagen::{generate_lake, mod_cell, Dataset, LakeParams};
use ic_model::{Catalog, Instance, Schema};
use ic_serve::{
    Algo, AttrRef, Client, CompareOptions, ErrorCode, PatchOp, PatchValue, ServeCatalog, Server,
    ServerConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn start(catalog: Arc<ServeCatalog>, cfg: ServerConfig) -> ic_serve::ServerHandle {
    Server::start(catalog, "127.0.0.1:0", cfg).expect("bind ephemeral port")
}

/// Acceptance criterion: the server answers `compare` with *exactly* the
/// same scores as a direct `Comparator` call on the same instances — the
/// wire format must not perturb a single bit of the f64 scores.
#[test]
fn served_scores_are_bit_identical_to_direct_comparator() {
    let sc = mod_cell(Dataset::Doctors, 10, 0.3, 7);

    // Direct call first (the catalog moves into the server afterwards).
    let cmp = Comparator::new(&sc.catalog).build().unwrap();
    let direct_sig = cmp.signature(&sc.source, &sc.target).unwrap().best.score();
    let direct_exact = cmp.exact(&sc.source, &sc.target).unwrap();
    let (direct_exact_score, direct_optimal) = (direct_exact.best.score(), direct_exact.optimal);

    let catalog = Arc::new(ServeCatalog::from_catalog(sc.catalog));
    catalog.register("source", sc.source).unwrap();
    catalog.register("target", sc.target).unwrap();
    let server = start(catalog, ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();

    let sig = client
        .compare(
            "source",
            "target",
            Algo::Signature,
            CompareOptions::default(),
        )
        .unwrap();
    assert_eq!(sig.signature.unwrap().to_bits(), direct_sig.to_bits());
    assert_eq!(sig.exact, None);

    let exact = client
        .compare("source", "target", Algo::Exact, CompareOptions::default())
        .unwrap();
    assert_eq!(exact.exact.unwrap().to_bits(), direct_exact_score.to_bits());
    assert_eq!(exact.optimal, Some(direct_optimal));

    let both = client
        .compare("source", "target", Algo::Both, CompareOptions::default())
        .unwrap();
    assert_eq!(both.signature.unwrap().to_bits(), direct_sig.to_bits());
    assert_eq!(both.exact.unwrap().to_bits(), direct_exact_score.to_bits());

    client.shutdown().unwrap();
    server.wait();
}

/// Two-instance catalog over a one-attribute relation where the probe
/// instance holds a single constant, so replacing it flips the score
/// between exactly 1.0 (same constant as base) and 0.0 (different).
fn flip_catalog() -> Arc<ServeCatalog> {
    let catalog = Arc::new(ServeCatalog::new(Schema::single("R", &["A"])));
    for (name, value) in [("base", "x"), ("probe", "x")] {
        register_const(&catalog, name, value);
    }
    catalog
}

fn register_const(catalog: &Arc<ServeCatalog>, name: &str, value: &str) {
    catalog
        .register_with(name, |cat: &mut Catalog| {
            let mut inst = Instance::new(name, cat);
            let v = cat.konst(value);
            inst.insert(ic_model::RelId(0), vec![v]);
            Ok(inst)
        })
        .unwrap();
}

/// Acceptance criterion: a `load` racing an in-flight `compare` never
/// corrupts it — the request admitted before the replacement answers from
/// the old snapshot, and the next request sees the new one.
#[test]
fn concurrent_replacement_preserves_inflight_snapshot() {
    let catalog = flip_catalog();
    let version_before = catalog.version();
    let server = start(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 1,
            // Every compare parks in the worker long enough for the test
            // to replace the instance mid-flight.
            worker_delay: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let inflight = std::thread::spawn(move || {
        let mut client = Client::new(addr).unwrap();
        client.compare("base", "probe", Algo::Signature, CompareOptions::default())
    });

    // Replace "probe" while the compare sleeps in the worker.
    std::thread::sleep(Duration::from_millis(80));
    register_const(&catalog, "probe", "y");
    assert!(catalog.version() > version_before);

    let old = inflight.join().unwrap().unwrap();
    assert_eq!(
        old.signature,
        Some(1.0),
        "in-flight request must answer from the snapshot admitted with it"
    );

    let mut client = Client::new(addr).unwrap();
    let new = client
        .compare("base", "probe", Algo::Signature, CompareOptions::default())
        .unwrap();
    assert_eq!(
        new.signature,
        Some(0.0),
        "requests admitted after the replacement must see the new instance"
    );

    client.shutdown().unwrap();
    server.wait();
}

/// Acceptance criterion: graceful shutdown answers every admitted request
/// before the threads exit — nothing queued is dropped.
#[test]
fn shutdown_drains_admitted_requests() {
    let catalog = flip_catalog();
    let server = start(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 1,
            queue_depth: 8,
            worker_delay: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // Four compares: one in the worker, three parked in the queue.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::new(addr).unwrap();
                client.compare("base", "probe", Algo::Signature, CompareOptions::default())
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let mut shutter = Client::new(addr).unwrap();
    shutter.shutdown().unwrap();
    server.wait();

    for c in clients {
        let scores = c
            .join()
            .unwrap()
            .expect("admitted request must be answered through shutdown");
        assert_eq!(scores.signature, Some(1.0));
    }
}

/// Acceptance criterion (incremental re-scoring, serve layer): repeated
/// compares against hot catalog instances reuse the signature maps their
/// pins carry, a `load`-style replacement starts a new pin without maps,
/// and the post-replacement score is bit-identical to a fresh
/// [`Comparator`] over the new snapshot — stale maps can never leak into
/// a score.
#[test]
fn sigmap_cache_reuses_and_invalidates_on_replacement() {
    let sc = mod_cell(Dataset::Doctors, 12, 0.3, 9);
    let replacement = sc.source.clone(); // replaces "target" below
    let (src, tgt) = (sc.source.clone(), sc.target.clone());
    let direct = {
        let cmp = Comparator::new(&sc.catalog).build().unwrap();
        cmp.signature(&src, &tgt).unwrap().best.score()
    };

    let catalog = Arc::new(ServeCatalog::from_catalog(sc.catalog));
    catalog.register("source", sc.source).unwrap();
    catalog.register("target", sc.target).unwrap();
    let server = start(Arc::clone(&catalog), ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();

    // First compare: two misses, maps built into both pins.
    let first = client
        .compare(
            "source",
            "target",
            Algo::Signature,
            CompareOptions::default(),
        )
        .unwrap();
    let stats = server.sig_cache().stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
    assert_eq!(first.signature.unwrap().to_bits(), direct.to_bits());

    // Second compare: both sides find their pins' maps, same bits.
    let second = client
        .compare(
            "source",
            "target",
            Algo::Signature,
            CompareOptions::default(),
        )
        .unwrap();
    assert_eq!(server.sig_cache().stats().hits, 2);
    assert_eq!(
        second.signature.unwrap().to_bits(),
        first.signature.unwrap().to_bits()
    );

    // Replace "target": its new pin starts without maps, so the next
    // compare misses on that side — and the new score matches a fresh
    // Comparator on the new snapshot (which compares "source" to itself).
    catalog.register("target", replacement).unwrap();
    let third = client
        .compare(
            "source",
            "target",
            Algo::Signature,
            CompareOptions::default(),
        )
        .unwrap();
    let stats = server.sig_cache().stats();
    assert_eq!(stats.hits, 3, "source entry survives the replacement");
    let snap = catalog.snapshot();
    let fresh = Comparator::new(&snap.catalog).build().unwrap();
    let expected = fresh
        .signature(snap.get("source").unwrap(), snap.get("target").unwrap())
        .unwrap()
        .best
        .score();
    assert_eq!(third.signature.unwrap().to_bits(), expected.to_bits());
    assert!((third.signature.unwrap() - 1.0).abs() < 1e-12);

    client.shutdown().unwrap();
    server.wait();
}

/// Acceptance criterion: `stats` exports per-request `ic-obs` spans — the
/// `serve.compare` report count equals the number of compares processed.
#[test]
fn stats_report_per_request_spans() {
    let catalog = flip_catalog();
    let server = start(Arc::clone(&catalog), ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();

    let n = 5;
    for _ in 0..n {
        client
            .compare("base", "probe", Algo::Signature, CompareOptions::default())
            .unwrap();
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, n);
    assert!(stats.requests >= n);
    assert_eq!(stats.overloaded, 0);
    let span = stats
        .spans
        .iter()
        .find(|s| s.label == ic_serve::COMPARE_LABEL)
        .expect("stats must carry the serve.compare span aggregate");
    assert_eq!(span.reports, n, "one observation per processed compare");

    // The listing rides the same snapshot machinery.
    let listing = client.list().unwrap();
    assert_eq!(listing.len(), 2);
    assert_eq!(listing[0].name, "base");
    assert_eq!(listing[0].tuples, 1);

    client.shutdown().unwrap();
    server.wait();
}

/// Every `(name, signature score, pairs)` of `query` against the live
/// catalog, ranked like `search` ranks: `(score desc, name asc)`.
fn brute_force_ranking(
    client: &mut Client,
    catalog: &ServeCatalog,
    query: &str,
) -> Vec<(String, f64, u64)> {
    let names: Vec<String> = catalog.snapshot().names().map(str::to_string).collect();
    let mut ranking: Vec<(String, f64, u64)> = names
        .into_iter()
        .map(|name| {
            let scores = client
                .compare(query, &name, Algo::Signature, CompareOptions::default())
                .unwrap();
            (name, scores.signature.unwrap(), scores.pairs.unwrap())
        })
        .collect();
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranking
}

/// Acceptance criterion (top-k search): a served `search` returns hits
/// whose names *and* scores are bit-identical to ranking the catalog with
/// a client-side loop of unbudgeted `compare` calls — the prefilter index
/// only chooses which entries get scored, never how.
#[test]
fn served_search_is_bit_identical_to_client_side_compare_loop() {
    let lake = generate_lake(&LakeParams {
        clusters: 4,
        versions_per_cluster: 3,
        rows: 12,
        ..LakeParams::default()
    });
    let catalog = Arc::new(ServeCatalog::from_catalog(lake.catalog));
    let instances = lake.instances.len();
    for inst in lake.instances {
        let name = inst.name().to_string();
        catalog.register(&name, inst).unwrap();
    }
    let server = start(Arc::clone(&catalog), ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();

    let (query, k) = ("c1v0", 5);
    let brute = brute_force_ranking(&mut client, &catalog, query);
    assert_eq!(brute.len(), instances);

    let results = client.search(query, k, CompareOptions::default()).unwrap();
    assert_eq!(results.total, instances as u64);
    assert_eq!(results.hits.len(), k as usize);
    for (hit, (bn, bs, bp)) in results.hits.iter().zip(brute.iter()) {
        assert_eq!(&hit.name, bn);
        assert_eq!(hit.score.to_bits(), bs.to_bits(), "bit-identical scores");
        assert_eq!(hit.pairs, *bp);
    }
    assert_eq!(results.hits[0].name, query, "query matches itself at 1.0");
    assert_eq!(results.hits[0].score, 1.0);

    // The search ran under its own observation label.
    let stats = client.stats().unwrap();
    let span = stats
        .spans
        .iter()
        .find(|s| s.label == ic_serve::SEARCH_LABEL)
        .expect("stats must carry the serve.search span aggregate");
    assert_eq!(span.reports, 1);

    // Typed failures: unknown query, k = 0.
    let err = client
        .search("nope", 3, CompareOptions::default())
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownInstance));
    let err = client
        .search(query, 0, CompareOptions::default())
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadRequest));

    client.shutdown().unwrap();
    server.wait();
}

/// The served index follows the catalog through mutations: after a wire
/// `patch` of one instance, a `register` replacing a second and a
/// `remove` of a third, `search` still equals the client-side `compare`
/// loop bit for bit, counts one entry fewer, and never names the removed
/// instance. The first search builds the index; the second syncs it by
/// diffing the two snapshots' pin lists.
#[test]
fn served_search_follows_patch_replace_and_remove() {
    let lake = generate_lake(&LakeParams {
        clusters: 4,
        versions_per_cluster: 3,
        rows: 12,
        ..LakeParams::default()
    });
    let catalog = Arc::new(ServeCatalog::from_catalog(lake.catalog));
    for inst in lake.instances {
        let name = inst.name().to_string();
        catalog.register(&name, inst).unwrap();
    }
    let total = catalog.snapshot().len() as u64;
    let server = start(Arc::clone(&catalog), ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();

    let query = "c1v0";
    let before = brute_force_ranking(&mut client, &catalog, query);
    let first = client
        .search(query, total, CompareOptions::default())
        .unwrap();
    assert_eq!(first.total, total);
    assert_eq!(first.hits.len(), before.len());

    let (patched, replaced, removed) = ("c1v1", "c1v2", "c0v0");
    client
        .patch(
            patched,
            vec![PatchOp::Modify {
                tuple: 0,
                attr: AttrRef::Index(0),
                value: PatchValue::Const("patched-by-e2e".into()),
            }],
        )
        .unwrap();
    let donor = Instance::clone(catalog.snapshot().get("c3v0").unwrap());
    catalog.register(replaced, donor).unwrap();
    assert!(catalog.remove(removed).unwrap());

    let after = brute_force_ranking(&mut client, &catalog, query);
    let score_of = |ranking: &[(String, f64, u64)], name: &str| {
        ranking.iter().find(|(n, ..)| n == name).map(|e| e.1)
    };
    assert_ne!(
        score_of(&before, replaced),
        score_of(&after, replaced),
        "the replacement must move its score, or a stale index would pass"
    );
    for k in [5, total] {
        let results = client.search(query, k, CompareOptions::default()).unwrap();
        assert_eq!(results.total, total - 1);
        assert_eq!(results.hits.len() as u64, k.min(total - 1));
        assert!(results.hits.iter().all(|h| h.name != removed));
        for (hit, (name, score, pairs)) in results.hits.iter().zip(after.iter()) {
            assert_eq!(&hit.name, name);
            assert_eq!(hit.score.to_bits(), score.to_bits(), "bit-identical scores");
            assert_eq!(hit.pairs, *pairs);
        }
    }

    client.shutdown().unwrap();
    server.wait();
}

/// Acceptance criterion (cache leak bugfix): removed instances take their
/// signature maps with them (the catalog unit tests pin that the maps are
/// freed with the last snapshot holding their pin), and re-registering
/// under the same names works from a clean slate.
#[test]
fn remove_then_reload_evicts_sigcache_entries() {
    let catalog = flip_catalog(); // "base" and "probe"
    let server = start(Arc::clone(&catalog), ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();

    client
        .compare("base", "probe", Algo::Signature, CompareOptions::default())
        .unwrap();
    assert!(catalog.remove("probe").unwrap());
    assert!(catalog.remove("base").unwrap());

    // Reload under the same names: clean rebuild, correct score.
    register_const(&catalog, "base", "x");
    register_const(&catalog, "probe", "y");
    let scores = client
        .compare("base", "probe", Algo::Signature, CompareOptions::default())
        .unwrap();
    assert_eq!(scores.signature, Some(0.0), "x vs y share nothing");
    let stats = server.sig_cache().stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 4),
        "both rebuilt from scratch"
    );

    client.shutdown().unwrap();
    server.wait();
}

/// A sink that panics on its first report only — fault injection for the
/// worker's panic isolation.
struct PanicOnceSink {
    fired: std::sync::atomic::AtomicBool,
}

impl ic_obs::Sink for PanicOnceSink {
    fn on_report(&self, _report: &ic_obs::Report) {
        if !self.fired.swap(true, std::sync::atomic::Ordering::SeqCst) {
            panic!("injected observer failure");
        }
    }
}

/// Acceptance criterion (poisoned-lock bugfix): a panic inside one request
/// — here, a panicking observation sink — answers *that* request with a
/// typed `internal` error and leaves the server fully functional:
/// subsequent requests on the same and on new connections succeed, and
/// shutdown still drains cleanly.
#[test]
fn panicking_observer_sink_does_not_wedge_subsequent_requests() {
    let catalog = flip_catalog();
    let cfg = ServerConfig {
        extra_sink: Some(Arc::new(PanicOnceSink {
            fired: std::sync::atomic::AtomicBool::new(false),
        })),
        ..ServerConfig::default()
    };
    let server = start(Arc::clone(&catalog), cfg);
    let mut client = Client::new(server.local_addr()).unwrap();

    let err = client
        .compare("base", "probe", Algo::Signature, CompareOptions::default())
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Internal));

    // Same connection, next request: must succeed with the right score.
    let scores = client
        .compare("base", "probe", Algo::Signature, CompareOptions::default())
        .unwrap();
    assert_eq!(scores.signature, Some(1.0));

    // Fresh connection too, and search exercises the index path.
    let mut other = Client::new(server.local_addr()).unwrap();
    let results = other.search("base", 2, CompareOptions::default()).unwrap();
    assert_eq!(results.hits[0].score, 1.0);

    let stats = other.stats().unwrap();
    assert!(stats.errors >= 1, "the panicked request was counted");
    assert!(stats.completed >= 2);

    other.shutdown().unwrap();
    server.wait();
}

/// Acceptance criterion: `discover` over the wire finds exactly the
/// constraints planted by `inject_near_constraints` — the composite key
/// and both FDs, with attribute names resolved — and a zero budget is a
/// typed `budget` error, not a truncated result.
#[test]
fn served_discovery_recalls_planted_constraints() {
    let nc = ic_datagen::inject_near_constraints(&ic_datagen::NearConstraintParams::default());
    let epsilon = nc.epsilon;
    let catalog = Arc::new(ServeCatalog::from_catalog(nc.catalog));
    catalog.register("near", nc.instance).unwrap();
    let server = start(catalog, ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();

    let opts = ic_serve::DiscoverOptions {
        epsilon: Some(epsilon),
        ..ic_serve::DiscoverOptions::default()
    };
    let found = client.discover("near", opts).unwrap();

    // Recall: every planted constraint is in the answer, by name. (The
    // null sprinkling can only lower g3_min, never push a planted
    // constraint past the gate.)
    assert!(
        found
            .keys
            .iter()
            .any(|k| k.rel == "NC" && k.attrs == ["k0", "k1"]),
        "planted key missing from {:?}",
        found.keys
    );
    for (lhs, rhs) in [(vec!["f0"], "f1"), (vec!["f0", "c0"], "f2")] {
        assert!(
            found
                .fds
                .iter()
                .any(|fd| fd.rel == "NC" && fd.lhs == lhs && fd.rhs == rhs),
            "planted FD {lhs:?} -> {rhs} missing from {:?}",
            found.fds
        );
    }
    for fd in &found.fds {
        assert!(fd.g3_min <= fd.g3_max, "interval must be ordered");
        assert!(fd.g3_min <= epsilon, "gate respected");
    }

    // A zero budget is a typed `budget` error.
    let err = client
        .discover(
            "near",
            ic_serve::DiscoverOptions {
                budget_ms: Some(0),
                ..ic_serve::DiscoverOptions::default()
            },
        )
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Budget));

    // An out-of-range epsilon is a typed `config` error.
    let err = client
        .discover(
            "near",
            ic_serve::DiscoverOptions {
                epsilon: Some(1.5),
                ..ic_serve::DiscoverOptions::default()
            },
        )
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Config));

    // An unknown instance is rejected at admission.
    let err = client
        .discover("nope", ic_serve::DiscoverOptions::default())
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownInstance));

    // The discovery ran under its own observation label.
    let stats = client.stats().unwrap();
    assert!(stats
        .spans
        .iter()
        .any(|s| s.label == ic_serve::DISCOVER_LABEL && s.reports >= 1));

    client.shutdown().unwrap();
    server.wait();
}
