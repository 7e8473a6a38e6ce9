//! Durability acceptance tests for the op-based catalog (`DESIGN.md` §11):
//!
//! * the crash-recovery property — a WAL truncated at *every* byte
//!   boundary of its final record recovers to the pre-crash catalog minus
//!   at most the torn op, with bit-identical compare scores after reload;
//! * the wire `patch` request — scores flip, and the repaired signature
//!   maps migrate to the patched instance instead of being rebuilt;
//! * idle-timeout shedding;
//! * a full process restart of the `serve` binary with `--data-dir`.

use ic_core::{Comparator, Delta, DeltaOp};
use ic_model::{AttrId, Catalog, Instance, RelId, Schema, TupleId};
use ic_serve::{
    Algo, AttrRef, Client, CompareOptions, ErrorCode, PatchOp, PatchValue, ServeCatalog, Server,
    ServerConfig,
};
use ic_store::MemStorage;
use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::single("R", &["A", "B"])
}

/// Registers a two-attribute instance with the given constant rows.
fn register_rows(catalog: &ServeCatalog, name: &str, rows: &[(&str, &str)]) {
    let rows: Vec<(String, String)> = rows
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    catalog
        .register_with(name, move |cat: &mut Catalog| {
            let mut inst = Instance::new(name, cat);
            for (a, b) in &rows {
                let (a, b) = (cat.konst(a), cat.konst(b));
                inst.insert(RelId(0), vec![a, b]);
            }
            Ok(inst)
        })
        .unwrap();
}

/// A deterministic, complete dump of catalog state: version, every
/// instance's tuples (ids and cell values), the value domains, and the
/// exact bits of a signature score between the two named instances.
/// Equal strings ⇔ equal recovered state.
fn fingerprint(catalog: &ServeCatalog, left: &str, right: &str) -> String {
    let snap = catalog.snapshot();
    let dump: Vec<String> = snap
        .iter()
        .map(|(name, inst)| {
            let rows: Vec<String> = inst
                .iter_all()
                .map(|(rel, t)| format!("{}#{}{:?}", rel.0, t.id().0, t.values()))
                .collect();
            format!("{name}=[{}]", rows.join(";"))
        })
        .collect();
    let cmp = Comparator::new(&snap.catalog).build().unwrap();
    let score = cmp
        .signature(snap.get(left).unwrap(), snap.get(right).unwrap())
        .unwrap()
        .best
        .score();
    format!(
        "v{} syms{} nulls{} score{:016x} {}",
        snap.version,
        snap.catalog.interner().len(),
        snap.catalog.nulls_allocated(),
        score.to_bits(),
        dump.join(" ")
    )
}

fn reopen(snapshot: Option<Vec<u8>>, wal: Vec<u8>) -> ServeCatalog {
    ServeCatalog::durable(schema(), Box::new(MemStorage::from_parts(snapshot, wal)))
        .expect("recovery must tolerate a torn WAL tail")
}

/// The crash-recovery property: for every byte boundary `cut` inside the
/// final WAL record, reopening from `wal[..cut]` recovers exactly the
/// pre-crash catalog minus the torn op — never an error, never a
/// corrupted hybrid — and the full WAL recovers the complete state. The
/// comparison includes compare-score bits, so recovery is checked down to
/// interner and null-id identity. (CI runs this suite at
/// `IC_POOL_THREADS=1` and `=4`.)
#[test]
fn recovery_survives_wal_truncation_at_every_byte() {
    let store = Arc::new(Mutex::new(MemStorage::new()));
    let catalog = ServeCatalog::durable(schema(), Box::new(Arc::clone(&store))).unwrap();

    register_rows(&catalog, "a", &[("x", "y"), ("z", "y")]);
    register_rows(&catalog, "b", &[("x", "y")]);
    register_rows(&catalog, "doomed", &[("q", "q")]);
    catalog
        .patch("a", |cat| {
            let (w, y) = (cat.konst("w"), cat.konst("y"));
            Ok(Delta::new(vec![
                DeltaOp::Insert {
                    rel: RelId(0),
                    values: vec![w, y],
                },
                DeltaOp::Modify {
                    id: TupleId(0),
                    attr: AttrId(0),
                    value: cat.fresh_null(),
                },
            ]))
        })
        .unwrap();
    assert!(catalog.remove("doomed").unwrap());

    let snapshot = store.lock().unwrap().snapshot_bytes().map(<[u8]>::to_vec);
    let wal_before = store.lock().unwrap().wal_bytes().to_vec();

    // The final op: a patch minting two new dictionary strings and a
    // fresh labeled null, so the torn record carries a rich domain delta.
    catalog
        .patch("b", |cat| {
            let (p, q) = (cat.konst("pp"), cat.konst("qq"));
            let n = cat.fresh_null();
            Ok(Delta::new(vec![
                DeltaOp::Insert {
                    rel: RelId(0),
                    values: vec![p, n],
                },
                DeltaOp::Modify {
                    id: TupleId(0),
                    attr: AttrId(1),
                    value: q,
                },
            ]))
        })
        .unwrap();
    let wal_after = store.lock().unwrap().wal_bytes().to_vec();
    assert!(wal_after.len() > wal_before.len(), "final op must append");

    let full = fingerprint(&catalog, "a", "b");
    let minus_final = fingerprint(&reopen(snapshot.clone(), wal_before.clone()), "a", "b");
    assert_ne!(full, minus_final, "the final op must change the state");

    for cut in wal_before.len()..=wal_after.len() {
        let recovered = reopen(snapshot.clone(), wal_after[..cut].to_vec());
        let got = fingerprint(&recovered, "a", "b");
        let want = if cut == wal_after.len() {
            &full
        } else {
            &minus_final
        };
        assert_eq!(
            &got,
            want,
            "truncation at byte {cut} of [{}, {}] recovered the wrong state",
            wal_before.len(),
            wal_after.len()
        );
        // Recovery compacts: the recovered catalog must itself be
        // immediately crash-safe, with the WAL folded into the snapshot.
        assert!(recovered.is_durable());
    }
}

/// Wire-level `patch`: the score flips, the response reports the inserted
/// tuple ids, the served post-patch score is bit-identical to a direct
/// `Comparator` run on the patched instances (i.e. the repaired signature
/// maps are *correct*), and the sigmap cache answers the post-patch
/// compare without a rebuild (i.e. the repaired maps were *migrated* to
/// the new instance pointer, not rebuilt from scratch).
#[test]
fn wire_patch_flips_scores_and_migrates_sigmaps() {
    let catalog = Arc::new(ServeCatalog::new(Schema::single("R", &["A"])));
    for name in ["base", "probe"] {
        catalog
            .register_with(name, |cat: &mut Catalog| {
                let mut inst = Instance::new(name, cat);
                let v = cat.konst("x");
                inst.insert(RelId(0), vec![v]);
                Ok(inst)
            })
            .unwrap();
    }
    let server = Server::start(Arc::clone(&catalog), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let mut client = Client::new(server.local_addr()).unwrap();

    let before = client
        .compare("base", "probe", Algo::Signature, CompareOptions::default())
        .unwrap()
        .signature
        .unwrap();
    assert_eq!(before, 1.0, "identical one-tuple instances score 1.0");

    let (tuples, inserted) = client
        .patch(
            "probe",
            vec![
                PatchOp::Modify {
                    tuple: 0,
                    attr: AttrRef::Name("A".into()),
                    value: PatchValue::Const("y".into()),
                },
                PatchOp::Insert {
                    rel: "R".into(),
                    values: vec![PatchValue::FreshNull],
                },
            ],
        )
        .unwrap();
    assert_eq!(tuples, 2);
    assert_eq!(inserted.len(), 1, "one inserted tuple id reported");

    let cache_after_patch = server.sig_cache().stats();
    let after = client
        .compare("base", "probe", Algo::Signature, CompareOptions::default())
        .unwrap()
        .signature
        .unwrap();
    assert!(after < 1.0, "patched instance must change the score");

    let snap = catalog.snapshot();
    let direct = Comparator::new(&snap.catalog)
        .build()
        .unwrap()
        .signature(snap.get("base").unwrap(), snap.get("probe").unwrap())
        .unwrap()
        .best
        .score();
    assert_eq!(
        after.to_bits(),
        direct.to_bits(),
        "served score through repaired sigmaps must be bit-identical to a fresh computation"
    );

    let cache_after_compare = server.sig_cache().stats();
    assert_eq!(
        cache_after_compare.misses, cache_after_patch.misses,
        "post-patch compare must not rebuild sigmaps — the repaired maps migrated"
    );
    assert!(
        cache_after_compare.hits >= cache_after_patch.hits + 2,
        "both sides of the post-patch compare must be cache hits"
    );

    // Typed failure paths, all leaving the catalog version untouched.
    let version = catalog.version();
    let err = client.patch("nope", vec![]).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownInstance));
    let err = client
        .patch("probe", vec![PatchOp::Delete { tuple: 999 }])
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Delta));
    let err = client
        .patch(
            "probe",
            vec![PatchOp::Insert {
                rel: "R".into(),
                values: vec![PatchValue::FreshNull, PatchValue::FreshNull],
            }],
        )
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadRequest));
    assert_eq!(catalog.version(), version, "failed patches publish nothing");

    client.shutdown().unwrap();
    server.wait();
}

/// Idle-timeout shedding: silent connections are closed once
/// [`ServerConfig::idle_timeout`] elapses and counted in
/// `ConnStats::closed_idle`; a connection with a request in flight longer
/// than the timeout is never shed.
#[test]
fn idle_connections_are_shed_but_inflight_ones_survive() {
    let catalog = Arc::new(ServeCatalog::new(Schema::single("R", &["A"])));
    for name in ["a", "b"] {
        register_rows_single(&catalog, name);
    }
    let server = Server::start(
        catalog,
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            poll_interval: Duration::from_millis(10),
            // In flight longer than the idle timeout: the connection must
            // survive to take its response.
            worker_delay: Some(Duration::from_millis(400)),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    let mut client = Client::new(addr).unwrap();
    let scores = client
        .compare("a", "b", Algo::Signature, CompareOptions::default())
        .expect("a connection with work in flight past the idle timeout must not be shed");
    assert_eq!(scores.signature, Some(1.0));

    // The silent connection gets closed and counted…
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.conn_stats().closed_idle == 0 {
        assert!(Instant::now() < deadline, "idle connection was never shed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // …which the peer observes as EOF.
    let mut buf = [0u8; 1];
    assert_eq!(
        idle.read(&mut buf).expect("clean close, not a reset"),
        0,
        "shed connection must read as EOF"
    );

    server.shutdown();
}

fn register_rows_single(catalog: &ServeCatalog, name: &str) {
    catalog
        .register_with(name, move |cat: &mut Catalog| {
            let mut inst = Instance::new(name, cat);
            let v = cat.konst("shared");
            inst.insert(RelId(0), vec![v]);
            Ok(inst)
        })
        .unwrap();
}

/// Kills the child server if the test dies before the clean shutdown.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_serve(data_dir: &std::path::Path) -> (ChildGuard, String) {
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--relation",
            "R:A,B",
            "--data-dir",
            data_dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve binary");
    let mut guard = ChildGuard(child);
    let stdout = guard.0.stdout.take().unwrap();
    let addr = {
        use std::io::BufRead;
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .unwrap();
        line.trim()
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
            .to_string()
    };
    (guard, addr)
}

fn wait_exit(guard: &mut ChildGuard) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if guard.0.try_wait().unwrap().is_some() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "serve child did not exit after wire shutdown"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Full restart durability through the `serve` binary: load two CSV
/// instances (with labeled nulls), patch one over the wire, record the
/// score, shut the process down, start a fresh process over the same
/// `--data-dir`, and require the catalog back — same names, same tuple
/// counts, and a bit-identical compare score — without re-supplying any
/// CSV.
#[test]
fn serve_binary_recovers_catalog_across_restart() {
    let base = std::env::temp_dir().join(format!(
        "ic-serve-durability-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let data_dir = base.join("data");
    let csv_dir = base.join("csv");
    std::fs::create_dir_all(&data_dir).unwrap();
    std::fs::create_dir_all(&csv_dir).unwrap();
    std::fs::write(csv_dir.join("R.csv"), "A,B\nVLDB,_N:x\nSIGMOD,1975\n").unwrap();

    let (mut guard, addr) = spawn_serve(&data_dir);
    let mut client = Client::new(addr.as_str()).unwrap();
    assert_eq!(client.load("v1", csv_dir.to_str().unwrap()).unwrap(), 2);
    assert_eq!(client.load("v2", csv_dir.to_str().unwrap()).unwrap(), 2);
    let (tuples, _) = client
        .patch(
            "v1",
            vec![
                PatchOp::Insert {
                    rel: "R".into(),
                    values: vec![PatchValue::Const("EDBT".into()), PatchValue::FreshNull],
                },
                PatchOp::Modify {
                    tuple: 1,
                    attr: AttrRef::Name("B".into()),
                    value: PatchValue::Const("1974".into()),
                },
            ],
        )
        .unwrap();
    assert_eq!(tuples, 3);
    let score_before = client
        .compare("v1", "v2", Algo::Signature, CompareOptions::default())
        .unwrap()
        .signature
        .unwrap();
    client.shutdown().unwrap();
    wait_exit(&mut guard);
    drop(guard);

    // Fresh process, same data dir, no --load: everything must come back.
    let (mut guard, addr) = spawn_serve(&data_dir);
    let mut client = Client::new(addr.as_str()).unwrap();
    let listing = client.list().unwrap();
    let summary: Vec<(String, u64)> = listing.into_iter().map(|i| (i.name, i.tuples)).collect();
    assert_eq!(
        summary,
        vec![("v1".to_string(), 3), ("v2".to_string(), 2)],
        "recovered catalog must hold the loaded-and-patched instances"
    );
    let score_after = client
        .compare("v1", "v2", Algo::Signature, CompareOptions::default())
        .unwrap()
        .signature
        .unwrap();
    assert_eq!(
        score_after.to_bits(),
        score_before.to_bits(),
        "recovered instances must score bit-identically across the restart"
    );
    client.shutdown().unwrap();
    wait_exit(&mut guard);

    std::fs::remove_dir_all(&base).ok();
}
