//! Event-loop e2e: pipelining conformance, slow-client fault injection
//! (write backpressure), drain shutdown with stalled peers, and the
//! 10k-idle-connections smoke test.

use ic_model::{Catalog, Instance, Schema};
use ic_serve::frame::{write_frame, FrameReader};
use ic_serve::{
    Algo, Client, CompareOptions, ErrorCode, Request, Response, ServeCatalog, Server, ServerConfig,
    ServerHandle,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A server over a two-instance catalog (`"a"`, `"b"`, one shared tuple).
fn server_with(cfg: ServerConfig) -> ServerHandle {
    let catalog = Arc::new(ServeCatalog::new(Schema::single("R", &["A"])));
    for name in ["a", "b"] {
        catalog
            .register_with(name, |cat: &mut Catalog| {
                let mut inst = Instance::new(name, cat);
                let v = cat.konst("shared");
                inst.insert(ic_model::RelId(0), vec![v]);
                Ok(inst)
            })
            .unwrap();
    }
    Server::start(catalog, "127.0.0.1:0", cfg).unwrap()
}

fn compare_req(id: u64, left: &str, right: &str) -> Request {
    Request::Compare {
        id,
        left: left.into(),
        right: right.into(),
        algo: Algo::Signature,
        lambda: None,
        budget_ms: None,
    }
}

/// Pipelining conformance: N requests written in **one** TCP segment must
/// produce N id-matched responses (matched order-insensitively), and the
/// two recoverable mid-pipeline failures — a well-framed undecodable
/// payload and an oversized declared frame length — must each fail only
/// themselves while every later pipelined request on the same connection
/// still succeeds. (The *unrecoverable* case, a broken frame header, is
/// pinned in errors.rs: typed error, then close.)
#[test]
fn pipelined_requests_complete_id_matched_and_order_insensitive() {
    let server = server_with(ServerConfig {
        workers: 2,
        queue_depth: 64,
        max_frame_len: 4096,
        ..ServerConfig::default()
    });

    // The reference score, via an ordinary sequential client.
    let mut seq = Client::new(server.local_addr()).unwrap();
    let reference = seq
        .compare("a", "b", Algo::Signature, CompareOptions::default())
        .unwrap()
        .signature
        .unwrap();

    // One buffer: 8 compares, a bad-shape payload, an oversized frame,
    // then 8 more compares — written in a single `write_all`.
    let mut wire = Vec::new();
    for id in 1..=8u64 {
        write_frame(&mut wire, &compare_req(id, "a", "b").encode()).unwrap();
    }
    write_frame(&mut wire, br#"{"id":100,"kind":"dance"}"#).unwrap();
    write_frame(&mut wire, &vec![b'x'; 8000]).unwrap(); // over the 4096 cap
    for id in 9..=16u64 {
        write_frame(&mut wire, &compare_req(id, "a", "b").encode()).unwrap();
    }

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    (&stream).write_all(&wire).unwrap();

    let mut reader = FrameReader::new(&stream);
    let mut compared = std::collections::BTreeMap::new();
    let mut bad_request = 0u32;
    let mut bad_frame = 0u32;
    for _ in 0..18 {
        match Response::decode(&reader.next_frame().unwrap()).unwrap() {
            Response::Compared { id, scores } => {
                assert!(compared.insert(id, scores).is_none(), "duplicate id {id}");
            }
            Response::Error { id, code, message } => match code {
                ErrorCode::BadRequest => {
                    assert_eq!(id, 100, "salvageable id must be echoed");
                    bad_request += 1;
                }
                ErrorCode::BadFrame => {
                    assert_eq!(id, 0, "an oversized frame has no salvageable id");
                    bad_frame += 1;
                }
                other => panic!("unexpected error response: {other} {message}"),
            },
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(bad_request, 1);
    assert_eq!(bad_frame, 1);
    assert_eq!(
        compared.keys().copied().collect::<Vec<_>>(),
        (1..=16).collect::<Vec<_>>(),
        "every compare answered exactly once, failures failed only themselves"
    );
    for scores in compared.values() {
        assert_eq!(
            scores.signature.unwrap().to_bits(),
            reference.to_bits(),
            "pipelined scores are bit-identical to sequential ones"
        );
    }

    server.shutdown();
}

/// The `Client` send/recv split: keep 8 requests in flight, match the
/// out-of-order responses by id, scores bit-identical to sequential.
#[test]
fn pipelined_client_matches_sequential_scores() {
    let server = server_with(ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();
    let reference = client
        .compare("a", "b", Algo::Signature, CompareOptions::default())
        .unwrap()
        .signature
        .unwrap();

    let ids: Vec<u64> = (0..8)
        .map(|_| client.send(compare_req(0, "a", "b")).unwrap())
        .collect();
    let mut seen = Vec::new();
    for _ in 0..ids.len() {
        match client.recv().unwrap() {
            Response::Compared { id, scores } => {
                assert_eq!(scores.signature.unwrap().to_bits(), reference.to_bits());
                seen.push(id);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, ids, "every in-flight id answered exactly once");

    client.shutdown().unwrap();
    server.wait();
}

/// Completion-batching sanity check: a pipelined burst must complete with
/// every response intact *and* the loop must observably coalesce
/// completions landing in the same tick into shared flushes
/// ([`ConnStats::coalesced_frames`] advances). Coalescing is
/// timing-dependent per burst, so bursts repeat under a deadline — but
/// correctness of every burst is asserted unconditionally.
#[test]
fn pipelined_burst_coalesces_completion_flushes() {
    let server = server_with(ServerConfig {
        workers: 4,
        queue_depth: 256,
        ..ServerConfig::default()
    });

    let mut seq = Client::new(server.local_addr()).unwrap();
    let reference = seq
        .compare("a", "b", Algo::Signature, CompareOptions::default())
        .unwrap()
        .signature
        .unwrap();

    const BURST: u64 = 32;
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = FrameReader::new(&stream);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // One burst: BURST compares in a single TCP segment, then read
        // all BURST responses (out-of-order, id-matched).
        let mut wire = Vec::new();
        for id in 1..=BURST {
            write_frame(&mut wire, &compare_req(id, "a", "b").encode()).unwrap();
        }
        (&stream).write_all(&wire).unwrap();
        let mut seen = Vec::new();
        for _ in 0..BURST {
            match Response::decode(&reader.next_frame().unwrap()).unwrap() {
                Response::Compared { id, scores } => {
                    assert_eq!(
                        scores.signature.unwrap().to_bits(),
                        reference.to_bits(),
                        "batched flushes must not corrupt or reorder frames"
                    );
                    seen.push(id);
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (1..=BURST).collect::<Vec<_>>());

        if server.conn_stats().coalesced_frames > 0 {
            break; // at least one tick flushed ≥ 2 responses together
        }
        assert!(
            Instant::now() < deadline,
            "no completion batch observed after repeated pipelined bursts; \
             conn_stats: {:?}",
            server.conn_stats()
        );
    }

    server.shutdown();
}

/// A compare against a name this long produces an inline error response of
/// roughly the same size — a cheap way to pump bytes toward a peer.
fn huge_name_request(id: u64) -> Request {
    compare_req(id, &"x".repeat(100_000), "b")
}

/// Slow-client fault injection: a peer that pipelines requests but never
/// reads responses must cross the per-connection write cap and be
/// disconnected — with the close recorded under the typed backpressure
/// reason — while a healthy concurrent connection completes unaffected.
#[test]
fn slow_reader_trips_backpressure_and_is_disconnected() {
    let server = server_with(ServerConfig {
        max_write_buffer: 64 * 1024,
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // The stalling peer: ~20 MB of responses will be queued at it, far
    // over kernel socket buffers plus the 64 KiB cap; it reads nothing.
    // Writes proceed until the server disconnects it, then error out.
    let staller = std::thread::spawn(move || {
        let Ok(stream) = TcpStream::connect(addr) else {
            return;
        };
        let _ = stream.set_nodelay(true);
        for id in 0..200u64 {
            let mut frame = Vec::new();
            write_frame(&mut frame, &huge_name_request(id).encode()).unwrap();
            if (&stream).write_all(&frame).is_err() {
                return; // disconnected by the server: expected
            }
        }
        // Keep the socket open (still not reading) until dropped.
        std::thread::sleep(Duration::from_secs(2));
    });

    // Meanwhile a healthy connection keeps getting real answers.
    let mut healthy = Client::new(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let scores = healthy
            .compare("a", "b", Algo::Signature, CompareOptions::default())
            .expect("healthy connection must be unaffected");
        assert!(scores.signature.unwrap() > 0.0);
        if server.conn_stats().closed_backpressure >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backpressure cap never tripped; conn_stats: {:?}",
            server.conn_stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    staller.join().unwrap();
    server.shutdown();
}

/// Drain shutdown must join cleanly — and promptly — with a stalled
/// connection still holding undelivered response bytes: the stalled peer
/// gets `drain_grace` to take delivery, then is force-closed.
#[test]
fn drain_shutdown_joins_cleanly_with_a_stalled_connection_present() {
    let server = server_with(ServerConfig {
        // Cap far above what this test queues: the peer is stalled but
        // *not* backpressure-closed, so shutdown meets it still connected.
        max_write_buffer: 1 << 30,
        drain_grace: Duration::from_millis(150),
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Queue ~6 MB of responses at a peer that never reads: kernel buffers
    // fill and the rest stays pending in the server's write buffer.
    let stalled = TcpStream::connect(addr).unwrap();
    for id in 0..60u64 {
        let mut frame = Vec::new();
        write_frame(&mut frame, &huge_name_request(id).encode()).unwrap();
        (&stalled).write_all(&frame).unwrap();
    }
    // Give the loop time to classify them and fill the socket buffers.
    std::thread::sleep(Duration::from_millis(300));

    // A healthy request still completes, then shutdown must not hang on
    // the stalled peer.
    let mut healthy = Client::new(addr).unwrap();
    healthy
        .compare("a", "b", Algo::Signature, CompareOptions::default())
        .unwrap();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must drain and join despite the stalled connection");
    drop(stalled);
}

/// Kills the child server if the test dies before the clean shutdown.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The acceptance smoke test: 10 000 concurrent idle connections against
/// the event loop, with bounded threads and memory (i.e. no
/// thread-per-connection), while the server keeps answering requests.
/// The server runs as a child process (the `serve` binary) so its /proc
/// thread and RSS numbers are its own, and so this test's 10k client
/// descriptors fit the process fd limit.
#[test]
fn ten_thousand_idle_connections_smoke() {
    const CONNS: usize = 10_000;

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--relation",
            "R:A",
            "--workers",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve binary");
    let stdout = child.stdout.take().unwrap();
    let mut guard = ChildGuard(child);

    // The binary prints exactly one parseable line once bound.
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

    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        match TcpStream::connect(&addr) {
            Ok(s) => conns.push(s),
            Err(e) => {
                // Transient listen-backlog pressure: brief pause, retry.
                std::thread::sleep(Duration::from_millis(20));
                conns.push(
                    TcpStream::connect(&addr)
                        .unwrap_or_else(|_| panic!("connect #{i} failed twice: {e}")),
                );
            }
        }
        // Pace below the listen backlog (~128): an overflowed backlog
        // drops the SYN and the retransmit costs a full second. On a
        // single-core machine the accept loop only drains when the
        // connecting thread yields the CPU.
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert_eq!(conns.len(), CONNS);

    // The server still answers — including on long-idle connections from
    // the very first batch.
    for &i in &[0usize, CONNS / 2, CONNS - 1] {
        write_frame(&mut (&conns[i]), &Request::Stats { id: 7 }.encode()).unwrap();
        let mut reader = FrameReader::new(&conns[i]);
        match Response::decode(&reader.next_frame().unwrap()).unwrap() {
            Response::Stats { id, .. } => assert_eq!(id, 7),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    // Bounded resources: thread count nowhere near the connection count,
    // RSS bounded (a thread-per-connection runtime would need ~10k stacks).
    let status =
        std::fs::read_to_string(format!("/proc/{}/status", guard.0.id())).expect("child /proc");
    let field = |key: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in child status"))
    };
    let threads = field("Threads:");
    let rss_kb = field("VmRSS:");
    assert!(
        threads < 64,
        "event loop must not spawn per-connection threads (Threads: {threads})"
    );
    assert!(
        rss_kb < 300_000,
        "10k idle connections must stay under ~300 MB (VmRSS: {rss_kb} kB)"
    );

    // Clean wire shutdown with 10k connections still open; the child must
    // drain and exit on its own.
    let mut client = Client::new(addr.as_str()).unwrap();
    client.shutdown().unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if guard.0.try_wait().unwrap().is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "serve child did not exit after wire shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(conns);
}
