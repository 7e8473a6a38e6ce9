//! Request throughput of the `ic-serve` serving layer over loopback TCP:
//! signature compares against a fixed catalog, measured end to end
//! (client encode → frame → server queue → worker → response decode)
//! across a grid of concurrency levels and client modes:
//!
//! * 1 / 8 / 64 / 512 concurrent client connections,
//! * sequential (one request in flight per connection) vs pipelined
//!   (a window of up to 8 in flight per connection, matched by id).
//!
//! Each measured sample issues a fixed batch of requests split evenly
//! across the connections. The derived requests-per-second figures are
//! recorded as `rps_event_c<N>_<mode>` metadata in `BENCH_serve.json`
//! alongside the harness's automatic `cores` count.
//!
//! Run: `cargo run -p ic-bench --release --bin bench_serve_throughput`

use ic_bench::harness::Suite;
use ic_datagen::{mod_cell, Dataset};
use ic_serve::{
    Algo, Client, CompareOptions, Request, Response, ServeCatalog, Server, ServerConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;

/// Requests per measured sample (split evenly across the connections).
const BATCH: usize = 512;
/// Concurrency levels to measure.
const CLIENTS: [usize; 4] = [1, 8, 64, 512];
/// Maximum requests in flight per connection in pipelined mode.
const DEPTH: usize = 8;

fn compare_req() -> Request {
    Request::Compare {
        id: 0,
        left: "v1".into(),
        right: "v2".into(),
        algo: Algo::Signature,
        lambda: None,
        budget_ms: None,
    }
}

/// `n` blocking round-trips.
fn run_sequential(client: &mut Client, n: usize) {
    for _ in 0..n {
        client
            .compare("v1", "v2", Algo::Signature, CompareOptions::default())
            .expect("compare");
    }
}

/// `n` requests with a window of up to [`DEPTH`] in flight — the window
/// is enforced by the client's builder-configured pipeline depth, so the
/// loop just sends then drains.
fn run_pipelined(client: &mut Client, n: usize) {
    let mut received = 0usize;
    for _ in 0..n {
        client.send(compare_req()).expect("send");
    }
    while received < n {
        match client.recv().expect("recv") {
            Response::Compared { .. } => received += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

/// Connects `n` clients (depth-capped for pipelined mode), paced to stay
/// under the listen backlog.
fn connect_n(addr: SocketAddr, n: usize) -> Vec<Client> {
    (0..n)
        .map(|i| {
            if i % 64 == 63 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Client::connect(addr)
                .pipeline_depth(DEPTH)
                .build()
                .expect("connect")
        })
        .collect()
}

fn main() {
    let sc = mod_cell(Dataset::Doctors, 40, 0.10, 42);
    let catalog = Arc::new(ServeCatalog::from_catalog(sc.catalog));
    catalog.register("v1", sc.source).unwrap();
    catalog.register("v2", sc.target).unwrap();

    let mut suite = Suite::new("BENCH_serve").warmup(1).samples(3);
    suite.set_meta("workload", "signature/doctors/40/modcell10%");
    suite.set_meta("batch", &BATCH.to_string());
    suite.set_meta("depth", &DEPTH.to_string());

    let server = Server::start(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            // Deep enough that 512 pipelined connections never trip
            // admission control: this bench measures throughput, not
            // overload behavior.
            queue_depth: 8192,
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();

    for clients in CLIENTS {
        let per_client = BATCH / clients;
        // Connections are established once per cell and reused across
        // samples and modes: the figure is request throughput, not
        // connection setup.
        let mut pool = connect_n(addr, clients);
        for (mode, f) in [
            ("seq", run_sequential as fn(&mut Client, usize)),
            ("pipe8", run_pipelined as fn(&mut Client, usize)),
        ] {
            suite.measure(&format!("serve/event/{mode}/clients{clients}"), || {
                std::thread::scope(|s| {
                    for client in pool.iter_mut() {
                        s.spawn(move || f(client, per_client));
                    }
                })
            });
            let median = suite.records().last().expect("just measured").median;
            let rps = BATCH as f64 / median.as_secs_f64();
            suite.set_meta(
                &format!("rps_event_c{clients}_{mode}"),
                &format!("{rps:.0}"),
            );
            println!("   event {mode:>5} c{clients:<4} {rps:>9.0} req/s");
        }
    }
    server.shutdown();

    suite.finish();
}
