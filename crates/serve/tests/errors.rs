//! Error-path coverage: framing violations, undecodable payloads, unknown
//! instances, zero budgets, admission-control rejection, and bad
//! configuration — each must produce a *typed* error response (never a
//! hang, never a dropped connection where the protocol can continue).

use ic_model::{Catalog, Instance, Schema};
use ic_serve::frame::{write_frame, FrameError, FrameReader};
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

#[test]
fn broken_framing_gets_typed_error_then_close() {
    let server = server_with(ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Not a frame at all: no way to resynchronize, so the server answers
    // once and closes.
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    match Response::decode(&reader.next_frame().unwrap()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }
    assert!(matches!(
        reader.next_frame(),
        Err(FrameError::Closed) | Err(FrameError::Io(_))
    ));

    server.shutdown();
}

#[test]
fn undecodable_payload_keeps_connection_alive() {
    let server = server_with(ServerConfig::default());
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);

    // Well-framed but not JSON: typed `malformed`, connection survives.
    write_frame(&mut writer, b"{definitely not json").unwrap();
    match Response::decode(&reader.next_frame().unwrap()).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert_eq!(id, 0);
        }
        other => panic!("expected malformed error, got {other:?}"),
    }

    // Valid JSON, unknown shape: `bad_request` with the id salvaged.
    write_frame(&mut writer, b"{\"id\":7,\"kind\":\"dance\"}").unwrap();
    match Response::decode(&reader.next_frame().unwrap()).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert_eq!(id, 7, "parseable id must be echoed even on errors");
        }
        other => panic!("expected bad_request error, got {other:?}"),
    }

    // The same connection still answers real requests.
    write_frame(&mut writer, &Request::List { id: 8 }.encode()).unwrap();
    match Response::decode(&reader.next_frame().unwrap()).unwrap() {
        Response::Listing { id, instances } => {
            assert_eq!(id, 8);
            assert_eq!(instances.len(), 2);
        }
        other => panic!("expected listing, got {other:?}"),
    }

    server.shutdown();
}

/// An id the server cannot echo verbatim (2^53 + 1 reads as the `f64`
/// 2^53) is a `bad_request` under id 0, and the connection stays open.
#[test]
fn id_above_2_pow_53_is_a_bad_request_not_a_rounded_echo() {
    let server = server_with(ServerConfig::default());
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);

    write_frame(&mut writer, b"{\"id\":9007199254740993,\"kind\":\"list\"}").unwrap();
    match Response::decode(&reader.next_frame().unwrap()).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert_eq!(id, 0, "an id that cannot be echoed is not salvaged");
        }
        other => panic!("expected bad_request error, got {other:?}"),
    }

    write_frame(&mut writer, &Request::List { id: 9 }.encode()).unwrap();
    match Response::decode(&reader.next_frame().unwrap()).unwrap() {
        Response::Listing { id, .. } => assert_eq!(id, 9),
        other => panic!("expected listing, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn unknown_instance_is_a_typed_error() {
    let server = server_with(ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();
    let err = client
        .compare(
            "a",
            "nonexistent",
            Algo::Signature,
            CompareOptions::default(),
        )
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownInstance));
    server.shutdown();
}

#[test]
fn zero_budget_is_a_fast_typed_error_not_a_hang() {
    let server = server_with(ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();
    let start = Instant::now();
    let err = client
        .compare(
            "a",
            "b",
            Algo::Exact,
            CompareOptions {
                budget_ms: Some(0),
                ..CompareOptions::default()
            },
        )
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Budget));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "budget_ms: 0 must be rejected promptly"
    );
    server.shutdown();
}

#[test]
fn invalid_lambda_maps_to_config_error() {
    let server = server_with(ServerConfig::default());
    let mut client = Client::new(server.local_addr()).unwrap();
    let err = client
        .compare(
            "a",
            "b",
            Algo::Signature,
            CompareOptions {
                lambda: Some(2.0),
                ..CompareOptions::default()
            },
        )
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Config));
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let server = server_with(ServerConfig {
        workers: 1,
        queue_depth: 1,
        // Park each job in the single worker long enough to fill the
        // one-slot queue behind it deterministically.
        worker_delay: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let occupy: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                // Stagger so the first compare is in the worker and the
                // second is parked in the queue slot.
                std::thread::sleep(Duration::from_millis(60 * i));
                let mut client = Client::new(addr).unwrap();
                client.compare("a", "b", Algo::Signature, CompareOptions::default())
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(180));

    // Worker busy + queue slot taken: admission control must answer
    // immediately instead of blocking.
    let mut client = Client::new(addr).unwrap();
    let start = Instant::now();
    let err = client
        .compare("a", "b", Algo::Signature, CompareOptions::default())
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Overloaded));
    assert!(
        start.elapsed() < Duration::from_millis(250),
        "overload rejection must not wait for the queue to drain"
    );

    for t in occupy {
        t.join().unwrap().expect("admitted requests still complete");
    }
    let stats = client.stats().unwrap();
    assert!(stats.overloaded >= 1);
    server.shutdown();
}
