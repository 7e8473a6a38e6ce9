//! Property tests pinning the wire mapping: `decode(encode(m)) == m` for
//! random requests and responses of every kind — including strings with
//! embedded newlines, quotes, backslashes, control characters, and
//! non-ASCII — and the same identity through the frame layer. Tables of
//! literal payloads pin the bytes each kind encodes to and what each edge
//! payload decodes to.

use ic_serve::frame::{write_frame, FrameReader};
use ic_serve::proto::{
    Algo, AttrRef, CompareScores, DecodeError, DiscoveredFdInfo, DiscoveredKeyInfo, ErrorCode,
    InstanceInfo, PatchOp, PatchValue, Request, Response, SearchResult, SearchResults, ServerStats,
    SpanStat,
};
use ic_testkit::{Gen, Runner};
use rand::RngExt;
use std::fmt::Debug;

/// Characters chosen to stress every escaping path: JSON two-char escapes,
/// `\u` control escapes, multi-byte UTF-8, and an astral-plane character
/// (surrogate pair in `\u` form).
const NASTY: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '\n',
    '\r',
    '\t',
    '"',
    '\\',
    '/',
    '\u{0}',
    '\u{1f}',
    'é',
    'β',
    'ν',
    '中',
    '☃',
    '\u{1F600}',
];

fn nasty_string(g: &mut Gen) -> String {
    let len = g.rng().random_range(0..12);
    (0..len).map(|_| *g.pick(NASTY)).collect()
}

fn finite_f64(g: &mut Gen) -> f64 {
    // Mix of "nice" values and arbitrary mantissas; Display/parse must
    // roundtrip every finite f64 bit-for-bit.
    match g.rng().random_range(0..4u32) {
        0 => 0.0,
        1 => *g.pick(&[1.0, 0.5, 0.875, 1e-9, 123456.789, f64::MIN_POSITIVE]),
        _ => g.rng().random_range(-1.0e12..1.0e12),
    }
}

fn opt<T>(g: &mut Gen, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
    if g.rng().random_bool(0.5) {
        Some(f(g))
    } else {
        None
    }
}

/// An integer the wire carries exactly: below 2^53.
fn wire_u64(g: &mut Gen) -> u64 {
    g.rng().random_range(0..1u64 << 53)
}

fn gen_patch_value(g: &mut Gen) -> PatchValue {
    match g.rng().random_range(0..3u32) {
        0 => PatchValue::Const(nasty_string(g)),
        1 => PatchValue::FreshNull,
        _ => PatchValue::Null(g.rng().random()),
    }
}

fn gen_patch_op(g: &mut Gen) -> PatchOp {
    match g.rng().random_range(0..4u32) {
        0 => PatchOp::Insert {
            rel: nasty_string(g),
            values: g.vec_of(4, gen_patch_value),
        },
        1 => PatchOp::Delete {
            tuple: g.rng().random(),
        },
        by_index => PatchOp::Modify {
            tuple: g.rng().random(),
            attr: match by_index {
                2 => AttrRef::Index(g.rng().random()),
                _ => AttrRef::Name(nasty_string(g)),
            },
            value: gen_patch_value(g),
        },
    }
}

fn gen_request(g: &mut Gen) -> Request {
    let id = wire_u64(g);
    match g.rng().random_range(0..8u32) {
        0 => Request::Load {
            id,
            name: nasty_string(g),
            dir: nasty_string(g),
        },
        1 => Request::List { id },
        2 => Request::Compare {
            id,
            left: nasty_string(g),
            right: nasty_string(g),
            algo: *g.pick(&[Algo::Signature, Algo::Exact, Algo::Both]),
            lambda: opt(g, finite_f64),
            budget_ms: opt(g, wire_u64),
        },
        3 => Request::Search {
            id,
            query: nasty_string(g),
            k: wire_u64(g),
            lambda: opt(g, finite_f64),
            budget_ms: opt(g, wire_u64),
        },
        4 => Request::Discover {
            id,
            name: nasty_string(g),
            epsilon: opt(g, finite_f64),
            max_lhs: opt(g, wire_u64),
            min_support: opt(g, wire_u64),
            budget_ms: opt(g, wire_u64),
        },
        5 => Request::Patch {
            id,
            name: nasty_string(g),
            ops: g.vec_of(5, gen_patch_op),
        },
        6 => Request::Stats { id },
        _ => Request::Shutdown { id },
    }
}

const ERROR_CODES: [ErrorCode; 12] = [
    ErrorCode::Malformed,
    ErrorCode::BadFrame,
    ErrorCode::BadRequest,
    ErrorCode::UnknownInstance,
    ErrorCode::Config,
    ErrorCode::Budget,
    ErrorCode::SchemaMismatch,
    ErrorCode::Overloaded,
    ErrorCode::ShuttingDown,
    ErrorCode::Load,
    ErrorCode::Delta,
    ErrorCode::Internal,
];

fn gen_response(g: &mut Gen) -> Response {
    let id = wire_u64(g);
    match g.rng().random_range(0..9u32) {
        0 => Response::Loaded {
            id,
            name: nasty_string(g),
            tuples: wire_u64(g),
        },
        1 => Response::Listing {
            id,
            instances: g.vec_of(4, |g| InstanceInfo {
                name: nasty_string(g),
                tuples: wire_u64(g),
                null_cells: wire_u64(g),
            }),
        },
        2 => Response::Compared {
            id,
            scores: CompareScores {
                signature: opt(g, finite_f64),
                exact: opt(g, finite_f64),
                pairs: opt(g, wire_u64),
                optimal: opt(g, |g| g.rng().random_bool(0.5)),
                elapsed_us: wire_u64(g),
            },
        },
        3 => Response::Searched {
            id,
            results: SearchResults {
                hits: g.vec_of(4, |g| SearchResult {
                    name: nasty_string(g),
                    score: finite_f64(g),
                    pairs: wire_u64(g),
                }),
                compared: wire_u64(g),
                total: wire_u64(g),
                elapsed_us: wire_u64(g),
            },
        },
        4 => Response::Discovered {
            id,
            fds: g.vec_of(3, |g| DiscoveredFdInfo {
                rel: nasty_string(g),
                lhs: g.vec_of(3, nasty_string),
                rhs: nasty_string(g),
                g3_min: finite_f64(g),
                g3_max: finite_f64(g),
                support: wire_u64(g),
            }),
            keys: g.vec_of(3, |g| DiscoveredKeyInfo {
                rel: nasty_string(g),
                attrs: g.vec_of(3, nasty_string),
                g3_min: finite_f64(g),
                g3_max: finite_f64(g),
                covered: wire_u64(g),
            }),
            elapsed_us: wire_u64(g),
        },
        5 => Response::Patched {
            id,
            name: nasty_string(g),
            tuples: wire_u64(g),
            inserted: g.vec_of(4, wire_u64),
        },
        6 => Response::Stats {
            id,
            stats: ServerStats {
                requests: wire_u64(g),
                completed: wire_u64(g),
                overloaded: wire_u64(g),
                errors: wire_u64(g),
                catalog_version: wire_u64(g),
                spans: g.vec_of(4, |g| SpanStat {
                    label: nasty_string(g),
                    reports: wire_u64(g),
                    wall_us: wire_u64(g),
                }),
            },
        },
        7 => Response::ShuttingDown { id },
        _ => Response::Error {
            id,
            code: *g.pick(&ERROR_CODES),
            message: nasty_string(g),
        },
    }
}

/// Encode → frame → unframe → decode is the identity on requests.
#[test]
fn request_wire_roundtrip_identity() {
    Runner::new("serve.request_wire_roundtrip").run(gen_request, |req| {
        let payload = req.encode();
        assert_eq!(&Request::decode(&payload).unwrap(), req);

        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let framed = reader.next_frame().unwrap();
        assert_eq!(&Request::decode(&framed).unwrap(), req);
    });
}

/// Encode → frame → unframe → decode is the identity on responses; f64
/// scores survive bit-for-bit (the e2e "exact same scores" guarantee).
#[test]
fn response_wire_roundtrip_identity() {
    Runner::new("serve.response_wire_roundtrip").run(gen_response, |resp| {
        let payload = resp.encode();
        let back = Response::decode(&payload).unwrap();
        assert_eq!(&back, resp);
        if let (Response::Compared { scores: sent, .. }, Response::Compared { scores: recv, .. }) =
            (resp, &back)
        {
            assert_eq!(
                sent.signature.map(f64::to_bits),
                recv.signature.map(f64::to_bits)
            );
            assert_eq!(sent.exact.map(f64::to_bits), recv.exact.map(f64::to_bits));
        }

        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        assert_eq!(
            &Response::decode(&reader.next_frame().unwrap()).unwrap(),
            resp
        );
    });
}

/// Several frames written back-to-back — with payloads full of newlines —
/// are recovered intact and in order.
#[test]
fn frame_stream_roundtrip_identity() {
    Runner::new("serve.frame_stream_roundtrip").run(
        |g| g.vec_of(6, |g| nasty_string(g).into_bytes()),
        |payloads| {
            let mut wire = Vec::new();
            for p in payloads {
                write_frame(&mut wire, p).unwrap();
            }
            let mut reader = FrameReader::new(std::io::Cursor::new(wire));
            for p in payloads {
                assert_eq!(&reader.next_frame().unwrap(), p);
            }
        },
    );
}

/// Each line is a payload, then what it decodes to: `shape`, `syntax`, or
/// the `Debug` form of a message. After `<=>` the message must also encode
/// back to exactly the payload's bytes, which pins one literal encoding
/// per kind; after `=>` it need not.
const REQUESTS: &str = r#"
{"id":1,"kind":"load","name":"n","dir":"/d"} <=> Load { id: 1, name: "n", dir: "/d" }
{"id":2,"kind":"list"} <=> List { id: 2 }
{"id":3,"kind":"compare","left":"a","right":"b","algo":"both","lambda":0.25,"budget_ms":100} <=> Compare { id: 3, left: "a", right: "b", algo: Both, lambda: Some(0.25), budget_ms: Some(100) }
{"id":4,"kind":"compare","left":"a","right":"b","algo":"exact"} <=> Compare { id: 4, left: "a", right: "b", algo: Exact, lambda: None, budget_ms: None }
{"id":5,"kind":"search","query":"q","k":10,"lambda":0.5,"budget_ms":250} <=> Search { id: 5, query: "q", k: 10, lambda: Some(0.5), budget_ms: Some(250) }
{"id":6,"kind":"discover","name":"d","epsilon":0.0625,"min_support":4} <=> Discover { id: 6, name: "d", epsilon: Some(0.0625), max_lhs: None, min_support: Some(4), budget_ms: None }
{"id":7,"kind":"patch","name":"p","ops":[{"op":"insert","rel":"R","values":["x",null,{"null":7}]},{"op":"delete","tuple":3},{"op":"modify","tuple":4294967295,"attr":"B","value":null},{"op":"modify","tuple":0,"attr":65535,"value":{"null":2}}]} <=> Patch { id: 7, name: "p", ops: [Insert { rel: "R", values: [Const("x"), FreshNull, Null(7)] }, Delete { tuple: 3 }, Modify { tuple: 4294967295, attr: Name("B"), value: FreshNull }, Modify { tuple: 0, attr: Index(65535), value: Null(2) }] }
{"id":8,"kind":"stats"} <=> Stats { id: 8 }
{"id":9007199254740991,"kind":"shutdown"} <=> Shutdown { id: 9007199254740991 }
{"id":1,"kind":"compare","left":"a","right":"b","lambda":null,"budget_ms":null} => Compare { id: 1, left: "a", right: "b", algo: Signature, lambda: None, budget_ms: None }
{"id":1,"kind":"compare","left":"a","right":"b","algo":null} => shape
{"id":1,"kind":"compare","left":"a","right":"b","algo":"fast"} => shape
{"id":1,"kind":"compare","left":"a","right":"b","budget_ms":1.5} => shape
{"id":2,"kind":"search","query":"q","k":1,"lambda":null,"budget_ms":null} => Search { id: 2, query: "q", k: 1, lambda: None, budget_ms: None }
{"id":2,"kind":"search","query":"q","k":null} => shape
{"id":3,"kind":"patch","name":"p","ops":[{"op":"modify","tuple":0,"attr":0,"value":null}]} => Patch { id: 3, name: "p", ops: [Modify { tuple: 0, attr: Index(0), value: FreshNull }] }
{"id":3,"kind":"patch","name":"p","ops":[{"op":"modify","tuple":0,"attr":0}]} => shape
{"id":3,"kind":"patch","name":"p","ops":[{"op":"modify","tuple":0,"attr":70000,"value":"x"}]} => shape
{"id":3,"kind":"patch","name":"p","ops":[{"op":"delete","tuple":4294967296}]} => shape
{"id":3,"kind":"patch","name":"p","ops":[{"op":"insert","rel":"R","values":[{"null":-1}]}]} => shape
{"id":3,"kind":"patch","name":"p","ops":[{"op":"insert","rel":"R","values":[true]}]} => shape
{"id":4,"kind":"list","extra":[1,{"x":null}]} => List { id: 4 }
{"id":4,"id":5,"kind":"list"} => List { id: 4 }
{"id":"4","kind":"list"} => shape
[] => shape
{"id":4,"kind":"list"} x => syntax
"#;

const RESPONSES: &str = r#"
{"id":1,"kind":"loaded","name":"n","tuples":42} <=> Loaded { id: 1, name: "n", tuples: 42 }
{"id":2,"kind":"listing","instances":[{"name":"i","tuples":3,"null_cells":1}]} <=> Listing { id: 2, instances: [InstanceInfo { name: "i", tuples: 3, null_cells: 1 }] }
{"id":3,"kind":"compared","exact":1,"optimal":true,"elapsed_us":7} <=> Compared { id: 3, scores: CompareScores { signature: None, exact: Some(1.0), pairs: None, optimal: Some(true), elapsed_us: 7 } }
{"id":4,"kind":"searched","hits":[{"name":"c0","score":0.9375,"pairs":12}],"compared":5,"total":40,"elapsed_us":987} <=> Searched { id: 4, results: SearchResults { hits: [SearchResult { name: "c0", score: 0.9375, pairs: 12 }], compared: 5, total: 40, elapsed_us: 987 } }
{"id":5,"kind":"discovered","fds":[{"rel":"R","lhs":["A","B"],"rhs":"C","g3_min":0,"g3_max":0.04,"support":20}],"keys":[{"rel":"R","attrs":["A"],"g3_min":0.125,"g3_max":0.25,"covered":230}],"elapsed_us":4321} <=> Discovered { id: 5, fds: [DiscoveredFdInfo { rel: "R", lhs: ["A", "B"], rhs: "C", g3_min: 0.0, g3_max: 0.04, support: 20 }], keys: [DiscoveredKeyInfo { rel: "R", attrs: ["A"], g3_min: 0.125, g3_max: 0.25, covered: 230 }], elapsed_us: 4321 }
{"id":6,"kind":"patched","name":"p","tuples":9,"inserted":[4,7]} <=> Patched { id: 6, name: "p", tuples: 9, inserted: [4, 7] }
{"id":7,"kind":"stats","requests":10,"completed":8,"overloaded":1,"errors":1,"catalog_version":3,"spans":[{"label":"serve.compare","reports":8,"wall_us":5000}]} <=> Stats { id: 7, stats: ServerStats { requests: 10, completed: 8, overloaded: 1, errors: 1, catalog_version: 3, spans: [SpanStat { label: "serve.compare", reports: 8, wall_us: 5000 }] } }
{"id":8,"kind":"shutting_down"} <=> ShuttingDown { id: 8 }
{"id":9,"kind":"error","code":"delta","message":"q\"b\\s\n\t\u0001é"} <=> Error { id: 9, code: Delta, message: "q\"b\\s\n\t\u{1}é" }
{"id":1,"kind":"compared","signature":null,"pairs":null,"optimal":null,"elapsed_us":2} => Compared { id: 1, scores: CompareScores { signature: None, exact: None, pairs: None, optimal: None, elapsed_us: 2 } }
{"id":1,"kind":"compared","optimal":1,"elapsed_us":2} => shape
{"id":1,"kind":"compared","pairs":1.5,"elapsed_us":2} => shape
{"id":1,"kind":"error","code":"nope","message":""} => shape
"#;

fn assert_table<T: Debug>(
    table: &str,
    decode: fn(&[u8]) -> Result<T, DecodeError>,
    encode: fn(&T) -> Vec<u8>,
) {
    for line in table.trim().lines() {
        let (payload, want, pinned) = match line.split_once(" <=> ") {
            Some((payload, want)) => (payload, want, true),
            None => line.split_once(" => ").map(|(p, w)| (p, w, false)).unwrap(),
        };
        let got = match decode(payload.as_bytes()) {
            Ok(message) if pinned => {
                assert_eq!(String::from_utf8(encode(&message)).unwrap(), payload);
                format!("{message:?}")
            }
            Ok(message) => format!("{message:?}"),
            Err(DecodeError::Shape(_)) => "shape".to_string(),
            Err(DecodeError::Syntax(_)) => "syntax".to_string(),
        };
        assert_eq!(got, want, "{payload}");
    }
}

/// The literal encodings and edge payloads above, and every error code's
/// wire name.
#[test]
fn wire_tables_hold() {
    assert_table(REQUESTS, Request::decode, Request::encode);
    assert_table(RESPONSES, Response::decode, Response::encode);
    let names = ERROR_CODES.map(ErrorCode::as_str).join(" ");
    let want = "malformed bad_frame bad_request unknown_instance config budget \
                schema_mismatch overloaded shutting_down load delta internal";
    assert_eq!(names, want);
}
