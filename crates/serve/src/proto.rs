//! Typed wire protocol: request/response payloads and their JSON mapping.
//!
//! Every request carries a client-chosen `id`, echoed verbatim in the
//! response so clients can correlate replies (the server may interleave
//! responses from different connections, never within one). Encoding is
//! total; decoding distinguishes *syntax* errors (not JSON — the peer is
//! broken, close the connection) from *shape* errors (valid JSON that is
//! not a known message — answer `bad_request` and keep the connection).
//!
//! Every member goes through one private field codec: a `Field` trait
//! maps each wire type to and from [`Json`], an `Obj` builder writes
//! members in wire order (a `None` optional is left out, never `null`),
//! and `get`/`opt` read a required/optional member (for `opt`, absent and
//! `null` both mean `None`). A message encodes as one member chain and
//! decodes as one struct literal, so the two directions cannot drift.
//!
//! The mapping is pinned by an `ic-testkit` property: `decode(encode(m)) ==
//! m` for random messages including strings with newlines, quotes, and
//! non-ASCII; and by literal encodings and edge payloads with their
//! verdicts (see `tests/wire_props.rs`).

use crate::json::{self, Json};
use std::fmt;

/// Which algorithm a `compare` request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The PTIME signature algorithm (default).
    Signature,
    /// The exact branch-and-bound.
    Exact,
    /// Both, for (exact, signature) gap reporting.
    Both,
}

/// `Algo`'s wire names, read in both directions.
const ALGOS: [(Algo, &str); 3] = [
    (Algo::Signature, "signature"),
    (Algo::Exact, "exact"),
    (Algo::Both, "both"),
];

impl Field for Algo {
    fn to_json(&self) -> Json {
        Json::Str(name_of(&ALGOS, *self).into())
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        named(&ALGOS, v, "unknown algo")
    }
}

/// A value carried by a patch op, resolved against the catalog's value
/// domains server-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchValue {
    /// A constant, interned on arrival (`"x"` on the wire).
    Const(String),
    /// A fresh labeled null, drawn server-side (`null` on the wire).
    FreshNull,
    /// An existing labeled null by id (`{"null": n}` on the wire) — for
    /// edits that must co-reference a null already in the instance.
    Null(u32),
}

impl Field for PatchValue {
    fn to_json(&self) -> Json {
        match self {
            PatchValue::Const(s) => s.to_json(),
            PatchValue::FreshNull => Json::Null,
            PatchValue::Null(n) => Obj::default().put("null", n).into(),
        }
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Str(s) => Ok(PatchValue::Const(s.clone())),
            Json::Null => Ok(PatchValue::FreshNull),
            Json::Obj(_) => get(v, "null").map(PatchValue::Null),
            _ => Err(DecodeError::Shape(
                "patch value must be string, null, or {\"null\":n}",
            )),
        }
    }
}

/// How a patch `modify` names the attribute: by position or by the
/// schema's attribute name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrRef {
    /// Zero-based attribute position.
    Index(u16),
    /// Attribute name, resolved against the tuple's relation schema.
    Name(String),
}

impl Field for AttrRef {
    fn to_json(&self) -> Json {
        match self {
            AttrRef::Index(i) => i.to_json(),
            AttrRef::Name(n) => n.to_json(),
        }
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Str(s) => Ok(AttrRef::Name(s.clone())),
            Json::Num(_) => u16::from_json(v).map(AttrRef::Index),
            _ => Err(DecodeError::Shape("attr must be a name or an index")),
        }
    }
}

/// One edit in a `patch` request, in instance-delta vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchOp {
    /// Insert a tuple into the named relation.
    Insert {
        /// Relation name (schema-resolved server-side).
        rel: String,
        /// One value per attribute.
        values: Vec<PatchValue>,
    },
    /// Delete a tuple by id.
    Delete {
        /// The tuple id.
        tuple: u32,
    },
    /// Overwrite one attribute of a tuple.
    Modify {
        /// The tuple id.
        tuple: u32,
        /// Which attribute.
        attr: AttrRef,
        /// The new value.
        value: PatchValue,
    },
}

impl Field for PatchOp {
    fn to_json(&self) -> Json {
        match self {
            PatchOp::Insert { rel, values } => Obj::default()
                .tag("op", "insert")
                .put("rel", rel)
                .put("values", values),
            PatchOp::Delete { tuple } => Obj::default().tag("op", "delete").put("tuple", tuple),
            PatchOp::Modify { tuple, attr, value } => Obj::default()
                .tag("op", "modify")
                .put("tuple", tuple)
                .put("attr", attr)
                .put("value", value),
        }
        .into()
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(match get::<String>(v, "op")?.as_str() {
            "insert" => PatchOp::Insert {
                rel: get(v, "rel")?,
                values: get(v, "values")?,
            },
            "delete" => PatchOp::Delete {
                tuple: get(v, "tuple")?,
            },
            // A `null` value is a fresh null, not an absent member.
            "modify" => PatchOp::Modify {
                tuple: get(v, "tuple")?,
                attr: get(v, "attr")?,
                value: get(v, "value")?,
            },
            _ => return Err(DecodeError::Shape("unknown patch op")),
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Load an instance from a CSV directory into the catalog under `name`,
    /// replacing any existing instance of that name (copy-on-write: clients
    /// already comparing against the old version finish on it).
    Load {
        /// Request id, echoed in the response.
        id: u64,
        /// Catalog name for the loaded instance.
        name: String,
        /// Directory holding one `<relation>.csv` per schema relation.
        dir: String,
    },
    /// List the catalog: instance names and sizes.
    List {
        /// Request id, echoed in the response.
        id: u64,
    },
    /// Compare two catalog instances.
    Compare {
        /// Request id, echoed in the response.
        id: u64,
        /// Catalog name of the left instance.
        left: String,
        /// Catalog name of the right instance.
        right: String,
        /// Which algorithm(s) to run.
        algo: Algo,
        /// λ penalty override (`None` = server default 0.5).
        lambda: Option<f64>,
        /// Per-request wall-clock deadline in milliseconds, measured from
        /// admission. `Some(0)` is answered with a `budget` error. `None`
        /// falls back to the server's default budget.
        budget_ms: Option<u64>,
    },
    /// Top-k similarity search: rank the catalog against one query
    /// instance using the sketch/signature prefilter index, running the
    /// full comparison only on prefilter survivors.
    Search {
        /// Request id, echoed in the response.
        id: u64,
        /// Catalog name of the query instance.
        query: String,
        /// Number of results wanted (0 is answered with `bad_request`).
        k: u64,
        /// λ penalty override (`None` = server default 0.5).
        lambda: Option<f64>,
        /// Per-request wall-clock deadline in milliseconds, measured from
        /// admission; exceeding it mid-search is a `budget` error, never a
        /// truncated result. `None` falls back to the server default.
        budget_ms: Option<u64>,
    },
    /// Discover approximate keys and functional dependencies on one
    /// catalog instance under possible-world `g3` semantics, returning
    /// every minimal constraint within the epsilon gate.
    Discover {
        /// Request id, echoed in the response.
        id: u64,
        /// Catalog name of the instance to analyse.
        name: String,
        /// Violation-ratio gate (`None` = server default 0.05). Must be
        /// in `[0, 1)` — out-of-range values are a `config` error.
        epsilon: Option<f64>,
        /// Maximum determinant/key width (`None` = server default 2).
        max_lhs: Option<u64>,
        /// Support floor for reported constraints (`None` = default 2).
        min_support: Option<u64>,
        /// Per-request wall-clock deadline in milliseconds, measured from
        /// admission; exceeding it mid-lattice is a `budget` error, never
        /// a truncated result. `None` falls back to the server default.
        budget_ms: Option<u64>,
    },
    /// Edit an instance in place: apply tuple-level ops to the named
    /// catalog entry, publishing (and, on a durable server, logging) the
    /// patched copy-on-write snapshot. In-flight comparisons finish on
    /// the pre-patch pin.
    Patch {
        /// Request id, echoed in the response.
        id: u64,
        /// Catalog name of the instance to edit.
        name: String,
        /// The edits, applied in order (the first failing op aborts the
        /// whole patch).
        ops: Vec<PatchOp>,
    },
    /// Server statistics: request counters and per-label observation spans.
    Stats {
        /// Request id, echoed in the response.
        id: u64,
    },
    /// Graceful shutdown: stop accepting, drain in-flight work, close.
    Shutdown {
        /// Request id, echoed in the response.
        id: u64,
    },
}

impl Request {
    /// The request id (echoed by every response).
    pub fn id(&self) -> u64 {
        match self {
            Request::Load { id, .. }
            | Request::List { id }
            | Request::Compare { id, .. }
            | Request::Search { id, .. }
            | Request::Discover { id, .. }
            | Request::Patch { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => *id,
        }
    }

    /// Serializes to one-line JSON bytes (frame payload).
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().encode().into_bytes()
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        Self::from_json(&parse_payload(payload)?)
    }
}

impl Field for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Load { id, name, dir } => {
                Obj::msg(*id, "load").put("name", name).put("dir", dir)
            }
            Request::List { id } => Obj::msg(*id, "list"),
            Request::Compare {
                id,
                left,
                right,
                algo,
                lambda,
                budget_ms,
            } => Obj::msg(*id, "compare")
                .put("left", left)
                .put("right", right)
                .put("algo", algo)
                .opt("lambda", lambda)
                .opt("budget_ms", budget_ms),
            Request::Search {
                id,
                query,
                k,
                lambda,
                budget_ms,
            } => Obj::msg(*id, "search")
                .put("query", query)
                .put("k", k)
                .opt("lambda", lambda)
                .opt("budget_ms", budget_ms),
            Request::Discover {
                id,
                name,
                epsilon,
                max_lhs,
                min_support,
                budget_ms,
            } => Obj::msg(*id, "discover")
                .put("name", name)
                .opt("epsilon", epsilon)
                .opt("max_lhs", max_lhs)
                .opt("min_support", min_support)
                .opt("budget_ms", budget_ms),
            Request::Patch { id, name, ops } => {
                Obj::msg(*id, "patch").put("name", name).put("ops", ops)
            }
            Request::Stats { id } => Obj::msg(*id, "stats"),
            Request::Shutdown { id } => Obj::msg(*id, "shutdown"),
        }
        .into()
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        let id = get(v, "id")?;
        Ok(match get::<String>(v, "kind")?.as_str() {
            "load" => Request::Load {
                id,
                name: get(v, "name")?,
                dir: get(v, "dir")?,
            },
            "list" => Request::List { id },
            "compare" => Request::Compare {
                id,
                left: get(v, "left")?,
                right: get(v, "right")?,
                // Absent means the default, but `null` is not absent.
                algo: v.get("algo").map_or(Ok(Algo::Signature), Algo::from_json)?,
                lambda: opt(v, "lambda")?,
                budget_ms: opt(v, "budget_ms")?,
            },
            "search" => Request::Search {
                id,
                query: get(v, "query")?,
                k: get(v, "k")?,
                lambda: opt(v, "lambda")?,
                budget_ms: opt(v, "budget_ms")?,
            },
            "discover" => Request::Discover {
                id,
                name: get(v, "name")?,
                epsilon: opt(v, "epsilon")?,
                max_lhs: opt(v, "max_lhs")?,
                min_support: opt(v, "min_support")?,
                budget_ms: opt(v, "budget_ms")?,
            },
            "patch" => Request::Patch {
                id,
                name: get(v, "name")?,
                ops: get(v, "ops")?,
            },
            "stats" => Request::Stats { id },
            "shutdown" => Request::Shutdown { id },
            _ => return Err(DecodeError::Shape("unknown request kind")),
        })
    }
}

/// Typed error codes a response can carry. The `Display` form is the wire
/// string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame payload was not valid JSON (connection closes after this).
    Malformed,
    /// A framing violation the connection survives: the declared frame
    /// length exceeded the server's cap, so the payload was discarded
    /// unread (never buffered) and the stream resumed at the next frame
    /// boundary. Only the oversized request is lost.
    BadFrame,
    /// Valid JSON, but not a known request shape.
    BadRequest,
    /// A `compare`/`load` referenced an instance name not in the catalog.
    UnknownInstance,
    /// Invalid comparison configuration (λ out of range, …) —
    /// [`ic_core::Error::Config`].
    Config,
    /// The per-request deadline expired before a complete result —
    /// [`ic_core::Error::Budget`].
    Budget,
    /// An instance does not fit the catalog schema —
    /// [`ic_core::Error::SchemaMismatch`].
    SchemaMismatch,
    /// Admission control: the bounded request queue was full.
    Overloaded,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
    /// Loading from disk failed (missing directory, CSV syntax, …).
    Load,
    /// A `patch` op did not apply: unknown tuple or relation, arity
    /// mismatch, or attribute out of range. The instance is unchanged.
    Delta,
    /// Unexpected server-side failure.
    Internal,
}

/// `ErrorCode`'s wire names, read in both directions.
const ERROR_CODES: [(ErrorCode, &str); 12] = [
    (ErrorCode::Malformed, "malformed"),
    (ErrorCode::BadFrame, "bad_frame"),
    (ErrorCode::BadRequest, "bad_request"),
    (ErrorCode::UnknownInstance, "unknown_instance"),
    (ErrorCode::Config, "config"),
    (ErrorCode::Budget, "budget"),
    (ErrorCode::SchemaMismatch, "schema_mismatch"),
    (ErrorCode::Overloaded, "overloaded"),
    (ErrorCode::ShuttingDown, "shutting_down"),
    (ErrorCode::Load, "load"),
    (ErrorCode::Delta, "delta"),
    (ErrorCode::Internal, "internal"),
];

impl ErrorCode {
    /// The stable wire string of this code.
    pub fn as_str(self) -> &'static str {
        name_of(&ERROR_CODES, self)
    }

    /// Maps a core error to its wire code (via [`ic_core::Error::code`],
    /// so the mapping cannot silently drift from the core enum).
    pub fn from_core(e: &ic_core::Error) -> Self {
        match e.code() {
            "config" => ErrorCode::Config,
            "budget" => ErrorCode::Budget,
            "schema_mismatch" => ErrorCode::SchemaMismatch,
            // A schema-level name the request referenced does not exist —
            // a client mistake, not a server failure.
            "unknown_name" => ErrorCode::BadRequest,
            _ => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Field for ErrorCode {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().into())
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        named(&ERROR_CODES, v, "unknown error code")
    }
}

/// One catalog entry in a `list` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceInfo {
    /// Catalog name.
    pub name: String,
    /// Total tuples across all relations.
    pub tuples: u64,
    /// Total labeled-null cells.
    pub null_cells: u64,
}

/// Comparison scores in a `compared` response. `signature`/`exact` are
/// present according to the requested [`Algo`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompareScores {
    /// Signature-algorithm similarity, if requested.
    pub signature: Option<f64>,
    /// Exact-algorithm similarity, if requested.
    pub exact: Option<f64>,
    /// Matched tuple pairs of the signature run (absent for `exact`-only).
    pub pairs: Option<u64>,
    /// Whether the exact search proved optimality (absent unless exact ran).
    pub optimal: Option<bool>,
    /// Server-side wall-clock for the comparison, microseconds.
    pub elapsed_us: u64,
}

/// One ranked hit in a `searched` response.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Catalog name of the matched instance.
    pub name: String,
    /// Full signature similarity — bit-identical to a direct `compare` of
    /// the same pair; the prefilter never alters scores, only which
    /// entries get scored.
    pub score: f64,
    /// Matched tuple pairs of the scoring run.
    pub pairs: u64,
}

/// The payload of a `searched` response: ranked hits plus how many of the
/// catalog's entries received a full comparison. The prefilter's other
/// survivors were certified to match nothing (no tuple pair with the
/// query is c-compatible) and scored without one.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResults {
    /// Hits ordered by `(score desc, name asc)`, at most `k`.
    pub hits: Vec<SearchResult>,
    /// Entries that received a full comparison: fewer than the prefilter's
    /// survivors when some were certified to match nothing.
    pub compared: u64,
    /// Entries in the searched catalog.
    pub total: u64,
    /// Server-side wall-clock for the whole search, microseconds.
    pub elapsed_us: u64,
}

/// One approximate FD in a `discovered` response, with schema references
/// resolved to names server-side.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredFdInfo {
    /// Relation name.
    pub rel: String,
    /// Determinant attribute names, in schema order.
    pub lhs: Vec<String>,
    /// Determined attribute name.
    pub rhs: String,
    /// Best-world violation ratio (some world of the labeled nulls).
    pub g3_min: f64,
    /// Worst-world violation ratio (every world).
    pub g3_max: f64,
    /// Size of the largest all-constant determinant group.
    pub support: u64,
}

/// One approximate key in a `discovered` response.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredKeyInfo {
    /// Relation name.
    pub rel: String,
    /// Key attribute names, in schema order.
    pub attrs: Vec<String>,
    /// Best-world violation ratio.
    pub g3_min: f64,
    /// Worst-world violation ratio.
    pub g3_max: f64,
    /// Tuples null-free on every key attribute.
    pub covered: u64,
}

/// Per-observation-label statistics in a `stats` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Observation label (e.g. `serve.compare`).
    pub label: String,
    /// Finished observations under this label.
    pub reports: u64,
    /// Summed observation wall-clock, microseconds.
    pub wall_us: u64,
}

/// Server statistics payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted (all kinds, including failed ones).
    pub requests: u64,
    /// Compare requests answered with a result.
    pub completed: u64,
    /// Compare requests rejected by admission control.
    pub overloaded: u64,
    /// Requests answered with any error payload.
    pub errors: u64,
    /// Catalog snapshot version (bumps on every load/replace).
    pub catalog_version: u64,
    /// Per-label `ic-obs` observation summaries, sorted by label.
    pub spans: Vec<SpanStat>,
}

/// A server response. Every variant echoes the request `id`; `Error` is the
/// typed failure payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A `load` succeeded.
    Loaded {
        /// Echoed request id.
        id: u64,
        /// Catalog name the instance was stored under.
        name: String,
        /// Tuples loaded.
        tuples: u64,
    },
    /// A `list` result.
    Listing {
        /// Echoed request id.
        id: u64,
        /// Catalog entries, sorted by name.
        instances: Vec<InstanceInfo>,
    },
    /// A `compare` result.
    Compared {
        /// Echoed request id.
        id: u64,
        /// The scores.
        scores: CompareScores,
    },
    /// A `search` result.
    Searched {
        /// Echoed request id.
        id: u64,
        /// Ranked hits and prefilter accounting.
        results: SearchResults,
    },
    /// A `discover` result: every minimal approximate FD and key within
    /// the requested gate.
    Discovered {
        /// Echoed request id.
        id: u64,
        /// Minimal approximate FDs, in `(rel, |lhs|, lhs, rhs)` order.
        fds: Vec<DiscoveredFdInfo>,
        /// Minimal approximate keys, in `(rel, |attrs|, attrs)` order.
        keys: Vec<DiscoveredKeyInfo>,
        /// Server-side wall-clock for the discovery, microseconds.
        elapsed_us: u64,
    },
    /// A `patch` succeeded.
    Patched {
        /// Echoed request id.
        id: u64,
        /// Catalog name of the patched instance.
        name: String,
        /// Total tuples after the patch.
        tuples: u64,
        /// Tuple ids assigned to the patch's inserts, in op order.
        inserted: Vec<u64>,
    },
    /// A `stats` result.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The counters and span summaries.
        stats: ServerStats,
    },
    /// Acknowledges a `shutdown`; in-flight work drains before the listener
    /// closes.
    ShuttingDown {
        /// Echoed request id.
        id: u64,
    },
    /// A typed failure.
    Error {
        /// Echoed request id (0 if the request id could not be parsed).
        id: u64,
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Loaded { id, .. }
            | Response::Listing { id, .. }
            | Response::Compared { id, .. }
            | Response::Searched { id, .. }
            | Response::Discovered { id, .. }
            | Response::Patched { id, .. }
            | Response::Stats { id, .. }
            | Response::ShuttingDown { id }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Serializes to one-line JSON bytes (frame payload).
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().encode().into_bytes()
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        Self::from_json(&parse_payload(payload)?)
    }
}

impl Field for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Loaded { id, name, tuples } => Obj::msg(*id, "loaded")
                .put("name", name)
                .put("tuples", tuples),
            Response::Listing { id, instances } => {
                Obj::msg(*id, "listing").put("instances", instances)
            }
            Response::Compared { id, scores } => Obj::msg(*id, "compared")
                .opt("signature", &scores.signature)
                .opt("exact", &scores.exact)
                .opt("pairs", &scores.pairs)
                .opt("optimal", &scores.optimal)
                .put("elapsed_us", &scores.elapsed_us),
            Response::Searched { id, results } => Obj::msg(*id, "searched")
                .put("hits", &results.hits)
                .put("compared", &results.compared)
                .put("total", &results.total)
                .put("elapsed_us", &results.elapsed_us),
            Response::Discovered {
                id,
                fds,
                keys,
                elapsed_us,
            } => Obj::msg(*id, "discovered")
                .put("fds", fds)
                .put("keys", keys)
                .put("elapsed_us", elapsed_us),
            Response::Patched {
                id,
                name,
                tuples,
                inserted,
            } => Obj::msg(*id, "patched")
                .put("name", name)
                .put("tuples", tuples)
                .put("inserted", inserted),
            Response::Stats { id, stats } => Obj::msg(*id, "stats")
                .put("requests", &stats.requests)
                .put("completed", &stats.completed)
                .put("overloaded", &stats.overloaded)
                .put("errors", &stats.errors)
                .put("catalog_version", &stats.catalog_version)
                .put("spans", &stats.spans),
            Response::ShuttingDown { id } => Obj::msg(*id, "shutting_down"),
            Response::Error { id, code, message } => Obj::msg(*id, "error")
                .put("code", code)
                .put("message", message),
        }
        .into()
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        let id = get(v, "id")?;
        Ok(match get::<String>(v, "kind")?.as_str() {
            "loaded" => Response::Loaded {
                id,
                name: get(v, "name")?,
                tuples: get(v, "tuples")?,
            },
            "listing" => Response::Listing {
                id,
                instances: get(v, "instances")?,
            },
            "compared" => Response::Compared {
                id,
                scores: CompareScores {
                    signature: opt(v, "signature")?,
                    exact: opt(v, "exact")?,
                    pairs: opt(v, "pairs")?,
                    optimal: opt(v, "optimal")?,
                    elapsed_us: get(v, "elapsed_us")?,
                },
            },
            "searched" => Response::Searched {
                id,
                results: SearchResults {
                    hits: get(v, "hits")?,
                    compared: get(v, "compared")?,
                    total: get(v, "total")?,
                    elapsed_us: get(v, "elapsed_us")?,
                },
            },
            "discovered" => Response::Discovered {
                id,
                fds: get(v, "fds")?,
                keys: get(v, "keys")?,
                elapsed_us: get(v, "elapsed_us")?,
            },
            "patched" => Response::Patched {
                id,
                name: get(v, "name")?,
                tuples: get(v, "tuples")?,
                inserted: get(v, "inserted")?,
            },
            "stats" => Response::Stats {
                id,
                stats: ServerStats {
                    requests: get(v, "requests")?,
                    completed: get(v, "completed")?,
                    overloaded: get(v, "overloaded")?,
                    errors: get(v, "errors")?,
                    catalog_version: get(v, "catalog_version")?,
                    spans: get(v, "spans")?,
                },
            },
            "shutting_down" => Response::ShuttingDown { id },
            "error" => Response::Error {
                id,
                code: get(v, "code")?,
                message: get(v, "message")?,
            },
            _ => return Err(DecodeError::Shape("unknown response kind")),
        })
    }
}

/// Why a frame payload failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Not UTF-8 or not valid JSON — the peer does not speak the protocol.
    Syntax(String),
    /// Valid JSON that is not a known message shape.
    Shape(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Syntax(e) => write!(f, "malformed payload: {e}"),
            DecodeError::Shape(e) => write!(f, "unrecognized message: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn parse_payload(payload: &[u8]) -> Result<Json, DecodeError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| DecodeError::Syntax(format!("payload is not UTF-8: {e}")))?;
    json::parse(text).map_err(|e| DecodeError::Syntax(e.to_string()))
}

/// One wire type: how a member of this type is written and read.
trait Field: Sized {
    fn to_json(&self) -> Json;
    fn from_json(v: &Json) -> Result<Self, DecodeError>;
}

/// A JSON object under construction, its members in wire order.
#[derive(Default)]
struct Obj(Vec<(String, Json)>);

impl Obj {
    /// A message: its `id`, then its `kind`.
    fn msg(id: u64, kind: &str) -> Self {
        Obj::default().put("id", &id).tag("kind", kind)
    }

    /// Writes a fixed string, such as a message's or a patch op's kind.
    fn tag(mut self, key: &str, name: &str) -> Self {
        self.0.push((key.to_string(), Json::Str(name.to_string())));
        self
    }

    fn put(mut self, key: &str, value: &impl Field) -> Self {
        self.0.push((key.to_string(), value.to_json()));
        self
    }

    /// Writes `value` if it is `Some`; `None` leaves the member out.
    fn opt(self, key: &str, value: &Option<impl Field>) -> Self {
        match value {
            Some(value) => self.put(key, value),
            None => self,
        }
    }
}

impl From<Obj> for Json {
    fn from(obj: Obj) -> Json {
        Json::Obj(obj.0)
    }
}

/// Reads a required member. `null` is a value here, not an absence: it
/// decodes only where the member's type accepts it.
fn get<T: Field>(v: &Json, key: &str) -> Result<T, DecodeError> {
    T::from_json(v.get(key).ok_or(DecodeError::Shape("missing member"))?)
}

/// Reads an optional member: absent and `null` are both `None`.
fn opt<T: Field>(v: &Json, key: &str) -> Result<Option<T>, DecodeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(member) => T::from_json(member).map(Some),
    }
}

fn name_of<T: Copy + PartialEq>(names: &[(T, &'static str)], x: T) -> &'static str {
    names
        .iter()
        .find(|(t, _)| *t == x)
        .map_or("", |(_, name)| name)
}

fn named<T: Copy>(names: &[(T, &str)], v: &Json, unknown: &'static str) -> Result<T, DecodeError> {
    names
        .iter()
        .find(|(_, n)| v.as_str() == Some(*n))
        .map(|(t, _)| *t)
        .ok_or(DecodeError::Shape(unknown))
}

impl Field for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or(DecodeError::Shape("expected a string"))
    }
}

impl Field for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        v.as_f64().ok_or(DecodeError::Shape("expected a number"))
    }
}

impl Field for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        v.as_bool().ok_or(DecodeError::Shape("expected a boolean"))
    }
}

/// Integers travel as JSON numbers, so a `u64` must be below 2^53 (see
/// [`Json::as_u64`]); the narrower types must also fit.
impl Field for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        v.as_u64()
            .ok_or(DecodeError::Shape("expected an integer in [0, 2^53)"))
    }
}

impl Field for u32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        narrow(v)
    }
}

impl Field for u16 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        narrow(v)
    }
}

fn narrow<T: TryFrom<u64>>(v: &Json) -> Result<T, DecodeError> {
    T::try_from(u64::from_json(v)?).map_err(|_| DecodeError::Shape("integer out of range"))
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        v.as_arr()
            .ok_or(DecodeError::Shape("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// `Field` for a plain object whose members are its fields, named and
/// ordered as listed.
macro_rules! plain_object {
    ($ty:ident: $($field:ident),+) => {
        impl Field for $ty {
            fn to_json(&self) -> Json {
                Obj::default()$(.put(stringify!($field), &self.$field))+.into()
            }

            fn from_json(v: &Json) -> Result<Self, DecodeError> {
                Ok($ty {
                    $($field: get(v, stringify!($field))?,)+
                })
            }
        }
    };
}

plain_object!(InstanceInfo: name, tuples, null_cells);
plain_object!(SearchResult: name, score, pairs);
plain_object!(DiscoveredFdInfo: rel, lhs, rhs, g3_min, g3_max, support);
plain_object!(DiscoveredKeyInfo: rel, attrs, g3_min, g3_max, covered);
plain_object!(SpanStat: label, reports, wall_us);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_kinds() {
        let reqs = [
            Request::Load {
                id: 1,
                name: "left — β".into(),
                dir: "/tmp/has\nnewline".into(),
            },
            Request::List { id: 2 },
            Request::Compare {
                id: 3,
                left: "a\"quoted\"".into(),
                right: "b".into(),
                algo: Algo::Both,
                lambda: Some(0.25),
                budget_ms: Some(0),
            },
            Request::Compare {
                id: 4,
                left: "a".into(),
                right: "b".into(),
                algo: Algo::Signature,
                lambda: None,
                budget_ms: None,
            },
            Request::Search {
                id: 5,
                query: "néedle".into(),
                k: 10,
                lambda: Some(0.5),
                budget_ms: Some(250),
            },
            Request::Search {
                id: 6,
                query: "q".into(),
                k: 0,
                lambda: None,
                budget_ms: None,
            },
            Request::Discover {
                id: 13,
                name: "νear".into(),
                epsilon: Some(0.0625),
                max_lhs: Some(3),
                min_support: Some(4),
                budget_ms: Some(500),
            },
            Request::Discover {
                id: 14,
                name: "bare".into(),
                epsilon: None,
                max_lhs: None,
                min_support: None,
                budget_ms: None,
            },
            Request::Patch {
                id: 11,
                name: "νictim".into(),
                ops: vec![
                    PatchOp::Insert {
                        rel: "R".into(),
                        values: vec![
                            PatchValue::Const("x\"y\"".into()),
                            PatchValue::FreshNull,
                            PatchValue::Null(7),
                        ],
                    },
                    PatchOp::Delete { tuple: 3 },
                    PatchOp::Modify {
                        tuple: 5,
                        attr: AttrRef::Name("B".into()),
                        value: PatchValue::Const("z".into()),
                    },
                    PatchOp::Modify {
                        tuple: 6,
                        attr: AttrRef::Index(0),
                        value: PatchValue::FreshNull,
                    },
                ],
            },
            Request::Patch {
                id: 12,
                name: "empty".into(),
                ops: vec![],
            },
            Request::Stats { id: 7 },
            Request::Shutdown { id: u64::MAX >> 12 },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_roundtrip_all_kinds() {
        let resps = [
            Response::Loaded {
                id: 1,
                name: "νame".into(),
                tuples: 42,
            },
            Response::Listing {
                id: 2,
                instances: vec![InstanceInfo {
                    name: "i".into(),
                    tuples: 3,
                    null_cells: 1,
                }],
            },
            Response::Compared {
                id: 3,
                scores: CompareScores {
                    signature: Some(0.875),
                    exact: None,
                    pairs: Some(9),
                    optimal: None,
                    elapsed_us: 1234,
                },
            },
            Response::Searched {
                id: 9,
                results: SearchResults {
                    hits: vec![
                        SearchResult {
                            name: "c0v1".into(),
                            score: 0.9375,
                            pairs: 12,
                        },
                        SearchResult {
                            name: "c0v2".into(),
                            score: 0.5,
                            pairs: 7,
                        },
                    ],
                    compared: 5,
                    total: 40,
                    elapsed_us: 987,
                },
            },
            Response::Searched {
                id: 10,
                results: SearchResults {
                    hits: vec![],
                    compared: 0,
                    total: 0,
                    elapsed_us: 1,
                },
            },
            Response::Stats {
                id: 4,
                stats: ServerStats {
                    requests: 10,
                    completed: 8,
                    overloaded: 1,
                    errors: 1,
                    catalog_version: 3,
                    spans: vec![SpanStat {
                        label: "serve.compare".into(),
                        reports: 8,
                        wall_us: 5000,
                    }],
                },
            },
            Response::Discovered {
                id: 13,
                fds: vec![DiscoveredFdInfo {
                    rel: "NC".into(),
                    lhs: vec!["f0".into(), "c0".into()],
                    rhs: "f2".into(),
                    g3_min: 0.02734375,
                    g3_max: 0.04,
                    support: 20,
                }],
                keys: vec![DiscoveredKeyInfo {
                    rel: "NC".into(),
                    attrs: vec!["k0".into(), "k1".into()],
                    g3_min: 0.02734375,
                    g3_max: 0.0625,
                    covered: 230,
                }],
                elapsed_us: 4321,
            },
            Response::Discovered {
                id: 14,
                fds: vec![],
                keys: vec![],
                elapsed_us: 2,
            },
            Response::Patched {
                id: 11,
                name: "νictim".into(),
                tuples: 9,
                inserted: vec![4, 7],
            },
            Response::Patched {
                id: 12,
                name: "e".into(),
                tuples: 0,
                inserted: vec![],
            },
            Response::ShuttingDown { id: 5 },
            Response::Error {
                id: 6,
                code: ErrorCode::Overloaded,
                message: "queue full\n(2 slots)".into(),
            },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn decode_distinguishes_syntax_from_shape() {
        assert!(matches!(
            Request::decode(b"{nope"),
            Err(DecodeError::Syntax(_))
        ));
        assert!(matches!(
            Request::decode(b"{\"id\":1,\"kind\":\"dance\"}"),
            Err(DecodeError::Shape(_))
        ));
        assert!(matches!(
            Request::decode(b"{\"kind\":\"list\"}"),
            Err(DecodeError::Shape(_)) // id missing
        ));
    }

    /// 2^53 + 1 parses to the `f64` 2^53, so an id at or above 2^53 could
    /// not be echoed verbatim: it is rejected, not rounded.
    #[test]
    fn id_from_2_pow_53_is_a_shape_error() {
        for payload in [
            &b"{\"id\":9007199254740993,\"kind\":\"list\"}"[..],
            b"{\"id\":9007199254740992,\"kind\":\"list\"}",
        ] {
            assert!(matches!(
                Request::decode(payload),
                Err(DecodeError::Shape(_))
            ));
        }
        assert_eq!(
            Request::decode(b"{\"id\":9007199254740991,\"kind\":\"list\"}").unwrap(),
            Request::List {
                id: 9_007_199_254_740_991
            }
        );
    }

    #[test]
    fn compare_defaults_algo_to_signature() {
        let req =
            Request::decode(b"{\"id\":1,\"kind\":\"compare\",\"left\":\"a\",\"right\":\"b\"}")
                .unwrap();
        assert!(matches!(
            req,
            Request::Compare {
                algo: Algo::Signature,
                lambda: None,
                budget_ms: None,
                ..
            }
        ));
    }

    #[test]
    fn core_error_mapping() {
        use ic_core::score::ConfigError;
        let e = ic_core::Error::Config(ConfigError::LambdaOutOfRange(2.0));
        assert_eq!(ErrorCode::from_core(&e), ErrorCode::Config);
        let e = ic_core::Error::Budget {
            budget: None,
            elapsed: std::time::Duration::ZERO,
        };
        assert_eq!(ErrorCode::from_core(&e), ErrorCode::Budget);
        let e = ic_core::Error::SchemaMismatch {
            expected: 1,
            found: 2,
        };
        assert_eq!(ErrorCode::from_core(&e), ErrorCode::SchemaMismatch);
        let e = ic_core::Error::UnknownName {
            kind: "relation",
            name: "Nope".into(),
        };
        assert_eq!(ErrorCode::from_core(&e), ErrorCode::BadRequest);
    }
}
