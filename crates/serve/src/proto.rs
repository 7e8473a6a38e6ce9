//! Typed wire protocol: request/response payloads and their JSON mapping.
//!
//! Every request carries a client-chosen `id`, echoed verbatim in the
//! response so clients can correlate replies (the server may interleave
//! responses from different connections, never within one). Encoding is
//! total; decoding distinguishes *syntax* errors (not JSON — the peer is
//! broken, close the connection) from *shape* errors (valid JSON that is
//! not a known message — answer `bad_request` and keep the connection).
//!
//! The mapping is pinned by an `ic-testkit` property: `decode(encode(m)) ==
//! m` for random messages including strings with newlines, quotes, and
//! non-ASCII (see `tests/wire_props.rs`).

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

impl Algo {
    fn as_str(self) -> &'static str {
        match self {
            Algo::Signature => "signature",
            Algo::Exact => "exact",
            Algo::Both => "both",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "signature" => Some(Algo::Signature),
            "exact" => Some(Algo::Exact),
            "both" => Some(Algo::Both),
            _ => None,
        }
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

impl PatchValue {
    fn to_json(&self) -> Json {
        match self {
            PatchValue::Const(s) => Json::Str(s.clone()),
            PatchValue::FreshNull => Json::Null,
            PatchValue::Null(n) => Json::obj(vec![("null", Json::Num(*n as f64))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Str(s) => Ok(PatchValue::Const(s.clone())),
            Json::Null => Ok(PatchValue::FreshNull),
            obj @ Json::Obj(_) => Ok(PatchValue::Null(
                obj.get("null")
                    .and_then(Json::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or(DecodeError::Shape("null reference not a u32"))?,
            )),
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

impl AttrRef {
    fn to_json(&self) -> Json {
        match self {
            AttrRef::Index(i) => Json::Num(*i as f64),
            AttrRef::Name(n) => Json::Str(n.clone()),
        }
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Str(s) => Ok(AttrRef::Name(s.clone())),
            n @ Json::Num(_) => Ok(AttrRef::Index(
                n.as_u64()
                    .and_then(|i| u16::try_from(i).ok())
                    .ok_or(DecodeError::Shape("attr index not a u16"))?,
            )),
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

impl PatchOp {
    fn to_json(&self) -> Json {
        match self {
            PatchOp::Insert { rel, values } => Json::obj(vec![
                ("op", Json::Str("insert".into())),
                ("rel", Json::Str(rel.clone())),
                (
                    "values",
                    Json::Arr(values.iter().map(PatchValue::to_json).collect()),
                ),
            ]),
            PatchOp::Delete { tuple } => Json::obj(vec![
                ("op", Json::Str("delete".into())),
                ("tuple", Json::Num(*tuple as f64)),
            ]),
            PatchOp::Modify { tuple, attr, value } => Json::obj(vec![
                ("op", Json::Str("modify".into())),
                ("tuple", Json::Num(*tuple as f64)),
                ("attr", attr.to_json()),
                ("value", value.to_json()),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        match req_str(v, "op")? {
            "insert" => {
                let items = v
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or(DecodeError::Shape("missing values array"))?;
                Ok(PatchOp::Insert {
                    rel: req_str(v, "rel")?.to_string(),
                    values: items
                        .iter()
                        .map(PatchValue::from_json)
                        .collect::<Result<_, _>>()?,
                })
            }
            "delete" => Ok(PatchOp::Delete {
                tuple: req_u32(v, "tuple")?,
            }),
            "modify" => Ok(PatchOp::Modify {
                tuple: req_u32(v, "tuple")?,
                attr: AttrRef::from_json(v.get("attr").ok_or(DecodeError::Shape("missing attr"))?)?,
                value: PatchValue::from_json(
                    v.get("value").ok_or(DecodeError::Shape("missing value"))?,
                )?,
            }),
            _ => Err(DecodeError::Shape("unknown patch op")),
        }
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

    fn to_json(&self) -> Json {
        match self {
            Request::Load { id, name, dir } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("load".into())),
                ("name", Json::Str(name.clone())),
                ("dir", Json::Str(dir.clone())),
            ]),
            Request::List { id } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("list".into())),
            ]),
            Request::Compare {
                id,
                left,
                right,
                algo,
                lambda,
                budget_ms,
            } => {
                let mut members = vec![
                    ("id", Json::Num(*id as f64)),
                    ("kind", Json::Str("compare".into())),
                    ("left", Json::Str(left.clone())),
                    ("right", Json::Str(right.clone())),
                    ("algo", Json::Str(algo.as_str().into())),
                ];
                if let Some(l) = lambda {
                    members.push(("lambda", Json::Num(*l)));
                }
                if let Some(b) = budget_ms {
                    members.push(("budget_ms", Json::Num(*b as f64)));
                }
                Json::obj(members)
            }
            Request::Search {
                id,
                query,
                k,
                lambda,
                budget_ms,
            } => {
                let mut members = vec![
                    ("id", Json::Num(*id as f64)),
                    ("kind", Json::Str("search".into())),
                    ("query", Json::Str(query.clone())),
                    ("k", Json::Num(*k as f64)),
                ];
                if let Some(l) = lambda {
                    members.push(("lambda", Json::Num(*l)));
                }
                if let Some(b) = budget_ms {
                    members.push(("budget_ms", Json::Num(*b as f64)));
                }
                Json::obj(members)
            }
            Request::Discover {
                id,
                name,
                epsilon,
                max_lhs,
                min_support,
                budget_ms,
            } => {
                let mut members = vec![
                    ("id", Json::Num(*id as f64)),
                    ("kind", Json::Str("discover".into())),
                    ("name", Json::Str(name.clone())),
                ];
                if let Some(e) = epsilon {
                    members.push(("epsilon", Json::Num(*e)));
                }
                if let Some(m) = max_lhs {
                    members.push(("max_lhs", Json::Num(*m as f64)));
                }
                if let Some(s) = min_support {
                    members.push(("min_support", Json::Num(*s as f64)));
                }
                if let Some(b) = budget_ms {
                    members.push(("budget_ms", Json::Num(*b as f64)));
                }
                Json::obj(members)
            }
            Request::Patch { id, name, ops } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("patch".into())),
                ("name", Json::Str(name.clone())),
                ("ops", Json::Arr(ops.iter().map(PatchOp::to_json).collect())),
            ]),
            Request::Stats { id } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("stats".into())),
            ]),
            Request::Shutdown { id } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("shutdown".into())),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        let id = req_u64(v, "id")?;
        let kind = req_str(v, "kind")?;
        match kind {
            "load" => Ok(Request::Load {
                id,
                name: req_str(v, "name")?.to_string(),
                dir: req_str(v, "dir")?.to_string(),
            }),
            "list" => Ok(Request::List { id }),
            "compare" => {
                let algo = match v.get("algo") {
                    None => Algo::Signature,
                    Some(a) => a
                        .as_str()
                        .and_then(Algo::parse)
                        .ok_or(DecodeError::Shape("unknown algo"))?,
                };
                let lambda = match v.get("lambda") {
                    None | Some(Json::Null) => None,
                    Some(l) => Some(
                        l.as_f64()
                            .ok_or(DecodeError::Shape("lambda not a number"))?,
                    ),
                };
                let budget_ms = match v.get("budget_ms") {
                    None | Some(Json::Null) => None,
                    Some(b) => Some(
                        b.as_u64()
                            .ok_or(DecodeError::Shape("budget_ms not a non-negative integer"))?,
                    ),
                };
                Ok(Request::Compare {
                    id,
                    left: req_str(v, "left")?.to_string(),
                    right: req_str(v, "right")?.to_string(),
                    algo,
                    lambda,
                    budget_ms,
                })
            }
            "search" => {
                let lambda = match v.get("lambda") {
                    None | Some(Json::Null) => None,
                    Some(l) => Some(
                        l.as_f64()
                            .ok_or(DecodeError::Shape("lambda not a number"))?,
                    ),
                };
                let budget_ms = match v.get("budget_ms") {
                    None | Some(Json::Null) => None,
                    Some(b) => Some(
                        b.as_u64()
                            .ok_or(DecodeError::Shape("budget_ms not a non-negative integer"))?,
                    ),
                };
                Ok(Request::Search {
                    id,
                    query: req_str(v, "query")?.to_string(),
                    k: req_u64(v, "k")?,
                    lambda,
                    budget_ms,
                })
            }
            "discover" => Ok(Request::Discover {
                id,
                name: req_str(v, "name")?.to_string(),
                epsilon: opt_f64(v, "epsilon")?,
                max_lhs: opt_u64(v, "max_lhs")?,
                min_support: opt_u64(v, "min_support")?,
                budget_ms: opt_u64(v, "budget_ms")?,
            }),
            "patch" => {
                let items = v
                    .get("ops")
                    .and_then(Json::as_arr)
                    .ok_or(DecodeError::Shape("missing ops array"))?;
                Ok(Request::Patch {
                    id,
                    name: req_str(v, "name")?.to_string(),
                    ops: items
                        .iter()
                        .map(PatchOp::from_json)
                        .collect::<Result<_, _>>()?,
                })
            }
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            _ => Err(DecodeError::Shape("unknown request kind")),
        }
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

impl ErrorCode {
    /// The stable wire string of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownInstance => "unknown_instance",
            ErrorCode::Config => "config",
            ErrorCode::Budget => "budget",
            ErrorCode::SchemaMismatch => "schema_mismatch",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Load => "load",
            ErrorCode::Delta => "delta",
            ErrorCode::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "malformed" => ErrorCode::Malformed,
            "bad_frame" => ErrorCode::BadFrame,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_instance" => ErrorCode::UnknownInstance,
            "config" => ErrorCode::Config,
            "budget" => ErrorCode::Budget,
            "schema_mismatch" => ErrorCode::SchemaMismatch,
            "overloaded" => ErrorCode::Overloaded,
            "shutting_down" => ErrorCode::ShuttingDown,
            "load" => ErrorCode::Load,
            "delta" => ErrorCode::Delta,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
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

/// The payload of a `searched` response: ranked hits plus how much of the
/// catalog the prefilter let through to full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResults {
    /// Hits ordered by `(score desc, name asc)`, at most `k`.
    pub hits: Vec<SearchResult>,
    /// Entries that received a full comparison.
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

    fn to_json(&self) -> Json {
        match self {
            Response::Loaded { id, name, tuples } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("loaded".into())),
                ("name", Json::Str(name.clone())),
                ("tuples", Json::Num(*tuples as f64)),
            ]),
            Response::Listing { id, instances } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("listing".into())),
                (
                    "instances",
                    Json::Arr(
                        instances
                            .iter()
                            .map(|i| {
                                Json::obj(vec![
                                    ("name", Json::Str(i.name.clone())),
                                    ("tuples", Json::Num(i.tuples as f64)),
                                    ("null_cells", Json::Num(i.null_cells as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Compared { id, scores } => {
                let mut members = vec![
                    ("id", Json::Num(*id as f64)),
                    ("kind", Json::Str("compared".into())),
                ];
                if let Some(s) = scores.signature {
                    members.push(("signature", Json::Num(s)));
                }
                if let Some(e) = scores.exact {
                    members.push(("exact", Json::Num(e)));
                }
                if let Some(p) = scores.pairs {
                    members.push(("pairs", Json::Num(p as f64)));
                }
                if let Some(o) = scores.optimal {
                    members.push(("optimal", Json::Bool(o)));
                }
                members.push(("elapsed_us", Json::Num(scores.elapsed_us as f64)));
                Json::obj(members)
            }
            Response::Searched { id, results } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("searched".into())),
                (
                    "hits",
                    Json::Arr(
                        results
                            .hits
                            .iter()
                            .map(|h| {
                                Json::obj(vec![
                                    ("name", Json::Str(h.name.clone())),
                                    ("score", Json::Num(h.score)),
                                    ("pairs", Json::Num(h.pairs as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("compared", Json::Num(results.compared as f64)),
                ("total", Json::Num(results.total as f64)),
                ("elapsed_us", Json::Num(results.elapsed_us as f64)),
            ]),
            Response::Discovered {
                id,
                fds,
                keys,
                elapsed_us,
            } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("discovered".into())),
                (
                    "fds",
                    Json::Arr(
                        fds.iter()
                            .map(|fd| {
                                Json::obj(vec![
                                    ("rel", Json::Str(fd.rel.clone())),
                                    (
                                        "lhs",
                                        Json::Arr(
                                            fd.lhs.iter().map(|a| Json::Str(a.clone())).collect(),
                                        ),
                                    ),
                                    ("rhs", Json::Str(fd.rhs.clone())),
                                    ("g3_min", Json::Num(fd.g3_min)),
                                    ("g3_max", Json::Num(fd.g3_max)),
                                    ("support", Json::Num(fd.support as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "keys",
                    Json::Arr(
                        keys.iter()
                            .map(|k| {
                                Json::obj(vec![
                                    ("rel", Json::Str(k.rel.clone())),
                                    (
                                        "attrs",
                                        Json::Arr(
                                            k.attrs.iter().map(|a| Json::Str(a.clone())).collect(),
                                        ),
                                    ),
                                    ("g3_min", Json::Num(k.g3_min)),
                                    ("g3_max", Json::Num(k.g3_max)),
                                    ("covered", Json::Num(k.covered as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("elapsed_us", Json::Num(*elapsed_us as f64)),
            ]),
            Response::Patched {
                id,
                name,
                tuples,
                inserted,
            } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("patched".into())),
                ("name", Json::Str(name.clone())),
                ("tuples", Json::Num(*tuples as f64)),
                (
                    "inserted",
                    Json::Arr(inserted.iter().map(|t| Json::Num(*t as f64)).collect()),
                ),
            ]),
            Response::Stats { id, stats } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("stats".into())),
                ("requests", Json::Num(stats.requests as f64)),
                ("completed", Json::Num(stats.completed as f64)),
                ("overloaded", Json::Num(stats.overloaded as f64)),
                ("errors", Json::Num(stats.errors as f64)),
                ("catalog_version", Json::Num(stats.catalog_version as f64)),
                (
                    "spans",
                    Json::Arr(
                        stats
                            .spans
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("label", Json::Str(s.label.clone())),
                                    ("reports", Json::Num(s.reports as f64)),
                                    ("wall_us", Json::Num(s.wall_us as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::ShuttingDown { id } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("shutting_down".into())),
            ]),
            Response::Error { id, code, message } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("kind", Json::Str("error".into())),
                ("code", Json::Str(code.as_str().into())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        let id = req_u64(v, "id")?;
        let kind = req_str(v, "kind")?;
        match kind {
            "loaded" => Ok(Response::Loaded {
                id,
                name: req_str(v, "name")?.to_string(),
                tuples: req_u64(v, "tuples")?,
            }),
            "listing" => {
                let items = v
                    .get("instances")
                    .and_then(Json::as_arr)
                    .ok_or(DecodeError::Shape("missing instances array"))?;
                let mut instances = Vec::with_capacity(items.len());
                for item in items {
                    instances.push(InstanceInfo {
                        name: req_str(item, "name")?.to_string(),
                        tuples: req_u64(item, "tuples")?,
                        null_cells: req_u64(item, "null_cells")?,
                    });
                }
                Ok(Response::Listing { id, instances })
            }
            "compared" => Ok(Response::Compared {
                id,
                scores: CompareScores {
                    signature: opt_f64(v, "signature")?,
                    exact: opt_f64(v, "exact")?,
                    pairs: match v.get("pairs") {
                        None | Some(Json::Null) => None,
                        Some(p) => Some(
                            p.as_u64()
                                .ok_or(DecodeError::Shape("pairs not an integer"))?,
                        ),
                    },
                    optimal: match v.get("optimal") {
                        None | Some(Json::Null) => None,
                        Some(o) => Some(
                            o.as_bool()
                                .ok_or(DecodeError::Shape("optimal not a boolean"))?,
                        ),
                    },
                    elapsed_us: req_u64(v, "elapsed_us")?,
                },
            }),
            "searched" => {
                let items = v
                    .get("hits")
                    .and_then(Json::as_arr)
                    .ok_or(DecodeError::Shape("missing hits array"))?;
                let mut hits = Vec::with_capacity(items.len());
                for item in items {
                    hits.push(SearchResult {
                        name: req_str(item, "name")?.to_string(),
                        score: item
                            .get("score")
                            .and_then(Json::as_f64)
                            .ok_or(DecodeError::Shape("missing or non-number score"))?,
                        pairs: req_u64(item, "pairs")?,
                    });
                }
                Ok(Response::Searched {
                    id,
                    results: SearchResults {
                        hits,
                        compared: req_u64(v, "compared")?,
                        total: req_u64(v, "total")?,
                        elapsed_us: req_u64(v, "elapsed_us")?,
                    },
                })
            }
            "discovered" => {
                let req_f64 = |v: &Json, key: &'static str| -> Result<f64, DecodeError> {
                    v.get(key)
                        .and_then(Json::as_f64)
                        .ok_or(DecodeError::Shape("missing or non-number field"))
                };
                let str_arr = |v: &Json, key: &'static str| -> Result<Vec<String>, DecodeError> {
                    v.get(key)
                        .and_then(Json::as_arr)
                        .ok_or(DecodeError::Shape("missing attribute array"))?
                        .iter()
                        .map(|a| {
                            a.as_str()
                                .map(str::to_string)
                                .ok_or(DecodeError::Shape("attribute name not a string"))
                        })
                        .collect()
                };
                let fd_items = v
                    .get("fds")
                    .and_then(Json::as_arr)
                    .ok_or(DecodeError::Shape("missing fds array"))?;
                let mut fds = Vec::with_capacity(fd_items.len());
                for item in fd_items {
                    fds.push(DiscoveredFdInfo {
                        rel: req_str(item, "rel")?.to_string(),
                        lhs: str_arr(item, "lhs")?,
                        rhs: req_str(item, "rhs")?.to_string(),
                        g3_min: req_f64(item, "g3_min")?,
                        g3_max: req_f64(item, "g3_max")?,
                        support: req_u64(item, "support")?,
                    });
                }
                let key_items = v
                    .get("keys")
                    .and_then(Json::as_arr)
                    .ok_or(DecodeError::Shape("missing keys array"))?;
                let mut keys = Vec::with_capacity(key_items.len());
                for item in key_items {
                    keys.push(DiscoveredKeyInfo {
                        rel: req_str(item, "rel")?.to_string(),
                        attrs: str_arr(item, "attrs")?,
                        g3_min: req_f64(item, "g3_min")?,
                        g3_max: req_f64(item, "g3_max")?,
                        covered: req_u64(item, "covered")?,
                    });
                }
                Ok(Response::Discovered {
                    id,
                    fds,
                    keys,
                    elapsed_us: req_u64(v, "elapsed_us")?,
                })
            }
            "patched" => {
                let items = v
                    .get("inserted")
                    .and_then(Json::as_arr)
                    .ok_or(DecodeError::Shape("missing inserted array"))?;
                Ok(Response::Patched {
                    id,
                    name: req_str(v, "name")?.to_string(),
                    tuples: req_u64(v, "tuples")?,
                    inserted: items
                        .iter()
                        .map(|t| {
                            t.as_u64()
                                .ok_or(DecodeError::Shape("inserted id not an integer"))
                        })
                        .collect::<Result<_, _>>()?,
                })
            }
            "stats" => {
                let items = v
                    .get("spans")
                    .and_then(Json::as_arr)
                    .ok_or(DecodeError::Shape("missing spans array"))?;
                let mut spans = Vec::with_capacity(items.len());
                for item in items {
                    spans.push(SpanStat {
                        label: req_str(item, "label")?.to_string(),
                        reports: req_u64(item, "reports")?,
                        wall_us: req_u64(item, "wall_us")?,
                    });
                }
                Ok(Response::Stats {
                    id,
                    stats: ServerStats {
                        requests: req_u64(v, "requests")?,
                        completed: req_u64(v, "completed")?,
                        overloaded: req_u64(v, "overloaded")?,
                        errors: req_u64(v, "errors")?,
                        catalog_version: req_u64(v, "catalog_version")?,
                        spans,
                    },
                })
            }
            "shutting_down" => Ok(Response::ShuttingDown { id }),
            "error" => Ok(Response::Error {
                id,
                code: ErrorCode::parse(req_str(v, "code")?)
                    .ok_or(DecodeError::Shape("unknown error code"))?,
                message: req_str(v, "message")?.to_string(),
            }),
            _ => Err(DecodeError::Shape("unknown response kind")),
        }
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

fn req_str<'a>(v: &'a Json, key: &'static str) -> Result<&'a str, DecodeError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or(DecodeError::Shape("missing or non-string field"))
}

fn req_u64(v: &Json, key: &'static str) -> Result<u64, DecodeError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or(DecodeError::Shape("missing or non-integer field"))
}

fn req_u32(v: &Json, key: &'static str) -> Result<u32, DecodeError> {
    req_u64(v, key)?
        .try_into()
        .map_err(|_| DecodeError::Shape("field out of u32 range"))
}

fn opt_f64(v: &Json, key: &'static str) -> Result<Option<f64>, DecodeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => Ok(Some(
            n.as_f64().ok_or(DecodeError::Shape("field not a number"))?,
        )),
    }
}

fn opt_u64(v: &Json, key: &'static str) -> Result<Option<u64>, DecodeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => Ok(Some(
            n.as_u64()
                .ok_or(DecodeError::Shape("field not a non-negative integer"))?,
        )),
    }
}

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
