//! A tiny blocking client for the wire protocol — used by the tests, the
//! `serve_demo` example, and the throughput bench; also the reference for
//! writing clients in other languages.
//!
//! Construction goes through the builder: [`Client::connect`] names the
//! server, options chain, [`ClientBuilder::build`] dials. [`Client::new`]
//! is the no-options shorthand.
//!
//! ```no_run
//! # use ic_serve::Client;
//! # use std::time::Duration;
//! let mut client = Client::connect("127.0.0.1:7878")
//!     .deadline(Duration::from_millis(250))
//!     .pipeline_depth(32)
//!     .build()?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Two usage modes:
//!
//! * **Sequential** — [`Client::call`] and the typed wrappers send one
//!   request and block for its response.
//! * **Pipelined** — [`Client::send`] writes a request and returns its id
//!   without waiting; [`Client::recv`] blocks for the *next* response on
//!   the wire, whichever request it answers. The server completes
//!   responses out of order, so callers match responses to ids themselves (every [`Response`] echoes one). Keeping several
//!   requests in flight on one connection hides round-trip and queueing
//!   latency. A [`pipeline_depth`](ClientBuilder::pipeline_depth) bounds
//!   how many: at the cap, `send` first takes one response off the wire
//!   (parked for the next `recv`), so a loop that only sends cannot
//!   overrun the server's per-connection write buffer.
//!
//! Server-side typed error payloads become [`ClientError::Server`], so
//! callers can match on the [`ErrorCode`].

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::proto::{
    Algo, CompareScores, DecodeError, DiscoveredFdInfo, DiscoveredKeyInfo, ErrorCode, InstanceInfo,
    PatchOp, Request, Response, SearchResults, ServerStats,
};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server violated the framing protocol.
    Frame(FrameError),
    /// The server sent an undecodable or unexpected response.
    Protocol(String),
    /// The server answered with a typed error payload.
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

impl ClientError {
    /// The server-side error code, if this is a typed server error.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// Options for [`Client::compare`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompareOptions {
    /// λ penalty override (`None` = server default).
    pub lambda: Option<f64>,
    /// Per-request deadline in milliseconds (`None` = server default).
    pub budget_ms: Option<u64>,
}

/// Options for [`Client::discover`]. `None` fields fall back to the
/// server's discovery defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscoverOptions {
    /// Violation-ratio gate in `[0, 1)`.
    pub epsilon: Option<f64>,
    /// Maximum determinant/key width.
    pub max_lhs: Option<u64>,
    /// Support floor for reported constraints.
    pub min_support: Option<u64>,
    /// Per-request deadline in milliseconds (`None` = client deadline,
    /// then server default).
    pub budget_ms: Option<u64>,
}

/// What [`Client::discover`] returns: the discovered constraints with
/// schema references resolved to names, plus server-side wall-clock.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryResults {
    /// Minimal approximate FDs within the gate.
    pub fds: Vec<DiscoveredFdInfo>,
    /// Minimal approximate keys within the gate.
    pub keys: Vec<DiscoveredKeyInfo>,
    /// Server-side wall-clock for the discovery, microseconds.
    pub elapsed_us: u64,
}

/// Configures and dials a [`Client`] connection.
///
/// Made by [`Client::connect`]; the address is resolved up front, option
/// setters chain, and [`build`](Self::build) performs the actual dial.
#[derive(Debug)]
pub struct ClientBuilder {
    addrs: io::Result<Vec<SocketAddr>>,
    deadline: Option<Duration>,
    pipeline_depth: Option<usize>,
}

impl ClientBuilder {
    /// Default per-request deadline, applied as `budget_ms` to
    /// [`compare`](Client::compare) / [`search`](Client::search) calls
    /// whose [`CompareOptions::budget_ms`] is `None`. Sub-millisecond
    /// deadlines round up to 1ms (a 0 budget would mean "server
    /// default" on the wire).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps how many pipelined requests may be in flight at once. When
    /// [`send`](Client::send) is called at the cap it first reads one
    /// response off the wire and parks it for the next
    /// [`recv`](Client::recv). Depth 0 is treated as 1.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = Some(depth.max(1));
        self
    }

    /// Dials the server and returns the connected client.
    pub fn build(self) -> io::Result<Client> {
        let addrs = self.addrs?;
        let stream = TcpStream::connect(&addrs[..])?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: FrameReader::new(stream),
            next_id: 1,
            deadline: self.deadline,
            pipeline_depth: self.pipeline_depth,
            inflight: 0,
            parked: VecDeque::new(),
        })
    }
}

/// A blocking connection to an `ic-serve` server.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    next_id: u64,
    deadline: Option<Duration>,
    pipeline_depth: Option<usize>,
    inflight: usize,
    parked: VecDeque<Response>,
}

impl Client {
    /// Starts building a connection to `addr`; chain options and call
    /// [`ClientBuilder::build`] to dial. Address resolution happens here,
    /// but any resolution error is only surfaced by `build`.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientBuilder {
        ClientBuilder {
            addrs: addr
                .to_socket_addrs()
                .map(|it| it.collect::<Vec<_>>())
                .and_then(|v| {
                    if v.is_empty() {
                        Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "address resolved to no socket addresses",
                        ))
                    } else {
                        Ok(v)
                    }
                }),
            deadline: None,
            pipeline_depth: None,
        }
    }

    /// Connects with default options — shorthand for
    /// `Client::connect(addr).build()`.
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect(addr).build()
    }

    /// Sends `req` (overriding its id with a fresh one) and blocks for the
    /// response carrying that id. The raw protocol-level call; the typed
    /// wrappers below are usually more convenient.
    ///
    /// Responses to other ids (from interleaved [`send`](Self::send)s) are
    /// skipped and **dropped** — don't mix `call` with outstanding
    /// pipelined requests you still care about.
    pub fn call(&mut self, req: Request) -> Result<Response, ClientError> {
        let id = self.send(req)?;
        loop {
            let resp = self.recv()?;
            if resp.id() == id {
                return Ok(resp);
            }
        }
    }

    /// Pipelined mode: writes `req` (overriding its id with a fresh one)
    /// and returns that id immediately, without waiting for the response.
    /// Pair with [`recv`](Self::recv) and match ids yourself; any number
    /// of requests may be in flight on one connection — up to the
    /// [`pipeline_depth`](ClientBuilder::pipeline_depth), if one was set,
    /// beyond which this call first drains one response into the parked
    /// queue.
    pub fn send(&mut self, mut req: Request) -> Result<u64, ClientError> {
        if let Some(depth) = self.pipeline_depth {
            while self.inflight >= depth {
                let resp = self.recv_wire()?;
                self.parked.push_back(resp);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        set_id(&mut req, id);
        write_frame(&mut self.writer, &req.encode())?;
        self.inflight += 1;
        Ok(id)
    }

    /// Pipelined mode: blocks for the next response on the wire — for
    /// *any* in-flight id. Responses arrive in completion order, not send
    /// order. Responses parked by a
    /// depth-capped [`send`](Self::send) are returned first.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if let Some(resp) = self.parked.pop_front() {
            return Ok(resp);
        }
        self.recv_wire()
    }

    fn recv_wire(&mut self) -> Result<Response, ClientError> {
        let payload = self.reader.next_frame()?;
        self.inflight = self.inflight.saturating_sub(1);
        Ok(Response::decode(&payload)?)
    }

    fn budget(&self, opts: &CompareOptions) -> Option<u64> {
        opts.budget_ms
            .or_else(|| self.deadline.map(|d| (d.as_millis() as u64).max(1)))
    }

    /// Loads a CSV directory into the server catalog under `name`;
    /// returns the number of tuples loaded.
    pub fn load(&mut self, name: &str, dir: &str) -> Result<u64, ClientError> {
        match self.call(Request::Load {
            id: 0,
            name: name.into(),
            dir: dir.into(),
        })? {
            Response::Loaded { tuples, .. } => Ok(tuples),
            other => Err(unexpected(other)),
        }
    }

    /// Lists the catalog.
    pub fn list(&mut self) -> Result<Vec<InstanceInfo>, ClientError> {
        match self.call(Request::List { id: 0 })? {
            Response::Listing { instances, .. } => Ok(instances),
            other => Err(unexpected(other)),
        }
    }

    /// Compares two catalog instances with `algo`.
    pub fn compare(
        &mut self,
        left: &str,
        right: &str,
        algo: Algo,
        opts: CompareOptions,
    ) -> Result<CompareScores, ClientError> {
        let budget_ms = self.budget(&opts);
        match self.call(Request::Compare {
            id: 0,
            left: left.into(),
            right: right.into(),
            algo,
            lambda: opts.lambda,
            budget_ms,
        })? {
            Response::Compared { scores, .. } => Ok(scores),
            other => Err(unexpected(other)),
        }
    }

    /// Ranks the catalog against the instance named `query`, returning at
    /// most `k` hits ordered by `(score desc, name asc)`. Hit scores are
    /// bit-identical to unbudgeted [`compare`](Self::compare) calls on the
    /// same pairs; the prefilter only decides which entries get scored.
    pub fn search(
        &mut self,
        query: &str,
        k: u64,
        opts: CompareOptions,
    ) -> Result<SearchResults, ClientError> {
        let budget_ms = self.budget(&opts);
        match self.call(Request::Search {
            id: 0,
            query: query.into(),
            k,
            lambda: opts.lambda,
            budget_ms,
        })? {
            Response::Searched { results, .. } => Ok(results),
            other => Err(unexpected(other)),
        }
    }

    /// Discovers approximate keys and FDs on the catalog instance `name`.
    /// `None` options fall back to the server's discovery defaults; the
    /// client-level [`deadline`](ClientBuilder::deadline) applies when
    /// `opts.budget_ms` is `None`, exactly as for `compare`/`search`.
    pub fn discover(
        &mut self,
        name: &str,
        opts: DiscoverOptions,
    ) -> Result<DiscoveryResults, ClientError> {
        let budget_ms = opts
            .budget_ms
            .or_else(|| self.deadline.map(|d| (d.as_millis() as u64).max(1)));
        match self.call(Request::Discover {
            id: 0,
            name: name.into(),
            epsilon: opts.epsilon,
            max_lhs: opts.max_lhs,
            min_support: opts.min_support,
            budget_ms,
        })? {
            Response::Discovered {
                fds,
                keys,
                elapsed_us,
                ..
            } => Ok(DiscoveryResults {
                fds,
                keys,
                elapsed_us,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Applies a delta to the catalog instance `name` and returns
    /// `(tuples_after, inserted_tuple_ids)`. The patch is atomic: either
    /// every op applies (publishing a new catalog version) or none do.
    pub fn patch(&mut self, name: &str, ops: Vec<PatchOp>) -> Result<(u64, Vec<u64>), ClientError> {
        match self.call(Request::Patch {
            id: 0,
            name: name.into(),
            ops,
        })? {
            Response::Patched {
                tuples, inserted, ..
            } => Ok((tuples, inserted)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches server statistics.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(Request::Stats { id: 0 })? {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to shut down gracefully. The server acknowledges,
    /// drains in-flight work, and closes; this connection is done.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(Request::Shutdown { id: 0 })? {
            Response::ShuttingDown { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn set_id(req: &mut Request, new_id: u64) {
    match req {
        Request::Load { id, .. }
        | Request::List { id }
        | Request::Compare { id, .. }
        | Request::Search { id, .. }
        | Request::Discover { id, .. }
        | Request::Patch { id, .. }
        | Request::Stats { id }
        | Request::Shutdown { id } => *id = new_id,
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message, .. } => ClientError::Server { code, message },
        other => ClientError::Protocol(format!("unexpected response kind: {other:?}")),
    }
}
