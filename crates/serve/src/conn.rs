//! Per-connection state machines and the event-loop driver.
//!
//! One thread owns the listener, every connection, and a [`Poller`]. Each
//! connection is a small state machine: the incremental [`FrameReader`]
//! consumes readable bytes into frames, decoded requests are classified
//! by [`crate::server::classify`], and responses accumulate in a per-connection write buffer flushed by
//! writable readiness.
//!
//! ## Pipelining and out-of-order completion
//!
//! A readable connection is drained frame by frame; every `compare`/
//! `search` frame is admitted to the worker queue *immediately* — the loop
//! never waits for one response before reading the next request. A worker
//! finishes by posting `(connection token, response)` on a channel and
//! waking the poller; the driver routes it back by token. Responses
//! therefore complete in whatever order the workers finish, and clients
//! match them by the echoed `id` (the protocol has always carried it).
//!
//! ## Tokens and slot reuse
//!
//! Connections live in a slab; the epoll token is `generation << 32 |
//! slot`, and the generation bumps on close. A completion (or a stale
//! kernel event) carrying an old token fails the generation check and is
//! dropped instead of reaching whichever connection reused the slot.
//!
//! ## Backpressure
//!
//! Buffered unsent bytes are capped by
//! [`ServerConfig::max_write_buffer`](crate::server::ServerConfig): a peer
//! that keeps sending requests but stops reading responses crosses the cap
//! and is closed (counted as a backpressure disconnect), freeing its
//! memory. Well-behaved connections never notice.
//!
//! ## Drain
//!
//! On shutdown the listener is deregistered, reads stop, and the loop
//! stays alive until every admitted job has been routed and flushed —
//! then it gives stalled peers
//! [`drain_grace`](crate::server::ServerConfig::drain_grace) to take
//! delivery before force-closing them. No admitted request is dropped.

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::lockutil::lock_recover;
use crate::poll::{Event, Interest, Poller, WakeFd, TOKEN_LISTENER, TOKEN_WAKE};
use crate::proto::{ErrorCode, Request, Response};
use crate::server::{
    classify, decode_error_response, overloaded_response, shutting_down_response, too_large,
    Action, Job, ReplyTo, Shared,
};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

fn token_for(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// Why a connection was closed (maps onto the [`ConnCounters`]
/// fields exposed through `ServerHandle::conn_stats`).
///
/// [`ConnCounters`]: crate::server::ConnCounters
enum Close {
    Peer,
    Protocol,
    Backpressure,
    Drained,
    Idle,
}

/// One connection's state: the framing reader (which owns the socket),
/// the outbound buffer, and its pipelining bookkeeping.
struct Conn {
    reader: FrameReader<TcpStream>,
    /// Encoded, unsent response bytes; `wpos` marks the flushed prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Admitted jobs whose responses have not yet been routed back.
    inflight: usize,
    /// No further reads: flush what is queued (and wait out `inflight`),
    /// then close.
    draining: bool,
    /// Interest currently registered with the poller (dedupes `epoll_ctl`).
    interest: Interest,
    /// When this connection last showed frame activity (readable bytes or
    /// a routed completion); the idle sweep closes quiet connections past
    /// [`ServerConfig::idle_timeout`](crate::server::ServerConfig).
    last_activity: Instant,
}

impl Conn {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Appends one encoded response frame to the write buffer. `false` if
    /// the response could not be framed (payload over the protocol bound)
    /// — the connection cannot be answered coherently and must close.
    fn queue_response(&mut self, resp: &Response) -> bool {
        write_frame(&mut self.wbuf, &resp.encode()).is_ok()
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            // `&TcpStream` implements `Write`; going through the reader's
            // reference avoids a second descriptor from `try_clone`.
            let mut sock: &TcpStream = self.reader.get_ref();
            match sock.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 32 * 1024 {
            // Reclaim the flushed prefix so a long-lived connection's
            // buffer tracks its *pending* bytes, not its history.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }
}

/// Runs the event loop until shutdown completes. Spawned on the
/// `ic-serve-loop` thread by `Server::start`; the poller arrives with the
/// listener and wake fd already registered (so registration errors
/// surfaced at startup).
pub(crate) fn run_event_loop(
    shared: &Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    wake: &Arc<WakeFd>,
    completions_tx: Sender<(u64, Response)>,
    completions_rx: Receiver<(u64, Response)>,
) {
    let queue = lock_recover(&shared.queue).clone();
    Driver {
        shared,
        poller,
        listener,
        wake,
        ctx: completions_tx,
        crx: completions_rx,
        queue,
        slots: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        inflight_total: 0,
        draining: false,
    }
    .run();
}

struct Driver<'a> {
    shared: &'a Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    wake: &'a Arc<WakeFd>,
    /// Cloned into every admitted job's [`ReplyTo`].
    ctx: Sender<(u64, Response)>,
    crx: Receiver<(u64, Response)>,
    /// The admission queue; `None` only if the server was already
    /// stopping when the loop started.
    queue: Option<SyncSender<Job>>,
    /// Connection slab + generation counters + free list.
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Jobs admitted but not yet routed back, across all connections
    /// (including ones closed while their jobs were in flight).
    inflight_total: usize,
    draining: bool,
}

impl Driver<'_> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut flush_deadline: Option<Instant> = None;
        loop {
            let timeout = self.shared.cfg.poll_interval.as_millis().clamp(1, 1000) as i32;
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // The poller itself failed — unrecoverable; drop every
                // connection rather than spin.
                return;
            }
            for ev in &events {
                self.dispatch(*ev);
            }
            self.route_completions();
            if !self.draining {
                self.sweep_idle();
            }

            if self.shared.stopping() && !self.draining {
                self.begin_drain();
            }
            if self.draining {
                self.sweep_finished();
                if self.inflight_total == 0 {
                    if self.slots.iter().all(Option::is_none) {
                        return;
                    }
                    // Everything is computed and queued; what remains is
                    // peers slow to take delivery. Give them the grace
                    // window, then force-close.
                    match flush_deadline {
                        None => {
                            flush_deadline = Some(Instant::now() + self.shared.cfg.drain_grace);
                        }
                        Some(deadline) if Instant::now() >= deadline => {
                            for idx in 0..self.slots.len() {
                                if self.slots[idx].is_some() {
                                    self.close(idx, Close::Drained);
                                }
                            }
                            return;
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev.token {
            TOKEN_WAKE => self.wake.drain(),
            TOKEN_LISTENER => self.accept_ready(),
            token => {
                let idx = (token & u64::from(u32::MAX)) as usize;
                let gen = (token >> 32) as u32;
                // Stale tokens (slot already closed and maybe reused) are
                // dropped by the generation check.
                if idx >= self.slots.len() || self.gens[idx] != gen || self.slots[idx].is_none() {
                    return;
                }
                if ev.failed {
                    self.close(idx, Close::Peer);
                    return;
                }
                if ev.readable {
                    if let Some(why) = self.readable(idx) {
                        self.close(idx, why);
                        return;
                    }
                }
                self.settle(idx);
            }
        }
    }

    /// Accepts until the listener would block. New connections during
    /// drain are refused by immediate close.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.draining || self.shared.stopping() {
                        continue; // dropped: refused
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(0);
            self.slots.len() - 1
        });
        let conn = Conn {
            reader: FrameReader::with_max_len(stream, self.shared.cfg.max_frame_len),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            draining: false,
            interest: Interest::READ,
            last_activity: Instant::now(),
        };
        let fd = conn.reader.get_ref().as_raw_fd();
        if self
            .poller
            .add(fd, token_for(idx, self.gens[idx]), Interest::READ)
            .is_err()
        {
            self.free.push(idx);
            return; // conn drops here, closing the socket
        }
        self.shared.conns.accepted.fetch_add(1, Ordering::Relaxed);
        self.slots[idx] = Some(conn);
    }

    /// Drains readable frames from one connection, classifying and
    /// admitting each. Returns a close reason if the connection is done.
    fn readable(&mut self, idx: usize) -> Option<Close> {
        let shared = self.shared;
        let wake = self.wake;
        let tok = token_for(idx, self.gens[idx]);
        let Self {
            slots,
            queue,
            ctx,
            inflight_total,
            ..
        } = self;
        let conn = slots[idx].as_mut()?;
        conn.last_activity = Instant::now();

        loop {
            if conn.draining {
                return None;
            }
            if conn.pending() > shared.cfg.max_write_buffer {
                // The peer is writing requests faster than it reads
                // responses; admitting more would buffer without bound.
                return Some(Close::Backpressure);
            }
            match conn.reader.poll_frame() {
                Ok(None) => return None, // no complete frame buffered
                Ok(Some(payload)) => match Request::decode(&payload) {
                    Err(err) => {
                        // Framing intact, payload undecodable: fail this
                        // request only; the pipeline continues.
                        shared.errors.fetch_add(1, Ordering::Relaxed);
                        if !conn.queue_response(&decode_error_response(&payload, &err)) {
                            return Some(Close::Protocol);
                        }
                    }
                    Ok(req) => match classify(shared, req) {
                        Action::Respond { resp, close } => {
                            if !conn.queue_response(&resp) {
                                return Some(Close::Protocol);
                            }
                            if close {
                                conn.draining = true;
                                return None;
                            }
                        }
                        Action::Admit {
                            id,
                            kind,
                            snapshot,
                            deadline,
                        } => {
                            let Some(q) = queue.as_ref() else {
                                if !conn.queue_response(&shutting_down_response(id)) {
                                    return Some(Close::Protocol);
                                }
                                conn.draining = true;
                                return None;
                            };
                            let job = Job {
                                id,
                                kind,
                                snapshot,
                                deadline,
                                reply: ReplyTo {
                                    token: tok,
                                    tx: ctx.clone(),
                                    wake: Arc::clone(wake),
                                },
                            };
                            match q.try_send(job) {
                                Ok(()) => {
                                    conn.inflight += 1;
                                    *inflight_total += 1;
                                }
                                Err(TrySendError::Full(_)) => {
                                    if !conn.queue_response(&overloaded_response(shared, id)) {
                                        return Some(Close::Protocol);
                                    }
                                }
                                Err(TrySendError::Disconnected(_)) => {
                                    if !conn.queue_response(&shutting_down_response(id)) {
                                        return Some(Close::Protocol);
                                    }
                                    conn.draining = true;
                                    return None;
                                }
                            }
                        }
                    },
                },
                Err(FrameError::TooLarge(n)) => {
                    // Recoverable by design: the reader skips the payload
                    // without buffering it; answer typed and keep going.
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    if !conn.queue_response(&too_large(n)) {
                        return Some(Close::Protocol);
                    }
                }
                Err(FrameError::Closed) | Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {
                    return Some(Close::Peer);
                }
                Err(e) => {
                    // BadHeader / MissingTerminator: no way to find the
                    // next frame boundary. One best-effort typed error,
                    // flush, close.
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    shared.conns.closed_protocol.fetch_add(1, Ordering::Relaxed);
                    let _ = conn.queue_response(&Response::Error {
                        id: 0,
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    });
                    conn.draining = true;
                    return None;
                }
            }
        }
    }

    /// Routes finished jobs back to their connections by token.
    ///
    /// Writev-style flush batching: every completion drained this tick is
    /// *queued* first, and each touched connection is settled exactly once
    /// afterwards — so pipelined responses finishing together leave in one
    /// write syscall instead of one per response. Frames that rode such a
    /// batch behind an earlier frame are counted in
    /// [`ConnStats::coalesced_frames`](crate::server::ConnStats).
    fn route_completions(&mut self) {
        // (slot, frames queued this tick); tiny per tick, linear scan is
        // cheaper than a hash map.
        let mut dirty: Vec<(usize, u64)> = Vec::new();
        while let Ok((token, resp)) = self.crx.try_recv() {
            self.inflight_total -= 1;
            let idx = (token & u64::from(u32::MAX)) as usize;
            let gen = (token >> 32) as u32;
            if idx >= self.slots.len() || self.gens[idx] != gen {
                continue; // connection closed while the job ran
            }
            let Some(conn) = self.slots[idx].as_mut() else {
                continue;
            };
            conn.inflight -= 1;
            conn.last_activity = Instant::now();
            if !conn.queue_response(&resp) {
                // `close` bumps the generation; the slot (if reused later)
                // is settled harmlessly — settle on a free slot is a no-op
                // and nothing registers new connections in this loop.
                self.close(idx, Close::Protocol);
                continue;
            }
            match dirty.iter_mut().find(|(i, _)| *i == idx) {
                Some((_, frames)) => *frames += 1,
                None => dirty.push((idx, 1)),
            }
        }
        for (idx, frames) in dirty {
            if frames > 1 {
                self.shared
                    .conns
                    .coalesced_frames
                    .fetch_add(frames - 1, Ordering::Relaxed);
            }
            self.settle(idx);
        }
    }

    /// Flushes, applies the backpressure cap, closes a finished draining
    /// connection, and re-syncs poller interest.
    fn settle(&mut self, idx: usize) {
        let max_write = self.shared.cfg.max_write_buffer;
        let Some(conn) = self.slots[idx].as_mut() else {
            return;
        };
        let close = match conn.flush() {
            Err(_) => Some(Close::Peer),
            Ok(()) => {
                if conn.pending() > max_write {
                    Some(Close::Backpressure)
                } else if conn.draining && conn.inflight == 0 && conn.pending() == 0 {
                    Some(Close::Drained)
                } else {
                    None
                }
            }
        };
        match close {
            Some(why) => self.close(idx, why),
            None => self.sync_interest(idx),
        }
    }

    /// Registers exactly the interest the connection's state implies:
    /// readable unless draining, writable only while output is pending.
    fn sync_interest(&mut self, idx: usize) {
        let Self {
            slots,
            gens,
            poller,
            ..
        } = self;
        let Some(conn) = slots[idx].as_mut() else {
            return;
        };
        let desired = Interest {
            readable: !conn.draining,
            writable: conn.pending() > 0,
        };
        if desired != conn.interest {
            let fd = conn.reader.get_ref().as_raw_fd();
            if poller
                .modify(fd, token_for(idx, gens[idx]), desired)
                .is_ok()
            {
                conn.interest = desired;
            }
        }
    }

    fn close(&mut self, idx: usize, why: Close) {
        let Some(conn) = self.slots[idx].take() else {
            return;
        };
        let _ = self.poller.delete(conn.reader.get_ref().as_raw_fd());
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        let counters = &self.shared.conns;
        match why {
            Close::Peer => counters.closed_peer.fetch_add(1, Ordering::Relaxed),
            Close::Protocol => counters.closed_protocol.fetch_add(1, Ordering::Relaxed),
            Close::Backpressure => counters.closed_backpressure.fetch_add(1, Ordering::Relaxed),
            Close::Drained => counters.closed_drained.fetch_add(1, Ordering::Relaxed),
            Close::Idle => counters.closed_idle.fetch_add(1, Ordering::Relaxed),
        };
        // Dropping the conn closes the socket. Any in-flight jobs it still
        // has will complete, fail the generation check, and be discarded —
        // `inflight_total` is decremented when they are received, so drain
        // still accounts for them.
        drop(conn);
    }

    /// Enters drain mode: stop accepting, stop reading, flush and close.
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self.poller.delete(self.listener.as_raw_fd());
        for idx in 0..self.slots.len() {
            if let Some(conn) = self.slots[idx].as_mut() {
                conn.draining = true;
            }
            self.sync_interest(idx);
        }
    }

    /// Sheds connections silent past [`idle_timeout`] — never one with
    /// requests in flight or undelivered output, and never during drain
    /// (drain has its own grace window).
    ///
    /// [`idle_timeout`]: crate::server::ServerConfig::idle_timeout
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.shared.cfg.idle_timeout else {
            return;
        };
        for idx in 0..self.slots.len() {
            let idle = matches!(
                self.slots[idx].as_ref(),
                Some(c) if !c.draining
                    && c.inflight == 0
                    && c.pending() == 0
                    && c.last_activity.elapsed() >= timeout
            );
            if idle {
                self.close(idx, Close::Idle);
            }
        }
    }

    /// Closes every draining connection whose work is fully delivered.
    fn sweep_finished(&mut self) {
        for idx in 0..self.slots.len() {
            let done = matches!(
                self.slots[idx].as_ref(),
                Some(c) if c.draining && c.inflight == 0 && c.pending() == 0
            );
            if done {
                self.close(idx, Close::Drained);
            }
        }
    }
}
