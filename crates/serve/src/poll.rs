//! A minimal, dependency-free readiness API over Linux `epoll`.
//!
//! The workspace is offline, so this talks to the kernel through direct
//! `extern "C"` declarations of the epoll/eventfd entry points (they live
//! in the C runtime `std` already links — no `libc` crate involved) and
//! owns every descriptor through [`std::os::fd::OwnedFd`].
//!
//! Three pieces:
//!
//! * [`Poller`] — an epoll instance: `add`/`modify`/`delete` register
//!   interest in a descriptor under a caller-chosen `u64` token, and
//!   [`Poller::wait`] blocks (with a timeout) for readiness [`Event`]s.
//!   Registration is **level-triggered**: an event keeps firing while the
//!   condition holds, so a handler that drains partially is never stranded.
//! * [`Interest`] — which readiness directions to watch.
//! * [`WakeFd`] — an `eventfd`-backed wakeup handle other threads use to
//!   interrupt a blocked [`Poller::wait`] (worker completions, shutdown).
//!
//! This module is Linux-only, and so is the [`crate::server`] built on it.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

// Readiness bits (stable Linux UAPI values).
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

// epoll_ctl ops.
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// genuinely differs there), naturally aligned elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Token reserved for the listening socket (connection tokens are
/// `generation << 32 | slot` and never reach this range in practice).
pub const TOKEN_LISTENER: u64 = u64::MAX;

/// Token reserved for the wakeup eventfd.
pub const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Which readiness directions a registration watches. Peer hangups and
/// errors are always reported regardless of interest (kernel semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Fire when the descriptor is readable (or the peer half-closed).
    pub readable: bool,
    /// Fire when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Readable and writable.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Writable only (a draining connection that no longer reads).
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut bits = EPOLLRDHUP;
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable (includes peer half-close — a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup: the connection is unusable regardless of the
    /// other flags.
    pub failed: bool,
}

/// An owned epoll instance.
pub struct Poller {
    epfd: OwnedFd,
    /// Reused kernel-events buffer for [`wait`](Self::wait).
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self {
            // SAFETY: epoll_create1 returned a fresh descriptor we own.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            buf: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, mut ev: Option<EpollEvent>) -> io::Result<()> {
        let ptr = ev
            .as_mut()
            .map(|e| e as *mut EpollEvent)
            .unwrap_or(std::ptr::null_mut());
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, ptr) }).map(drop)
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest.bits(),
                data: token,
            }),
        )
    }

    /// Changes the interest (and token) of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest.bits(),
                data: token,
            }),
        )
    }

    /// Removes `fd` from the instance. (Closing the descriptor does this
    /// implicitly; explicit removal keeps slot reuse race-free.)
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks until readiness or `timeout_ms` (`-1` = forever, `0` = poll)
    /// and appends decoded events to `out`. Returns how many fired.
    /// `EINTR` is reported as zero events, not an error.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            };
        }
        let n = n as usize;
        for ev in &self.buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                failed: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

/// A cross-thread wakeup handle: an `eventfd` registered with the poller.
/// [`wake`](Self::wake) is async-signal-safe-cheap (one 8-byte write) and
/// coalesces — many wakes before a drain still cost one readiness event.
#[derive(Debug)]
pub struct WakeFd {
    fd: OwnedFd,
}

impl WakeFd {
    /// Creates a nonblocking eventfd.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Self {
            // SAFETY: eventfd returned a fresh descriptor we own.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// The descriptor to register with a [`Poller`] (read interest).
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Signals the poller. Never blocks: if the counter is saturated the
    /// wakeup is already pending.
    pub fn wake(&self) {
        let one: u64 = 1;
        // EAGAIN (counter full) means a wake is already pending — fine.
        unsafe { write(self.fd.as_raw_fd(), &one as *const u64 as *const u8, 8) };
    }

    /// Clears pending wakeups so level-triggered polling stops firing.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd.as_raw_fd(), buf.as_mut_ptr(), 8) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn wake_interrupts_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        poller.add(wake.as_raw_fd(), 7, Interest::READ).unwrap();

        let waker = std::sync::Arc::clone(&wake);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
            waker.wake(); // coalesces
        });

        let start = Instant::now();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, 5_000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "woken, not timed out"
        );
        t.join().unwrap();

        // Drained, the level-triggered event stops firing.
        wake.drain();
        events.clear();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readability_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 42, Interest::READ).unwrap();

        // Nothing readable yet.
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        events.clear();
        assert_eq!(poller.wait(&mut events, 2_000).unwrap(), 1);
        assert!(events[0].readable && events[0].token == 42);

        // Write interest on an idle socket fires immediately (buffer empty).
        poller
            .modify(server.as_raw_fd(), 43, Interest::READ_WRITE)
            .unwrap();
        events.clear();
        assert_eq!(poller.wait(&mut events, 2_000).unwrap(), 1);
        assert!(events[0].writable && events[0].token == 43);

        // Peer close reports readable (EOF) on a read-interest socket.
        poller
            .modify(server.as_raw_fd(), 44, Interest::READ)
            .unwrap();
        drop(client);
        events.clear();
        assert_eq!(poller.wait(&mut events, 2_000).unwrap(), 1);
        assert!(events[0].readable);

        poller.delete(server.as_raw_fd()).unwrap();
    }
}
