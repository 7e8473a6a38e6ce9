//! Torture property suite for the incremental frame reader.
//!
//! The event-loop runtime feeds the reader whatever byte fragments the
//! kernel happens to deliver, so the reader's *observable behavior* — the
//! sequence of accepted frames, recoverable oversized rejections, and the
//! terminal outcome (clean close, truncation, fatal framing violation) —
//! must be a function of the byte stream alone, never of how it was
//! chunked or how many `WouldBlock`s interrupted it.
//!
//! Streams are built from valid frames, oversized frames (over a
//! deliberately tiny 64-byte cap), and garbage; optionally truncated at an
//! arbitrary byte. Each stream is replayed whole, one byte at a time,
//! split at exhaustive two-chunk boundaries, and in random chunk patterns
//! with injected `WouldBlock`s — every replay must produce the identical
//! event sequence. Clean (garbage-free) streams are additionally checked
//! against an independent oracle that predicts the events from the
//! segment list and cut position.

use ic_serve::frame::{write_frame, FrameError, FrameReader};
use ic_testkit::{Gen, Runner};
use rand::RngExt;
use std::io::{self, Cursor, Read};

/// The per-reader payload cap used throughout — small enough that
/// "oversized" frames stay cheap to generate.
const CAP: usize = 64;

/// One observable reader event.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Frame(Vec<u8>),
    TooLarge(usize),
    /// Unrecoverable framing violation (bad header / missing terminator).
    Fatal,
    Truncated,
    Closed,
}

/// Replays a reader to its terminal event, via the polling entry point
/// (so injected `WouldBlock`s are exercised exactly as the event loop
/// would see them).
fn drive(mut reader: FrameReader<impl Read>) -> Vec<Ev> {
    let mut evs = Vec::new();
    loop {
        match reader.poll_frame() {
            Ok(Some(p)) => evs.push(Ev::Frame(p)),
            Ok(None) => continue, // WouldBlock: poll again
            Err(FrameError::TooLarge(n)) => evs.push(Ev::TooLarge(n)), // recoverable
            Err(FrameError::Truncated) => {
                evs.push(Ev::Truncated);
                return evs;
            }
            Err(FrameError::Closed) => {
                evs.push(Ev::Closed);
                return evs;
            }
            Err(FrameError::BadHeader)
            | Err(FrameError::MissingTerminator)
            | Err(FrameError::Io(_)) => {
                evs.push(Ev::Fatal);
                return evs;
            }
        }
    }
}

/// A reader that delivers the stream in a scripted chunk pattern,
/// optionally failing every `block_every`-th read with `WouldBlock`.
struct Script {
    data: Cursor<Vec<u8>>,
    sizes: Vec<usize>,
    i: usize,
    block_every: usize, // 0 = never block
    reads: usize,
}

impl Script {
    fn new(data: Vec<u8>, sizes: Vec<usize>, block_every: usize) -> Self {
        Self {
            data: Cursor::new(data),
            sizes,
            i: 0,
            block_every,
            reads: 0,
        }
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.block_every != 0 && self.reads.is_multiple_of(self.block_every) {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let take = if self.sizes.is_empty() {
            buf.len()
        } else {
            let t = self.sizes[self.i % self.sizes.len()].clamp(1, buf.len());
            self.i += 1;
            t
        };
        self.data.read(&mut buf[..take])
    }
}

fn reader_for(data: Vec<u8>, sizes: Vec<usize>, block_every: usize) -> FrameReader<Script> {
    FrameReader::with_max_len(Script::new(data, sizes, block_every), CAP)
}

/// One stream segment, as generated (before truncation).
#[derive(Debug, Clone)]
enum Seg {
    Valid(Vec<u8>),
    /// A well-formed frame whose declared length exceeds [`CAP`].
    Oversized(usize),
    /// Raw bytes that are not a frame.
    Garbage(Vec<u8>),
}

impl Seg {
    fn wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Seg::Valid(p) => write_frame(&mut out, p).unwrap(),
            Seg::Oversized(n) => write_frame(&mut out, &vec![b'o'; *n]).unwrap(),
            Seg::Garbage(bytes) => out.extend_from_slice(bytes),
        }
        out
    }
}

fn build(segs: &[Seg]) -> Vec<u8> {
    segs.iter().flat_map(|s| s.wire()).collect()
}

fn gen_valid_payload(g: &mut Gen) -> Vec<u8> {
    let len = g.rng().random_range(0..=CAP);
    (0..len).map(|_| *g.pick(b"abc\n\"0 ")).collect()
}

fn gen_clean_segs(g: &mut Gen) -> Vec<Seg> {
    g.vec_of(6, |g| {
        if g.rng().random_bool(0.3) {
            Seg::Oversized(g.rng().random_range(CAP + 1..CAP + 900))
        } else {
            Seg::Valid(gen_valid_payload(g))
        }
    })
}

/// Predicts the event sequence for a garbage-free stream truncated to
/// `cut` bytes — an oracle independent of the reader's implementation.
fn oracle(segs: &[Seg], cut: usize) -> Vec<Ev> {
    let mut evs = Vec::new();
    let mut off = 0usize;
    for seg in segs {
        let (hdr, total, full_ev) = match seg {
            Seg::Valid(p) => {
                let hdr = p.len().to_string().len() + 1;
                (hdr, hdr + p.len() + 1, Ev::Frame(p.clone()))
            }
            Seg::Oversized(n) => {
                let hdr = n.to_string().len() + 1;
                (hdr, hdr + n + 1, Ev::TooLarge(*n))
            }
            Seg::Garbage(_) => unreachable!("oracle is for clean streams"),
        };
        if cut == off {
            // The stream ends exactly on a frame boundary: clean close.
            evs.push(Ev::Closed);
            return evs;
        }
        if cut < off + total {
            // Mid-frame cut. An oversized frame still reports `TooLarge`
            // if its header arrived whole (the rejection happens at the
            // header, before the payload).
            if matches!(seg, Seg::Oversized(_)) && cut >= off + hdr {
                evs.push(full_ev);
            }
            evs.push(Ev::Truncated);
            return evs;
        }
        evs.push(full_ev);
        off += total;
    }
    evs.push(Ev::Closed);
    evs
}

fn gen_sizes(g: &mut Gen) -> Vec<usize> {
    g.vec_of(5, |g| g.rng().random_range(1..17))
}

/// All the replays of one stream that must agree with `reference`.
fn assert_chunking_invariant(g: &mut Gen, wire: &[u8], reference: &[Ev]) {
    assert_eq!(
        drive(reader_for(wire.to_vec(), vec![1], 0)),
        reference,
        "one byte at a time"
    );
    for _ in 0..3 {
        let sizes = gen_sizes(g);
        // Never 1: a reader whose every read would-block makes no progress.
        let block_every = *g.pick(&[0, 2, 3]);
        assert_eq!(
            drive(reader_for(wire.to_vec(), sizes.clone(), block_every)),
            reference,
            "chunk sizes {sizes:?}, WouldBlock every {block_every}"
        );
    }
}

/// Clean streams (valid + oversized frames, arbitrary truncation): every
/// chunking produces the oracle's event sequence.
#[test]
fn clean_streams_match_the_oracle_under_any_chunking() {
    Runner::new("serve.frame_torture_clean").run(
        |g| {
            let segs = gen_clean_segs(g);
            let wire = build(&segs);
            let cut = g.rng().random_range(0..=wire.len());
            (segs, wire, cut)
        },
        |(segs, wire, cut)| {
            let truncated = wire[..*cut].to_vec();
            let expected = oracle(segs, *cut);
            let reference = drive(FrameReader::with_max_len(
                Cursor::new(truncated.clone()),
                CAP,
            ));
            assert_eq!(reference, expected, "whole-stream replay vs oracle");
            let mut g = Gen::new(wire.len() as u64 ^ ((*cut as u64) << 20), 16);
            assert_chunking_invariant(&mut g, &truncated, &reference);
        },
    );
}

/// Streams with garbage interleaved (including garbage *prefixes*): the
/// reader's behavior — wherever it lands — is identical for every
/// chunking, and the stream always terminates in a terminal event.
#[test]
fn garbage_streams_are_chunking_invariant() {
    Runner::new("serve.frame_torture_garbage").run(
        |g| {
            let segs = g.vec_of(5, |g| match g.rng().random_range(0..3u32) {
                0 => Seg::Garbage({
                    let len = g.rng().random_range(1..20);
                    (0..len).map(|_| *g.pick(b"xyz{}!@:9 \n")).collect()
                }),
                1 => Seg::Oversized(g.rng().random_range(CAP + 1..CAP + 300)),
                _ => Seg::Valid(gen_valid_payload(g)),
            });
            let wire = build(&segs);
            let cut = g.rng().random_range(0..=wire.len());
            wire[..cut].to_vec()
        },
        |wire| {
            let reference = drive(FrameReader::with_max_len(Cursor::new(wire.clone()), CAP));
            assert!(
                matches!(
                    reference.last(),
                    Some(Ev::Fatal | Ev::Truncated | Ev::Closed)
                ),
                "stream must end in a terminal event, got {reference:?}"
            );
            let mut g = Gen::new(wire.len() as u64, 16);
            assert_chunking_invariant(&mut g, wire, &reference);
        },
    );
}

/// Exhaustive two-chunk splits: for a representative stream, splitting at
/// *every* byte boundary yields the same events as the unsplit replay.
#[test]
fn every_two_chunk_split_is_equivalent() {
    let segs = [
        Seg::Valid(b"first".to_vec()),
        Seg::Oversized(CAP + 37),
        Seg::Valid(Vec::new()),
        Seg::Garbage(b"?not a frame".to_vec()),
        Seg::Valid(b"never reached".to_vec()),
    ];
    let wire = build(&segs);
    let reference = drive(FrameReader::with_max_len(Cursor::new(wire.clone()), CAP));
    for split in 0..=wire.len() {
        // A two-chunk script: `split` bytes, then the rest.
        let sizes = if split == 0 {
            vec![wire.len().max(1)]
        } else {
            vec![split, wire.len() - split + 1]
        };
        let got = drive(reader_for(wire.clone(), sizes, 0));
        assert_eq!(got, reference, "split at byte {split}");
    }
}
