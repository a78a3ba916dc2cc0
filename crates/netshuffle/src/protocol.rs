//! The run-fetch wire protocol: length-prefixed request/response frames.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload. Payloads use fixed little-endian integers (a
//! few bytes per range — unlike the spill-run record format, framing
//! overhead is irrelevant here, and fixed offsets make truncation and
//! corruption tests exact).
//!
//! ```text
//! request  := op:u8 job:u64 partition:u32 body
//!             op 1 = Dir    body = task:u64 — the run directory of one
//!                                  (job, partition, task); issued only by
//!                                  bench/'s round-trip probe — the runtime
//!                                  reads run directories from its own map
//!                                  tasks, never off the wire
//!             op 2 = Fetch  body = count:u32 then count ×
//!                                  (task:u64 offset:u64 len:u64) — a
//!                                  vectored read: each range lies inside
//!                                  one run its task registered for the
//!                                  partition; count ≤ MAX_FETCH_RANGES,
//!                                  Σ len ≤ MAX_FETCH_BYTES
//! response := body status:u8   — the status *trails* the body, so a
//!                                client strips it with a pop and keeps
//!                                the fetched bytes where they were read
//!             status 0 = Dir      body = count:u32 then count ×
//!                                        (offset:u64 bytes:u64 records:u64)
//!             status 1 = Fetch    body = the ranges' bytes, concatenated
//!                                        in request order
//!             status 2 = NotFound     (unknown job/task or partition)
//!             status 3 = BadRequest   (malformed request payload)
//!             status 4 = RangeError   (a range outside every registered
//!                                      run, or Σ len overflowing u64 or
//!                                      larger than MAX_FETCH_BYTES)
//!             status 5 = ServerError  (I/O error reading the run file)
//! ```
//!
//! A refused fetch is refused whole: any range that fails the check costs
//! the request, and the error frame carries no bytes.
//!
//! Frame lengths are bounded on both sides ([`MAX_REQUEST_FRAME`],
//! [`MAX_RESPONSE_FRAME`]): a corrupt length prefix is rejected before
//! any allocation, so garbage on the socket costs one connection, never
//! memory.

#![warn(
    clippy::cast_possible_truncation,
    reason = "a truncated wire length wraps, and the reader trusts a prefix that lies"
)]

use std::io::{IoSlice, Read, Write};

/// Most ranges one vectored fetch may carry.
pub const MAX_FETCH_RANGES: usize = 1024;

/// Largest request payload the server accepts: a fetch of
/// [`MAX_FETCH_RANGES`] ranges (17 bytes of op, job, partition and count,
/// then 24 per range). A longer frame costs its connection.
pub const MAX_REQUEST_FRAME: usize = 17 + MAX_FETCH_RANGES * 24;

/// Hard cap on the bytes one fetch returns, summed over its ranges.
/// Clients chunk larger reads; the server answers anything above this
/// with `RangeError` instead of allocating.
pub const MAX_FETCH_BYTES: u64 = 4 * 1024 * 1024;

/// Largest response payload a client accepts: a full fetch, or a run
/// directory (24 bytes per run — this bounds runs per directory far
/// above any real spill count).
#[expect(clippy::cast_possible_truncation, reason = "4 MiB + 64 fits any usize")]
pub const MAX_RESPONSE_FRAME: usize = MAX_FETCH_BYTES as usize + 64;

/// Addresses one map task's runs for one reduce partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// The job (stage) the runs belong to.
    pub job: u64,
    /// The reduce partition.
    pub partition: u32,
    /// The producing map task (attempt-distinct under speculation).
    pub task: u64,
}

/// One run's location in its task's run file (the runtime's `RunMeta`
/// is this type, re-exported).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSpec {
    /// Byte offset of the run's first record frame.
    pub offset: u64,
    /// Total framed bytes of the run.
    pub bytes: u64,
    /// Records in the run.
    pub records: u64,
}

/// One range of a vectored fetch: `len` bytes at `offset` of map task
/// `task`'s run file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRange {
    /// The producing map task (the [`RunKey::task`] of the run read).
    pub task: u64,
    /// Byte offset in the task's run file.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The run directory of one `(job, partition, task)`.
    Dir(RunKey),
    /// A vectored read of one `(job, partition)`: every range must fall
    /// inside a single run its task registered for the partition. The
    /// answer is the ranges' bytes, concatenated in request order.
    Fetch {
        job: u64,
        partition: u32,
        ranges: Vec<FetchRange>,
    },
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The requested run directory (possibly empty: the task produced
    /// nothing for this partition).
    Dir(Vec<RunSpec>),
    /// The requested ranges' bytes, concatenated in request order.
    Fetch(Vec<u8>),
    /// No such `(job, task)` published, or the partition is out of range.
    NotFound,
    /// The request payload did not decode.
    BadRequest,
    /// A fetch range lies outside every registered run, or the ranges
    /// sum past [`MAX_FETCH_BYTES`].
    RangeError,
    /// The server failed reading the run file.
    ServerError,
}

const OP_DIR: u8 = 1;
const OP_FETCH: u8 = 2;

const ST_DIR: u8 = 0;
const ST_FETCH: u8 = 1;
const ST_NOT_FOUND: u8 = 2;
const ST_BAD_REQUEST: u8 = 3;
const ST_RANGE_ERROR: u8 = 4;
const ST_SERVER_ERROR: u8 = 5;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &mut &[u8]) -> Option<u32> {
    let (head, rest) = buf.split_first_chunk::<4>()?;
    *buf = rest;
    Some(u32::from_le_bytes(*head))
}

fn get_u64(buf: &mut &[u8]) -> Option<u64> {
    let (head, rest) = buf.split_first_chunk::<8>()?;
    *buf = rest;
    Some(u64::from_le_bytes(*head))
}

impl Request {
    /// Encodes the request payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        match self {
            Request::Dir(key) => {
                out.push(OP_DIR);
                put_u64(&mut out, key.job);
                put_u32(&mut out, key.partition);
                put_u64(&mut out, key.task);
            }
            Request::Fetch {
                job,
                partition,
                ranges,
            } => {
                out.push(OP_FETCH);
                put_u64(&mut out, *job);
                put_u32(&mut out, *partition);
                // A count past u32::MAX (far above MAX_FETCH_RANGES)
                // encodes as one that disagrees with the payload, which
                // the server refuses.
                put_u32(&mut out, u32::try_from(ranges.len()).unwrap_or(u32::MAX));
                for range in ranges {
                    for v in [range.task, range.offset, range.len] {
                        put_u64(&mut out, v);
                    }
                }
            }
        }
        out
    }

    /// Decodes a request payload; `None` on any malformation (unknown op,
    /// truncation, trailing garbage, a range count over
    /// [`MAX_FETCH_RANGES`] or disagreeing with the payload length).
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let (&op, mut buf) = payload.split_first()?;
        let (job, partition) = (get_u64(&mut buf)?, get_u32(&mut buf)?);
        let req = match op {
            OP_DIR => Request::Dir(RunKey {
                job,
                partition,
                task: get_u64(&mut buf)?,
            }),
            OP_FETCH => {
                let count = usize::try_from(get_u32(&mut buf)?).ok()?;
                if count > MAX_FETCH_RANGES || buf.len() != count * 24 {
                    return None;
                }
                let mut ranges = Vec::with_capacity(count);
                for _ in 0..count {
                    ranges.push(FetchRange {
                        task: get_u64(&mut buf)?,
                        offset: get_u64(&mut buf)?,
                        len: get_u64(&mut buf)?,
                    });
                }
                Request::Fetch {
                    job,
                    partition,
                    ranges,
                }
            }
            _ => return None,
        };
        buf.is_empty().then_some(req)
    }
}

impl Response {
    /// Encodes the response payload (frame it with [`write_frame`]). A
    /// `Fetch` body becomes the payload in place: the status byte is
    /// appended to the buffer the server read the ranges into.
    pub fn encode(self) -> Vec<u8> {
        let (mut out, status) = match self {
            Response::Dir(specs) => {
                // A run directory lists one spec per reduce partition;
                // partition counts are far below u32::MAX, and a count
                // that somehow is not would corrupt the frame if
                // truncated — refuse loudly instead.
                let count =
                    u32::try_from(specs.len()).expect("dir spec count exceeds the u32 wire field");
                let mut out = Vec::with_capacity(5 + specs.len() * 24);
                put_u32(&mut out, count);
                for s in specs {
                    put_u64(&mut out, s.offset);
                    put_u64(&mut out, s.bytes);
                    put_u64(&mut out, s.records);
                }
                (out, ST_DIR)
            }
            Response::Fetch(bytes) => (bytes, ST_FETCH),
            Response::NotFound => (Vec::new(), ST_NOT_FOUND),
            Response::BadRequest => (Vec::new(), ST_BAD_REQUEST),
            Response::RangeError => (Vec::new(), ST_RANGE_ERROR),
            Response::ServerError => (Vec::new(), ST_SERVER_ERROR),
        };
        out.push(status);
        out
    }

    /// Decodes a response payload, taking it by value: a `Fetch` body is
    /// the payload itself with its trailing status byte popped, never a
    /// copy. `None` on any malformation (unknown status, truncated
    /// directory, count/length mismatch).
    pub fn decode(mut payload: Vec<u8>) -> Option<Self> {
        let status = payload.pop()?;
        let empty = payload.is_empty();
        match status {
            ST_DIR => {
                let mut buf = payload.as_slice();
                let count = get_u32(&mut buf)? as usize;
                if buf.len() != count * 24 {
                    return None;
                }
                let mut specs = Vec::with_capacity(count);
                for _ in 0..count {
                    specs.push(RunSpec {
                        offset: get_u64(&mut buf)?,
                        bytes: get_u64(&mut buf)?,
                        records: get_u64(&mut buf)?,
                    });
                }
                Some(Response::Dir(specs))
            }
            ST_FETCH => Some(Response::Fetch(payload)),
            ST_NOT_FOUND => empty.then_some(Response::NotFound),
            ST_BAD_REQUEST => empty.then_some(Response::BadRequest),
            ST_RANGE_ERROR => empty.then_some(Response::RangeError),
            ST_SERVER_ERROR => empty.then_some(Response::ServerError),
            _ => None,
        }
    }
}

/// Writes one frame (length prefix + payload) and flushes. The prefix
/// and payload go out as a *single* vectored write — no copy into a
/// frame buffer, and no second small write: two writes on a TCP stream
/// would let Nagle hold the payload until the peer's delayed ACK (~40ms
/// per round trip — three orders of magnitude over loopback latency).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "frame payload of {} bytes exceeds the u32 length prefix",
                payload.len()
            ),
        )
    })?;
    let prefix = len.to_le_bytes();
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads until `buf` is full or EOF; returns the bytes read. Unlike
/// `read_exact`, a clean EOF at a frame boundary is distinguishable (0
/// bytes read) from mid-frame truncation.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// Reads one frame. `Ok(None)` is a clean EOF before any byte (the peer
/// closed between frames); truncation mid-frame and length prefixes over
/// `max` are errors.
pub fn read_frame(r: &mut impl Read, max: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf)? {
        0 => return Ok(None),
        4 => {}
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame length prefix",
            ))
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {max}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    if read_full(r, &mut payload)? != len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed inside a frame payload",
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> RunKey {
        RunKey {
            job: 7,
            partition: 3,
            task: 1 << 21,
        }
    }

    fn range(task: u64) -> FetchRange {
        FetchRange {
            task,
            offset: u64::MAX - 1,
            len: 4096,
        }
    }

    fn fetch(count: u64) -> Request {
        Request::Fetch {
            job: 7,
            partition: 3,
            ranges: (0..count).map(range).collect(),
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Dir(key()),
            fetch(0),
            fetch(1),
            fetch(3),
            fetch(MAX_FETCH_RANGES as u64),
        ] {
            let enc = req.encode();
            assert!(enc.len() <= MAX_REQUEST_FRAME);
            assert_eq!(Request::decode(&enc), Some(req));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let specs = vec![
            RunSpec {
                offset: 0,
                bytes: 10,
                records: 3,
            },
            RunSpec {
                offset: 10,
                bytes: 999,
                records: 100,
            },
        ];
        for resp in [
            Response::Dir(Vec::new()),
            Response::Dir(specs),
            Response::Fetch(vec![1, 2, 3]),
            Response::Fetch(Vec::new()),
            Response::NotFound,
            Response::BadRequest,
            Response::RangeError,
            Response::ServerError,
        ] {
            assert_eq!(Response::decode(resp.clone().encode()), Some(resp));
        }
    }

    #[test]
    fn fetch_bodies_are_encoded_and_decoded_in_place() {
        // The server's read buffer becomes the payload, and the payload
        // the client read becomes the body: one buffer on each side.
        let mut body = Vec::with_capacity(5);
        body.extend_from_slice(b"abcd");
        let at = body.as_ptr();
        let payload = Response::Fetch(body).encode();
        assert_eq!(payload.as_ptr(), at);
        assert_eq!(payload, [b'a', b'b', b'c', b'd', ST_FETCH]);
        match Response::decode(payload) {
            Some(Response::Fetch(bytes)) => {
                assert_eq!(bytes.as_ptr(), at);
                assert_eq!(bytes, b"abcd");
            }
            other => panic!("expected a fetch body, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(Request::decode(&[]), None);
        assert_eq!(Request::decode(&[99, 0, 0]), None);
        for req in [Request::Dir(key()), fetch(2)] {
            // Truncated.
            let mut enc = req.encode();
            enc.pop();
            assert_eq!(Request::decode(&enc), None);
            // Trailing garbage.
            let mut enc = req.encode();
            enc.push(0);
            assert_eq!(Request::decode(&enc), None);
        }
        // A range count over the cap, even with every range present.
        let over = fetch(MAX_FETCH_RANGES as u64 + 1).encode();
        assert_eq!(Request::decode(&over), None);
        assert!(
            over.len() > MAX_REQUEST_FRAME,
            "and the frame bound refuses it first"
        );
        // A count that disagrees with the ranges that follow.
        let mut enc = fetch(2).encode();
        enc[13..17].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(Request::decode(&enc), None);
        enc[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&enc), None);
        // Directory whose count disagrees with its length.
        let mut enc = Response::Dir(vec![RunSpec::default()]).encode();
        enc.remove(0);
        assert_eq!(Response::decode(enc), None);
        assert_eq!(Response::decode(vec![1, ST_NOT_FOUND]), None);
        assert_eq!(Response::decode(vec![200]), None);
        assert_eq!(Response::decode(Vec::new()), None);
    }

    #[test]
    fn frames_roundtrip_and_bound_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r, 64).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r, 64).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r, 64).unwrap(), None);

        // A corrupt (oversized) length prefix is rejected before allocation.
        let huge = u32::MAX.to_le_bytes();
        let err = read_frame(&mut huge.as_slice(), 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Truncation inside the prefix and inside the payload both error.
        let err = read_frame(&mut [1u8, 0].as_slice(), 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(6);
        let err = read_frame(&mut wire.as_slice(), 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
