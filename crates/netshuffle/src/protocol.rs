//! The run-fetch wire protocol: length-prefixed request/response frames.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload. Payloads use fixed little-endian integers (a
//! handful of bytes per request — unlike the spill-run record format,
//! framing overhead is irrelevant here, and fixed offsets make truncation
//! and corruption tests exact).
//!
//! ```text
//! request  := op:u8 job:u64 partition:u32 task:u64 [offset:u64 len:u64]
//!             op 1 = Dir   (no range)   — the run directory of one
//!                                         (job, partition, task); issued
//!                                         only by bench/'s round-trip
//!                                         probe — the runtime reads run
//!                                         directories from its own map
//!                                         tasks, never off the wire
//!             op 2 = Fetch (with range) — raw bytes of a subrange of one
//!                                         registered run
//! response := status:u8 body
//!             status 0 = Dir      body = count:u32 then count ×
//!                                        (offset:u64 bytes:u64 records:u64)
//!             status 1 = Fetch    body = the raw range bytes
//!             status 2 = NotFound     (unknown job/task or partition)
//!             status 3 = BadRequest   (malformed request payload)
//!             status 4 = RangeError   (range outside every registered run,
//!                                      or larger than MAX_FETCH_BYTES)
//!             status 5 = ServerError  (I/O error reading the run file)
//! ```
//!
//! Frame lengths are bounded on both sides ([`MAX_REQUEST_FRAME`],
//! [`MAX_RESPONSE_FRAME`]): a corrupt length prefix is rejected before
//! any allocation, so garbage on the socket costs one connection, never
//! memory.

use std::io::{Read, Write};

/// Largest request payload the server accepts (a Fetch is 37 bytes; the
/// slack keeps room for protocol evolution without inviting garbage).
pub const MAX_REQUEST_FRAME: usize = 256;

/// Hard cap on one ranged read. Clients chunk larger runs; the server
/// answers anything above this with `RangeError` instead of allocating.
pub const MAX_FETCH_BYTES: u64 = 4 * 1024 * 1024;

/// Largest response payload a client accepts: a full fetch chunk, or a
/// run directory (24 bytes per run — this bounds runs per directory far
/// above any real spill count).
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

/// A client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// The run directory of one `(job, partition, task)`.
    Dir(RunKey),
    /// A ranged read: `len` bytes at `offset` of the key's run file. The
    /// range must fall inside a single registered run.
    Fetch { key: RunKey, offset: u64, len: u64 },
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The requested run directory (possibly empty: the task produced
    /// nothing for this partition).
    Dir(Vec<RunSpec>),
    /// The requested range's bytes.
    Fetch(Vec<u8>),
    /// No such `(job, task)` published, or the partition is out of range.
    NotFound,
    /// The request payload did not decode.
    BadRequest,
    /// The fetch range lies outside every registered run (or exceeds
    /// [`MAX_FETCH_BYTES`]).
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

fn put_key(out: &mut Vec<u8>, key: RunKey) {
    put_u64(out, key.job);
    put_u32(out, key.partition);
    put_u64(out, key.task);
}

fn get_key(buf: &mut &[u8]) -> Option<RunKey> {
    Some(RunKey {
        job: get_u64(buf)?,
        partition: get_u32(buf)?,
        task: get_u64(buf)?,
    })
}

impl Request {
    /// Encodes the request payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        match *self {
            Request::Dir(key) => {
                out.push(OP_DIR);
                put_key(&mut out, key);
            }
            Request::Fetch { key, offset, len } => {
                out.push(OP_FETCH);
                put_key(&mut out, key);
                put_u64(&mut out, offset);
                put_u64(&mut out, len);
            }
        }
        out
    }

    /// Decodes a request payload; `None` on any malformation (unknown op,
    /// truncation, trailing garbage).
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let (&op, mut buf) = payload.split_first()?;
        let req = match op {
            OP_DIR => Request::Dir(get_key(&mut buf)?),
            OP_FETCH => Request::Fetch {
                key: get_key(&mut buf)?,
                offset: get_u64(&mut buf)?,
                len: get_u64(&mut buf)?,
            },
            _ => return None,
        };
        buf.is_empty().then_some(req)
    }
}

impl Response {
    /// Encodes the response payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Dir(specs) => {
                // A run directory lists one spec per reduce partition;
                // partition counts are far below u32::MAX, and a count
                // that somehow is not would corrupt the frame if
                // truncated — refuse loudly instead.
                let count =
                    u32::try_from(specs.len()).expect("dir spec count exceeds the u32 wire field");
                let mut out = Vec::with_capacity(5 + specs.len() * 24);
                out.push(ST_DIR);
                put_u32(&mut out, count);
                for s in specs {
                    put_u64(&mut out, s.offset);
                    put_u64(&mut out, s.bytes);
                    put_u64(&mut out, s.records);
                }
                out
            }
            Response::Fetch(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(ST_FETCH);
                out.extend_from_slice(bytes);
                out
            }
            Response::NotFound => vec![ST_NOT_FOUND],
            Response::BadRequest => vec![ST_BAD_REQUEST],
            Response::RangeError => vec![ST_RANGE_ERROR],
            Response::ServerError => vec![ST_SERVER_ERROR],
        }
    }

    /// Decodes a response payload; `None` on any malformation (unknown
    /// status, truncated directory, count/length mismatch).
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let (&status, mut buf) = payload.split_first()?;
        match status {
            ST_DIR => {
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
            ST_FETCH => Some(Response::Fetch(buf.to_vec())),
            ST_NOT_FOUND => buf.is_empty().then_some(Response::NotFound),
            ST_BAD_REQUEST => buf.is_empty().then_some(Response::BadRequest),
            ST_RANGE_ERROR => buf.is_empty().then_some(Response::RangeError),
            ST_SERVER_ERROR => buf.is_empty().then_some(Response::ServerError),
            _ => None,
        }
    }
}

/// Writes one frame (length prefix + payload) and flushes. The prefix
/// and payload go out as a *single* write: two small writes on a TCP
/// stream would let Nagle hold the payload until the peer's delayed ACK
/// (~40ms per round trip — three orders of magnitude over loopback
/// latency).
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
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
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

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Dir(key()),
            Request::Fetch {
                key: key(),
                offset: u64::MAX - 1,
                len: 4096,
            },
        ] {
            assert_eq!(Request::decode(&req.encode()), Some(req));
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
            assert_eq!(Response::decode(&resp.encode()), Some(resp.clone()));
        }
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(Request::decode(&[]), None);
        assert_eq!(Request::decode(&[99, 0, 0]), None);
        // Truncated Dir request.
        let mut enc = Request::Dir(key()).encode();
        enc.pop();
        assert_eq!(Request::decode(&enc), None);
        // Trailing garbage.
        let mut enc = Request::Dir(key()).encode();
        enc.push(0);
        assert_eq!(Request::decode(&enc), None);
        // Directory whose count disagrees with its length.
        let mut enc = Response::Dir(vec![RunSpec::default()]).encode();
        enc.pop();
        assert_eq!(Response::decode(&enc), None);
        assert_eq!(Response::decode(&[ST_NOT_FOUND, 1]), None);
        assert_eq!(Response::decode(&[200]), None);
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
