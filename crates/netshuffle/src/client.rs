//! The retrying fetch client.
//!
//! One [`FetchClient`] holds one lazily-opened connection to one server.
//! Every logical request ([`FetchClient::dir`] / [`FetchClient::fetch`] /
//! [`FetchClient::fetch_many`]) runs under a per-request deadline and a
//! retry budget: transport-level failures (connect refusal, timeout,
//! dropped connection, a frame that does not decode, a fetch reply of
//! the wrong length) reconnect and retry the whole request after bounded
//! exponential backoff with jitter; definitive server answers
//! (`NotFound`, `RangeError`, ...) fail immediately. Retrying is safe
//! because every request is an idempotent read — refetched ranges are
//! the same bytes.
//!
//! Errors are structured ([`FetchError`]) and every path terminates: a
//! dead or stalled server costs `retry_budget + 1` bounded attempts and
//! then surfaces as [`FetchError::Exhausted`], never a hang or a panic.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, FetchRange, Request, Response, RunKey, RunSpec, MAX_FETCH_BYTES,
    MAX_FETCH_RANGES, MAX_RESPONSE_FRAME,
};
use crate::server::set_deadlines;

/// Client-side knobs. The defaults suit loopback CI traffic; a real
/// deployment would widen the deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Deadline for one request/response round trip (read and write).
    pub request_timeout: Duration,
    /// Extra attempts after the first failure. `0` means fail fast.
    pub retry_budget: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter (deterministic per client).
    pub jitter_seed: u64,
    /// Largest fetch a caller issues, summed over its ranges: the runtime
    /// packs the first `chunk` bytes of many runs into one vectored fetch
    /// and reads a longer run's tail `chunk` bytes at a time. Must stay
    /// within the protocol's `MAX_FETCH_BYTES`.
    pub chunk: u64,
}

impl Default for FetchConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            retry_budget: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            jitter_seed: 0x5eed_f00d,
            chunk: 256 * 1024,
        }
    }
}

/// What the client observed, for the runtime's observability counters.
/// Wall-clock-class data: retries depend on timing and injected faults,
/// never on the job's logical content.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Logical requests issued (each counted once however many attempts
    /// it took).
    pub requests: u64,
    /// Extra attempts beyond the first, summed over all requests.
    pub retries: u64,
    /// Bytes successfully fetched: every answered fetch's ranges, summed
    /// (directory answers are not counted).
    pub bytes: u64,
}

/// Why a logical request failed.
#[derive(Debug)]
pub enum FetchError {
    /// A transport-level I/O failure (refused, reset, dropped).
    Io(std::io::Error),
    /// The per-request deadline elapsed.
    Timeout,
    /// The peer sent a frame that does not decode (or an oversized or
    /// truncated one).
    Protocol(String),
    /// The server knows no run of `(job, partition)` for a requested
    /// task (or the partition is out of range).
    NotFound { job: u64, partition: u32 },
    /// A definitive server-side refusal (`RangeError`, `BadRequest`, or
    /// `ServerError`) — retrying would return the same answer.
    Server(&'static str),
    /// The retry budget ran out; `last` is the final attempt's error.
    Exhausted {
        attempts: u32,
        last: Box<FetchError>,
    },
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Io(e) => write!(f, "i/o failure: {e}"),
            FetchError::Timeout => write!(f, "request deadline elapsed"),
            FetchError::Protocol(what) => write!(f, "protocol violation: {what}"),
            FetchError::NotFound { job, partition } => write!(
                f,
                "no runs registered for a requested task of job {job} partition {partition}"
            ),
            FetchError::Server(what) => write!(f, "server refused: {what}"),
            FetchError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for FetchError {}

impl FetchError {
    /// Transport-level failures are worth another attempt; definitive
    /// server answers are not.
    fn is_retryable(&self) -> bool {
        matches!(
            self,
            FetchError::Io(_) | FetchError::Timeout | FetchError::Protocol(_)
        )
    }
}

/// A connection to one run server, with retries. Not `Sync`: each
/// fetching thread owns its own client (and thus its own socket).
#[derive(Debug)]
pub struct FetchClient {
    addr: SocketAddr,
    config: FetchConfig,
    conn: Option<TcpStream>,
    stats: FetchStats,
    jitter: u64,
}

impl FetchClient {
    /// A client for `addr`. Connects lazily on first use.
    pub fn new(addr: SocketAddr, config: FetchConfig) -> Self {
        Self {
            addr,
            config,
            conn: None,
            stats: FetchStats::default(),
            // Never zero: xorshift has a fixed point at 0.
            jitter: config.jitter_seed | 1,
        }
    }

    /// Everything observed so far.
    pub fn stats(&self) -> FetchStats {
        self.stats
    }

    /// The run directory of one `(job, partition, task)`.
    pub fn dir(&mut self, key: RunKey) -> Result<Vec<RunSpec>, FetchError> {
        match self.request(&Request::Dir(key), 0)? {
            Response::Dir(specs) => Ok(specs),
            Response::NotFound => Err(FetchError::NotFound {
                job: key.job,
                partition: key.partition,
            }),
            other => Err(definitive(other)),
        }
    }

    /// One ranged read: exactly `len` bytes at `offset` of the run file
    /// behind `key` — a [`FetchClient::fetch_many`] of one range.
    pub fn fetch(&mut self, key: RunKey, offset: u64, len: u64) -> Result<Vec<u8>, FetchError> {
        debug_assert!(len <= MAX_FETCH_BYTES);
        let range = FetchRange {
            task: key.task,
            offset,
            len,
        };
        self.fetch_many(key.job, key.partition, vec![range])
    }

    /// One vectored read: the bytes of every range, concatenated in order,
    /// from one request. Each range must lie within a run its task
    /// published for `(job, partition)`; at most [`MAX_FETCH_RANGES`]
    /// ranges, summing to at most [`MAX_FETCH_BYTES`]. A reply of any
    /// other length is a protocol violation, retried like a dropped
    /// connection, so the caller never sees a short buffer.
    pub fn fetch_many(
        &mut self,
        job: u64,
        partition: u32,
        ranges: Vec<FetchRange>,
    ) -> Result<Vec<u8>, FetchError> {
        debug_assert!(ranges.len() <= MAX_FETCH_RANGES);
        // An overflowing sum is refused by the server before any reply
        // length matters.
        let len = ranges.iter().map(|r| r.len).fold(0, u64::saturating_add);
        let request = Request::Fetch {
            job,
            partition,
            ranges,
        };
        match self.request(&request, len)? {
            Response::Fetch(bytes) => {
                self.stats.bytes += len;
                Ok(bytes)
            }
            Response::NotFound => Err(FetchError::NotFound { job, partition }),
            other => Err(definitive(other)),
        }
    }

    /// The retry loop around one logical request; `fetch_len` is the
    /// length a `Fetch` reply must have.
    fn request(&mut self, request: &Request, fetch_len: u64) -> Result<Response, FetchError> {
        self.stats.requests += 1;
        let payload = request.encode();
        let mut last: Option<FetchError> = None;
        for attempt in 0..=self.config.retry_budget {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(self.backoff(attempt));
            }
            match self.attempt(&payload, fetch_len) {
                Ok(response) => return Ok(response),
                Err(err) => {
                    // A failed attempt leaves the stream in an unknown
                    // state; reconnect before the next try.
                    self.conn = None;
                    if !err.is_retryable() {
                        return Err(err);
                    }
                    last = Some(err);
                }
            }
        }
        Err(FetchError::Exhausted {
            attempts: self.config.retry_budget + 1,
            last: Box::new(last.unwrap_or(FetchError::Timeout)),
        })
    }

    /// One attempt: connect if needed, write the frame, read the reply.
    fn attempt(&mut self, payload: &[u8], fetch_len: u64) -> Result<Response, FetchError> {
        if self.conn.is_none() {
            let conn = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
                .map_err(io_error)?;
            // Request/response round trips must not wait out Nagle +
            // delayed ACK.
            conn.set_nodelay(true).map_err(io_error)?;
            set_deadlines(&conn, self.config.request_timeout).map_err(io_error)?;
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().ok_or(FetchError::Timeout)?;
        write_frame(conn, payload).map_err(io_error)?;
        let Some(frame) = read_frame(conn, MAX_RESPONSE_FRAME).map_err(io_error)? else {
            return Err(FetchError::Io(std::io::Error::new(
                ErrorKind::ConnectionAborted,
                "server closed the connection before replying",
            )));
        };
        match Response::decode(frame) {
            None => Err(FetchError::Protocol("undecodable response frame".into())),
            Some(Response::Fetch(bytes)) if bytes.len() as u64 != fetch_len => {
                Err(FetchError::Protocol(format!(
                    "fetch returned {} of {fetch_len} bytes",
                    bytes.len()
                )))
            }
            Some(response) => Ok(response),
        }
    }

    /// Exponential backoff with xorshift jitter: `base * 2^(attempt-1)`,
    /// capped, then scaled by a factor in `[0.5, 1.0]`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.config.backoff_cap);
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        // Scale by (512 + x % 512) / 1024 — i.e. a factor in [0.5, 1.0).
        exp.saturating_mul(512 + (x % 512) as u32) / 1024
    }
}

fn definitive(response: Response) -> FetchError {
    match response {
        Response::BadRequest => FetchError::Server("bad request"),
        Response::RangeError => FetchError::Server("range outside any registered run"),
        Response::ServerError => FetchError::Server("server-side read failure"),
        Response::Dir(_) | Response::Fetch(_) | Response::NotFound => {
            FetchError::Protocol("response kind does not match the request".into())
        }
    }
}

/// Timeouts come back from the socket layer as `WouldBlock` (Unix) or
/// `TimedOut` (Windows); everything else stays an I/O error.
fn io_error(err: std::io::Error) -> FetchError {
    match err.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FetchError::Timeout,
        _ => FetchError::Io(err),
    }
}
