//! The blocking run server: serves registered runs over TCP.
//!
//! One accept thread per server; one (detached) thread per connection.
//! Connections are request/response loops over [`crate::protocol`]
//! frames: `Dir` answers from the in-memory [`Registry`], `Fetch`
//! answers with positioned reads of exactly the requested ranges,
//! straight into the buffer the reply is written from — the server holds
//! no per-connection state beyond that one buffer and never materializes
//! a whole run.
//!
//! Malformed traffic is contained: a frame that does not decode gets
//! `BadRequest`; a corrupt length prefix or mid-frame truncation costs
//! that one connection. Connection threads carry read/write deadlines
//! ([`CONN_IDLE_TIMEOUT`]) so an idle or wedged peer cannot pin a thread
//! forever, and they re-check the shutdown flag between requests.

use std::fs::File;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, Request, Response, MAX_FETCH_BYTES, MAX_REQUEST_FRAME,
};
use crate::registry::Registry;
use crate::FaultConfig;

/// How long a connection thread will wait on a quiet peer before hanging
/// up. Generous — it exists to bound thread lifetime, not to police
/// latency (that is the client's deadline).
pub const CONN_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Read and write deadlines for one connection (either end).
pub(crate) fn set_deadlines(stream: &TcpStream, timeout: Duration) -> std::io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))
}

/// The blocking run server. Binding spawns the accept thread; dropping
/// (or [`RunServer::shutdown`]) stops it. Connection threads are detached
/// — they exit on peer close, idle timeout, or the next request after
/// shutdown.
#[derive(Debug)]
pub struct RunServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Shared per-server fault state: the request counter the drop schedule
/// runs on (global across connections, so `drop_nth` means every n-th
/// request the *server* sees, deterministically).
#[derive(Debug, Default)]
struct FaultState {
    requests: AtomicU64,
}

impl RunServer {
    /// Binds a TCP listener on `127.0.0.1` (ephemeral port) and starts
    /// serving `registry`.
    pub fn bind_tcp(registry: Arc<Registry>, faults: FaultConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let fault_state = Arc::new(FaultState::default());
        let accept = std::thread::spawn(move || {
            while !accept_stop.load(Ordering::Acquire) {
                let Ok((conn, _peer)) = listener.accept() else {
                    // Accept errors are transient (or the listener died);
                    // re-check the stop flag and keep accepting.
                    continue;
                };
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&accept_stop);
                let fault_state = Arc::clone(&fault_state);
                std::thread::spawn(move || {
                    serve_conn(conn, &registry, faults, &fault_state, &stop)
                });
            }
        });
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Poke the listener so a blocked accept() returns and observes
        // the flag.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the self-connect exists only to wake accept(); a refused poke \
                      means the listener is already gone, which is the goal state"
        )]
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept.take() {
            if handle.join().is_err() {
                eprintln!("tsj-netshuffle: accept thread panicked during shutdown");
            }
        }
    }
}

impl Drop for RunServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's request/response loop.
fn serve_conn(
    mut conn: TcpStream,
    registry: &Registry,
    faults: FaultConfig,
    fault_state: &FaultState,
    stop: &AtomicBool,
) {
    // Mirror the client: responses must leave immediately.
    if conn.set_nodelay(true).is_err() || set_deadlines(&conn, CONN_IDLE_TIMEOUT).is_err() {
        return;
    }
    loop {
        let payload = match read_frame(&mut conn, MAX_REQUEST_FRAME) {
            Ok(Some(payload)) => payload,
            // Clean close, truncation, corrupt length, idle timeout:
            // this connection is done either way.
            Ok(None) | Err(_) => return,
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        if faults.is_active() {
            let n = fault_state.requests.fetch_add(1, Ordering::Relaxed);
            if faults.stall_us > 0 {
                std::thread::sleep(Duration::from_micros(faults.stall_us));
            }
            if faults.drop_nth > 0 && (n + faults.seed) % faults.drop_nth == faults.drop_nth - 1 {
                // Injected fault: hang up without replying. The client's
                // retry refetches the same range, so data is unaffected.
                return;
            }
        }
        let response = match Request::decode(&payload) {
            None => Response::BadRequest,
            Some(request) => respond(registry, request),
        };
        if write_frame(&mut conn, &response.encode()).is_err() {
            return;
        }
    }
}

fn respond(registry: &Registry, request: Request) -> Response {
    match request {
        Request::Dir(key) => match registry.dir(key) {
            Some(specs) => Response::Dir(specs),
            None => Response::NotFound,
        },
        Request::Fetch {
            job,
            partition,
            ranges,
        } => {
            let total = ranges.iter().try_fold(0u64, |sum, range| {
                sum.checked_add(range.len)
                    .filter(|&sum| sum <= MAX_FETCH_BYTES)
            });
            let Some(total) = total else {
                return Response::RangeError;
            };
            let files = match registry.locate(job, partition, &ranges) {
                Ok(files) => files,
                Err(refusal) => return refusal,
            };
            // The ranges are read straight into the reply's payload, with
            // room left for the status byte `encode` appends.
            let mut body = Vec::with_capacity(total as usize + 1);
            body.resize(total as usize, 0);
            let mut rest = body.as_mut_slice();
            for (range, file) in ranges.iter().zip(&files) {
                let (head, tail) = rest.split_at_mut(range.len as usize);
                if read_exact_at(file, head, range.offset).is_err() {
                    return Response::ServerError;
                }
                rest = tail;
            }
            Response::Fetch(body)
        }
    }
}

/// Positioned read of exactly `buf.len()` bytes at `offset` — no shared
/// cursor, so concurrent connections stream from one open file.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    while !buf.is_empty() {
        match std::os::windows::fs::FileExt::seek_read(file, buf, offset)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "run file truncated under a ranged read",
                ))
            }
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}
