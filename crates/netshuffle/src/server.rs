//! The blocking run server: serves registered runs over TCP.
//!
//! One accept thread per server; one (detached) thread per connection.
//! Connections are request/response loops over [`crate::protocol`]
//! frames: `Dir` answers from the in-memory [`Registry`], `Fetch`
//! answers with a positioned read of exactly the requested range —
//! the server holds no per-connection state beyond a fixed read buffer
//! and never materializes a whole run.
//!
//! Malformed traffic is contained: a frame that does not decode gets
//! `BadRequest`; a corrupt length prefix or mid-frame truncation costs
//! that one connection. Connection threads carry read/write deadlines
//! ([`CONN_IDLE_TIMEOUT`]) so an idle or wedged peer cannot pin a thread
//! forever, and they re-check the shutdown flag between requests.

use std::collections::HashMap;
use std::fs::File;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, Request, Response, RunKey, RunSpec, MAX_FETCH_BYTES, MAX_REQUEST_FRAME,
};
use crate::FaultConfig;

/// How long a connection thread will wait on a quiet peer before hanging
/// up. Generous — it exists to bound thread lifetime, not to police
/// latency (that is the client's deadline).
pub const CONN_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// One published map task: its run file (if it produced any bytes) and
/// each partition's run directory within it.
#[derive(Debug, Clone)]
pub struct PublishedTask {
    /// The task's run file, opened read-only; `None` when the task
    /// produced no records at all (every partition's directory is empty).
    pub file: Option<Arc<File>>,
    /// Partition-indexed run directories.
    pub parts: Vec<Vec<RunSpec>>,
}

/// The servable-run registry a [`RunServer`] answers from. Map tasks
/// publish into it the moment they finish; the server only ever reads.
#[derive(Debug, Default)]
pub struct Registry {
    tasks: Mutex<HashMap<(u64, u64), PublishedTask>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes one task's runs under `(job, task)`. Re-publishing the
    /// same key replaces the entry (last write wins — harmless, since
    /// attempt-distinct task keys never actually collide).
    pub fn publish(&self, job: u64, task: u64, published: PublishedTask) {
        self.lock().insert((job, task), published);
    }

    /// Published tasks currently registered (all jobs).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(u64, u64), PublishedTask>> {
        self.tasks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One partition's run directory; `None` when the task or partition
    /// is unknown (→ `NotFound` on the wire).
    fn dir(&self, key: RunKey) -> Option<Vec<RunSpec>> {
        self.lock()
            .get(&(key.job, key.task))?
            .parts
            .get(key.partition as usize)
            .cloned()
    }

    /// The run file a fetch of `[offset, offset + len)` under `key` reads.
    /// The range must fall inside a single registered run: the server
    /// hands out exactly what the directory advertised, never arbitrary
    /// file bytes. Checked under the lock, so only the handle is cloned.
    fn locate(&self, key: RunKey, offset: u64, len: u64) -> Result<Arc<File>, Response> {
        let guard = self.lock();
        let task = guard.get(&(key.job, key.task)).ok_or(Response::NotFound)?;
        let specs = task
            .parts
            .get(key.partition as usize)
            .ok_or(Response::NotFound)?;
        // A range or registered run whose end overflows u64 holds no
        // servable bytes.
        let end = offset.checked_add(len).ok_or(Response::RangeError)?;
        let in_run = specs
            .iter()
            .any(|s| offset >= s.offset && s.offset.checked_add(s.bytes).is_some_and(|e| end <= e));
        if !in_run {
            return Err(Response::RangeError);
        }
        // A task that produced no bytes has no file, and no runs either.
        task.file.clone().ok_or(Response::RangeError)
    }
}

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
        // tsjlint:allow(no-silent-result-drop) the self-connect exists only to wake accept(); a refused poke means the listener is already gone, which is the goal state
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
        Request::Fetch { key, offset, len } => {
            if len > MAX_FETCH_BYTES {
                return Response::RangeError;
            }
            let file = match registry.locate(key, offset, len) {
                Ok(file) => file,
                Err(refusal) => return refusal,
            };
            let mut buf = vec![0u8; len as usize];
            match read_exact_at(&file, &mut buf, offset) {
                Ok(()) => Response::Fetch(buf),
                Err(_) => Response::ServerError,
            }
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
