//! On-disk sorted runs: the serialization and file format behind the
//! memory-bounded shuffle — and the runtime's *wire format*.
//!
//! A map task has **one run file** (`task<N>.spill` in the job
//! directory) plus a per-partition run directory ([`RunMeta`]s). When the
//! task's buffered output crosses its
//! [`ShuffleConfig::spill_threshold`](crate::shuffle::ShuffleConfig), it
//! sorts each partition's buffer by key fingerprint and appends it to that
//! file as one *run* — a sorted, self-delimiting sequence of records.
//! Under the out-of-process transports ([`crate::transport`]) the same
//! file is also the task's *published* output: the buffer left at task
//! end is flushed as each partition's last run, so nothing is ever
//! copied into a second layout. The reduce phase streams every run
//! through a [`RunReader`] — refilled by positioned reads of the local
//! file, or by ranged fetches from the stage's run server — and
//! k-way-merges them (see [`crate::merge`]), so neither side ever
//! materializes a full partition in memory. [`SpillWriter`] and
//! [`RunReader`] are public so external tools can produce and consume
//! the format.
//!
//! # File format (v2)
//!
//! One spill file per map task holds the runs of all partitions,
//! back-to-back; a run is located by the `(offset, bytes)` recorded in its
//! [`RunMeta`] at write time (there is no in-file directory). Each record
//! is framed as
//!
//! ```text
//! [varint payload_len] [varint fp_delta] [K bytes] [V bytes]
//! ```
//!
//! where both varints are LEB128 (7 data bits per byte, high bit =
//! continuation, at most 10 bytes for a `u64`) and `payload_len` counts
//! the bytes after it (`fp_delta` + `K` + `V`). The frame length lets
//! [`RunReader`] refill its fixed-size read buffer on whole-record
//! boundaries, keeping reduce-side memory at one buffer per open run
//! regardless of run size; a record must decode to *exactly*
//! `payload_len` bytes or the reader reports corruption.
//!
//! `fp_delta` is the record's shuffle fingerprint XOR
//! [`fingerprint64`] of its restored key. Every
//! record the runtime itself produces has `fp == fingerprint64(key)` (the
//! emitter computes one from the other), so the delta is `0` and the
//! fingerprint costs **one byte** on the wire instead of the fixed eight
//! of the v1 frame — while arbitrary fingerprints (tests, external
//! producers) still round-trip exactly, just at up to 10 bytes. Note the
//! delta is taken against the *key*, not the previous record's
//! fingerprint: runs are sorted by fingerprint, but fingerprints are
//! full-entropy 64-bit hashes, so sequential deltas measure ~`64 −
//! log2(run_len)` bits and varint-encode *larger* than the raw field;
//! the key-derived delta is what actually shrinks the frame. Altogether
//! the fixed 12 B/record framing of v1 (`[u32 len][u64 fp]`) drops to
//! 2 B/record in the common case. Run files are per-job temp artifacts,
//! so no cross-version compatibility is kept.
//!
//! # Serialization
//!
//! Key and value bytes are produced by the [`Spill`] trait — a minimal,
//! dependency-free binary codec implemented for the primitive types,
//! tuples, `String`, `Vec<T>` and `Option<T>`. Job-specific key or value
//! types implement it in a few lines (see `ChunkRole` in `tsj-passjoin`
//! for an example). Read-side failures — an I/O error, a
//! truncated/undecodable frame, or a ranged fetch that ran out of
//! retries — surface as a structured [`SpillError`] from
//! [`RunReader::next`]; inside a job the runtime converts that into
//! [`JobError::Spill`](crate::job::JobError) (`JobError::Transport` for
//! the fetch), so a lost or corrupt disk or a dead run server fails the
//! *job*, never the process.

use std::cell::RefCell;
use std::fs::File;
use std::hash::Hash;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

use tsj_netshuffle::protocol::MAX_FETCH_BYTES;
use tsj_netshuffle::{FetchClient, FetchConfig, FetchError, RunKey};

use crate::hash::fingerprint64;
use crate::shuffle::ShuffleRecord;

/// Appends `v` to `out` as an LEB128 varint (7 data bits per byte, high
/// bit set on all but the last byte; 1 byte for values < 128, at most 10
/// bytes for a `u64`). The v2 wire format's integer encoding.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, v: u64) {
    let (buf, len) = varint_bytes(v);
    out.extend_from_slice(&buf[..len]);
}

/// LEB128-encodes `v` into a stack buffer; returns the buffer and the
/// encoded length.
#[inline]
fn varint_bytes(mut v: u64) -> ([u8; 10], usize) {
    let mut buf = [0u8; 10];
    let mut i = 0;
    while v >= 0x80 {
        buf[i] = (v & 0x7f) as u8 | 0x80;
        v >>= 7;
        i += 1;
    }
    buf[i] = (v & 0x7f) as u8;
    (buf, i + 1)
}

/// Decodes one LEB128 varint off the front of `buf`, advancing it.
/// `None` on truncation (every strict prefix of an encoding is rejected)
/// or on an encoding that does not fit a `u64`.
#[inline]
pub fn read_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    for (i, &byte) in buf.iter().take(10).enumerate() {
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            // The 10th byte contributes bits 63.. : anything beyond the
            // single remaining bit overflows a u64.
            if i == 9 && byte > 1 {
                return None;
            }
            *buf = &buf[i + 1..];
            return Some(v);
        }
    }
    None
}

/// Why reading a spill-format run back failed: the disk, the bytes, or
/// the network.
///
/// Produced by [`RunReader`]; the runtime wraps it into a
/// [`JobError`](crate::job::JobError) on the job path (`Spill`, or
/// `Transport` for [`SpillError::Fetch`]), so spill, published, and
/// stage-output runs that go bad fail the job with a structured error
/// instead of panicking the process.
#[derive(Debug)]
pub enum SpillError {
    /// The underlying positioned read (or scratch write) failed.
    Io(std::io::Error),
    /// The file's bytes do not parse as the wire format: a frame truncated
    /// mid-run, or a payload the [`Spill`] codec rejects.
    Corrupt(&'static str),
    /// The run lives on a run server and a ranged fetch of it failed for
    /// good (retry budget exhausted, or a definitive server refusal).
    Fetch(FetchError),
}

impl From<std::io::Error> for SpillError {
    fn from(e: std::io::Error) -> Self {
        SpillError::Io(e)
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill file I/O error: {e}"),
            SpillError::Corrupt(what) => write!(f, "spill file corrupt: {what}"),
            SpillError::Fetch(e) => write!(f, "run fetch failed: {e}"),
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io(e) => Some(e),
            SpillError::Corrupt(_) => None,
            SpillError::Fetch(e) => Some(e),
        }
    }
}

/// Binary serialization for shuffle keys and values that may spill to disk.
///
/// Implementations must round-trip: `restore` applied to the bytes written
/// by `spill` yields an equal value and consumes exactly the bytes written.
/// `restore` returns `None` on truncated or malformed input (the runtime
/// treats that as file corruption and fails the job with
/// [`SpillError::Corrupt`]).
pub trait Spill: Sized {
    /// Appends this value's encoding to `out`.
    fn spill(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `buf`, advancing it.
    fn restore(buf: &mut &[u8]) -> Option<Self>;
}

/// Reads `N` bytes off the front of `buf`.
#[inline]
fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head)
}

macro_rules! spill_le_int {
    ($($t:ty),*) => {$(
        impl Spill for $t {
            #[inline]
            fn spill(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn restore(buf: &mut &[u8]) -> Option<Self> {
                let b = take_bytes(buf, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(b.try_into().ok()?))
            }
        }
    )*};
}

spill_le_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

/// `usize` spills as `u64` so segments are portable across word sizes.
impl Spill for usize {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        (*self as u64).spill(out);
    }
    #[inline]
    fn restore(buf: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::restore(buf)?).ok()
    }
}

impl Spill for bool {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn restore(buf: &mut &[u8]) -> Option<Self> {
        match take_bytes(buf, 1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Spill for char {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        (*self as u32).spill(out);
    }
    #[inline]
    fn restore(buf: &mut &[u8]) -> Option<Self> {
        char::from_u32(u32::restore(buf)?)
    }
}

impl Spill for () {
    #[inline]
    fn spill(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn restore(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl Spill for String {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        // Varint length: short strings (the common case — names, tokens)
        // pay 1 byte of framing instead of the old fixed 4.
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn restore(buf: &mut &[u8]) -> Option<Self> {
        let n = usize::try_from(read_varint(buf)?).ok()?;
        let b = take_bytes(buf, n)?;
        String::from_utf8(b.to_vec()).ok()
    }
}

impl<T: Spill> Spill for Vec<T> {
    fn spill(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.spill(out);
        }
    }
    fn restore(buf: &mut &[u8]) -> Option<Self> {
        let n = usize::try_from(read_varint(buf)?).ok()?;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(T::restore(buf)?);
        }
        Some(v)
    }
}

impl<T: Spill> Spill for Option<T> {
    fn spill(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.spill(out);
            }
        }
    }
    fn restore(buf: &mut &[u8]) -> Option<Self> {
        match take_bytes(buf, 1)?[0] {
            0 => Some(None),
            1 => Some(Some(T::restore(buf)?)),
            _ => None,
        }
    }
}

macro_rules! spill_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Spill),+> Spill for ($($t,)+) {
            fn spill(&self, out: &mut Vec<u8>) {
                $(self.$n.spill(out);)+
            }
            fn restore(buf: &mut &[u8]) -> Option<Self> {
                Some(($($t::restore(buf)?,)+))
            }
        }
    )*};
}

spill_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Location of one sorted run inside a task's spill file: the run
/// server's own directory entry, so a task's run directory is published
/// and exchanged as is.
pub use tsj_netshuffle::RunSpec as RunMeta;

/// Append-only writer of sorted-run files in the wire format: one
/// length-prefixed frame per record (see the module docs).
///
/// Used by map tasks for their run file (spilled and published runs), by
/// dataset stages for spilled stage output, and by the reduce-side
/// hierarchical merge for intermediate runs. Public so external processes
/// can produce wire-compatible run files.
#[derive(Debug)]
pub struct SpillWriter {
    path: PathBuf,
    file: BufWriter<File>,
    offset: u64,
    scratch: Vec<u8>,
    /// Total records written across all runs.
    pub(crate) records: u64,
    /// Total bytes written across all runs.
    pub(crate) bytes: u64,
}

impl SpillWriter {
    /// Creates (truncating) the run file at `path`, materializing its
    /// parent directory if needed.
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            // Lazily materializes the job's spill dir on first spill;
            // concurrent map tasks race here safely (create_dir_all is
            // idempotent).
            std::fs::create_dir_all(parent)?;
        }
        let file = BufWriter::new(File::create(&path)?);
        Ok(Self {
            path,
            file,
            offset: 0,
            scratch: Vec::new(),
            records: 0,
            bytes: 0,
        })
    }

    /// The file offset the next frame will be written at. Streaming
    /// callers bracket a run with `offset()` before and after to build its
    /// [`RunMeta`] (or use [`SpillWriter::write_run`] for a buffered run).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Total records written so far (all runs).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total bytes written so far (all runs).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one framed record. The caller is responsible for feeding
    /// records in fingerprint order within a run.
    pub fn write_record<K: Spill + Hash, V: Spill>(
        &mut self,
        h: u64,
        key: &K,
        value: &V,
    ) -> std::io::Result<()> {
        self.scratch.clear();
        // Key-derived fingerprint delta: 0 (one wire byte) whenever the
        // fingerprint is the emitter's `fingerprint64(key)` — i.e. every
        // record the runtime produces (see the module docs).
        write_varint(&mut self.scratch, h ^ fingerprint64(key));
        key.spill(&mut self.scratch);
        value.spill(&mut self.scratch);
        // Fail at the write site rather than corrupting every frame
        // after this one with an implausible length prefix.
        assert!(
            self.scratch.len() <= u32::MAX as usize,
            "shuffle record encoding exceeds the 4 GiB frame limit"
        );
        let (len_buf, len_len) = varint_bytes(self.scratch.len() as u64);
        self.file.write_all(&len_buf[..len_len])?;
        self.file.write_all(&self.scratch)?;
        let framed = (len_len + self.scratch.len()) as u64;
        self.offset += framed;
        self.records += 1;
        self.bytes += framed;
        Ok(())
    }

    /// Appends `records` (already sorted by fingerprint) as one run.
    pub fn write_run<K: Spill + Hash, V: Spill>(
        &mut self,
        records: &[ShuffleRecord<K, V>],
    ) -> std::io::Result<RunMeta> {
        let offset = self.offset;
        for (h, k, v) in records {
            self.write_record(*h, k, v)?;
        }
        Ok(RunMeta {
            offset,
            bytes: self.offset - offset,
            records: records.len() as u64,
        })
    }

    /// Flushes and reopens the file read-only for the reduce phase.
    pub fn into_reader(mut self) -> std::io::Result<(Arc<File>, PathBuf)> {
        self.file.flush()?;
        drop(self.file);
        Ok((Arc::new(File::open(&self.path)?), self.path))
    }
}

/// Positioned read that never moves a shared cursor, so any number of
/// [`RunReader`]s can stream from one open [`File`].
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(file, buf, offset)
}

#[cfg(windows)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    std::os::windows::fs::FileExt::seek_read(file, buf, offset)
}

/// Where a sorted run's bytes live — what a reduce-side
/// [`Segment::Spilled`](crate::merge::Segment) carries. Cheap to clone, so
/// a speculative reduce attempt re-reads the same runs.
#[derive(Debug, Clone)]
pub(crate) enum RunSource {
    /// A run file on this machine, read with positioned reads.
    Local(Arc<File>),
    /// A run published to the run server at `addr`, read with ranged
    /// fetches.
    Remote { addr: SocketAddr, key: RunKey },
}

/// One reduce task's connection to the stage's run server, shared by all
/// of that task's [`RunReader`]s (connections scale with reduce tasks,
/// never with runs). Opened by the first remote run the task reads.
pub(crate) type SharedFetchClient = Rc<RefCell<FetchClient>>;

/// The client knobs every fetch of the runtime uses: the defaults, with a
/// retry budget sized for *concurrent* clients. Reduce tasks fetch side
/// by side, so a lossy link — or the server's every-n-th-request fault
/// schedule — hits one client's consecutive attempts independently
/// rather than never twice in a row: at the 1-in-3 loss the fault tests
/// inject, a request gives up with probability `3^-(budget + 1)`, which
/// this budget makes negligible over millions of requests, while a dead
/// server still costs under a second of capped backoff.
pub(crate) fn fetch_config() -> FetchConfig {
    FetchConfig {
        retry_budget: 20,
        ..FetchConfig::default()
    }
}

/// What an open [`RunReader`] refills from.
#[derive(Debug)]
enum RunBytes {
    Local(Arc<File>),
    Remote {
        client: SharedFetchClient,
        key: RunKey,
    },
}

/// Streams one sorted run back, one record at a time, holding only a
/// fixed-size read buffer (no per-run memory proportional to the run
/// length). Public counterpart of [`SpillWriter`] for consuming the wire
/// format.
#[derive(Debug)]
pub struct RunReader {
    bytes: RunBytes,
    /// Next run-file offset to refill from.
    offset: u64,
    /// One past the run's last byte; `None` when the run's extent
    /// overflows `u64`, which the first read reports as corruption.
    end: Option<u64>,
    /// Refill size: small runs read in one shot; large runs stream
    /// through at most this much memory per open run.
    chunk: usize,
    buf: Vec<u8>,
    pos: usize,
}

/// Read-buffer refill size for local runs.
const READ_CHUNK: usize = 32 * 1024;

impl RunReader {
    /// A reader over the run located by `meta` inside `file`. Any number
    /// of readers can stream concurrently from one shared handle
    /// (positioned reads; no shared cursor).
    pub fn new(file: Arc<File>, meta: RunMeta) -> Self {
        Self::open(RunSource::Local(file), meta, &mut None)
    }

    /// A reader over the run at `meta` of `source`. A remote run is read
    /// through `client`, connecting it first if this is the task's first
    /// remote run; its refill size is the client's ranged-read size, so a
    /// run no larger than [`FetchConfig::chunk`] costs one request.
    pub(crate) fn open(
        source: RunSource,
        meta: RunMeta,
        client: &mut Option<SharedFetchClient>,
    ) -> Self {
        let (bytes, chunk) = match source {
            RunSource::Local(file) => (RunBytes::Local(file), READ_CHUNK),
            RunSource::Remote { addr, key } => {
                let config = fetch_config();
                let client = client
                    .get_or_insert_with(|| Rc::new(RefCell::new(FetchClient::new(addr, config))));
                (
                    RunBytes::Remote {
                        client: Rc::clone(client),
                        key,
                    },
                    usize::try_from(config.chunk).unwrap_or(READ_CHUNK),
                )
            }
        };
        Self {
            bytes,
            offset: meta.offset,
            end: meta.offset.checked_add(meta.bytes),
            chunk,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Appends up to `want` more bytes of the run to the buffer; returns
    /// how many arrived (0 only if a local file ended early).
    fn refill(&mut self, want: usize) -> Result<usize, SpillError> {
        let got = match &self.bytes {
            RunBytes::Local(file) => {
                let start = self.buf.len();
                self.buf.resize(start + want, 0);
                let got = read_at(file, &mut self.buf[start..], self.offset)?;
                self.buf.truncate(start + got);
                got
            }
            RunBytes::Remote { client, key } => {
                // A ranged fetch returns exactly the bytes asked for, or
                // fails (the client retries transport-level faults). One
                // request never exceeds the protocol's cap; a frame
                // larger than that takes another turn of `ensure`'s loop.
                let len = (want as u64).min(MAX_FETCH_BYTES);
                let fetched = client
                    .borrow_mut()
                    .fetch(*key, self.offset, len)
                    .map_err(SpillError::Fetch)?;
                self.buf.extend_from_slice(&fetched);
                fetched.len()
            }
        };
        self.offset += got as u64;
        Ok(got)
    }

    /// Ensures ≥ `n` unread bytes are buffered; `Ok(false)` at clean end
    /// of run, `Err` on an I/O failure or a frame truncated mid-run.
    fn ensure(&mut self, n: usize) -> Result<bool, SpillError> {
        if self.buf.len() - self.pos >= n {
            return Ok(true);
        }
        let end = self
            .end
            .ok_or(SpillError::Corrupt("run extent overflows the file offset"))?;
        // Compact, then refill from the run's source.
        self.buf.drain(..self.pos);
        self.pos = 0;
        while self.buf.len() < n {
            let remaining = (end - self.offset) as usize;
            if remaining == 0 {
                break;
            }
            let want = remaining.min(self.chunk.max(n - self.buf.len()));
            if self.refill(want)? == 0 {
                return Err(SpillError::Corrupt("file truncated mid-run"));
            }
        }
        if self.buf.len() >= n {
            return Ok(true);
        }
        if self.buf.is_empty() {
            Ok(false)
        } else {
            Err(SpillError::Corrupt("partial record frame at end of run"))
        }
    }

    /// Reads the frame-length varint that starts the next record.
    /// `Ok(None)` only at the clean end of the run (no bytes left); any
    /// partial or overlong encoding is corruption.
    fn next_frame_len(&mut self) -> Result<Option<usize>, SpillError> {
        if !self.ensure(1)? {
            return Ok(None);
        }
        let mut v: u64 = 0;
        for i in 0..10 {
            if !self.ensure(i + 1)? {
                return Err(SpillError::Corrupt("truncated frame-length varint"));
            }
            let byte = self.buf[self.pos + i];
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                if i == 9 && byte > 1 {
                    return Err(SpillError::Corrupt("overlong frame-length varint"));
                }
                self.pos += i + 1;
                let frame = usize::try_from(v)
                    .map_err(|_| SpillError::Corrupt("frame length exceeds address space"))?;
                return Ok(Some(frame));
            }
        }
        Err(SpillError::Corrupt("overlong frame-length varint"))
    }

    /// Next record of the run, `Ok(None)` when cleanly exhausted, or a
    /// [`SpillError`] on an I/O or fetch failure, a truncated frame, or an
    /// undecodable payload (run corruption); inside a job, the runtime
    /// surfaces that as a structured [`JobError`](crate::job::JobError).
    // Not `Iterator`: the record type is chosen per *call*, and one frame
    // format serves any (K, V) the caller restores it as.
    #[allow(clippy::should_implement_trait)]
    pub fn next<K: Spill + Hash, V: Spill>(
        &mut self,
    ) -> Result<Option<ShuffleRecord<K, V>>, SpillError> {
        let Some(frame) = self.next_frame_len()? else {
            return Ok(None);
        };
        if !self.ensure(frame)? {
            return Err(SpillError::Corrupt("truncated record payload"));
        }
        let mut payload = &self.buf[self.pos..self.pos + frame];
        let decoded = (|| {
            Some((
                read_varint(&mut payload)?,
                K::restore(&mut payload)?,
                V::restore(&mut payload)?,
            ))
        })();
        let Some((fp_delta, key, value)) = decoded else {
            return Err(SpillError::Corrupt("undecodable record payload"));
        };
        // Every byte the frame length promised must have been consumed;
        // leftovers mean the length and the payload disagree.
        if !payload.is_empty() {
            return Err(SpillError::Corrupt("record payload has trailing bytes"));
        }
        let h = fp_delta ^ fingerprint64(&key);
        self.pos += frame;
        Ok(Some((h, key, value)))
    }
}

/// Reserves a uniquely named (prefix + process id + sequence number)
/// directory path under `base` for one job — job dirs and stage-output
/// dirs share the sequence. No I/O happens here — the directory is
/// materialized lazily by the first writer that needs it.
pub(crate) fn reserve_job_dir(base: &Path, prefix: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    base.join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Reserves one job's directory — its map tasks' run files (spilled and
/// published runs) and its merge scratch (see [`reserve_job_dir`]).
pub(crate) fn reserve_job_spill_dir(base: &Path) -> PathBuf {
    reserve_job_dir(base, "tsj-spill")
}

/// [`reserve_job_spill_dir`] plus eager creation (test helper).
#[cfg(test)]
pub(crate) fn create_job_spill_dir(base: &Path) -> std::io::Result<PathBuf> {
    let dir = reserve_job_spill_dir(base);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Best-effort recursive removal of a job's directory when the job
/// finishes (or fails) — run files never outlive their job.
#[derive(Debug)]
pub(crate) struct SpillDirGuard(pub(crate) PathBuf);

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            // A leaked spill directory is disk the operator has to find;
            // say where it is. An already-gone directory is the goal
            // state, not an error.
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!(
                    "tsj-mapreduce: failed to remove spill dir {}: {e}",
                    self.0.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Spill + PartialEq + std::fmt::Debug>(v: T) {
        let mut bytes = Vec::new();
        v.spill(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(T::restore(&mut slice), Some(v));
        assert!(
            slice.is_empty(),
            "restore must consume exactly what spill wrote"
        );
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(123_456u32);
        roundtrip(u64::MAX - 1);
        roundtrip(-42i64);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip('é');
        roundtrip(());
        roundtrip(usize::MAX / 2);
    }

    #[test]
    fn compounds_roundtrip() {
        roundtrip(String::from("tokenized strings"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u32, 2u64));
        roundtrip((1u8, String::from("x"), vec![9u16]));
        roundtrip((1u32, 2u32, 3u32, 4u32));
    }

    #[test]
    fn restore_rejects_truncated_input() {
        let mut bytes = Vec::new();
        123_456u64.spill(&mut bytes);
        let mut slice = &bytes[..4];
        assert_eq!(u64::restore(&mut slice), None);
        let mut bytes = Vec::new();
        String::from("hello").spill(&mut bytes);
        let mut slice = &bytes[..bytes.len() - 1];
        assert_eq!(String::restore(&mut slice), None);
    }

    #[test]
    fn writer_and_reader_roundtrip_runs() {
        let dir = create_job_spill_dir(&std::env::temp_dir()).unwrap();
        let _guard = SpillDirGuard(dir.clone());
        let mut w = SpillWriter::create(dir.join("t0.spill")).unwrap();

        let run1: Vec<ShuffleRecord<u32, String>> = vec![
            (1, 10, "a".into()),
            (1, 10, "b".into()),
            (5, 11, "c".into()),
        ];
        let run2: Vec<ShuffleRecord<u32, String>> = vec![(2, 20, "d".into())];
        let m1 = w.write_run(&run1).unwrap();
        let m2 = w.write_run(&run2).unwrap();
        assert_eq!(m1.records, 3);
        assert_eq!(m2.records, 1);
        assert_eq!(m2.offset, m1.offset + m1.bytes);
        assert_eq!(w.records, 4);
        assert_eq!(w.bytes, m1.bytes + m2.bytes);

        let (file, _path) = w.into_reader().unwrap();
        // Readers stream independently over one shared file handle.
        let mut r2 = RunReader::new(Arc::clone(&file), m2);
        let mut r1 = RunReader::new(file, m1);
        let mut got1: Vec<ShuffleRecord<u32, String>> = Vec::new();
        while let Some(rec) = r1.next().unwrap() {
            got1.push(rec);
        }
        assert_eq!(got1, run1);
        assert_eq!(r2.next::<u32, String>().unwrap(), Some((2, 20, "d".into())));
        assert_eq!(r2.next::<u32, String>().unwrap(), None);
    }

    #[test]
    fn reader_streams_large_runs_through_small_buffer() {
        let dir = create_job_spill_dir(&std::env::temp_dir()).unwrap();
        let _guard = SpillDirGuard(dir.clone());
        let mut w = SpillWriter::create(dir.join("big.spill")).unwrap();
        // Values large enough that the run is many read-chunks long.
        let big = "x".repeat(1000);
        let run: Vec<ShuffleRecord<u64, String>> = (0..500).map(|i| (i, i, big.clone())).collect();
        let meta = w.write_run(&run).unwrap();
        assert!(meta.bytes as usize > 4 * READ_CHUNK);
        let (file, _) = w.into_reader().unwrap();
        let mut r = RunReader::new(file, meta);
        let mut n = 0u64;
        while let Some((h, k, v)) = r.next::<u64, String>().unwrap() {
            assert_eq!(h, n);
            assert_eq!(k, n);
            assert_eq!(v.len(), 1000);
            assert!(r.buf.capacity() <= 2 * READ_CHUNK + 2048);
            n += 1;
        }
        assert_eq!(n, 500);
    }

    #[test]
    fn reader_surfaces_truncation_as_spill_error() {
        let dir = create_job_spill_dir(&std::env::temp_dir()).unwrap();
        let _guard = SpillDirGuard(dir.clone());
        let mut w = SpillWriter::create(dir.join("trunc.spill")).unwrap();
        let run: Vec<ShuffleRecord<u64, String>> = vec![(1, 1, "payload".into())];
        let meta = w.write_run(&run).unwrap();
        let (file, path) = w.into_reader().unwrap();
        drop(file);
        // Chop the file mid-frame: the reader must report corruption, not
        // panic and not fabricate a record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let file = Arc::new(File::open(&path).unwrap());
        let mut r = RunReader::new(file, meta);
        let err = r.next::<u64, String>().unwrap_err();
        assert!(matches!(err, SpillError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn spill_dir_guard_removes_directory() {
        let dir = create_job_spill_dir(&std::env::temp_dir()).unwrap();
        std::fs::write(dir.join("t1.spill"), b"junk").unwrap();
        assert!(dir.exists());
        drop(SpillDirGuard(dir.clone()));
        assert!(!dir.exists());
    }
}
