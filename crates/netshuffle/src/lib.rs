//! Network shuffle: the piece that crosses the host boundary.
//!
//! The `tsj-mapreduce` runtime's spill-run wire format was designed so a
//! reducer needs only a run directory — `(offset, bytes, records)` per
//! run — over *any* byte stream to consume a map task's output. This
//! crate supplies that byte stream:
//!
//! * [`RunServer`] — a small blocking TCP run server that each worker
//!   process runs. It serves runs published to a shared [`Registry`] by
//!   `(job, partition, task)` via a length-prefixed request/response
//!   protocol ([`protocol`]) with one read op, a **vectored fetch**: one
//!   request names many `(task, offset, len)` ranges of one
//!   `(job, partition)`, and the server answers with positioned reads of
//!   exactly those ranges, concatenated — it never buffers a whole run.
//! * [`FetchClient`] — the reduce-side client: per-request deadlines,
//!   bounded exponential backoff with jitter, a retry budget, and
//!   structured [`FetchError`]s instead of panics or hangs. A reducer
//!   that knows every range it will read asks for them together
//!   ([`FetchClient::fetch_many`]) — the request shape of MapReduce's own
//!   shuffle, where a reducer pulls many map outputs per request — so the
//!   request count scales with bytes, not with runs.
//! * [`FaultConfig`] — a deterministic server-side fault-injection layer
//!   (drop every n-th request, stall each request) so the retry path is
//!   exercised by tests and CI rather than only by real network weather.
//!
//! Retries are safe by construction: a fetch is idempotent, so a dropped
//! connection or timeout refetches the same bytes — every range of the
//! request, whole — and the runs the reader sees are identical — faults
//! change timing and the retry counters, never data.
//!
//! This crate is deliberately standalone (std only, no dependency on the
//! runtime): it moves opaque byte ranges. A published run directory
//! ([`RunSpec`]s — the runtime re-exports the type as its `RunMeta`) is
//! what the server checks every fetch range against; the runtime never
//! asks for it back, because the driver that published it still holds
//! it, so the `Dir` request is kept only for `bench/`'s round-trip probe.
//! The `tsj-mapreduce` `Transport::Remote` glue owns the mapping between
//! spill-format runs and the `(job, partition, task)` keyspace.
//!
//! Timing note: deadlines, backoff, and stall injection are real-time by
//! design — this crate lives outside the runtime's deterministic
//! planning/merge modules, whose wall-clock reads `clippy.toml`'s
//! `disallowed-methods` refuses.

#![warn(
    clippy::let_underscore_must_use,
    reason = "a discarded `Result` turns an I/O failure into silent data loss"
)]
#![warn(
    clippy::iter_over_hash_type,
    reason = "hash order is arbitrary; in output it breaks every byte-identity test"
)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    reason = "a stale `#[expect]` fails the build; a stale `#[allow]` waves the next one through"
)]

mod client;
pub mod protocol;
mod registry;
mod server;

pub use client::{FetchClient, FetchConfig, FetchError, FetchStats};
pub use protocol::{read_frame, write_frame, FetchRange, Request, Response, RunKey, RunSpec};
pub use registry::{PublishedTask, Registry};
pub use server::RunServer;

/// Deterministic server-side fault injection: exercised by tests and the
/// `remote-shuffle` CI job via `TSJ_NET_FAULT_DROP_NTH` /
/// `TSJ_NET_FAULT_STALL_US` (parsed by the runtime's config layer).
///
/// The default (all zeros) injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Drop (close without replying) every n-th request the server
    /// receives, counted across all connections. `0` disables.
    pub drop_nth: u64,
    /// Sleep this many microseconds before serving each request —
    /// simulated network latency (or, past the client's deadline, a
    /// stalled peer). `0` disables.
    pub stall_us: u64,
    /// Phase seed for the drop counter: with `drop_nth = n`, the first
    /// drop happens on request `n - (seed % n)`, so sweeps can shift
    /// which requests fail without changing the failure rate.
    pub seed: u64,
}

impl FaultConfig {
    /// True when any injection is configured.
    pub fn is_active(&self) -> bool {
        self.drop_nth > 0 || self.stall_us > 0
    }
}

#[cfg(test)]
mod tests {
    /// The registry's guard cannot reach I/O: `registry.rs` performs none,
    /// and its `lock` is private, so no caller can name the guard, let
    /// alone hold it across `write_frame`.
    #[test]
    fn guard_held_across_file_io_is_flagged() {
        let code: Vec<&str> = include_str!("registry.rs")
            .lines()
            .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect();
        for io in ["std::io", "std::net", "_frame", ".read", ".write", "flush("] {
            assert!(
                !code.iter().any(|l| l.contains(io)),
                "registry.rs performs I/O: {io}"
            );
        }
        let lock = code.iter().find(|l| l.contains("fn lock(")).unwrap();
        assert!(
            lock.trim_start().starts_with("fn lock("),
            "the registry guard is nameable: {lock}"
        );
    }
}
