//! End-to-end protocol suite: a real server, a real client, real (and
//! deliberately broken) sockets. Every failure mode must surface as a
//! structured error in bounded time — never a hang, never a panic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsj_netshuffle::{
    FaultConfig, FetchClient, FetchConfig, FetchError, PublishedTask, Registry, RunKey, RunServer,
    RunSpec,
};

/// A registry holding one job with one task whose single run file holds
/// `payload`, split into two runs per the given spec boundaries.
fn registry_with(payload: &[u8], parts: Vec<Vec<RunSpec>>) -> (Arc<Registry>, tempdir::Guard) {
    let dir = tempdir::scratch("netshuffle-proto");
    let path = dir.path().join("task0.xruns");
    std::fs::write(&path, payload).expect("write run file");
    let file = Arc::new(std::fs::File::open(&path).expect("open run file"));
    let registry = Arc::new(Registry::new());
    registry.publish(
        7,
        0,
        PublishedTask {
            file: Some(file),
            parts,
        },
    );
    (registry, dir)
}

/// Minimal scratch-dir helper (no tempfile crate in this environment).
mod tempdir {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    pub struct Guard(PathBuf);

    impl Guard {
        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    pub fn scratch(tag: &str) -> Guard {
        let dir = std::env::temp_dir().join(format!(
            "tsj-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Guard(dir)
    }
}

fn tight_config() -> FetchConfig {
    FetchConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(500),
        retry_budget: 2,
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_millis(2),
        ..FetchConfig::default()
    }
}

const PAYLOAD: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";

fn two_run_parts() -> Vec<Vec<RunSpec>> {
    vec![vec![
        RunSpec {
            offset: 0,
            bytes: 10,
            records: 3,
        },
        RunSpec {
            offset: 10,
            bytes: 26,
            records: 5,
        },
    ]]
}

#[test]
fn tcp_dir_and_ranged_fetch_roundtrip() {
    let (registry, _dir) = registry_with(PAYLOAD, two_run_parts());
    let server = RunServer::bind_tcp(registry, FaultConfig::default()).expect("bind");
    let mut client = FetchClient::new(server.addr(), tight_config());

    let key = RunKey {
        job: 7,
        partition: 0,
        task: 0,
    };
    let specs = client.dir(key).expect("dir");
    assert_eq!(specs, two_run_parts()[0]);

    // Whole runs.
    for spec in &specs {
        let bytes = client.fetch(key, spec.offset, spec.bytes).expect("fetch");
        assert_eq!(
            bytes,
            &PAYLOAD[spec.offset as usize..(spec.offset + spec.bytes) as usize]
        );
    }
    // A sub-range inside the second run.
    let sub = client.fetch(key, 12, 5).expect("subrange");
    assert_eq!(sub, &PAYLOAD[12..17]);

    let stats = client.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.bytes, 10 + 26 + 5);
}

#[test]
fn unknown_keys_and_bad_ranges_are_definitive_errors() {
    // Partition 1 registers a run whose extent overflows u64
    // (`Registry::publish` is public API).
    let mut parts = two_run_parts();
    parts.push(vec![RunSpec {
        offset: u64::MAX - 4,
        bytes: 10,
        records: 1,
    }]);
    let (registry, _dir) = registry_with(PAYLOAD, parts);
    let server = RunServer::bind_tcp(registry, FaultConfig::default()).expect("bind");
    let mut client = FetchClient::new(server.addr(), tight_config());

    let missing = RunKey {
        job: 7,
        partition: 0,
        task: 99,
    };
    assert!(matches!(client.dir(missing), Err(FetchError::NotFound(_))));

    let bad_part = RunKey {
        job: 7,
        partition: 5,
        task: 0,
    };
    assert!(matches!(client.dir(bad_part), Err(FetchError::NotFound(_))));

    let key = RunKey {
        job: 7,
        partition: 0,
        task: 0,
    };
    // Straddles the run boundary at offset 10: not within any single run.
    assert!(matches!(
        client.fetch(key, 5, 10),
        Err(FetchError::Server(_))
    ));
    // Past the end of the file.
    assert!(matches!(
        client.fetch(key, 30, 20),
        Err(FetchError::Server(_))
    ));
    // Inside the overflowing run's nominal extent: no servable bytes,
    // and no connection thread lost to an arithmetic panic.
    let overflowing = RunKey {
        partition: 1,
        ..key
    };
    assert!(matches!(
        client.fetch(overflowing, u64::MAX - 3, 2),
        Err(FetchError::Server(_))
    ));
    // Definitive errors must not burn retries.
    assert_eq!(client.stats().retries, 0);
}

#[test]
fn empty_task_serves_an_empty_dir_not_notfound() {
    let registry = Arc::new(Registry::new());
    registry.publish(
        3,
        0,
        PublishedTask {
            file: None,
            parts: vec![Vec::new(), Vec::new()],
        },
    );
    let server = RunServer::bind_tcp(registry, FaultConfig::default()).expect("bind");
    let mut client = FetchClient::new(server.addr(), tight_config());
    let specs = client
        .dir(RunKey {
            job: 3,
            partition: 1,
            task: 0,
        })
        .expect("empty dir");
    assert!(specs.is_empty());
}

/// Raw-socket abuse: truncated frames and corrupt length prefixes must
/// not wedge the server — a well-formed client on a fresh connection
/// still gets served afterwards.
#[test]
fn malformed_frames_cost_one_connection_not_the_server() {
    let (registry, _dir) = registry_with(PAYLOAD, two_run_parts());
    let server = RunServer::bind_tcp(registry, FaultConfig::default()).expect("bind");
    let addr = server.addr();

    // Length prefix far beyond MAX_REQUEST_FRAME.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&u32::MAX.to_le_bytes()).expect("write");
        let mut buf = [0u8; 16];
        // Server hangs up without replying.
        assert_eq!(raw.read(&mut buf).expect("read"), 0);
    }
    // Truncated frame: claims 64 bytes, sends 3, then closes.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&64u32.to_le_bytes()).expect("write");
        raw.write_all(b"abc").expect("write");
        drop(raw);
    }
    // Well-formed garbage payload: decodes to no request → BadRequest.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        raw.write_all(&4u32.to_le_bytes()).expect("write");
        raw.write_all(b"\xffJNK").expect("write");
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).expect("status frame");
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        raw.read_exact(&mut body).expect("status body");
        // ST_BAD_REQUEST on the wire.
        assert_eq!(body, [3]);
    }

    // The server is still healthy.
    let mut client = FetchClient::new(server.addr(), tight_config());
    let bytes = client
        .fetch(
            RunKey {
                job: 7,
                partition: 0,
                task: 0,
            },
            0,
            10,
        )
        .expect("server survived the abuse");
    assert_eq!(bytes, &PAYLOAD[..10]);
}

#[test]
fn dead_server_exhausts_the_retry_budget_in_bounded_time() {
    // Bind, learn the address, then shut down: connects get refused.
    let registry = Arc::new(Registry::new());
    let mut server = RunServer::bind_tcp(registry, FaultConfig::default()).expect("bind");
    let addr = server.addr();
    server.shutdown();

    let config = tight_config();
    let mut client = FetchClient::new(addr, config);
    let started = Instant::now();
    let err = client
        .dir(RunKey {
            job: 1,
            partition: 0,
            task: 0,
        })
        .expect_err("server is gone");
    match err {
        FetchError::Exhausted { attempts, .. } => {
            assert_eq!(attempts, config.retry_budget + 1)
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    assert_eq!(client.stats().retries, u64::from(config.retry_budget));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "failure must be bounded, took {:?}",
        started.elapsed()
    );
}

#[test]
fn injected_drops_are_retried_and_data_is_intact() {
    let (registry, _dir) = registry_with(PAYLOAD, two_run_parts());
    // Drop every 2nd request: every other attempt loses its connection.
    let faults = FaultConfig {
        drop_nth: 2,
        stall_us: 0,
        seed: 1,
    };
    let server = RunServer::bind_tcp(registry, faults).expect("bind");
    let mut client = FetchClient::new(server.addr(), tight_config());

    let key = RunKey {
        job: 7,
        partition: 0,
        task: 0,
    };
    let specs = client.dir(key).expect("dir despite drops");
    let mut fetched = Vec::new();
    for spec in &specs {
        fetched.extend(client.fetch(key, spec.offset, spec.bytes).expect("fetch"));
    }
    assert_eq!(fetched, PAYLOAD, "faults must never corrupt data");
    assert!(
        client.stats().retries > 0,
        "a 1-in-2 drop rate must force at least one retry"
    );
}

#[test]
fn stall_past_the_deadline_times_out_within_budgeted_attempts() {
    let (registry, _dir) = registry_with(PAYLOAD, two_run_parts());
    // Stall each request 300ms against a 100ms deadline: every attempt
    // times out.
    let faults = FaultConfig {
        drop_nth: 0,
        stall_us: 300_000,
        seed: 0,
    };
    let server = RunServer::bind_tcp(registry, faults).expect("bind");
    let config = FetchConfig {
        request_timeout: Duration::from_millis(100),
        retry_budget: 1,
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_millis(1),
        ..FetchConfig::default()
    };
    let mut client = FetchClient::new(server.addr(), config);
    let started = Instant::now();
    let err = client
        .dir(RunKey {
            job: 7,
            partition: 0,
            task: 0,
        })
        .expect_err("every attempt stalls past the deadline");
    assert!(matches!(
        err,
        FetchError::Exhausted { attempts: 2, last } if matches!(*last, FetchError::Timeout)
    ));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeouts must bound the stall, took {:?}",
        started.elapsed()
    );
}

#[test]
fn concurrent_clients_share_one_server() {
    let (registry, _dir) = registry_with(PAYLOAD, two_run_parts());
    let server = RunServer::bind_tcp(registry, FaultConfig::default()).expect("bind");
    let addr = server.addr();
    let key = RunKey {
        job: 7,
        partition: 0,
        task: 0,
    };
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = FetchClient::new(addr, tight_config());
                let specs = client.dir(key).expect("dir");
                let mut out = Vec::new();
                for spec in specs {
                    out.extend(client.fetch(key, spec.offset, spec.bytes).expect("fetch"));
                }
                out
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().expect("no panics"), PAYLOAD);
    }
}
