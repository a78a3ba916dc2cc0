//! The length-prefix attack on the spill-run format, refused before
//! allocation: a run whose varint lengths or counts are forged must be
//! rejected as corrupt, never allocated. This binary's global allocator
//! refuses any single allocation above [`CAP`], so a decoder that trusts
//! a forged length aborts the whole binary instead of passing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::sync::Arc;

use tsj_mapreduce::{write_varint, RunMeta, RunReader, Spill, SpillError};
use tsj_netshuffle::protocol::MAX_RESPONSE_FRAME;

mod helpers;

/// Twice the largest frame a run-server client accepts.
const CAP: usize = 2 * MAX_RESPONSE_FRAME;

struct Capped;

// SAFETY: every call is forwarded to `System` unchanged, except that an
// allocation above `CAP` returns null, which `GlobalAlloc` permits for a
// request it cannot satisfy.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Capped = Capped;

/// Lengths and counts far above the cap but below `isize::MAX` bytes, so
/// trusting one is an allocation request, not a capacity-overflow panic.
const FORGED: [u64; 2] = [1 << 30, 1 << 40];

/// A varint claiming `n`, followed by a few bytes of payload.
fn forged(n: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_varint(&mut bytes, n);
    bytes.extend_from_slice(b"short");
    bytes
}

#[test]
fn the_cap_is_in_force() {
    let mut v: Vec<u8> = Vec::new();
    assert!(v.try_reserve_exact(CAP + 1).is_err());
    assert!(v.try_reserve_exact(CAP).is_ok());
}

#[test]
fn restore_refuses_forged_lengths_and_counts() {
    for n in FORGED {
        let bytes = forged(n);
        assert!(String::restore(&mut bytes.as_slice()).is_none(), "len {n}");
        assert!(Vec::<u8>::restore(&mut bytes.as_slice()).is_none(), "{n}");
        assert!(Vec::<u64>::restore(&mut bytes.as_slice()).is_none(), "{n}");
        assert!(
            Vec::<String>::restore(&mut bytes.as_slice()).is_none(),
            "{n}"
        );
    }
}

/// Reads the first record of a one-record run file holding `run`.
fn read_first(dir: &helpers::Dir, run: &[u8]) -> Result<(), SpillError> {
    let path = dir.path().join("forged.run");
    std::fs::write(&path, run).unwrap();
    let meta = RunMeta {
        offset: 0,
        bytes: run.len() as u64,
        records: 1,
    };
    let mut reader = RunReader::new(Arc::new(File::open(&path).unwrap()), meta);
    reader.next::<u64, Vec<u64>>().map(|_| ())
}

#[test]
fn run_reader_refuses_a_forged_frame_length_or_count() {
    let dir = helpers::Dir::new("tsj-wire-alloc");
    for n in FORGED {
        // `[varint frame_len] [varint fp_delta] [K] [V]`, the frame length
        // forged.
        let err = read_first(&dir, &forged(n)).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt(_)),
            "frame len {n}: {err}"
        );
        // A truthful frame length around a forged `Vec` count.
        let mut payload = Vec::new();
        write_varint(&mut payload, 0);
        7u64.spill(&mut payload);
        payload.extend_from_slice(&forged(n));
        let mut run = Vec::new();
        write_varint(&mut run, payload.len() as u64);
        run.extend_from_slice(&payload);
        let err = read_first(&dir, &run).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt(_)), "count {n}: {err}");
    }
}
