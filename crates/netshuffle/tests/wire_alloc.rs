//! The length-prefix attack, refused before allocation: a peer sends
//! `len = u32::MAX` (or a count that large) and the reader must not
//! allocate it. This binary's global allocator refuses any single
//! allocation above [`CAP`], so a reader that trusts a forged length
//! aborts the whole binary instead of passing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;

use tsj_netshuffle::protocol::{
    read_frame, FetchRange, Request, Response, RunSpec, MAX_FETCH_RANGES, MAX_REQUEST_FRAME,
    MAX_RESPONSE_FRAME,
};

/// Twice the largest frame any reader may accept.
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

/// A frame whose prefix claims `len` bytes, followed by a few.
fn forged_frame(len: u32) -> Vec<u8> {
    let mut bytes = len.to_le_bytes().to_vec();
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
fn read_frame_refuses_forged_lengths_at_both_limits() {
    for max in [MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME] {
        let max_u32 = u32::try_from(max).unwrap();
        for len in [max_u32 + 1, u32::MAX] {
            let err = read_frame(&mut forged_frame(len).as_slice(), max).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "len {len}, max {max}");
        }
    }
}

#[test]
fn request_decode_refuses_forged_range_counts() {
    let fetch = Request::Fetch {
        job: 1,
        partition: 2,
        ranges: vec![FetchRange {
            task: 3,
            offset: 0,
            len: 8,
        }],
    };
    let max_ranges = u32::try_from(MAX_FETCH_RANGES).unwrap();
    for count in [max_ranges + 1, u32::MAX] {
        let mut payload = fetch.encode();
        // op:u8 job:u64 partition:u32, then the count.
        payload[13..17].copy_from_slice(&count.to_le_bytes());
        assert_eq!(Request::decode(&payload), None, "count {count}");
    }
}

#[test]
fn response_decode_refuses_forged_dir_counts() {
    let spec = RunSpec {
        offset: 0,
        bytes: 8,
        records: 1,
    };
    for count in [2, u32::MAX] {
        let mut payload = Response::Dir(vec![spec]).encode();
        payload[..4].copy_from_slice(&count.to_le_bytes());
        assert_eq!(Response::decode(payload), None, "count {count}");
    }
}
