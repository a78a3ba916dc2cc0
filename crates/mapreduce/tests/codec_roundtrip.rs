//! Property tests of the `Spill` wire codec — the format every shuffle
//! byte travels in, whether through mapper spill files or the
//! multi-process exchange. Three families:
//!
//! 1. **Roundtrip**: for every codec impl (primitives, tuples, `String`,
//!    `Vec`, `Option`, nested compounds, and the job-specific exemplars
//!    `ChunkRole` / `Replica`), `restore ∘ spill` is the identity and
//!    consumes *exactly* the bytes written — a codec that under- or
//!    over-reads corrupts every frame that follows it in a run.
//! 2. **Truncation**: `restore` on any strict prefix of an encoding
//!    returns `None` (never panics, never fabricates a value).
//! 3. **Frame corruption**: a `RunReader` over a truncated or
//!    length-corrupted run file surfaces a structured
//!    [`SpillError::Corrupt`](tsj_mapreduce::SpillError) (the runtime
//!    converts that into `JobError::Spill`, failing the job while the
//!    process survives) instead of panicking, silently dropping, or
//!    inventing records.

mod helpers;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::string::string_regex;

use tsj_mapreduce::{
    fingerprint64, read_varint, write_varint, RunReader, Spill, SpillError, SpillWriter,
};
use tsj_metricjoin::Replica;
use tsj_passjoin::ChunkRole;

/// Encodes `v`, checks exact-consumption roundtrip, and returns the bytes.
fn roundtrip<T: Spill + PartialEq + std::fmt::Debug>(v: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    v.spill(&mut bytes);
    let mut slice = bytes.as_slice();
    let restored = T::restore(&mut slice);
    assert!(
        restored.as_ref() == Some(v),
        "roundtrip mismatch: {v:?} -> {restored:?}"
    );
    assert!(
        slice.is_empty(),
        "restore of {v:?} left {} unconsumed bytes",
        slice.len()
    );
    bytes
}

/// Every strict prefix of a value's encoding must fail to decode.
fn rejects_all_strict_prefixes<T: Spill + PartialEq + std::fmt::Debug>(v: &T, bytes: &[u8]) {
    for cut in 0..bytes.len() {
        let mut slice = &bytes[..cut];
        assert!(
            T::restore(&mut slice).is_none(),
            "{v:?}: prefix of {cut}/{} bytes decoded to something",
            bytes.len()
        );
    }
}

fn check<T: Spill + PartialEq + std::fmt::Debug>(v: T) {
    let bytes = roundtrip(&v);
    rejects_all_strict_prefixes(&v, &bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn integers_roundtrip(a in 0u64..=u64::MAX, bits in 0u64..=u64::MAX) {
        // (Signed values derive from raw bits: the shim's inclusive-range
        // strategy cannot span all of i64.)
        let b = bits as i64;
        check(a);
        check(b);
        check(a as u8);
        check(a as u16);
        check(a as u32);
        check(a as usize);
        check((a as u128) << 64 | b as u128);
        check(b as i8);
        check(b as i16);
        check(b as i32);
        check(b as i128);
    }

    #[test]
    fn floats_roundtrip_bit_exactly(bits32 in 0u32..=u32::MAX, bits64 in 0u64..=u64::MAX) {
        // Compare bit patterns, not values: NaN payloads must survive the
        // wire too (a reducer must see exactly what the mapper emitted).
        let f = f32::from_bits(bits32);
        let mut bytes = Vec::new();
        f.spill(&mut bytes);
        let mut slice = bytes.as_slice();
        prop_assert_eq!(f32::restore(&mut slice).map(f32::to_bits), Some(bits32));
        prop_assert!(slice.is_empty());

        let d = f64::from_bits(bits64);
        let mut bytes = Vec::new();
        d.spill(&mut bytes);
        let mut slice = bytes.as_slice();
        prop_assert_eq!(f64::restore(&mut slice).map(f64::to_bits), Some(bits64));
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn chars_and_bools_roundtrip(c in 0u32..=0x10FFFF, b in 0u8..=1) {
        if let Some(c) = char::from_u32(c) {
            check(c);
        }
        check(b == 1);
        check(());
    }

    #[test]
    fn strings_roundtrip(s in string_regex("[a-zéß 0-9]{0,40}").unwrap()) {
        check(s);
    }

    #[test]
    fn vecs_and_options_roundtrip(
        v in vec(0u32..1000, 0..20),
        s in string_regex("[a-z]{0,12}").unwrap(),
        some in 0u8..=1,
    ) {
        check(v.clone());
        check(Vec::<u64>::new());
        check(if some == 1 { Some(s.clone()) } else { None });
        check(Option::<u32>::None);
        // Nested compounds: the codecs must compose.
        check(vec![Some((s.clone(), v.clone())), None]);
        check(vec![v.clone(), Vec::new()]);
    }

    #[test]
    fn tuples_roundtrip(
        a in 0u32..=u32::MAX,
        b in 0u64..=u64::MAX,
        s in string_regex("[a-z]{0,9}").unwrap(),
    ) {
        check((a,));
        check((a, b));
        check((a, s.clone(), vec![b]));
        check((a, b, a, b));
    }

    #[test]
    fn varint_roundtrips_and_rejects_prefixes(v in 0u64..=u64::MAX, shift in 0u32..64) {
        // Cover every encoded length: a full-range value plus one shifted
        // down so small (1–2 byte) encodings appear constantly.
        for v in [v, v >> shift] {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, v);
            prop_assert!(bytes.len() <= 10);
            let mut slice = bytes.as_slice();
            prop_assert_eq!(read_varint(&mut slice), Some(v));
            prop_assert!(slice.is_empty(), "varint must consume exactly its encoding");
            // LEB128 self-delimits: every strict prefix still carries a
            // continuation bit and must be rejected, not misread.
            for cut in 0..bytes.len() {
                let mut slice = &bytes[..cut];
                prop_assert_eq!(read_varint(&mut slice), None, "prefix {cut} decoded");
            }
        }
    }

    #[test]
    fn chunk_role_roundtrips(id in 0u32..=u32::MAX, seg in 0u8..=1) {
        let role = if seg == 1 { ChunkRole::Seg(id) } else { ChunkRole::Sub(id) };
        check(role);
    }

    #[test]
    fn replica_roundtrips(sid in 0u32..=u32::MAX, home in 0u32..=u32::MAX, bits in 0u64..=u64::MAX) {
        // Finite distances compare by value (PartialEq), so `check` works
        // whenever the payload is not NaN.
        let dist = f64::from_bits(bits);
        if !dist.is_nan() {
            check(Replica { sid, home, dist_to_centroid: dist });
        } else {
            let r = Replica { sid, home, dist_to_centroid: dist };
            let mut bytes = Vec::new();
            r.spill(&mut bytes);
            let mut slice = bytes.as_slice();
            let back = Replica::restore(&mut slice).expect("NaN distance must still decode");
            prop_assert!(slice.is_empty());
            prop_assert_eq!(back.sid, sid);
            prop_assert_eq!(back.home, home);
            prop_assert_eq!(back.dist_to_centroid.to_bits(), bits);
        }
    }
}

#[test]
fn varint_boundary_values_encode_minimally() {
    for (v, len) in [
        (0u64, 1usize),
        (1, 1),
        (127, 1),
        (128, 2),
        (16_383, 2),
        (16_384, 3),
        (u64::from(u32::MAX), 5),
        (u64::MAX, 10),
    ] {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, v);
        assert_eq!(bytes.len(), len, "encoding length of {v}");
        let mut slice = bytes.as_slice();
        assert_eq!(read_varint(&mut slice), Some(v));
        assert!(slice.is_empty());
    }
}

#[test]
fn varint_rejects_unterminated_and_overflowing_encodings() {
    // Ten continuation bytes: no terminator within the u64 limit.
    let mut slice: &[u8] = &[0x80; 10];
    assert_eq!(read_varint(&mut slice), None);
    // Terminated on the 10th byte but carrying bits beyond 2^64.
    let mut bytes = vec![0xFF; 9];
    bytes.push(0x02);
    let mut slice = bytes.as_slice();
    assert_eq!(read_varint(&mut slice), None);
    // The same 10-byte shape with a valid final bit is the u64::MAX
    // encoding and must decode.
    let mut bytes = vec![0xFF; 9];
    bytes.push(0x01);
    let mut slice = bytes.as_slice();
    assert_eq!(read_varint(&mut slice), Some(u64::MAX));
}

#[test]
fn corrupt_tag_bytes_are_rejected() {
    // bool: only 0 and 1 decode.
    for b in 2u8..=255 {
        let mut slice: &[u8] = &[b];
        assert_eq!(bool::restore(&mut slice), None, "bool tag {b}");
    }
    // Option: only tags 0 and 1.
    let mut slice: &[u8] = &[7, 42, 0, 0, 0];
    assert_eq!(Option::<u32>::restore(&mut slice), None);
    // ChunkRole: only tags 0 and 1.
    let mut slice: &[u8] = &[2, 1, 0, 0, 0];
    assert_eq!(ChunkRole::restore(&mut slice), None);
    // char: surrogates and beyond-max scalar values are invalid.
    for bad in [0xD800u32, 0xDFFF, 0x110000, u32::MAX] {
        let mut bytes = Vec::new();
        bad.spill(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(char::restore(&mut slice), None, "char {bad:#x}");
    }
    // String: invalid UTF-8 payload behind a valid varint length.
    let mut bytes = Vec::new();
    write_varint(&mut bytes, 2);
    bytes.extend_from_slice(&[0xFF, 0xFE]);
    let mut slice = bytes.as_slice();
    assert_eq!(String::restore(&mut slice), None);
}

#[test]
fn corrupt_length_prefixes_are_rejected_without_overallocation() {
    // A length prefix pointing far past the buffer must fail cleanly —
    // and for Vec, without attempting a u64::MAX-element allocation.
    let mut bytes = Vec::new();
    write_varint(&mut bytes, u64::MAX);
    bytes.extend_from_slice(b"tiny");
    let mut slice = bytes.as_slice();
    assert_eq!(String::restore(&mut slice), None);
    let mut slice = bytes.as_slice();
    assert_eq!(Vec::<u8>::restore(&mut slice), None);
    let mut slice = bytes.as_slice();
    assert_eq!(Vec::<u64>::restore(&mut slice), None);
}

/// Writes one run of `(h, u64, String)` records and returns the raw file
/// contents plus a scratch dir to rewrite corrupted variants into.
fn sample_run_file() -> (helpers::Dir, Vec<u8>, tsj_mapreduce::RunMeta) {
    let dir = helpers::Dir::new("tsj-codec-test");
    let path = dir.path().join("run.spill");
    let mut w = SpillWriter::create(path.clone()).unwrap();
    let records: Vec<(u64, u64, String)> = (0..50u64)
        .map(|i| (i, i * 3, format!("value-{i}")))
        .collect();
    let meta = w.write_run(&records).unwrap();
    let (_file, path) = w.into_reader().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (dir, bytes, meta)
}

/// Reads a whole run out of `bytes` written to a fresh file; any record
/// failing to decode surfaces as the run's `Err`.
fn read_run(
    dir: &helpers::Dir,
    name: &str,
    bytes: &[u8],
    meta: tsj_mapreduce::RunMeta,
) -> Result<Vec<(u64, u64, String)>, SpillError> {
    let path = dir.path().join(name);
    std::fs::write(&path, bytes).unwrap();
    let file = std::sync::Arc::new(std::fs::File::open(&path).unwrap());
    let mut reader = RunReader::new(file, meta);
    let mut out = Vec::new();
    while let Some(rec) = reader.next::<u64, String>()? {
        out.push(rec);
    }
    Ok(out)
}

/// The structured rejection every corruption case must produce: a
/// `SpillError::Corrupt` whose message blames the bytes — never a panic,
/// never fabricated records.
fn assert_corrupt(result: Result<Vec<(u64, u64, String)>, SpillError>, what: &str) {
    let err = result.expect_err(&format!("{what} must not read cleanly"));
    assert!(
        matches!(err, SpillError::Corrupt(_)),
        "{what}: expected corruption, got {err}"
    );
    assert!(err.to_string().contains("corrupt"), "{what}: {err}");
}

#[test]
fn run_reader_roundtrips_an_intact_file() {
    let (dir, bytes, meta) = sample_run_file();
    let got = read_run(&dir, "intact.spill", &bytes, meta).unwrap();
    assert_eq!(got.len(), 50);
    assert_eq!(got[7], (7, 21, "value-7".to_owned()));
}

#[test]
fn run_reader_rejects_truncated_frame() {
    let (dir, bytes, meta) = sample_run_file();
    // Chop the file mid-record: the final frame's payload is incomplete.
    let cut = bytes.len() - 5;
    assert_corrupt(
        read_run(&dir, "truncated.spill", &bytes[..cut], meta),
        "truncated run",
    );
}

#[test]
fn run_reader_rejects_every_strict_prefix_of_a_run() {
    // Varint framing self-delimits at every level: however the file is
    // chopped — inside a length varint, a fingerprint delta, a key, or a
    // value — the reader must surface structured corruption, never panic
    // and never fabricate a record.
    let (dir, bytes, meta) = sample_run_file();
    for cut in 0..bytes.len() {
        assert_corrupt(
            read_run(&dir, "prefix.spill", &bytes[..cut], meta),
            &format!("prefix of {cut}/{} bytes", bytes.len()),
        );
    }
}

#[test]
fn run_reader_rejects_corrupt_length_prefix() {
    let (dir, mut bytes, meta) = sample_run_file();
    // Rewrite the first frame's length varint to reach far past the run
    // (a 5-byte encoding of ~2^32; the original frame is < 128 bytes, so
    // the overwritten payload bytes merely shift the corruption point).
    bytes[..5].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
    assert_corrupt(
        read_run(&dir, "badlen.spill", &bytes, meta),
        "corrupt length prefix",
    );
}

#[test]
fn run_reader_rejects_overlong_length_varint() {
    let (dir, mut bytes, meta) = sample_run_file();
    // Ten continuation bytes followed by a terminator: syntactically an
    // 11-byte varint, which no u64 frame length produces.
    bytes[..10].copy_from_slice(&[0x80; 10]);
    assert_corrupt(
        read_run(&dir, "overlong.spill", &bytes, meta),
        "overlong length varint",
    );
}

#[test]
fn run_reader_rejects_a_run_extent_that_overflows() {
    let (dir, bytes, meta) = sample_run_file();
    // `RunReader::new` takes any caller's meta: an `offset + bytes` past
    // u64 is corruption on the first read — not an arithmetic panic
    // (debug) or a wrapped end that reads as a clean empty run (release).
    let meta = tsj_mapreduce::RunMeta {
        offset: u64::MAX - 1,
        ..meta
    };
    assert_corrupt(
        read_run(&dir, "overflow.spill", &bytes, meta),
        "overflowing run extent",
    );
}

/// Like [`sample_run_file`] but with runtime-consistent fingerprints
/// (`h == fingerprint64(key)`), making every frame's layout deterministic:
/// `[len: 1 byte][fp_delta: 1 byte = 0][key: 8 bytes][str_len: 1 byte][str]`.
fn sample_run_file_zero_delta() -> (helpers::Dir, Vec<u8>, tsj_mapreduce::RunMeta) {
    let dir = helpers::Dir::new("tsj-codec-test");
    let path = dir.path().join("run.spill");
    let mut w = SpillWriter::create(path.clone()).unwrap();
    let mut records: Vec<(u64, u64, String)> = (0..50u64)
        .map(|i| (fingerprint64(&(i * 3)), i * 3, format!("value-{i}")))
        .collect();
    records.sort_by_key(|&(h, _, _)| h);
    let meta = w.write_run(&records).unwrap();
    let (_file, path) = w.into_reader().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (dir, bytes, meta)
}

#[test]
fn run_reader_rejects_undecodable_payload() {
    let (dir, mut bytes, meta) = sample_run_file_zero_delta();
    // Keep framing intact but scribble over the first record's String
    // length so the payload no longer decodes as (u64 key, String value):
    // setting str_len to 0x7F starves the String of bytes *within* the
    // frame.
    let str_len_at = 1 + 1 + 8;
    assert!(
        bytes[str_len_at] < 0x10,
        "layout drifted: not a small str_len"
    );
    bytes[str_len_at] = 0x7F;
    let err = read_run(&dir, "badpayload.spill", &bytes, meta)
        .expect_err("undecodable payload must not read cleanly");
    assert!(err.to_string().contains("undecodable"), "{err}");
}

#[test]
fn run_reader_rejects_frame_with_trailing_bytes() {
    let (dir, mut bytes, meta) = sample_run_file_zero_delta();
    // Shrink the first record's String length by one: the payload then
    // decodes but leaves a byte unconsumed inside the frame — the length
    // and the payload disagree, which must read as corruption rather
    // than silently resynchronizing.
    let str_len_at = 1 + 1 + 8;
    bytes[str_len_at] -= 1;
    let err = read_run(&dir, "trailing.spill", &bytes, meta)
        .expect_err("frame with trailing bytes must not read cleanly");
    assert!(err.to_string().contains("trailing"), "{err}");
}

#[test]
fn fingerprint_delta_roundtrips_arbitrary_fingerprints() {
    // The wire fingerprint is keyed to `fingerprint64(key)` (delta 0 for
    // everything the runtime emits), but arbitrary fingerprints must
    // still round-trip exactly — the delta is lossless, not a checksum.
    let dir = helpers::Dir::new("tsj-codec-test");
    let mut w = SpillWriter::create(dir.path().join("fps.spill")).unwrap();
    let records: Vec<(u64, u32, String)> = vec![
        (0, 7, "zero".into()),
        (u64::MAX, 7, "max".into()),
        (fingerprint64(&7u32), 7, "native".into()),
        (0x0123_4567_89AB_CDEF, 9, "arbitrary".into()),
    ];
    let meta = w.write_run(&records).unwrap();
    let (file, _path) = w.into_reader().unwrap();
    let mut r = RunReader::new(file, meta);
    let mut got = Vec::new();
    while let Some(rec) = r.next::<u32, String>().unwrap() {
        got.push(rec);
    }
    assert_eq!(got, records);
}

#[test]
fn native_fingerprints_cost_one_wire_byte() {
    // Two identical runs, one with emitter-style fingerprints and one
    // with arbitrary ones: the native run must frame each fingerprint in
    // a single byte (delta 0), the arbitrary run pays the full varint.
    let dir = helpers::Dir::new("tsj-codec-test");
    let native: Vec<(u64, u64, String)> = (0..100u64)
        .map(|i| (fingerprint64(&i), i, "v".into()))
        .collect();
    let arbitrary: Vec<(u64, u64, String)> =
        (0..100u64).map(|i| (u64::MAX - i, i, "v".into())).collect();
    let mut wn = SpillWriter::create(dir.path().join("native.spill")).unwrap();
    let mn = wn.write_run(&native).unwrap();
    let mut wa = SpillWriter::create(dir.path().join("arbitrary.spill")).unwrap();
    let ma = wa.write_run(&arbitrary).unwrap();
    // Native: 1 (len) + 1 (delta) + 8 (key) + 2 (string) = 12 B/record.
    assert_eq!(mn.bytes, 12 * 100, "native-fingerprint framing");
    // Arbitrary deltas are full-entropy 64-bit values: 9–10 byte varints.
    assert!(
        ma.bytes > mn.bytes + 7 * 100,
        "arbitrary fps must cost more"
    );
}
