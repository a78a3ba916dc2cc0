//! The reduce side of the shuffle: a streaming k-way sort-merge over a
//! partition's segments.
//!
//! A reduce partition's input arrives as *segments*: the in-memory buffers
//! of map tasks that never spilled, plus zero or more sorted runs in the
//! map tasks' run files (see [`crate::spill`]), each read where it already
//! is — a local file, or the stage's run server under the remote
//! transport ([`crate::transport`]), through one connection per reduce
//! task, which fetches the first buffer of every run it opens in a few
//! vectored requests. Every partition, under every transport and shuffle bound, is
//! reduced by merging all its segments in key-fingerprint order — the
//! external-sort discipline real MapReduce reducers use — so a spilled
//! partition is never materialized: at any moment the reducer holds one
//! read buffer per open run, the in-memory segments, and the value run of
//! the single key being reduced. Adjacent in-memory segments are
//! concatenated and sorted as one block, which yields the same record
//! order as merging them one by one.
//!
//! # Bounded fan-in
//!
//! With an unbounded merge, pathologically tiny spill thresholds mean one
//! open run (file-handle + read buffer) per spilled run. A
//! [`ShuffleConfig::merge_fan_in`](crate::shuffle::ShuffleConfig) caps
//! that: when a partition has more segments than the cap (a block of
//! adjacent in-memory segments counts as one, so an all-memory partition
//! is never pre-merged), `merge_segments_capped` first runs *pre-merge
//! passes* that fold consecutive chunks of at most `fan_in` segments into
//! single sorted runs in a per-reduce-task scratch file, then
//! k-way-merges the survivors.
//! Chunks are consecutive in segment order and the pre-merge preserves
//! `(fingerprint, within-chunk segment index)` order, so the final merge
//! sees records in exactly the order the flat merge would — the grouping,
//! group order, and therefore job output are *identical* with and without
//! the cap.
//!
//! Group order is one rule everywhere: ascending key fingerprint, with
//! distinct keys that share a fingerprint in first-occurrence order within
//! the merged run.

use std::collections::BinaryHeap;
use std::hash::Hash;
use std::path::PathBuf;

use tsj_netshuffle::FetchStats;

use crate::shuffle::{for_each_key_group, ShuffleRecord};
use crate::spill::{
    prefetch, RunMeta, RunReader, RunSource, SharedFetchClient, Spill, SpillError, SpillWriter,
};

/// One input segment of a reduce partition.
#[derive(Debug)]
pub(crate) enum Segment<K, V> {
    /// A map task's in-memory records for this partition (any order; the
    /// merge sorts them stably by fingerprint first).
    Mem(Vec<ShuffleRecord<K, V>>),
    /// One sorted run of a map task's run file (or of a merge scratch
    /// file), wherever its bytes live.
    Spilled { source: RunSource, meta: RunMeta },
}

/// Concatenates every block of adjacent [`Segment::Mem`]s into one, in
/// segment order. A stable sort of the block then yields the same
/// `(fingerprint, segment index, position)` order the heap would, with one
/// stream instead of several.
fn coalesce_mem<K, V>(segments: Vec<Segment<K, V>>) -> Vec<Segment<K, V>> {
    let mut out = Vec::with_capacity(segments.len());
    let mut block: Vec<Vec<ShuffleRecord<K, V>>> = Vec::new();
    let end_block = |block: &mut Vec<Vec<ShuffleRecord<K, V>>>, out: &mut Vec<Segment<K, V>>| {
        if block.len() > 1 {
            let mut records = Vec::with_capacity(block.iter().map(Vec::len).sum());
            for part in block.drain(..) {
                records.extend(part);
            }
            out.push(Segment::Mem(records));
        } else if let Some(records) = block.pop() {
            out.push(Segment::Mem(records));
        }
    };
    for segment in segments {
        match segment {
            Segment::Mem(records) => block.push(records),
            spilled => {
                end_block(&mut block, &mut out);
                out.push(spilled);
            }
        }
    }
    end_block(&mut block, &mut out);
    out
}

/// A sorted record source being merged: an in-memory segment or a
/// streaming spill-run reader.
enum Stream<K, V> {
    Mem(std::vec::IntoIter<ShuffleRecord<K, V>>),
    Run(RunReader),
}

impl<K: Spill + Hash, V: Spill> Stream<K, V> {
    fn next(&mut self) -> Result<Option<ShuffleRecord<K, V>>, SpillError> {
        match self {
            Stream::Mem(it) => Ok(it.next()),
            Stream::Run(r) => r.next(),
        }
    }
}

/// Turns segments into sorted record streams (in-memory segments are
/// sorted stably here; spilled runs were sorted at write time). Remote
/// runs all read through `client`, the reduce task's one connection, and
/// are prefetched together, so their first buffers cost a few vectored
/// requests rather than one request each.
fn make_streams<K: Spill + Hash, V: Spill>(
    segments: Vec<Segment<K, V>>,
    client: &mut Option<SharedFetchClient>,
) -> Result<Vec<Stream<K, V>>, SpillError> {
    let mut streams: Vec<Stream<K, V>> = segments
        .into_iter()
        .map(|seg| match seg {
            Segment::Mem(mut records) => {
                // Stable: a key's values keep their within-segment order.
                records.sort_by_key(|(h, _, _)| *h);
                Stream::Mem(records.into_iter())
            }
            Segment::Spilled { source, meta } => Stream::Run(RunReader::open(source, meta, client)),
        })
        .collect();
    let readers = streams.iter_mut().filter_map(|stream| match stream {
        Stream::Run(reader) => Some(reader),
        Stream::Mem(_) => None,
    });
    prefetch(client, readers)?;
    Ok(streams)
}

/// The raw k-way merge: drains `streams` in `(fingerprint, stream index)`
/// order, handing every record to `on_record`. Shared by the grouping
/// merge below and the hierarchical pre-merge passes (which write the
/// records back out as one longer sorted run). Short-circuits on the
/// first read or callback failure.
fn merge_streams<K, V, F>(
    mut streams: Vec<Stream<K, V>>,
    mut on_record: F,
) -> Result<(), SpillError>
where
    K: Spill + Hash,
    V: Spill,
    F: FnMut(ShuffleRecord<K, V>) -> Result<(), SpillError>,
{
    if let [stream] = &mut streams[..] {
        // One sorted stream (e.g. an all-memory partition): nothing to
        // interleave.
        while let Some(record) = stream.next()? {
            on_record(record)?;
        }
        return Ok(());
    }
    // One lookahead record per stream, held in the heap itself.
    let mut heap = BinaryHeap::with_capacity(streams.len());
    for (i, stream) in streams.iter_mut().enumerate() {
        if let Some(record) = stream.next()? {
            heap.push(Head(record, i));
        }
    }
    while let Some(Head(record, i)) = heap.pop() {
        if let Some(next) = streams[i].next()? {
            debug_assert!(next.0 >= record.0, "segment not sorted by fingerprint");
            heap.push(Head(next, i));
        }
        on_record(record)?;
    }
    Ok(())
}

/// A stream's lookahead record and the stream's index. The merge heap
/// pops the smallest `(fingerprint, stream index)` first, so
/// equal-fingerprint records drain stream by stream in segment order.
struct Head<K, V>(ShuffleRecord<K, V>, usize);

impl<K, V> Ord for Head<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0 .0, other.1).cmp(&(self.0 .0, self.1))
    }
}

impl<K, V> PartialOrd for Head<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K, V> PartialEq for Head<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<K, V> Eq for Head<K, V> {}

/// Merges `segments` in `(fingerprint, segment index)` order and invokes
/// `each_group` exactly once per distinct key with that key's full value
/// run. Keys sharing a fingerprint (collisions) are separated by full key
/// equality, first-occurrence order within the merged fingerprint run.
///
/// Segment order is the caller's (map-task order, spill runs before the
/// task's in-memory leftover), so the grouping — and therefore job output
/// — is a pure function of the data and the partition count, independent
/// of thread scheduling.
///
/// (The runtime always goes through [`merge_segments_capped`]; this flat
/// entry point remains as the reference the capped merge is tested
/// against.)
#[cfg(test)]
pub(crate) fn merge_segments<K, V, F>(
    segments: Vec<Segment<K, V>>,
    mut each_group: F,
) -> Result<(), SpillError>
where
    K: Spill + Eq + Hash,
    V: Spill,
    F: FnMut(K, Vec<V>),
{
    merge_segments_capped(segments, None, None, |k, vs| {
        each_group(k, vs);
        Ok(())
    })
    .map(|_| ())
}

/// What a merge did beyond streaming local runs: pre-merge passes run and
/// scratch bytes written (each scratch byte is also read back by the next
/// pass or the final merge, so the cost model charges both directions,
/// like mapper spill I/O), and what its fetch client observed reading
/// remote runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MergeEffort {
    pub(crate) passes: u64,
    pub(crate) scratch_bytes: u64,
    pub(crate) fetch: FetchStats,
}

/// [`merge_segments`] with a fan-in cap: when `fan_in` is set and
/// `segments` exceeds it (a block of adjacent in-memory segments counts as
/// one), consecutive chunks of at most `fan_in` segments are pre-merged
/// into single sorted runs in `scratch_file` (hierarchical external
/// merge) until at most `fan_in` runs remain, then the survivors
/// are merged with full grouping. Grouping and group order are identical
/// to the flat merge (see the module docs). Returns the pre-merge effort
/// ([`MergeEffort::default`] = the flat path).
///
/// A `fan_in` below 2 is treated as 2 (a 1-way "merge" would never shrink
/// the run count). Without a `scratch_file` the cap is ignored.
///
/// Short-circuits with a [`SpillError`] when a run read, a scratch-file
/// write, or `each_group` itself fails — the job path converts that into
/// [`JobError::Spill`](crate::job::JobError) instead of panicking.
pub(crate) fn merge_segments_capped<K, V, F>(
    segments: Vec<Segment<K, V>>,
    fan_in: Option<usize>,
    scratch_file: Option<PathBuf>,
    mut each_group: F,
) -> Result<MergeEffort, SpillError>
where
    K: Spill + Eq + Hash,
    V: Spill,
    F: FnMut(K, Vec<V>) -> Result<(), SpillError>,
{
    let mut segments = coalesce_mem(segments);
    let mut effort = MergeEffort::default();
    let mut client: Option<SharedFetchClient> = None;
    if let (Some(cap), Some(scratch)) = (fan_in, scratch_file) {
        let cap = cap.max(2);
        while segments.len() > cap {
            effort.passes += 1;
            // Each pass gets its own scratch file: the previous pass's
            // runs are still being read while the next pass writes.
            let path = scratch.with_extension(format!("pass{}", effort.passes));
            let mut writer = SpillWriter::create(path)?;
            let mut metas: Vec<RunMeta> = Vec::new();
            let mut chunks = segments.into_iter().peekable();
            while chunks.peek().is_some() {
                let chunk: Vec<Segment<K, V>> = chunks.by_ref().take(cap).collect();
                let offset = writer.offset();
                let mut records = 0u64;
                merge_streams(make_streams(chunk, &mut client)?, |(h, k, v)| {
                    writer.write_record(h, &k, &v)?;
                    records += 1;
                    Ok(())
                })?;
                metas.push(RunMeta {
                    offset,
                    bytes: writer.offset() - offset,
                    records,
                });
            }
            effort.scratch_bytes += writer.bytes();
            let source = RunSource::Local(writer.into_reader()?.0);
            segments = metas
                .into_iter()
                .map(|meta| Segment::Spilled {
                    source: source.clone(),
                    meta,
                })
                .collect();
        }
    }

    let mut run: Vec<(K, V)> = Vec::new(); // records of the current fingerprint
    let mut run_h = 0u64;
    merge_streams(make_streams(segments, &mut client)?, |(h, key, value)| {
        if h != run_h && !run.is_empty() {
            // The shared helper applies the same collision-grouping
            // discipline as the map-side combine (full key equality,
            // first-occurrence order within the fingerprint run).
            for_each_key_group(&mut run, &mut each_group)?;
        }
        run_h = h;
        run.push((key, value));
        Ok(())
    })?;
    for_each_key_group(&mut run, &mut each_group)?;
    if let Some(client) = client {
        effort.fetch = client.borrow().stats();
    }
    Ok(effort)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests make their scratch dirs under the system temp dir"
)]
mod tests {
    use super::*;
    use crate::spill::{create_job_spill_dir, SpillDirGuard, SpillWriter};
    use std::sync::Arc;

    /// Runs the merge and collects `(key, values)` groups in call order.
    fn collect<K: Spill + Eq + Hash, V: Spill>(segments: Vec<Segment<K, V>>) -> Vec<(K, Vec<V>)> {
        let mut got = Vec::new();
        merge_segments(segments, |k, vs| got.push((k, vs))).unwrap();
        got
    }

    #[test]
    fn merges_mem_segments_in_fingerprint_order() {
        let a: Vec<ShuffleRecord<u32, u32>> = vec![(5, 50, 1), (2, 20, 1), (9, 90, 1)];
        let b: Vec<ShuffleRecord<u32, u32>> = vec![(2, 20, 2), (7, 70, 2)];
        let got = collect(vec![Segment::Mem(a), Segment::Mem(b)]);
        assert_eq!(
            got,
            vec![
                (20, vec![1, 2]), // segment order: a's value before b's
                (50, vec![1]),
                (70, vec![2]),
                (90, vec![1]),
            ]
        );
    }

    #[test]
    fn collisions_group_by_full_key_in_first_occurrence_order() {
        // Three distinct keys share fingerprint 4 across two segments.
        let a: Vec<ShuffleRecord<u32, u32>> = vec![(4, 1, 10), (4, 2, 20), (4, 1, 11)];
        let b: Vec<ShuffleRecord<u32, u32>> = vec![(4, 3, 30), (4, 2, 21)];
        let got = collect(vec![Segment::Mem(a), Segment::Mem(b)]);
        assert_eq!(
            got,
            vec![(1, vec![10, 11]), (2, vec![20, 21]), (3, vec![30]),]
        );
    }

    #[test]
    fn merges_spilled_runs_with_mem_segments() {
        let dir = create_job_spill_dir(&std::env::temp_dir()).unwrap();
        let _guard = SpillDirGuard(dir.clone());
        let mut w = SpillWriter::create(dir.join("task0.spill")).unwrap();
        let run1: Vec<ShuffleRecord<u64, u64>> = vec![(1, 100, 1), (3, 300, 1), (3, 300, 2)];
        let run2: Vec<ShuffleRecord<u64, u64>> = vec![(2, 200, 1), (3, 300, 3)];
        let m1 = w.write_run(&run1).unwrap();
        let m2 = w.write_run(&run2).unwrap();
        let (file, _) = w.into_reader().unwrap();

        let mem: Vec<ShuffleRecord<u64, u64>> = vec![(4, 400, 9), (1, 100, 7)];
        let got = collect(vec![
            Segment::Spilled {
                source: RunSource::Local(Arc::clone(&file)),
                meta: m1,
            },
            Segment::Spilled {
                source: RunSource::Local(file),
                meta: m2,
            },
            Segment::Mem(mem),
        ]);
        assert_eq!(
            got,
            vec![
                (100, vec![1, 7]), // spilled run first (lower segment index)
                (200, vec![1]),
                (300, vec![1, 2, 3]),
                (400, vec![9]),
            ]
        );
    }

    #[test]
    fn empty_and_single_segment_edge_cases() {
        assert!(collect(Vec::<Segment<u32, u32>>::new()).is_empty());
        assert!(collect(vec![Segment::Mem(Vec::<ShuffleRecord<u32, u32>>::new())]).is_empty());
        let got = collect(vec![Segment::Mem(vec![(1u64, 1u32, 2u32)])]);
        assert_eq!(got, vec![(1, vec![2])]);
    }

    /// Builds `n` single-record spilled runs plus two mem segments, so a
    /// capped merge has plenty of fan-in pressure.
    fn many_run_segments(n: u64) -> (Vec<Segment<u64, u64>>, SpillDirGuard) {
        let dir = create_job_spill_dir(&std::env::temp_dir()).unwrap();
        let guard = SpillDirGuard(dir.clone());
        let mut w = SpillWriter::create(dir.join("task0.spill")).unwrap();
        let mut metas = Vec::new();
        for i in 0..n {
            // Deliberately overlapping fingerprints across runs.
            let run: Vec<ShuffleRecord<u64, u64>> = vec![(i % 7, i % 7, i)];
            metas.push(w.write_run(&run).unwrap());
        }
        let (file, _) = w.into_reader().unwrap();
        let mut segments: Vec<Segment<u64, u64>> = metas
            .into_iter()
            .map(|meta| Segment::Spilled {
                source: RunSource::Local(Arc::clone(&file)),
                meta,
            })
            .collect();
        segments.push(Segment::Mem(vec![(3, 3, 900), (11, 11, 901)]));
        segments.push(Segment::Mem(vec![(0, 0, 902)]));
        (segments, guard)
    }

    #[test]
    fn capped_merge_is_identical_to_flat_merge() {
        let (flat_segments, _g1) = many_run_segments(23);
        let flat = collect(flat_segments);
        for cap in [2usize, 3, 5, 24] {
            let (segments, guard) = many_run_segments(23);
            let mut got = Vec::new();
            let effort = merge_segments_capped(
                segments,
                Some(cap),
                Some(guard.0.join("reduce0.merge")),
                |k, vs| {
                    got.push((k, vs));
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(got, flat, "cap {cap}");
            // 23 runs + the fixture's two trailing in-memory segments,
            // which form one block: 24 segments count against the cap.
            if cap < 24 {
                assert!(effort.passes > 0, "cap {cap} must trigger pre-merge passes");
                assert!(
                    effort.scratch_bytes > 0,
                    "pre-merge passes must report scratch I/O"
                );
            }
        }
    }

    #[test]
    fn interleaved_mem_and_runs_match_a_stable_sort_oracle() {
        // Keys 0..20 on five fingerprints, so every fingerprint run holds
        // colliding keys; in-memory segments are unsorted, runs sorted.
        let dir = create_job_spill_dir(&std::env::temp_dir()).unwrap();
        let guard = SpillDirGuard(dir.clone());
        let mut w = SpillWriter::create(dir.join("task0.spill")).unwrap();
        let mut x = 11u64;
        let mut layout: Vec<(bool, Vec<ShuffleRecord<u64, u64>>)> = Vec::new();
        for (s, spilled) in [false, false, true, false, true, true, false, false]
            .into_iter()
            .enumerate()
        {
            let mut records: Vec<ShuffleRecord<u64, u64>> = (0..30u64)
                .map(|i| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (x >> 33) % 20;
                    (key % 5, key, s as u64 * 100 + i)
                })
                .collect();
            if spilled {
                records.sort_by_key(|(h, _, _)| *h);
            }
            layout.push((spilled, records));
        }
        // Oracle: every record tagged (fingerprint, segment, position) in a
        // segment's own order (a run's is its sorted order), stably
        // sorted, then split into fingerprint runs grouped by full key in
        // first-occurrence order.
        let mut all: Vec<ShuffleRecord<u64, u64>> =
            layout.iter().flat_map(|(_, r)| r.clone()).collect();
        all.sort_by_key(|(h, _, _)| *h);
        let mut want: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut run_start = 0;
        for (i, (h, key, value)) in all.iter().enumerate() {
            if i > 0 && all[i - 1].0 != *h {
                run_start = want.len();
            }
            match want[run_start..].iter_mut().find(|(k, _)| k == key) {
                Some((_, values)) => values.push(*value),
                None => want.push((*key, vec![*value])),
            }
        }
        let metas: Vec<Option<RunMeta>> = layout
            .iter()
            .map(|(spilled, r)| spilled.then(|| w.write_run(r).unwrap()))
            .collect();
        let (file, _) = w.into_reader().unwrap();
        let segments = || -> Vec<Segment<u64, u64>> {
            layout
                .iter()
                .zip(&metas)
                .map(|((_, records), meta)| match meta {
                    Some(meta) => Segment::Spilled {
                        source: RunSource::Local(Arc::clone(&file)),
                        meta: *meta,
                    },
                    None => Segment::Mem(records.clone()),
                })
                .collect()
        };
        assert_eq!(collect(segments()), want, "flat");
        let mut got = Vec::new();
        let effort = merge_segments_capped(
            segments(),
            Some(2),
            Some(guard.0.join("reduce0.merge")),
            |k, vs| {
                got.push((k, vs));
                Ok(())
            },
        )
        .unwrap();
        assert!(effort.passes > 0);
        assert_eq!(got, want, "fan-in 2");
    }

    #[test]
    fn all_mem_partition_is_never_pre_merged() {
        let segments = || -> Vec<Segment<u64, u64>> {
            (0..5u64)
                .map(|s| Segment::Mem((0..9).map(|i| (i % 4, i % 4, s * 10 + i)).collect()))
                .collect()
        };
        let flat = collect(segments());
        let dir = create_job_spill_dir(&std::env::temp_dir()).unwrap();
        let guard = SpillDirGuard(dir.clone());
        let mut got = Vec::new();
        let effort = merge_segments_capped(
            segments(),
            Some(2),
            Some(guard.0.join("reduce0.merge")),
            |k, vs| {
                got.push((k, vs));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(effort.passes, 0);
        assert_eq!(effort.scratch_bytes, 0);
        assert!(!guard.0.join("reduce0.pass1").exists());
        assert_eq!(got, flat);
    }

    #[test]
    fn cap_larger_than_segment_count_takes_the_flat_path() {
        let (segments, guard) = many_run_segments(4);
        let mut got = Vec::new();
        let effort = merge_segments_capped(
            segments,
            Some(64),
            Some(guard.0.join("reduce0.merge")),
            |k, vs| {
                got.push((k, vs));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(effort, MergeEffort::default());
        assert!(!got.is_empty());
        // No scratch file materialized on the flat path.
        assert!(!guard.0.join("reduce0.pass1").exists());
    }

    #[test]
    fn degenerate_fan_in_of_one_is_clamped_and_terminates() {
        let (flat_segments, _g1) = many_run_segments(9);
        let flat = collect(flat_segments);
        let (segments, guard) = many_run_segments(9);
        let mut got = Vec::new();
        let effort = merge_segments_capped(
            segments,
            Some(1),
            Some(guard.0.join("reduce0.merge")),
            |k, vs| {
                got.push((k, vs));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got, flat);
        assert!(
            effort.passes >= 2,
            "11 segments at fan-in 2 need multiple passes"
        );
    }

    #[test]
    fn cap_without_scratch_file_falls_back_to_flat_merge() {
        let (flat_segments, _g1) = many_run_segments(6);
        let flat = collect(flat_segments);
        let (segments, _g2) = many_run_segments(6);
        let mut got = Vec::new();
        let effort = merge_segments_capped(segments, Some(2), None, |k, vs| {
            got.push((k, vs));
            Ok(())
        })
        .unwrap();
        assert_eq!(got, flat);
        assert_eq!(effort, MergeEffort::default());
    }

    #[test]
    fn group_multiset_matches_naive_grouping_on_many_segments() {
        // 8 segments × 200 records over 40 keys; merge must produce exactly
        // one group per key with all its values.
        let mut segments = Vec::new();
        let mut expect: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        let mut x = 7u64;
        for s in 0..8u64 {
            let mut seg: Vec<ShuffleRecord<u64, u64>> = Vec::new();
            for i in 0..200u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = x % 40;
                let h = crate::hash::fingerprint64(&key);
                seg.push((h, key, s * 1000 + i));
            }
            segments.push(Segment::Mem(seg));
        }
        for seg in &segments {
            if let Segment::Mem(v) = seg {
                for (_, k, val) in v {
                    expect.entry(*k).or_default().push(*val);
                }
            }
        }
        let got = collect(segments);
        assert_eq!(got.len(), expect.len(), "one group per distinct key");
        for (k, mut vs) in got {
            let mut want = expect.remove(&k).expect("key exists");
            vs.sort_unstable();
            want.sort_unstable();
            assert_eq!(vs, want, "key {k}");
        }
    }
}
